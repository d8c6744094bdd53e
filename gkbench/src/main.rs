//! `gkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last two stdout lines, the
//! corpus identity and the result object.
//!
//! `gkbench compare <before> <after>` reads two saved outputs and
//! prints each metric's ratio; it refuses outputs whose corpus
//! fingerprints differ.
//!
//! `gkbench segment --workload <name> --decisions <n> --cycles <n>
//! --seed <n> --dir <path>` runs one untraced segment and prints its
//! record; the run command starts one such process per segment.

use gkbench::json::Json;
use gkbench::{RunConfig, Workload, WORKLOADS};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("segment") => segment(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gkbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(flag.as_str(), value.as_str());
    }
    Ok(out)
}

fn required<'a>(flags: &HashMap<&str, &'a str>, flag: &str) -> Result<&'a str, String> {
    flags
        .get(flag)
        .copied()
        .ok_or_else(|| format!("{flag} is required"))
}

fn number<T: std::str::FromStr>(flags: &HashMap<&str, &str>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    required(flags, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn workload(flags: &HashMap<&str, &str>) -> Result<Workload, String> {
    let name = required(flags, "--workload")?;
    gkbench::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locating the gkbench binary: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    if let Some(unknown) = flags
        .keys()
        .find(|f| !["--workload", "--seed", "--seconds", "--trace"].contains(f))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    let workload = workload(&flags)?;
    let seconds: u64 = number(&flags, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let cfg = RunConfig {
        workload,
        seed: number(&flags, "--seed")?,
        length: Duration::from_secs(seconds),
        trace,
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"),
        exe: exe()?,
    };
    let report = gkbench::run(&cfg)?;
    println!("{}", report.identity_line());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn segment(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args)?;
    let cfg = RunConfig {
        workload: Workload {
            decisions: number(&flags, "--decisions")?,
            cycles: number(&flags, "--cycles")?,
            ..workload(&flags)?
        },
        seed: number(&flags, "--seed")?,
        length: Duration::ZERO,
        trace: false,
        work_dir: PathBuf::new(),
        exe: exe()?,
    };
    let dir = PathBuf::from(required(&flags, "--dir")?);
    println!("{}", gkbench::run_segment(&cfg, &dir)?.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The last two JSON lines of a saved output: identity, then result.
fn read_output(path: &str) -> Result<(Json, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    match lines.as_slice() {
        [.., id, result] => Ok((Json::parse(id)?, Json::parse(result)?)),
        _ => Err(format!("{path}: no identity and result lines")),
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [before, after] = args else {
        return Err("usage: gkbench compare <before> <after>".into());
    };
    let (id_a, res_a) = read_output(before)?;
    let (id_b, res_b) = read_output(after)?;
    let fp = |id: &Json| {
        id.get("corpus")
            .and_then(|c| c.get("fingerprint"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    if fp(&id_a).is_none() || fp(&id_a) != fp(&id_b) {
        return Err(format!(
            "corpus fingerprints differ ({:?} vs {:?}): results over different inputs are not comparable",
            fp(&id_a),
            fp(&id_b)
        ));
    }
    let metrics = |r: &Json| r.get("metrics").and_then(Json::as_object).cloned();
    let (ma, mb) = (
        metrics(&res_a).ok_or("before: no metrics")?,
        metrics(&res_b).ok_or("after: no metrics")?,
    );
    for (name, a) in &ma {
        let value = |m: &Json| m.get("value").and_then(Json::as_f64);
        let unit = a.get("unit").and_then(Json::as_str).unwrap_or("");
        match (value(a), mb.get(name).and_then(value)) {
            (Some(x), Some(y)) => {
                println!("{name:<36} {x:>14.4} {y:>14.4} {unit:<6} x{:.3}", y / x)
            }
            _ => println!("{name:<36} missing on one side"),
        }
    }
    Ok(ExitCode::SUCCESS)
}
