//! End-to-end GKBMS benchmark.
//!
//! One command loads a seeded `gkbms::synth` corpus into a journaled
//! `Gkbms`, serves it with an in-process `server::Server` on loopback,
//! and drives closed-loop design sessions over the real wire with
//! `server::Client`: no simulated wait, every answer checked. With
//! `--trace 1` it also replays the same op streams in-process with a
//! span around each call into a layer, and reports per-layer numbers.
//! See `NOTES.md` for the workloads and the baseline layer shares.

pub mod corpus;
pub mod json;
pub mod ops;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod wire;

use corpus::Corpus;
use gkbms::Gkbms;
use json::Json;
use ops::{Kind, Role, Script};
use server::{Client, Config, Server};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One traffic mix over one corpus size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Executed decisions in the synth corpus.
    pub decisions: usize,
    /// One closed-loop client per role.
    pub roles: &'static [Role],
    /// Designer cycles per segment: a fixed op budget, so every run
    /// takes the KB through the same sequence of states.
    pub cycles: usize,
}

/// The workloads, as listed in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "write_1k",
        decisions: 1_000,
        roles: &[Role::Designer],
        cycles: DESIGNER_CYCLES,
    },
    Workload {
        name: "mixed_1k",
        decisions: 1_000,
        roles: &[Role::Reader, Role::Designer],
        cycles: DESIGNER_CYCLES,
    },
];

/// Designer cycles per segment. Each cycle adds about 250
/// propositions, so a segment grows the 10^3-decision corpus (~18k
/// propositions) by about a third.
const DESIGNER_CYCLES: usize = 24;

/// The workload named `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Fewest segments of an untraced run. A run repeats segments, each a
/// fresh process with a fresh set-up, server and client threads
/// running the designer's cycle budget, until their session time
/// reaches the run length; `setup_s` is the median of their set-ups
/// and the p50s pool their samples.
const MIN_SEGMENTS: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds the corpus and every session.
    pub seed: u64,
    /// Session time to measure, in whole segments; a traced run
    /// splits it between the wire run and the replay.
    pub length: Duration,
    /// Replay traced and report per-layer metrics instead.
    pub trace: bool,
    /// Scratch directory for journals and span files.
    pub work_dir: PathBuf,
    /// The `gkbench` binary. Each untraced segment runs in a fresh
    /// process of it (`gkbench segment`), so every segment starts from
    /// an empty heap instead of one the earlier segments left behind.
    pub exe: PathBuf,
}

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Seed of the corpus and sessions.
    pub seed: u64,
    /// `History::fingerprint` of the corpus.
    pub fingerprint: u64,
    /// Propositions after set-up.
    pub props: usize,
    /// Ops sent (plus journal entries checked after the run).
    pub attempted: usize,
    /// Failed, refused or wrong ops, plus acknowledged writes missing
    /// after recovery.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// True when every op succeeded and every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The corpus identity line printed before the result.
    pub fn identity_line(&self) -> String {
        format!(
            "{{\"corpus\": {{\"seed\": {}, \"fingerprint\": \"{:016x}\", \"props\": {}}}}}",
            self.seed, self.fingerprint, self.props
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&x.name),
                x.value,
                json::quote(x.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Runs one invocation.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.work_dir.display()))?;
    let kb_dir = cfg.work_dir.join(format!(
        "kb-{}-{}-{}",
        cfg.workload.name,
        cfg.seed,
        std::process::id()
    ));
    let result = if cfg.trace {
        run_traced(cfg, &kb_dir)
    } else {
        run_untraced(cfg, &kb_dir)
    };
    let _ = std::fs::remove_dir_all(&kb_dir);
    result
}

/// A served corpus and how long it took to get to the first HELLO.
struct Served {
    server: Server,
    corpus: Arc<Corpus>,
    wal_start: u64,
    setup: Duration,
}

/// Generates the corpus into a journal at `dir`, binds the server and
/// opens (and closes) a first session.
fn serve(cfg: &RunConfig, dir: &Path) -> Result<Served, String> {
    let started = Instant::now();
    let (g, corpus) = corpus::build(dir, cfg.seed, cfg.workload.decisions)?;
    let wal_start = g.journal().map_or(0, |j| j.wal_byte_len());
    let server =
        Server::bind("127.0.0.1:0", g, Config::default()).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (session, _) = client.hello().map_err(|e| format!("hello: {e}"))?;
    let setup = started.elapsed();
    client.bye(session).map_err(|e| format!("bye: {e}"))?;
    Ok(Served {
        server,
        corpus: Arc::new(corpus),
        wal_start,
        setup,
    })
}

/// One script per role; the designer gets the cycle budget, the
/// reader runs while the designer does.
fn scripts(cfg: &RunConfig, corpus: &Arc<Corpus>) -> Vec<Script> {
    cfg.workload
        .roles
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let budget = (r == Role::Designer).then_some(cfg.workload.cycles);
            Script::new(r, i, cfg.seed, corpus.clone(), budget)
        })
        .collect()
}

/// Runs `segment` until the summed time it reports reaches `length`,
/// and at least `min` times.
fn repeat<T>(
    length: Duration,
    min: usize,
    mut segment: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<Vec<T>, String> {
    let (mut out, mut spent) = (Vec::new(), Duration::ZERO);
    while out.len() < min || spent < length {
        let (t, took) = segment()?;
        out.push(t);
        spent += took;
    }
    Ok(out)
}

fn shutdown(server: Server) -> Result<Gkbms, String> {
    server.shutdown().map_err(|e| format!("shutdown: {e}"))
}

fn report_failures(what: &str, failures: &[String]) {
    for f in failures {
        eprintln!("gkbench: {what}: {f}");
    }
}

/// What one untraced segment measured, as its process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// `History::fingerprint` of the corpus.
    pub fingerprint: u64,
    /// Propositions after set-up.
    pub props: usize,
    /// Corpus generation up to the first HELLO, in seconds.
    pub setup_s: f64,
    /// Session time: first request to last reply, in seconds.
    pub wall_s: f64,
    /// Completed ops per second of active client time, summed over the
    /// clients.
    pub ops_per_s: f64,
    /// Median reference pass during the sessions, in ms.
    pub reference_ms: f64,
    /// Peak resident set size of the segment's process, in MB.
    pub peak_rss_mb: f64,
    /// WAL bytes appended during the sessions.
    pub wal_bytes: u64,
    /// Ops sent.
    pub attempted: usize,
    /// Ops that failed, were refused, or answered wrongly.
    pub failed: usize,
    /// Acknowledged writes.
    pub writes: usize,
    /// Acknowledged writes checked against the recovered journal.
    pub checked: usize,
    /// Of those, the ones missing after recovery.
    pub missing: usize,
    /// Latencies in milliseconds, by op kind.
    pub latencies: BTreeMap<Kind, Vec<f64>>,
}

impl Segment {
    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let mut lat = String::new();
        for (i, (kind, xs)) in self.latencies.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
            let _ = write!(lat, "{sep}\"{}\": [{}]", kind.name(), xs.join(", "));
        }
        format!(
            "{{\"fingerprint\": \"{:016x}\", \"props\": {}, \"setup_s\": {}, \"wall_s\": {}, \
             \"ops_per_s\": {}, \"reference_ms\": {}, \"peak_rss_mb\": {}, \"wal_bytes\": {}, \"attempted\": {}, \"failed\": {}, \
             \"writes\": {}, \"checked\": {}, \"missing\": {}, \"latencies\": {{{lat}}}}}",
            self.fingerprint,
            self.props,
            self.setup_s,
            self.wall_s,
            self.ops_per_s,
            self.reference_ms,
            self.peak_rss_mb,
            self.wal_bytes,
            self.attempted,
            self.failed,
            self.writes,
            self.checked,
            self.missing
        )
    }

    /// Parses a line written by [`Segment::to_json`].
    pub fn from_json(line: &str) -> Result<Segment, String> {
        let j = Json::parse(line)?;
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("segment record: no `{k}`"))
        };
        let fingerprint = j
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("segment record: no `fingerprint`")?;
        let mut latencies = BTreeMap::new();
        let lat = j
            .get("latencies")
            .and_then(Json::as_object)
            .ok_or("segment record: no `latencies`")?;
        for (name, xs) in lat {
            let kind = Kind::ALL
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("segment record: unknown op kind `{name}`"))?;
            let xs = xs
                .as_array()
                .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                .ok_or_else(|| format!("segment record: bad `{name}` latencies"))?;
            latencies.insert(kind, xs);
        }
        Ok(Segment {
            fingerprint,
            props: num("props")? as usize,
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            ops_per_s: num("ops_per_s")?,
            reference_ms: num("reference_ms")?,
            peak_rss_mb: num("peak_rss_mb")?,
            wal_bytes: num("wal_bytes")? as u64,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            writes: num("writes")? as usize,
            checked: num("checked")? as usize,
            missing: num("missing")? as usize,
            latencies,
        })
    }
}

/// Runs one untraced segment in this process: set-up, the sessions,
/// then recovery of the journal at `dir` with every acknowledged write
/// checked.
pub fn run_segment(cfg: &RunConfig, dir: &Path) -> Result<Segment, String> {
    let served = serve(cfg, dir)?;
    let run = wire::run(&served.server, scripts(cfg, &served.corpus))?;
    // Less the designer's reference table, which is the benchmark's.
    let peak_rss_mb = peak_rss_mb()? - reference::TABLE_MB;
    let g = shutdown(served.server)?;
    let wal_bytes = g
        .journal()
        .map_or(0, |j| j.wal_byte_len())
        .saturating_sub(served.wal_start);
    drop(g);
    for c in &run.clients {
        report_failures(c.script.role().name(), &c.failures);
    }
    // Every acknowledged write must come back from the journal.
    let (recovered, _) = Gkbms::recover(dir).map_err(|e| format!("recover: {e}"))?;
    let (mut checked, mut missing) = (0, Vec::new());
    for c in &run.clients {
        let (n, lost) = check_recovered(&recovered, c.script.acked());
        checked += n;
        missing.extend(lost);
    }
    report_failures("recovery", &missing[..missing.len().min(5)]);
    let latencies = Kind::ALL
        .into_iter()
        .map(|k| (k, run.latencies(k)))
        .filter(|(_, xs)| !xs.is_empty())
        .collect();
    Ok(Segment {
        fingerprint: served.corpus.fingerprint,
        props: served.corpus.props,
        setup_s: served.setup.as_secs_f64(),
        wall_s: run.wall.as_secs_f64(),
        ops_per_s: run.ops_per_s(),
        reference_ms: stats::median(&run.reference_ms()).ok_or("no reference pass")?,
        peak_rss_mb,
        wal_bytes,
        attempted: run.attempted(),
        failed: run.failed(),
        writes: run.clients.iter().map(|c| c.writes).sum(),
        checked,
        missing: missing.len(),
        latencies,
    })
}

/// Runs one segment in a fresh `gkbench segment` process and waits for
/// it; its stderr passes through.
fn spawn_segment(cfg: &RunConfig, dir: &Path) -> Result<Segment, String> {
    let out = Command::new(&cfg.exe)
        .arg("segment")
        .args(["--workload", cfg.workload.name])
        .args(["--decisions", &cfg.workload.decisions.to_string()])
        .args(["--cycles", &cfg.workload.cycles.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", cfg.exe.display()))?;
    if !out.status.success() {
        return Err(format!("segment process failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("segment process printed nothing")?;
    Segment::from_json(line)
}

fn run_untraced(cfg: &RunConfig, dir: &Path) -> Result<Report, String> {
    let segments = repeat(cfg.length, MIN_SEGMENTS, || {
        let seg = spawn_segment(cfg, dir)?;
        let wall = Duration::from_secs_f64(seg.wall_s);
        Ok((seg, wall))
    })?;
    eprintln!("gkbench: {} segments", segments.len());
    let first = segments.first().ok_or("no segments")?;
    if segments.iter().any(|s| s.fingerprint != first.fingerprint) {
        return Err("segments ran over different corpora".into());
    }
    // Each segment's times, scaled to the reference host speed (see
    // `reference`); `raw` keeps them as measured.
    let scale = |s: &Segment, raw: bool| {
        if raw {
            1.0
        } else {
            reference::NOMINAL_MS / s.reference_ms
        }
    };
    let latencies = |kind, raw| -> Vec<f64> {
        segments
            .iter()
            .flat_map(|s| {
                let f = scale(s, raw);
                s.latencies
                    .get(&kind)
                    .into_iter()
                    .flatten()
                    .map(move |x| x * f)
            })
            .collect()
    };
    let sum = |f: &dyn Fn(&Segment) -> usize| -> usize { segments.iter().map(f).sum() };
    let writes = sum(&|s| s.writes);
    let wal_bytes: u64 = segments.iter().map(|s| s.wal_bytes).sum();
    let setups: Vec<f64> = segments
        .iter()
        .map(|s| s.setup_s * scale(s, false))
        .collect();
    let throughput: Vec<f64> = segments
        .iter()
        .map(|s| s.ops_per_s / scale(s, false))
        .collect();
    let peak_rss = segments.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max);
    let reference: Vec<f64> = segments.iter().map(|s| s.reference_ms).collect();
    eprintln!(
        "gkbench: reference pass median {:.3} ms over segments (min {:.3}, max {:.3}); \
         times below and in the result are scaled to {} ms",
        stats::median(&reference).unwrap_or(f64::NAN),
        reference.iter().copied().fold(f64::INFINITY, f64::min),
        reference.iter().copied().fold(0.0, f64::max),
        reference::NOMINAL_MS
    );

    let mut metrics = vec![
        metric("setup_s", stats::median(&setups), "s")?,
        metric("ops_per_s", stats::median(&throughput), "1/s")?,
    ];
    for kind in [
        Kind::Ask,
        Kind::Tell,
        Kind::Execute,
        Kind::Untell,
        Kind::Retract,
        Kind::ViewAsk,
        Kind::Recall,
    ] {
        metrics.push(metric(
            &format!("{}_p50_ms", kind.name()),
            stats::median(&latencies(kind, false)),
            "ms",
        )?);
    }
    metrics.push(metric("peak_rss_mb", Some(peak_rss), "MB")?);
    metrics.push(metric(
        "wal_bytes_per_write",
        (writes > 0).then(|| wal_bytes as f64 / writes as f64),
        "B",
    )?);
    // Sample counts and spread, so a reader can judge each p50.
    for kind in Kind::ALL {
        let lat = latencies(kind, false);
        let q = |p| stats::quantile(&lat, p).unwrap_or(f64::NAN);
        eprintln!(
            "gkbench: {:<9} n={:<5} p10={:.3} p25={:.3} p50={:.3} p75={:.3} p90={:.3} ms (raw p50 {:.3})",
            kind.name(),
            lat.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            stats::median(&latencies(kind, true)).unwrap_or(f64::NAN)
        );
    }
    Ok(Report {
        seed: cfg.seed,
        fingerprint: first.fingerprint,
        props: first.props,
        attempted: sum(&|s| s.attempted) + sum(&|s| s.checked),
        failed: sum(&|s| s.failed) + sum(&|s| s.missing),
        metrics,
    })
}

fn run_traced(cfg: &RunConfig, dir: &Path) -> Result<Report, String> {
    // The untraced wire run first: its per-op p50s, throughput and op
    // counts are what the trace is compared with and replays. Each
    // phase gets half the run length, so a traced run costs about what
    // an untraced one does.
    let half = cfg.length / 2;
    let mut corpus = None;
    let runs = repeat(half, 1, || {
        let served = serve(cfg, dir)?;
        let run = wire::run(&served.server, scripts(cfg, &served.corpus))?;
        drop(shutdown(served.server)?);
        for c in &run.clients {
            report_failures(c.script.role().name(), &c.failures);
        }
        corpus = Some(served.corpus);
        let wall = run.wall;
        Ok((run, wall))
    })?;
    let corpus = corpus.ok_or("no segments")?;
    let attempted: usize = runs.iter().map(|r| r.attempted()).sum();
    let wire_ops_per_s = stats::median(&runs.iter().map(|r| r.ops_per_s()).collect::<Vec<f64>>())
        .ok_or("no wire segments")?;
    let latencies = |kind| -> Vec<f64> { runs.iter().flat_map(|r| r.latencies(kind)).collect() };
    // Ops per client and segment, as the median over the wire segments:
    // the designer's is its whole budget, the reader's what it fitted in
    // beside it.
    let counts: Vec<usize> = (0..cfg.workload.roles.len())
        .map(|i| {
            let per_segment: Vec<f64> =
                runs.iter().map(|r| r.clients[i].attempted as f64).collect();
            stats::median(&per_segment).map_or(0, |m| m.round() as usize)
        })
        .collect();

    let mut trace = trace::Trace::new();
    repeat(half, 1, || {
        let (g, fresh) = corpus::build(dir, cfg.seed, cfg.workload.decisions)?;
        if fresh.fingerprint != corpus.fingerprint {
            return Err("replay corpus differs from the served one".into());
        }
        let started = Instant::now();
        trace.replay(g, scripts(cfg, &corpus), &counts)?;
        Ok(((), started.elapsed()))
    })?;
    let traced = trace.finish(corpus.props)?;
    report_failures("trace", &traced.failures);
    let spans_path = cfg
        .work_dir
        .join(format!("spans-{}-{}.tsv", cfg.workload.name, cfg.seed));
    trace::write_spans(&spans_path, &traced.spans)?;
    eprint!("{}", trace::self_time_table(&traced.spans));
    eprintln!(
        "gkbench: note: analysis.lint runs before core.tell and warms the lint context, \
         so core.tell holds only a warm re-lint; probe spans re-run the ASK's EDB export \
         and closure outside the op"
    );

    let mut failed = runs.iter().map(|r| r.failed()).sum::<usize>() + traced.failed;
    for (kind, cov) in &traced.coverage {
        eprintln!("gkbench: {} layer coverage {:.4}", kind.name(), cov);
        if *cov < trace::MIN_COVERAGE {
            eprintln!(
                "gkbench: {} layer spans cover {:.1}% of the op, below {:.0}%",
                kind.name(),
                cov * 100.0,
                trace::MIN_COVERAGE * 100.0
            );
            failed += 1;
        }
    }
    let coverage_min = traced
        .coverage
        .iter()
        .map(|&(_, c)| c)
        .fold(f64::INFINITY, f64::min);

    // Per op kind, the share of the untraced wire p50 that its layer
    // time does not account for (wire, sessions, locks, thread
    // hand-off), averaged over the replayed op mix.
    let (mut unattributed, mut weight) = (0.0, 0.0);
    for (kind, (n, layer_ms)) in trace::layer_sum_medians(&traced.spans) {
        if let Some(p50) = stats::median(&latencies(kind)) {
            eprintln!(
                "gkbench: {:<9} wire p50 {p50:.3} ms, layer time p50 {layer_ms:.3} ms",
                kind.name()
            );
            unattributed += n as f64 * (1.0 - layer_ms / p50);
            weight += n as f64;
        }
    }
    let traced_ops_per_s = traced.ops as f64 / (trace::op_time_ms(&traced.spans) / 1e3);

    let mut metrics: Vec<Metric> = traced
        .metrics
        .iter()
        .map(|&(name, value, unit)| Metric {
            name: name.into(),
            value,
            unit,
        })
        .collect();
    metrics.push(metric(
        "core.mvcc_live_versions",
        stats::mean(
            &runs
                .iter()
                .flat_map(|r| r.versions_live.iter().copied())
                .collect::<Vec<f64>>(),
        ),
        "count",
    )?);
    metrics.push(metric(
        "server.unattributed_share",
        (weight > 0.0).then(|| unattributed / weight),
        "ratio",
    )?);
    metrics.push(metric("trace.ops_per_s", Some(traced_ops_per_s), "1/s")?);
    metrics.push(metric(
        "trace.overhead_frac",
        Some(1.0 - traced_ops_per_s / wire_ops_per_s),
        "ratio",
    )?);
    metrics.push(metric("trace.coverage_min", Some(coverage_min), "ratio")?);
    Ok(Report {
        seed: cfg.seed,
        fingerprint: corpus.fingerprint,
        props: corpus.props,
        attempted: attempted + traced.ops,
        failed,
        metrics,
    })
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Result<Metric, String> {
    match value {
        Some(v) if v.is_finite() => Ok(Metric {
            name: name.into(),
            value: v,
            unit,
        }),
        _ => Err(format!("no measurement for {name}")),
    }
}

/// Checks the acknowledged writes against a recovered KB; returns the
/// number of entries checked and a description of each missing one.
fn check_recovered(g: &Gkbms, acked: &ops::Acked) -> (usize, Vec<String>) {
    let mut missing = Vec::new();
    let believed = |name: &str| {
        g.kb()
            .lookup(name)
            .and_then(|id| g.kb().get(id).ok())
            .is_some_and(|p| p.is_believed())
    };
    for n in acked.live_tells.iter().chain(&acked.registered) {
        if !believed(n) {
            missing.push(format!("acknowledged `{n}` not believed after recovery"));
        }
    }
    for n in &acked.untold {
        if believed(n) {
            missing.push(format!("untold `{n}` not recovered as untold"));
        }
    }
    for d in &acked.executed {
        if g.record(d).is_none() {
            missing.push(format!("executed `{d}` missing after recovery"));
        }
    }
    for d in &acked.retracted {
        if !g.record(d).is_some_and(|r| r.retracted) {
            missing.push(format!("retraction of `{d}` missing after recovery"));
        }
    }
    let checked = acked.live_tells.len()
        + acked.registered.len()
        + acked.untold.len()
        + acked.executed.len()
        + acked.retracted.len();
    (checked, missing)
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in process status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_records_round_trip() {
        let seg = Segment {
            fingerprint: 0xbec0_4267_7247_d068,
            props: 18198,
            setup_s: 0.128_041_899,
            wall_s: 3.5,
            ops_per_s: 239.414_173,
            reference_ms: 24.102,
            peak_rss_mb: 41.8,
            wal_bytes: 123_456,
            attempted: 700,
            failed: 0,
            writes: 600,
            checked: 650,
            missing: 0,
            latencies: BTreeMap::from([(Kind::Ask, vec![24.13, 0.5]), (Kind::Tell, vec![23.05])]),
        };
        assert_eq!(Segment::from_json(&seg.to_json()), Ok(seg));
    }
}
