//! Benchmark set-up: a seeded `gkbms::synth` design history generated
//! into a journaled GKBMS, plus the small fixtures the sessions read.

use gkbms::metamodel::kernel;
use gkbms::synth::{self, SynthConfig, SynthOp, SynthRng};
use gkbms::Gkbms;
use std::collections::HashSet;
use std::path::Path;

/// Name of the registered closure view every VIEWASK reads.
pub const VIEW: &str = "closure";
/// The view predicate VIEWASK reads: the transitive specialization
/// closure, which no benchmark write changes, so its answer is fixed.
pub const VIEW_PRED: &str = "isaT";
/// Reader-side small classes, told once at set-up and never written.
pub const SMALL_CLASSES: usize = 6;
/// Designer-side classes that TELL/UNTELL write to.
pub const OWN_CLASSES: usize = 2;
/// A wide synth class: every mapping decision adds instances.
pub const WIDE_CLASS: &str = kernel::DBPL_REL;

/// What the sessions need to know about the generated corpus to pick
/// valid operations and to check answers.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// `History::fingerprint` of the generated op stream.
    pub fingerprint: u64,
    /// Propositions in the KB once set-up is complete (`Kb::len`).
    pub props: usize,
    /// Every executed synth decision with its output objects.
    pub executed: Vec<(String, Vec<String>)>,
    /// Design objects believed at the end of set-up.
    pub current: HashSet<String>,
    /// Decisions already retracted during generation.
    pub retracted: HashSet<String>,
    /// Reader-side small classes with their (sorted) instances.
    pub small: Vec<(String, Vec<String>)>,
    /// Expected VIEWASK rows (`VIEW_PRED` tuples, space-joined).
    pub view_rows: Vec<String>,
}

/// Name of the `i`-th designer-owned class.
pub fn own_class(i: usize) -> String {
    format!("BenchOwn{i}")
}

/// Generates the corpus for `(seed, decisions)` into a fresh journal
/// at `dir`, tells the fixture classes and registers the closure view.
pub fn build(dir: &Path, seed: u64, decisions: usize) -> Result<(Gkbms, Corpus), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let (mut g, _) = Gkbms::recover(dir).map_err(|e| format!("journal: {e}"))?;
    let cfg = SynthConfig {
        seed,
        decisions,
        ..SynthConfig::default()
    };
    let history = synth::generate_into(&mut g, &cfg).map_err(|e| format!("generate: {e}"))?;

    let mut rng = SynthRng::new(seed ^ 0x5a11_c1a5);
    let mut src = String::new();
    let mut small = Vec::with_capacity(SMALL_CLASSES);
    for c in 0..SMALL_CLASSES {
        let class = format!("BenchSmall{c}");
        src.push_str(&format!("TELL {class} end\n"));
        let mut members: Vec<String> = (0..1 + rng.below(10))
            .map(|k| format!("bs{c}x{k}"))
            .collect();
        for m in &members {
            src.push_str(&format!("TELL {m} in {class} end\n"));
        }
        members.sort();
        small.push((class, members));
    }
    for c in 0..OWN_CLASSES {
        src.push_str(&format!("TELL {} end\n", own_class(c)));
    }
    // A small stored rule base next to the fixture classes: one
    // component per class, recursive for every other one. A TELL that
    // carries a rule is linted against it, and its unchanged
    // components come from the fingerprint cache.
    for c in 0..SMALL_CLASSES {
        let mut rules = format!("member : $ member_{c}(X) :- in_(X, \"BenchSmall{c}\") $");
        if c % 2 == 0 {
            rules.push_str(&format!(
                "; near : $ near_{c}(X, Y) :- member_{c}(X), attr(X, L, Y) $\
                 ; nearT : $ near_{c}(X, Z) :- near_{c}(X, Y), attr(Y, L, Z) $"
            ));
        }
        src.push_str(&format!("TELL BenchRules{c} with rule {rules} end\n"));
    }
    g.tell_src(&src).map_err(|e| format!("fixture TELL: {e}"))?;
    g.register_view(VIEW, "")
        .map_err(|e| format!("register view: {e}"))?;
    let view_rows = g
        .view_tuples(VIEW, VIEW_PRED)
        .map_err(|e| format!("view rows: {e}"))?
        .iter()
        .map(|t| render_row(t))
        .collect();

    let executed = history
        .ops
        .iter()
        .filter_map(|op| match op {
            SynthOp::Execute { name, outputs, .. } => Some((
                name.clone(),
                outputs.iter().map(|(o, _)| o.clone()).collect(),
            )),
            _ => None,
        })
        .collect::<Vec<(String, Vec<String>)>>();
    let retracted = executed
        .iter()
        .filter(|(d, _)| g.record(d).is_some_and(|r| r.retracted))
        .map(|(d, _)| d.clone())
        .collect();
    let corpus = Corpus {
        fingerprint: history.fingerprint(),
        props: g.kb().len(),
        executed,
        current: g.current_objects().into_iter().collect(),
        retracted,
        small,
        view_rows,
    };
    Ok((g, corpus))
}

/// One view tuple as the server renders it on the wire.
pub fn render_row(t: &[datalog::ast::Value]) -> String {
    t.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}
