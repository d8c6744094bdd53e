//! Differential property: the goal-directed ASK answers byte for byte
//! like the deductive bridge it replaced — export the belief state as
//! an EDB (`to_edb_at_store`), close `inT` with `base_program` by
//! semi-naive evaluation, probe the class, filter by the assertion —
//! at every watermark of a random TELL/UNTELL/cascade history.
//!
//! The histories are built on the raw proposition API so they reach
//! the corners where the EDB's name-keyed semantics matter: class
//! names untold and told again (several generations of one name), isa
//! diamonds and cycles, `instanceof` links on attribute propositions,
//! links surviving the individuals they point at, and unknown classes.

use datalog::ast::Value;
use datalog::db::Database;
use datalog::seminaive;
use objectbase::query::{
    ask_with_stats, ask_with_stats_at, ask_with_stats_version, base_program, to_edb,
    to_edb_at_store,
};
use objectbase::{ObError, ObResult};
use proptest::prelude::*;
use telos::assertion;
use telos::{Interval, Kb, KbRead, KbVersion, PropId, TelosError};

/// Names the histories draw from; any of them may act as class,
/// instance or attribute value.
const NAMES: [&str; 5] = ["A", "B", "C", "x", "y"];
/// Classes asked about: every name, a built-in class, and a name that
/// is never told.
const CLASSES: [&str; 7] = ["A", "B", "C", "x", "y", "Individual", "Ghost"];
/// Assertion bodies: trivial, attribute, classification, negation.
const BODIES: [&str; 4] = ["true", "v.a defined", "v in B", "not (v in C or v = x)"];

/// The ASK this crate used to run: the whole belief state as an EDB,
/// the `inT` closure for every class, then the class probe and the
/// assertion filter. Kept here only as the oracle.
fn oracle<V: KbRead>(
    view: &V,
    edb: Database,
    var: &str,
    class: &str,
    body: &str,
) -> ObResult<Vec<String>> {
    let expr = assertion::parse(body)?;
    if view.lookup(class).is_none() {
        return Err(TelosError::Assertion(format!("unknown class `{class}`")).into());
    }
    let (model, _) = seminaive::evaluate(&base_program(), &edb)?;
    let pattern = vec![None, Some(Value::sym(class))];
    let mut names: Vec<String> = model
        .probe("inT", &pattern)
        .map(|t| t[0].to_string())
        .collect();
    names.sort();
    names.dedup();
    let mut out = Vec::new();
    let mut env = assertion::Env::new();
    for name in names {
        let Some(id) = view.lookup(&name) else {
            continue;
        };
        env.insert(var.to_string(), id);
        if assertion::eval(view, &expr, &mut env)? {
            out.push(name);
        }
    }
    Ok(out)
}

fn text(r: ObResult<Vec<String>>) -> Result<Vec<String>, String> {
    r.map_err(|e: ObError| e.to_string())
}

/// One step of a random history.
#[derive(Debug, Clone)]
enum Op {
    /// TELL the individual (a new generation if the name was untold).
    Individual(usize),
    /// A raw `isa` link between the latest generations (cycles allowed).
    Isa(usize, usize),
    /// A raw `instanceof` link between the latest generations.
    In(usize, usize),
    /// An attribute `<x a y>`.
    Attr(usize, usize),
    /// An `instanceof` link from an earlier attribute proposition.
    AttrIn(usize, usize),
    /// An `isa` link from an earlier attribute proposition, which puts
    /// a link's display name into the class hierarchy.
    AttrIsa(usize, usize),
    /// An `instanceof` link into an earlier attribute proposition.
    InAttr(usize, usize),
    /// UNTELL one proposition (no cascade).
    Untell(usize),
    /// UNTELL with cascade to dependent links.
    Cascade(usize),
    /// Advance the belief clock.
    Tick,
}

/// A random step: a weighted pick of the kind, then its operands.
fn op() -> impl Strategy<Value = Op> {
    (0u8..24, 0usize..64, 0usize..NAMES.len()).prop_map(|(kind, a, b)| {
        let n = a % NAMES.len();
        match kind {
            0..=2 => Op::Individual(n),
            3..=5 => Op::Isa(n, b),
            6..=9 => Op::In(n, b),
            10..=11 => Op::Attr(n, b),
            12..=13 => Op::AttrIn(a, b),
            14 => Op::AttrIsa(a, b),
            15 => Op::InAttr(b, a),
            16..=18 => Op::Untell(a),
            19 => Op::Cascade(a),
            _ => Op::Tick,
        }
    })
}

/// The latest generation of name `i`, told on first use.
fn node(kb: &mut Kb, latest: &mut [Option<PropId>], i: usize) -> PropId {
    *latest[i].get_or_insert_with(|| kb.individual(NAMES[i]).unwrap())
}

/// Applies a history to a fresh KB, capturing a version after every
/// step. Failing steps (untelling something already untold, or at the
/// tick it was told) are skipped, as a server would reject them.
fn build(ops: &[Op]) -> (Kb, Vec<KbVersion>) {
    let mut kb = Kb::new();
    let (isa, instanceof, a) = (kb.intern("isa"), kb.intern("instanceof"), kb.intern("a"));
    let mut told: Vec<PropId> = Vec::new();
    let mut attrs: Vec<PropId> = Vec::new();
    let mut latest: Vec<Option<PropId>> = vec![None; NAMES.len()];
    let mut versions = Vec::new();
    for op in ops {
        match *op {
            Op::Individual(i) => {
                let id = kb.individual(NAMES[i]).unwrap();
                latest[i] = Some(id);
                told.push(id);
            }
            Op::Isa(x, y) | Op::In(x, y) | Op::Attr(x, y) => {
                let label = match op {
                    Op::Isa(..) => isa,
                    Op::In(..) => instanceof,
                    _ => a,
                };
                let (s, d) = (node(&mut kb, &mut latest, x), node(&mut kb, &mut latest, y));
                let id = kb.create_raw(s, label, d, Interval::always()).unwrap();
                told.push(id);
                if label == a {
                    attrs.push(id);
                }
            }
            Op::AttrIn(k, c) | Op::AttrIsa(k, c) => {
                if !attrs.is_empty() {
                    let s = attrs[k % attrs.len()];
                    let d = node(&mut kb, &mut latest, c);
                    let label = if matches!(op, Op::AttrIn(..)) {
                        instanceof
                    } else {
                        isa
                    };
                    told.push(kb.create_raw(s, label, d, Interval::always()).unwrap());
                }
            }
            Op::InAttr(x, k) => {
                if !attrs.is_empty() {
                    let s = node(&mut kb, &mut latest, x);
                    let d = attrs[k % attrs.len()];
                    told.push(kb.create_raw(s, instanceof, d, Interval::always()).unwrap());
                }
            }
            Op::Untell(k) => {
                if !told.is_empty() {
                    let _ = kb.untell(told[k % told.len()]);
                }
            }
            Op::Cascade(k) => {
                if !told.is_empty() {
                    let _ = kb.untell_cascade(told[k % told.len()]);
                }
            }
            Op::Tick => {
                kb.tick();
            }
        }
        versions.push(kb.version());
    }
    (kb, versions)
}

/// Checks every class and body at every watermark, through all three
/// wrappers, against the oracle.
fn check(kb: &Kb, versions: &[KbVersion]) {
    let last = versions.last().expect("at least one step");
    for w in 0..=kb.now() {
        let edb = to_edb_at_store(kb, w).unwrap();
        let snap = kb.snapshot_at(w);
        // The version captured when the clock stood at `w`, if any.
        let at_w = versions.iter().rev().find(|v| v.now() == w);
        for class in CLASSES {
            for body in BODIES {
                let expect = text(oracle(&snap, edb.clone(), "v", class, body));
                let got = text(ask_with_stats_at(kb, w, "v", class, body).map(|r| r.0));
                assert_eq!(&got, &expect, "ask_with_stats_at {} {} @{}", class, body, w);
                let got = text(ask_with_stats_version(last, w, "v", class, body).map(|r| r.0));
                assert_eq!(&got, &expect, "final version {} {} @{}", class, body, w);
                if let Some(v) = at_w {
                    let got = text(ask_with_stats_version(v, w, "v", class, body).map(|r| r.0));
                    assert_eq!(&got, &expect, "version {} {} @{}", class, body, w);
                }
            }
        }
    }
    let edb = to_edb(kb).unwrap();
    for class in CLASSES {
        for body in BODIES {
            let expect = text(oracle(kb, edb.clone(), "v", class, body));
            let got = text(ask_with_stats(kb, "v", class, body).map(|r| r.0));
            assert_eq!(&got, &expect, "ask_with_stats {} {}", class, body);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn goal_directed_ask_matches_the_edb_closure(ops in prop::collection::vec(op(), 1..48)) {
        let (kb, versions) = build(&ops);
        check(&kb, &versions);
    }
}

/// The named corners, each on a fixed history.
#[test]
fn named_corners_match_the_oracle() {
    use Op::*;
    let histories: Vec<Vec<Op>> = vec![
        // A class name untold and told again: instances of both
        // generations count while their links are believed.
        vec![
            Individual(0),
            In(3, 0),
            Tick,
            Untell(0),
            Tick,
            Individual(0),
            In(4, 0),
            Tick,
        ],
        // An isa diamond: C isa A, C isa B, A isa x, B isa x.
        vec![Isa(2, 0), Isa(2, 1), Isa(0, 3), Isa(1, 3), In(4, 2), Tick],
        // An isa cycle through two names, and a self-loop.
        vec![Isa(0, 1), Isa(1, 0), Isa(2, 2), In(3, 0), In(4, 2), Tick],
        // instanceof on an attribute proposition.
        vec![Attr(3, 4), AttrIn(0, 0), In(3, 0), Tick, Untell(2), Tick],
        // An attribute class in the hierarchy, with instances of two
        // same-named attribute propositions (two generations of `x`).
        vec![
            Individual(3),
            Attr(3, 4),
            AttrIsa(0, 0),
            InAttr(4, 0),
            Tick,
            Untell(0),
            Tick,
            Individual(3),
            Attr(3, 4),
            InAttr(2, 1),
            Tick,
        ],
        // A cascade takes an individual and its links.
        vec![
            Individual(0),
            In(3, 0),
            In(4, 0),
            Isa(0, 1),
            Tick,
            Cascade(0),
            Tick,
        ],
    ];
    for ops in histories {
        let (kb, versions) = build(&ops);
        check(&kb, &versions);
    }
}

/// The counters describe the walk: one probe per posting list, and
/// the postings visited — never more than the store holds.
#[test]
fn stats_count_the_walk() {
    let (kb, _) = build(&[Op::Isa(1, 0), Op::In(3, 0), Op::In(4, 1), Op::Tick]);
    let (hits, stats) = ask_with_stats(&kb, "v", "A", "true").unwrap();
    assert_eq!(hits, vec!["x", "y"]);
    assert!(stats.index_probes >= 4, "{stats:?}");
    assert!(stats.tuples_scanned >= 4, "{stats:?}");
    assert!(stats.tuples_scanned < kb.len(), "{stats:?}");
    assert_eq!(stats.new_facts, 2);
}
