//! The seeded design sessions: what each client sends next, and how
//! each answer is checked.
//!
//! A [`Script`] is one closed-loop client. It emits operations from a
//! fixed cycle (its [`Role`]), draws its choices from a seeded RNG,
//! and checks every outcome against its own model of the state. Only
//! one client per workload writes, so a script's op stream depends on
//! the seed and on correct answers alone — never on timing — and the
//! traced run can replay exactly the stream the wire run sent. The
//! writer runs a fixed number of cycles per segment, so every run and
//! the replay take the KB through the same sequence of states.

use crate::corpus::{self, Corpus};
use gkbms::metamodel::kernel;
use gkbms::synth::{names, SynthRng};
use server::WireDecision;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Hits asked of every RECALL.
pub const RECALL_LIMIT: u32 = 10;
/// Designer TELLs kept believed before the oldest is UNTELLed.
const DESIGNER_LIVE_TELLS: usize = 3;
/// Frames per designer TELL; each is UNTELLed on its own later, so a
/// cycle times one TELL (one lint) and two UNTELLs.
const TELL_FRAMES: usize = 2;
/// Outputs of every benchmark-issued mapping decision.
const FANOUT: usize = 3;

/// The operation kinds the benchmark times. REGISTER_OBJECT and
/// REFRESH count as ops but have no latency metric of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Re-pin the session watermark.
    Refresh,
    /// Deductive ASK.
    Ask,
    /// Read of the registered closure view.
    ViewAsk,
    /// Structural precedent recall.
    Recall,
    /// TELL of one frame.
    Tell,
    /// UNTELL of an object the client told.
    Untell,
    /// REGISTER_OBJECT of a fresh design object.
    Register,
    /// EXECUTE of a mapping decision.
    Execute,
    /// RETRACT of an effective decision (with cascades).
    Retract,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 9] = [
        Kind::Refresh,
        Kind::Ask,
        Kind::ViewAsk,
        Kind::Recall,
        Kind::Tell,
        Kind::Untell,
        Kind::Register,
        Kind::Execute,
        Kind::Retract,
    ];

    /// Lower-case metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Refresh => "refresh",
            Kind::Ask => "ask",
            Kind::ViewAsk => "viewask",
            Kind::Recall => "recall",
            Kind::Tell => "tell",
            Kind::Untell => "untell",
            Kind::Register => "register",
            Kind::Execute => "execute",
            Kind::Retract => "retract",
        }
    }

    /// True for acknowledged writes (they append to the WAL).
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Kind::Tell | Kind::Untell | Kind::Register | Kind::Execute | Kind::Retract
        )
    }
}

/// One request a session sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// REFRESH.
    Refresh,
    /// `ASK x/class WHERE true`; `expect` is the exact instance set
    /// for a small class, `None` for the wide class.
    Ask {
        /// The bound class.
        class: String,
        /// Expected sorted answers, when the class is small.
        expect: Option<Vec<String>>,
    },
    /// VIEWASK of [`corpus::VIEW_PRED`] on [`corpus::VIEW`].
    ViewAsk,
    /// RECALL of precedents similar to `probe`.
    Recall {
        /// The probe decision.
        probe: String,
    },
    /// One `TELL name in class end` frame per name, in one request.
    Tell {
        /// New objects.
        names: Vec<String>,
        /// Their (designer-owned) class.
        class: String,
    },
    /// UNTELL of an earlier TELL.
    Untell {
        /// The object.
        name: String,
    },
    /// REGISTER_OBJECT of a fresh TDL entity.
    Register {
        /// The object.
        name: String,
    },
    /// EXECUTE of a distribute-mapping over a registered entity.
    Execute(WireDecision),
    /// RETRACT of an effective decision.
    Retract {
        /// The decision.
        decision: String,
        /// Its outputs, which must all go out of belief.
        outputs: Vec<String>,
    },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Refresh => Kind::Refresh,
            Op::Ask { .. } => Kind::Ask,
            Op::ViewAsk => Kind::ViewAsk,
            Op::Recall { .. } => Kind::Recall,
            Op::Tell { .. } => Kind::Tell,
            Op::Untell { .. } => Kind::Untell,
            Op::Register { .. } => Kind::Register,
            Op::Execute(_) => Kind::Execute,
            Op::Retract { .. } => Kind::Retract,
        }
    }
}

/// Frame source of a benchmark TELL. The first frame carries a rule
/// of its own, so the admission lint analyzes the rule base: the new
/// rule's component afresh, the stored components from the
/// fingerprint cache.
pub fn tell_src(names: &[String], class: &str) -> String {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if i == 0 {
                format!(
                    "TELL {n} in {class} with rule own : $ own_{n}(X) :- in_(X, \"{class}\") $ end"
                )
            } else {
                format!("TELL {n} in {class} end")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Source reference of a registered benchmark object.
pub fn source_ref(name: &str) -> String {
    format!("bench.tdl#{name}")
}

/// What came back, normalized across the wire and in-process paths.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A confirmation text.
    Done(String),
    /// Names or rendered rows.
    Names(Vec<String>),
    /// Recall hits as `(decision, score)`.
    Hits(Vec<(String, f64)>),
}

/// A client's op cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// REFRESH, ASK (¾ small class, ¼ wide class) and RECALL in a
    /// shuffled order, then VIEWASK.
    Reader,
    /// TELL, UNTELL of its own TELLs, REGISTER_OBJECT + EXECUTE,
    /// RETRACT, RECALL, VIEWASK, and ASKs on its own class before and
    /// after a REFRESH.
    Designer,
}

impl Role {
    /// Lower-case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            Role::Reader => "reader",
            Role::Designer => "designer",
        }
    }
}

/// Objects a script wrote and the server acknowledged, checked
/// against the recovered journal after the run.
#[derive(Debug, Clone, Default)]
pub struct Acked {
    /// TELLed objects still believed.
    pub live_tells: Vec<String>,
    /// TELLed objects since UNTELLed.
    pub untold: Vec<String>,
    /// Registered objects.
    pub registered: Vec<String>,
    /// Executed decisions.
    pub executed: Vec<String>,
    /// Retracted decisions.
    pub retracted: Vec<String>,
}

/// One seeded closed-loop session.
pub struct Script {
    role: Role,
    id: usize,
    corpus: Arc<Corpus>,
    rng: SynthRng,
    queue: VecDeque<Op>,
    cycle: usize,
    /// Cycles to run before the script ends; `None` runs until told
    /// to stop.
    budget: Option<usize>,
    /// Design objects the script believes current.
    current: HashSet<String>,
    /// Decisions retracted explicitly; a cascaded one shows as an
    /// output that is no longer current.
    retracted: HashSet<String>,
    /// Believed TELLs, oldest first, with their class.
    live: VecDeque<(String, String)>,
    /// `live` as of the session's last REFRESH (its watermark).
    pinned: VecDeque<(String, String)>,
    /// Class of the latest TELL.
    told_class: String,
    minted: usize,
    acked: Acked,
}

impl Script {
    /// Script `id` of a workload with `seed`, playing `role` for
    /// `budget` cycles (or until stopped).
    pub fn new(
        role: Role,
        id: usize,
        seed: u64,
        corpus: Arc<Corpus>,
        budget: Option<usize>,
    ) -> Script {
        Script {
            role,
            id,
            rng: SynthRng::new(seed ^ (0x6b65_6e63_6800 + id as u64)),
            current: corpus.current.clone(),
            retracted: corpus.retracted.clone(),
            corpus,
            queue: VecDeque::new(),
            cycle: 0,
            budget,
            live: VecDeque::new(),
            pinned: VecDeque::new(),
            told_class: corpus::own_class(0),
            minted: 0,
            acked: Acked::default(),
        }
    }

    /// The script's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Writes acknowledged so far.
    pub fn acked(&self) -> &Acked {
        &self.acked
    }

    /// True when the script runs a fixed number of cycles.
    pub fn is_budgeted(&self) -> bool {
        self.budget.is_some()
    }

    /// The next op to send; `None` once the budget's cycles are done.
    pub fn next_op(&mut self) -> Option<Op> {
        while self.queue.is_empty() {
            if self.budget.is_some_and(|b| self.cycle >= b) {
                return None;
            }
            self.fill_cycle();
            self.cycle += 1;
        }
        self.queue.pop_front()
    }

    fn fill_cycle(&mut self) {
        match self.role {
            Role::Reader => {
                use Slot::*;
                // Three small-class ASKs to one wide one, so the ASK p50
                // falls in the selective mode. The order is shuffled per
                // cycle so the reader cannot phase-lock with a writer's
                // fixed cycle. The VIEWASK comes last, four ASKs after
                // the REFRESH: a concurrent writer has always moved the
                // view past the session's watermark by then, so the read
                // always takes the pinned path.
                let mut slots = [
                    AskSmall, AskSmall, AskSmall, AskWide, Recall, Recall, Recall, Recall,
                ];
                for i in (1..slots.len()).rev() {
                    slots.swap(i, self.rng.below(i + 1));
                }
                self.push(Refresh);
                for slot in slots {
                    self.push(slot);
                }
                self.push(ViewAsk);
            }
            Role::Designer => {
                use Slot::*;
                self.push(Tell);
                for _ in 0..3 {
                    self.push_register_execute();
                }
                self.push(Untell);
                for _ in 0..3 {
                    self.push_register_execute();
                }
                self.push(Retract);
                for _ in 0..2 {
                    self.push_register_execute();
                }
                self.push(Untell);
                for _ in 0..2 {
                    self.push_register_execute();
                }
                self.push(Recall);
                // Three cycles in four read the view behind the
                // cycle's own writes (pinned re-evaluation); the fourth
                // reads it right after a REFRESH (materialized). The
                // fixed 3:1 split keeps the p50 inside the pinned mode,
                // also when a reader's pinned reads are pooled in. The
                // own-class ASK before the REFRESH must see the set as
                // of the previous REFRESH, not the cycle's writes; the
                // one after it must see them.
                let tail = if self.cycle.is_multiple_of(4) {
                    [AskPinned, Refresh, ViewAsk, AskOwn]
                } else {
                    [ViewAsk, AskPinned, Refresh, AskOwn]
                };
                for slot in tail {
                    self.push(slot);
                }
            }
        }
    }

    fn push(&mut self, slot: Slot) {
        if let Some(op) = self.slot_op(slot) {
            self.queue.push_back(op);
        }
    }

    fn push_register_execute(&mut self) {
        let n = self.mint();
        let entity = format!("BenchE{}x{n}", self.id);
        let decision = WireDecision {
            class: names::DISTRIBUTE.into(),
            name: format!("BenchD{}x{n}", self.id),
            performer: names::AGENT.into(),
            tool: Some(names::MAPPER.into()),
            inputs: vec![entity.clone()],
            outputs: (0..FANOUT)
                .map(|k| {
                    (
                        format!("BenchR{}x{n}x{k}", self.id),
                        kernel::DBPL_REL.into(),
                    )
                })
                .collect(),
            discharges: Vec::new(),
        };
        self.queue.push_back(Op::Register { name: entity });
        self.queue.push_back(Op::Execute(decision));
    }

    fn mint(&mut self) -> usize {
        self.minted += 1;
        self.minted
    }

    fn slot_op(&mut self, slot: Slot) -> Option<Op> {
        Some(match slot {
            Slot::Refresh => {
                self.pinned = self.live.clone();
                Op::Refresh
            }
            Slot::ViewAsk => Op::ViewAsk,
            Slot::AskSmall => {
                let (class, members) = &self.corpus.small[self.rng.below(self.corpus.small.len())];
                Op::Ask {
                    class: class.clone(),
                    expect: Some(members.clone()),
                }
            }
            Slot::AskWide => Op::Ask {
                class: corpus::WIDE_CLASS.into(),
                expect: None,
            },
            Slot::AskOwn | Slot::AskPinned => {
                // The pinned ASK reads the class the cycle's TELL wrote
                // to, so its answer always differs from the latest one.
                let (class, state) = match slot {
                    Slot::AskPinned => (self.told_class.clone(), &self.pinned),
                    _ => (
                        corpus::own_class(self.rng.below(corpus::OWN_CLASSES)),
                        &self.live,
                    ),
                };
                let mut expect: Vec<String> = state
                    .iter()
                    .filter(|(_, c)| *c == class)
                    .map(|(n, _)| n.clone())
                    .collect();
                expect.sort();
                Op::Ask {
                    class,
                    expect: Some(expect),
                }
            }
            Slot::Recall => {
                let probe = &self.corpus.executed[self.rng.below(self.corpus.executed.len())];
                Op::Recall {
                    probe: probe.0.clone(),
                }
            }
            Slot::Tell => {
                let class = corpus::own_class(self.rng.below(corpus::OWN_CLASSES));
                let names: Vec<String> = (0..TELL_FRAMES)
                    .map(|_| {
                        let n = self.mint();
                        format!("BenchT{}x{n}", self.id)
                    })
                    .collect();
                for n in &names {
                    self.live.push_back((n.clone(), class.clone()));
                }
                self.told_class = class.clone();
                Op::Tell { names, class }
            }
            Slot::Untell => {
                if self.live.len() <= DESIGNER_LIVE_TELLS {
                    return None;
                }
                let (name, _) = self.live.pop_front().expect("live is non-empty");
                Op::Untell { name }
            }
            Slot::Retract => {
                let (decision, outputs) = self.pick_effective()?;
                Op::Retract { decision, outputs }
            }
        })
    }

    /// A uniformly sampled decision that is still effective: not
    /// retracted, every output believed.
    fn pick_effective(&mut self) -> Option<(String, Vec<String>)> {
        let all = &self.corpus.executed;
        let effective = |(d, outs): &(String, Vec<String>)| {
            !self.retracted.contains(d) && outs.iter().all(|o| self.current.contains(o))
        };
        let start = self.rng.below(all.len());
        (0..all.len())
            .map(|k| &all[(start + k) % all.len()])
            .find(|e| effective(e))
            .cloned()
    }

    /// Checks `outcome` against what `op` must return and updates the
    /// script's model. `Err` describes a wrong answer.
    pub fn observe(&mut self, op: &Op, outcome: &Outcome) -> Result<(), String> {
        match (op, outcome) {
            (Op::Refresh, Outcome::Done(_)) | (Op::Register { .. }, Outcome::Done(_)) => {
                if let Op::Register { name } = op {
                    self.acked.registered.push(name.clone());
                }
                Ok(())
            }
            (Op::Ask { class, expect }, Outcome::Names(got)) => {
                if got.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("ASK {class}: answers not sorted and distinct"));
                }
                match expect {
                    Some(want) if want != got => {
                        Err(format!("ASK {class}: expected {want:?}, got {got:?}"))
                    }
                    None if got.is_empty() => Err(format!("ASK {class}: wide class is empty")),
                    _ => Ok(()),
                }
            }
            (Op::ViewAsk, Outcome::Names(rows)) => {
                if *rows == self.corpus.view_rows {
                    Ok(())
                } else {
                    Err(format!(
                        "VIEWASK: {} rows, expected {}",
                        rows.len(),
                        self.corpus.view_rows.len()
                    ))
                }
            }
            (Op::Recall { probe }, Outcome::Hits(hits)) => check_recall(probe, hits),
            (Op::Tell { names, .. }, Outcome::Done(text)) => {
                if !text.starts_with(&format!("told {} object", names.len())) {
                    return Err(format!("TELL {names:?}: unexpected reply `{text}`"));
                }
                self.acked.live_tells.extend(names.iter().cloned());
                Ok(())
            }
            (Op::Untell { name }, Outcome::Done(_)) => {
                self.acked.live_tells.retain(|n| n != name);
                self.acked.untold.push(name.clone());
                Ok(())
            }
            (Op::Execute(d), Outcome::Done(text)) => {
                if !text.contains(&d.name) {
                    return Err(format!("EXECUTE {}: unexpected reply `{text}`", d.name));
                }
                self.acked.executed.push(d.name.clone());
                Ok(())
            }
            (Op::Retract { decision, outputs }, Outcome::Names(affected)) => {
                let missing: Vec<&String> =
                    outputs.iter().filter(|o| !affected.contains(o)).collect();
                let stale: Vec<&String> = affected
                    .iter()
                    .filter(|o| !self.current.contains(*o))
                    .collect();
                self.retracted.insert(decision.clone());
                for o in affected {
                    self.current.remove(o);
                }
                self.acked.retracted.push(decision.clone());
                if !missing.is_empty() || !stale.is_empty() {
                    return Err(format!(
                        "RETRACT {decision}: outputs kept {missing:?}, already out {stale:?}"
                    ));
                }
                Ok(())
            }
            (op, outcome) => Err(format!(
                "{:?}: reply of the wrong shape {outcome:?}",
                op.kind()
            )),
        }
    }

    /// Notes a failed request: a failed TELL never became believed.
    pub fn failed(&mut self, op: &Op) {
        if let Op::Tell { names, .. } = op {
            self.live.retain(|(n, _)| !names.contains(n));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Refresh,
    ViewAsk,
    AskSmall,
    AskWide,
    AskOwn,
    AskPinned,
    Recall,
    Tell,
    Untell,
    Retract,
}

/// RECALL answers exclude the probe, come best first with ties by
/// name, respect the limit, and are not empty on a synth corpus.
fn check_recall(probe: &str, hits: &[(String, f64)]) -> Result<(), String> {
    if hits.is_empty() {
        return Err(format!("RECALL {probe}: no precedents"));
    }
    if hits.len() > RECALL_LIMIT as usize {
        return Err(format!(
            "RECALL {probe}: {} hits over the limit",
            hits.len()
        ));
    }
    if hits.iter().any(|(d, _)| d == probe) {
        return Err(format!("RECALL {probe}: the probe recalled itself"));
    }
    let ordered = hits
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
    if !ordered {
        return Err(format!(
            "RECALL {probe}: hits not sorted by score, then name"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_check_rejects_probe_and_misorder() {
        let good = vec![("a".to_string(), 0.9), ("b".into(), 0.5), ("c".into(), 0.5)];
        assert!(check_recall("p", &good).is_ok());
        assert!(check_recall("a", &good).is_err());
        let misordered = vec![("b".to_string(), 0.5), ("a".into(), 0.5)];
        assert!(check_recall("p", &misordered).is_err());
        assert!(check_recall("p", &[]).is_err());
    }
}
