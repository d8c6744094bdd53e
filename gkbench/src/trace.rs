//! The traced run: the wire run's op streams replayed in-process, with
//! a span around every call into a layer.
//!
//! For each op the replay calls the public functions the server's
//! dispatch calls for it, in the same order: decode the request, the
//! `gkbms`/`objectbase` entry point, the version publish
//! (`Kb::version`), the journal fsync, encode the response. Nothing
//! inside the program is instrumented; every span is opened and
//! closed here, around those calls.
//!
//! Two calls are extra to dispatch and are marked as such:
//! - TELL: `Gkbms::lint_frames` runs before `tell_src_checked` to time
//!   the admission lint on its own. It warms the lint-context cache,
//!   so `core.tell_ms` holds only a warm re-lint.
//! - ASK: after the op, `to_edb_at_store` and the base-program
//!   `seminaive::evaluate` run again on the same pinned version as
//!   *probe* spans, splitting ASK time into EDB export and closure.
//!   Probes lie outside the op's span and outside its self-time table.

use crate::corpus;
use crate::ops::{self, Kind, Op, Outcome, Script, RECALL_LIMIT};
use crate::stats::{mean, median};
use gkbms::mvcc::{Pin, VersionChain};
use gkbms::{DecisionRequest, Discharge, Gkbms};
use server::proto::WireRecallHit;
use server::{Request, Response, WireDischarge};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use telos::KbVersion;

/// Session id stamped on replayed requests (no session table here).
const SESSION: u64 = 1;
/// Coverage the layer spans must reach on traced ASKs and TELLs.
pub const MIN_COVERAGE: f64 = 0.9;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequence number of the op the span belongs to.
    pub op: usize,
    /// The op's kind.
    pub kind: Kind,
    /// `op` for an op's root span, else `<crate>.<call>`.
    pub layer: &'static str,
    /// Offsets from the start of the replay.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// True for the decomposition probes that dispatch does not run.
    pub probe: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a span; a child is a probe iff its parent is.
    fn open(&mut self, op: usize, kind: Kind, layer: &'static str, parent: Option<usize>) -> usize {
        let at = self.t0.elapsed();
        let probe = parent.is_some_and(|p| self.spans[p].probe);
        self.spans.push(Span {
            op,
            kind,
            layer,
            start: at,
            end: at,
            parent,
            probe,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.t0.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    fn time<T>(&mut self, parent: usize, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (op, kind) = (self.spans[parent].op, self.spans[parent].kind);
        let idx = self.open(op, kind, layer, Some(parent));
        let out = f();
        self.close(idx);
        out
    }
}

/// A replayed session: its watermark and pinned store version.
struct Session {
    watermark: i64,
    pin: Pin<KbVersion>,
}

/// Counts gathered at the same call boundaries as the spans.
#[derive(Default)]
struct Counts {
    lint_hits: u64,
    lint_reanalyzed: u64,
    objects_out: Vec<f64>,
    records_scored: Vec<f64>,
    view_reads: usize,
    view_materialized: usize,
    edb_facts: Vec<f64>,
    derivations: Vec<f64>,
    scanned: u64,
    answers: u64,
    ivm_delta: u64,
    writes: usize,
}

/// What the traced replay measured.
pub struct Traced {
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Ops replayed.
    pub ops: usize,
    /// Ops whose answers were wrong or that failed.
    pub failed: usize,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Per-layer metrics as `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Coverage of the op span by layer spans, for ASK and TELL.
    pub coverage: Vec<(Kind, f64)>,
}

/// The traced replay, accumulated over segments. Each segment replays
/// the seeded op streams on a freshly built corpus; spans, counts and
/// op numbers run on across segments.
pub struct Trace {
    tr: Tracer,
    c: Counts,
    ops: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace; span offsets count from now.
    pub fn new() -> Trace {
        Trace {
            tr: Tracer {
                t0: Instant::now(),
                spans: Vec::new(),
            },
            c: Counts::default(),
            ops: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Replays one segment against `g`, a freshly built corpus: every
    /// op of the budgeted scripts, and `counts[i]` ops of each other
    /// script, interleaved in proportion to those counts (a budgeted
    /// script's count is its whole budget's op count).
    pub fn replay(
        &mut self,
        mut g: Gkbms,
        mut scripts: Vec<Script>,
        counts: &[usize],
    ) -> Result<(), String> {
        let chain = VersionChain::new(g.kb().version());
        let mut sessions: Vec<Session> = scripts
            .iter()
            .map(|_| {
                let pin = chain.acquire();
                Session {
                    watermark: pin.data().now(),
                    pin,
                }
            })
            .collect();
        let mut replay = Replay {
            tr: &mut self.tr,
            chain,
            c: &mut self.c,
        };
        let mut done = vec![0usize; scripts.len()];
        // The client furthest behind its share of the wire run goes next.
        while let Some(i) = (0..scripts.len())
            .filter(|&i| done[i] < counts[i])
            .min_by(|&a, &b| {
                let fa = (done[a] + 1) as f64 / counts[a] as f64;
                let fb = (done[b] + 1) as f64 / counts[b] as f64;
                fa.total_cmp(&fb)
            })
        {
            let Some(op) = scripts[i].next_op() else {
                done[i] = counts[i];
                continue;
            };
            let verdict = match replay.op(&mut g, &mut sessions[i], self.ops, &op) {
                Ok(outcome) => scripts[i].observe(&op, &outcome),
                Err(e) => {
                    scripts[i].failed(&op);
                    Err(format!("{:?} failed: {e}", op.kind()))
                }
            };
            if let Err(why) = verdict {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
            done[i] += 1;
            self.ops += 1;
        }
        Ok(())
    }

    /// The per-layer metrics over every replayed segment, on a corpus
    /// of `props` propositions.
    pub fn finish(self, props: usize) -> Result<Traced, String> {
        let spans = self.tr.spans;
        let coverage = [Kind::Ask, Kind::Tell]
            .into_iter()
            .filter_map(|k| coverage(&spans, k).map(|c| (k, c)))
            .collect();
        let metrics = layer_metrics(&spans, &self.c, props)?;
        Ok(Traced {
            spans,
            ops: self.ops,
            failed: self.failed,
            failures: self.failures,
            metrics,
            coverage,
        })
    }
}

struct Replay<'a> {
    tr: &'a mut Tracer,
    chain: VersionChain<KbVersion>,
    c: &'a mut Counts,
}

fn counter(name: &str) -> u64 {
    obs::registry().counter_value(name).unwrap_or(0)
}

impl Replay<'_> {
    fn op(&mut self, g: &mut Gkbms, s: &mut Session, n: usize, op: &Op) -> Result<Outcome, String> {
        let kind = op.kind();
        let root = self.tr.open(n, kind, "op", None);
        let result = self.dispatch(g, s, root, op);
        self.tr.close(root);
        if let (Op::Ask { .. }, Ok(_)) = (op, &result) {
            self.probe_ask(s, n)?;
        }
        result
    }

    fn dispatch(
        &mut self,
        g: &mut Gkbms,
        s: &mut Session,
        root: usize,
        op: &Op,
    ) -> Result<Outcome, String> {
        let req = self.tr.time(root, "server.codec", || {
            Request::decode(&request_for(op).encode()).map_err(|e| e.to_string())
        })?;
        let resp = match req {
            Request::Refresh { .. } => {
                self.tr.time(root, "core.mvcc_pin", || {
                    s.pin = self.chain.acquire();
                    s.watermark = s.pin.data().now();
                });
                Response::Done {
                    text: format!("watermark {}", s.watermark),
                }
            }
            Request::Ask {
                var, class, expr, ..
            } => {
                let (version, at) = (s.pin.version(), s.watermark);
                let (answers, stats) = self
                    .tr
                    .time(root, "objectbase.ask", || {
                        objectbase::query::ask_with_stats_version(
                            version.data(),
                            at,
                            &var,
                            &class,
                            &expr,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                if matches!(
                    op,
                    Op::Ask {
                        expect: Some(_),
                        ..
                    }
                ) {
                    self.c.scanned += stats.tuples_scanned as u64;
                    self.c.answers += answers.len() as u64;
                }
                self.c.derivations.push(stats.derivations as f64);
                Response::Names {
                    probes: stats.index_probes as u64,
                    scanned: stats.tuples_scanned as u64,
                    names: answers,
                }
            }
            Request::ViewAsk { name, pred, .. } => {
                let view = g
                    .view(&name)
                    .ok_or_else(|| format!("unknown view `{name}`"))?;
                self.c.view_reads += 1;
                let tuples = if s.watermark >= view.as_of() {
                    self.c.view_materialized += 1;
                    self.tr.time(root, "core.view_read", || view.tuples(&pred))
                } else {
                    let (version, at) = (s.pin.version(), s.watermark);
                    self.tr
                        .time(root, "core.view_eval_pinned", || {
                            view.eval_pinned(version.data(), at, &pred)
                        })
                        .map_err(|e| e.to_string())?
                };
                Response::Names {
                    probes: 0,
                    scanned: 0,
                    names: tuples.iter().map(|t| corpus::render_row(t)).collect(),
                }
            }
            Request::Recall { name, limit, .. } => {
                self.c.records_scored.push(g.records().len() as f64);
                let hits = self
                    .tr
                    .time(root, "core.recall", || {
                        g.recall_similar(&name, limit as usize)
                    })
                    .map_err(|e| e.to_string())?;
                Response::RecallHits {
                    hits: hits
                        .into_iter()
                        .map(|h| WireRecallHit {
                            decision: h.decision,
                            score_bits: h.score.to_bits(),
                            retracted: h.retracted,
                        })
                        .collect(),
                }
            }
            Request::Tell { src, .. } => {
                let frames = self
                    .tr
                    .time(root, "objectbase.parse", || {
                        objectbase::ObjectFrame::parse_all(&src)
                    })
                    .map_err(|e| e.to_string())?;
                let before = (
                    counter("gkbms_lint_fingerprint_hits_total"),
                    counter("gkbms_lint_incremental_sccs_reanalyzed_total"),
                );
                self.tr
                    .time(root, "analysis.lint", || g.lint_frames(&frames));
                self.c.lint_hits += counter("gkbms_lint_fingerprint_hits_total") - before.0;
                self.c.lint_reanalyzed +=
                    counter("gkbms_lint_incremental_sccs_reanalyzed_total") - before.1;
                let (n, _) =
                    self.write(g, root, "core.tell", |g| g.tell_src_checked(&src, false))?;
                Response::Done {
                    text: format!("told {n} object(s)"),
                }
            }
            Request::Untell { name, .. } => {
                let gone = self.write(g, root, "core.untell", |g| g.untell(&name))?;
                Response::Done {
                    text: format!("untold `{name}` ({gone} proposition(s))"),
                }
            }
            Request::RegisterObject {
                name,
                class,
                source,
                ..
            } => {
                self.write(g, root, "core.register_object", |g| {
                    g.begin_write();
                    g.register_object(&name, &class, &source)
                })?;
                Response::Done {
                    text: format!("registered `{name}` in `{class}`"),
                }
            }
            Request::Execute { decision, .. } => {
                let mut dr =
                    DecisionRequest::new(&decision.class, &decision.name, &decision.performer);
                if let Some(tool) = &decision.tool {
                    dr = dr.with_tool(tool);
                }
                for input in &decision.inputs {
                    dr = dr.input(input);
                }
                for (out_name, out_class) in &decision.outputs {
                    dr = dr.output(out_name, out_class);
                }
                for dis in &decision.discharges {
                    dr = dr.discharge(match dis {
                        WireDischarge::Formal { obligation } => Discharge::Formal {
                            obligation: obligation.clone(),
                        },
                        WireDischarge::Signature { obligation, by } => Discharge::Signature {
                            obligation: obligation.clone(),
                            by: by.clone(),
                        },
                    });
                }
                let summary = self.write(g, root, "core.execute", |g| {
                    g.begin_write();
                    g.execute(dr)
                })?;
                Response::Done {
                    text: format!(
                        "executed {}: created [{}] at tick {}",
                        summary.name,
                        summary.created.join(", "),
                        summary.tick
                    ),
                }
            }
            Request::RetractDecision { name, .. } => {
                let affected = self.write(g, root, "core.retract", |g| {
                    g.begin_write();
                    g.retract_decision(&name)
                })?;
                self.c.objects_out.push(affected.len() as f64);
                Response::Names {
                    probes: 0,
                    scanned: 0,
                    names: affected,
                }
            }
            other => return Err(format!("replay has no path for {}", other.op_name())),
        };
        let resp = self.tr.time(root, "server.codec", || {
            Response::decode(&resp.encode()).map_err(|e| e.to_string())
        })?;
        outcome_of(resp)
    }

    /// A mutating call followed by what `durable_commit` does for it:
    /// publish a store version, then fsync the journal.
    fn write<T, E: std::fmt::Display>(
        &mut self,
        g: &mut Gkbms,
        root: usize,
        layer: &'static str,
        f: impl FnOnce(&mut Gkbms) -> Result<T, E>,
    ) -> Result<T, String> {
        let before = counter("datalog_ivm_delta_tuples_total");
        let out = self
            .tr
            .time(root, layer, || f(g))
            .map_err(|e| e.to_string())?;
        self.c.ivm_delta += counter("datalog_ivm_delta_tuples_total") - before;
        self.c.writes += 1;
        let version = self
            .tr
            .time(root, "telos.version_capture", || g.kb().version());
        // Publishing reclaims the superseded head unless a session
        // pins its epoch (then that session's REFRESH reclaims it).
        self.tr
            .time(root, "core.mvcc_publish", || self.chain.publish(version));
        let journal = g.journal_mut().ok_or("replay KB has no journal")?;
        self.tr
            .time(root, "core.fsync", || journal.sync())
            .map_err(|e| format!("fsync: {e}"))?;
        Ok(out)
    }

    /// Splits an ASK's time: EDB export, then the closure, on the same
    /// pinned version. Outside the op span (dispatch does not run it).
    fn probe_ask(&mut self, s: &Session, n: usize) -> Result<(), String> {
        let root = self.tr.open(n, Kind::Ask, "probe", None);
        self.tr.spans[root].probe = true;
        let edb = self
            .tr
            .time(root, "objectbase.edb_export", || {
                objectbase::query::to_edb_at_store(s.pin.data(), s.watermark)
            })
            .map_err(|e| e.to_string())?;
        self.c
            .edb_facts
            .push(edb.preds().iter().map(|p| edb.count(p)).sum::<usize>() as f64);
        let program = objectbase::query::base_program();
        self.tr
            .time(root, "datalog.closure", || {
                datalog::seminaive::evaluate(&program, &edb)
            })
            .map_err(|e| e.to_string())?;
        self.tr.close(root);
        Ok(())
    }
}

fn request_for(op: &Op) -> Request {
    let session = SESSION;
    match op {
        Op::Refresh => Request::Refresh { session },
        Op::Ask { class, .. } => Request::Ask {
            session,
            var: "x".into(),
            class: class.clone(),
            expr: "true".into(),
        },
        Op::ViewAsk => Request::ViewAsk {
            session,
            name: corpus::VIEW.into(),
            pred: corpus::VIEW_PRED.into(),
        },
        Op::Recall { probe } => Request::Recall {
            session,
            name: probe.clone(),
            limit: RECALL_LIMIT,
        },
        Op::Tell { names, class } => Request::Tell {
            session,
            src: ops::tell_src(names, class),
        },
        Op::Untell { name } => Request::Untell {
            session,
            name: name.clone(),
        },
        Op::Register { name } => Request::RegisterObject {
            session,
            name: name.clone(),
            class: gkbms::metamodel::kernel::TDL_ENTITY_CLASS.into(),
            source: ops::source_ref(name),
        },
        Op::Execute(d) => Request::Execute {
            session,
            decision: d.clone(),
        },
        Op::Retract { decision, .. } => Request::RetractDecision {
            session,
            name: decision.clone(),
        },
    }
}

fn outcome_of(resp: Response) -> Result<Outcome, String> {
    match resp {
        Response::Done { text } => Ok(Outcome::Done(text)),
        Response::Names { names, .. } => Ok(Outcome::Names(names)),
        Response::RecallHits { hits } => Ok(Outcome::Hits(
            hits.iter()
                .map(|h| (h.decision.clone(), h.score()))
                .collect(),
        )),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// Share of the root spans of `kind` covered by their child spans.
fn coverage(spans: &[Span], kind: Kind) -> Option<f64> {
    let (mut roots, mut children) = (0.0, 0.0);
    for sp in spans.iter().filter(|s| !s.probe && s.kind == kind) {
        match sp.parent {
            None => roots += sp.ms(),
            Some(_) => children += sp.ms(),
        }
    }
    (roots > 0.0).then(|| children / roots)
}

/// Durations (ms) of the non-probe spans of `layer`, probes included
/// when `probe` is set.
fn durations(spans: &[Span], layer: &str, probe: bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.probe == probe)
        .map(Span::ms)
        .collect()
}

/// Per-op sum (ms) of the non-probe spans of `layer`.
fn per_op_sum(spans: &[Span], layer: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == layer && !s.probe) {
        *by_op.entry(s.op).or_default() += s.ms();
    }
    by_op.into_values().collect()
}

fn layer_metrics(
    spans: &[Span],
    c: &Counts,
    props: usize,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let need = |what: &str, v: Option<f64>| v.ok_or_else(|| format!("traced run has no {what}"));
    let med = |layer: &str| need(layer, median(&durations(spans, layer, false)));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Ok(vec![
        ("analysis.lint_ms", med("analysis.lint")?, "ms"),
        (
            "analysis.fingerprint_hit_ratio",
            ratio(c.lint_hits as f64, (c.lint_hits + c.lint_reanalyzed) as f64),
            "ratio",
        ),
        ("core.tell_ms", med("core.tell")?, "ms"),
        ("core.untell_ms", med("core.untell")?, "ms"),
        ("core.execute_ms", med("core.execute")?, "ms"),
        ("core.retract_ms", med("core.retract")?, "ms"),
        (
            "rms.objects_out_per_retract",
            need("retract", mean(&c.objects_out))?,
            "count",
        ),
        ("core.fsync_ms", med("core.fsync")?, "ms"),
        ("core.recall_ms", med("core.recall")?, "ms"),
        (
            "core.recall_records_scored",
            need("recall", mean(&c.records_scored))?,
            "count",
        ),
        (
            "core.view_materialized_ratio",
            ratio(c.view_materialized as f64, c.view_reads as f64),
            "ratio",
        ),
        (
            "core.view_eval_pinned_ms",
            med("core.view_eval_pinned")?,
            "ms",
        ),
        (
            "telos.version_capture_ms",
            med("telos.version_capture")?,
            "ms",
        ),
        ("telos.props", props as f64, "count"),
        ("objectbase.ask_ms", med("objectbase.ask")?, "ms"),
        (
            "objectbase.edb_export_ms",
            need(
                "EDB probe",
                median(&durations(spans, "objectbase.edb_export", true)),
            )?,
            "ms",
        ),
        (
            "objectbase.edb_facts",
            need("EDB probe", mean(&c.edb_facts))?,
            "count",
        ),
        (
            "objectbase.scanned_per_answer",
            ratio(c.scanned as f64, c.answers as f64),
            "count",
        ),
        (
            "datalog.closure_ms",
            need(
                "closure probe",
                median(&durations(spans, "datalog.closure", true)),
            )?,
            "ms",
        ),
        (
            "datalog.derivations_per_ask",
            need("ASK", mean(&c.derivations))?,
            "count",
        ),
        (
            "datalog.ivm_delta_tuples_per_write",
            ratio(c.ivm_delta as f64, c.writes as f64),
            "count",
        ),
        (
            "server.codec_us",
            need("codec", median(&per_op_sum(spans, "server.codec")))? * 1e3,
            "us",
        ),
    ])
}

/// Median layer time (ms, children of the root only) per op kind.
pub fn layer_sum_medians(spans: &[Span]) -> BTreeMap<Kind, (usize, f64)> {
    let mut per_op: BTreeMap<usize, (Kind, f64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.probe && s.parent.is_some()) {
        per_op.entry(s.op).or_insert((s.kind, 0.0)).1 += s.ms();
    }
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for (kind, ms) in per_op.into_values() {
        by_kind.entry(kind).or_default().push(ms);
    }
    by_kind
        .into_iter()
        .filter_map(|(k, v)| median(&v).map(|m| (k, (v.len(), m))))
        .collect()
}

/// Total op time (ms, root spans) of the replay, probes excluded.
pub fn op_time_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| !s.probe && s.parent.is_none())
        .map(Span::ms)
        .sum()
}

/// Self time per op kind and layer: each span minus its children.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut table: BTreeMap<(bool, Kind, &str), (usize, f64)> = BTreeMap::new();
    let mut root_ms: BTreeMap<(bool, Kind), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = table.entry((s.probe, s.kind, s.layer)).or_default();
        e.0 += 1;
        e.1 += s.ms() - child_ms[i];
        if s.parent.is_none() {
            *root_ms.entry((s.probe, s.kind)).or_default() += s.ms();
        }
    }
    let mut out =
        String::from("probe op        layer                       spans   self_ms  share\n");
    for ((probe, kind, layer), (n, ms)) in table {
        let share = ms / root_ms.get(&(probe, kind)).copied().unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<5} {:<9} {:<27} {:>6} {:>9.1} {:>6.3}",
            if probe { "yes" } else { "no" },
            kind.name(),
            layer,
            n,
            ms,
            share
        );
    }
    out
}

/// Writes every span as one tab-separated line.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::from("op\tkind\tlayer\tstart_us\tend_us\tparent\tprobe\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.op,
            s.kind.name(),
            s.layer,
            s.start.as_micros(),
            s.end.as_micros(),
            s.parent.map_or(String::from("-"), |p| p.to_string()),
            s.probe
        );
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
