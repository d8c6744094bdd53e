//! The untraced run: closed-loop sessions over the real wire.

use crate::corpus;
use crate::ops::{self, Kind, Op, Outcome, Script, RECALL_LIMIT};
use crate::reference::Reference;
use server::{Client, ClientError, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How often the main thread samples the live store-version count.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Wrong answers echoed to stderr per run (all are counted).
const REPORTED_FAILURES: usize = 5;

/// What one client did.
pub struct ClientLog {
    /// Latencies in milliseconds, by op kind (successful ops only).
    pub latencies: BTreeMap<Kind, Vec<f64>>,
    /// Ops sent.
    pub attempted: usize,
    /// Ops that failed, were refused, or answered wrongly.
    pub failed: usize,
    /// Acknowledged writes.
    pub writes: usize,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The script, holding the client's acknowledged writes.
    pub script: Script,
    /// When the client started and stopped sending.
    pub span: (Instant, Instant),
    /// Reference passes, one per cycle before its REFRESH, in ms
    /// (budgeted clients only).
    pub reference_ms: Vec<f64>,
    /// Time spent on those passes instead of sending.
    pub paused: Duration,
}

impl ClientLog {
    /// Time spent sending and waiting for replies.
    pub fn active(&self) -> Duration {
        (self.span.1 - self.span.0).saturating_sub(self.paused)
    }
}

/// The whole run.
pub struct WireRun {
    /// One log per client, in role order.
    pub clients: Vec<ClientLog>,
    /// From the common start to the last client's last reply.
    pub wall: Duration,
    /// `Server::store_versions_live` samples taken during the run.
    pub versions_live: Vec<f64>,
}

impl WireRun {
    /// Latencies of `kind` across clients.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.latencies.get(&kind).into_iter().flatten().copied())
            .collect()
    }

    /// Ops sent by all clients.
    pub fn attempted(&self) -> usize {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Failed ops across clients.
    pub fn failed(&self) -> usize {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Completed ops per second of each client's active time, summed
    /// over the clients.
    pub fn ops_per_s(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| (c.attempted - c.failed) as f64 / c.active().as_secs_f64().max(1e-9))
            .sum()
    }

    /// Reference passes timed during the run, in ms.
    pub fn reference_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| c.reference_ms.iter().copied())
            .collect()
    }
}

/// Drives `scripts` against `server`, one thread and one connection
/// per script, each waiting for its reply before sending the next
/// request. Budgeted scripts run their cycles to the end; the others
/// stop once every budgeted one has finished.
pub fn run(server: &Server, scripts: Vec<Script>) -> Result<WireRun, String> {
    let addr = server.local_addr();
    let barrier = Barrier::new(scripts.len() + 1);
    let budgeted = AtomicUsize::new(scripts.iter().filter(|s| s.is_budgeted()).count());
    if budgeted.load(Ordering::SeqCst) == 0 {
        return Err("no script has a cycle budget".into());
    }
    let mut versions_live = Vec::new();
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .into_iter()
            .map(|script| {
                let (barrier, budgeted) = (&barrier, &budgeted);
                s.spawn(move || drive(addr, script, barrier, budgeted))
            })
            .collect();
        barrier.wait();
        while !handles.iter().all(|h| h.is_finished()) {
            versions_live.push(server.store_versions_live() as f64);
            std::thread::sleep(SAMPLE_EVERY);
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<ClientLog>, String>>()
    })?;
    let start = clients.iter().map(|c| c.span.0).min();
    let end = clients.iter().map(|c| c.span.1).max();
    let wall = match (start, end) {
        (Some(s), Some(e)) => e - s,
        _ => return Err("no clients".into()),
    };
    Ok(WireRun {
        clients,
        wall,
        versions_live,
    })
}

fn drive(
    addr: SocketAddr,
    script: Script,
    barrier: &Barrier,
    budgeted: &AtomicUsize,
) -> Result<ClientLog, String> {
    let is_budgeted = script.is_budgeted();
    // A budgeted client that fails to connect still counts as done.
    let log = drive_session(addr, script, barrier, budgeted);
    if is_budgeted {
        budgeted.fetch_sub(1, Ordering::SeqCst);
    }
    log
}

fn drive_session(
    addr: SocketAddr,
    script: Script,
    barrier: &Barrier,
    budgeted: &AtomicUsize,
) -> Result<ClientLog, String> {
    let mut reference = script.is_budgeted().then(Reference::new);
    let connected = Client::connect(addr)
        .and_then(|mut c| c.hello().map(|(session, _)| (c, session)))
        .map_err(|e| format!("{} connect: {e}", script.role().name()));
    // Everyone reaches the barrier, even a client that failed to
    // connect, so the others are not left waiting.
    barrier.wait();
    let (mut client, session) = connected?;
    let start = Instant::now();
    let mut log = ClientLog {
        latencies: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        writes: 0,
        failures: Vec::new(),
        script,
        span: (start, start),
        reference_ms: Vec::new(),
        paused: Duration::ZERO,
    };
    let is_budgeted = log.script.is_budgeted();
    while is_budgeted || budgeted.load(Ordering::SeqCst) > 0 {
        let Some(op) = log.script.next_op() else {
            break;
        };
        // A budgeted client sends one REFRESH per cycle.
        if let (Some(r), Op::Refresh) = (reference.as_mut(), &op) {
            let paused = Instant::now();
            log.reference_ms.push(r.pass_ms());
            log.paused += paused.elapsed();
        }
        let started = Instant::now();
        let reply = send(&mut client, session, &op);
        let elapsed = started.elapsed();
        log.attempted += 1;
        let verdict = match reply {
            Ok(outcome) => log.script.observe(&op, &outcome),
            Err(e) => {
                log.script.failed(&op);
                Err(format!("{:?} failed: {e}", op.kind()))
            }
        };
        match verdict {
            Ok(()) => {
                if op.kind().is_write() {
                    log.writes += 1;
                }
                log.latencies
                    .entry(op.kind())
                    .or_default()
                    .push(elapsed.as_secs_f64() * 1e3);
            }
            Err(why) => {
                log.failed += 1;
                if log.failures.len() < REPORTED_FAILURES {
                    log.failures.push(why);
                }
            }
        }
    }
    log.span.1 = Instant::now();
    let _ = client.bye(session);
    Ok(log)
}

/// Sends one op and normalizes the reply.
fn send(c: &mut Client, session: u64, op: &Op) -> Result<Outcome, ClientError> {
    Ok(match op {
        Op::Refresh => Outcome::Done(c.refresh(session)?),
        Op::Ask { class, .. } => Outcome::Names(c.ask(session, "x", class, "true")?.answers),
        Op::ViewAsk => Outcome::Names(c.view_ask(session, corpus::VIEW, corpus::VIEW_PRED)?),
        Op::Recall { probe } => Outcome::Hits(
            c.recall(session, probe, RECALL_LIMIT)?
                .into_iter()
                .map(|(d, score, _)| (d, score))
                .collect(),
        ),
        Op::Tell { names, class } => Outcome::Done(c.tell(session, &ops::tell_src(names, class))?),
        Op::Untell { name } => Outcome::Done(c.untell(session, name)?),
        Op::Register { name } => Outcome::Done(c.register_object(
            session,
            name,
            gkbms::metamodel::kernel::TDL_ENTITY_CLASS,
            &ops::source_ref(name),
        )?),
        Op::Execute(d) => Outcome::Done(c.execute(session, d.clone())?),
        Op::Retract { decision, .. } => Outcome::Names(c.retract_decision(session, decision)?),
    })
}
