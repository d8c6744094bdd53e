//! The concurrent GKBMS service.
//!
//! # Concurrency model
//!
//! Writers (TELL, UNTELL, EXECUTE, …) serialize behind the write guard
//! of one [`RwLock`]; session reads (ASK, HOLDS, session stats) do
//! **not** take that lock at all. Every acknowledged mutation
//! publishes an immutable [`telos::KbVersion`] — a structural-sharing
//! capture that still clones the index spines, O(KB) keys — into a
//! [`gkbms::mvcc::VersionChain`] while still holding the write guard,
//! so versions appear in commit order. A session pins the chain head
//! at Hello (or Refresh) and serves every read from its pinned version
//! at its watermark: lock-free with respect to writers, and stable no
//! matter how many commits land meanwhile.
//!
//! Belief time supplies the isolation *semantics*: every write path
//! calls [`Gkbms::begin_write`] — a belief-clock tick — before
//! mutating, so nothing a writer adds is visible below any pinned
//! watermark, and nothing it retracts disappears from one (UNTELL only
//! closes belief intervals). The version chain supplies the isolation
//! *mechanics*: superseded versions are reclaimed epoch-wise once
//! their last pinned reader departs (session Bye, Refresh, or
//! idle-timeout sweep — sweeps run on every publish and on idle
//! connection polls so an abandoned session cannot retain history
//! forever). Rare administrative reads (SHOW, HISTORY, STATUS, SAVE,
//! LINT, …) still use the read guard: they want the live state and
//! are not on the hot path.
//!
//! Each TCP connection gets a handler thread. Work-carrying requests
//! pass an admission gate bounded by [`Config::max_inflight`]; beyond
//! the bound the server answers `Overloaded` immediately, without
//! queueing — the bounded "queue" is the set of in-flight requests,
//! and backpressure is pushed to the client. Control requests
//! (`Hello`, `Bye`, `Ping`, `Shutdown`, `Metrics`) bypass the gate.
//!
//! # Observability
//!
//! Every dispatched request lands in the process-wide [`obs`]
//! registry: per-op request counters and latency histograms, bytes
//! in/out, admission-gate rejections, writer-lock wait time, session
//! lifecycle counts. The registry is scraped with a `Metrics` frame
//! (or `\metrics` in cbshell) and rendered in Prometheus text format.
//! ASKs slower than [`Config::slow_query_threshold`] additionally
//! land in a bounded slow-query log ([`Server::slow_queries`]).
//!
//! # Shutdown
//!
//! Graceful: the flag flips (via a `Shutdown` frame or
//! [`Server::initiate_shutdown`]), the accept loop stops taking
//! connections, in-flight requests run to completion and their
//! responses are written, later requests get `ShuttingDown`, and
//! handler threads exit at their next idle poll. [`Server::join`]
//! waits for all of that and hands the final [`Gkbms`] back.

use crate::proto::{self, ErrorCode, FrameRead, Request, Response, WireDiagnostic, WireDischarge};
use crate::session::{SessionErr, SessionTable};
use gkbms::mvcc::{Version, VersionChain};
use gkbms::{DecisionRequest, Discharge, FsyncPolicy, Gkbms, GkbmsError};
use objectbase::transform::frame_of;
use replication::{CommitSignal, ReplError, ReplMsg, StreamApplier, TailStep, WalTail};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::record::{self, ReadOutcome, HEADER_LEN};
use telos::KbVersion;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Admission bound: work-carrying requests in flight beyond this
    /// get an immediate `Overloaded` reply.
    pub max_inflight: usize,
    /// Sessions idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// How often blocked connection reads wake to poll the shutdown
    /// flag (also bounds how long drain waits for idle connections).
    pub poll_interval: Duration,
    /// Upper bound on the diagnostic `Sleep` request, so a misbehaving
    /// client cannot park an admission slot indefinitely.
    pub max_sleep: Duration,
    /// ASKs taking at least this long land in the slow-query log (and
    /// bump `gkbms_slow_queries_total`). `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
    /// When journal WAL appends are forced to stable storage before a
    /// mutation is acknowledged. Only effective when the [`Gkbms`]
    /// handed to [`Server::bind`] has a journal attached (see
    /// [`Gkbms::recover`]). `Always` fsyncs per op under the write
    /// lock; `Group` batches one fsync across concurrent writers
    /// (group commit); `Never` leaves durability to checkpoints.
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint: compact the journal after this many WAL ops.
    /// `None` leaves checkpointing to explicit `Checkpoint` requests.
    pub checkpoint_every: Option<u64>,
    /// When true, TELLs carrying lint *warnings* are rejected like
    /// errors (errors always reject the batch at admission time).
    pub strict_lint: bool,
    /// Follower mode: subscribe to the leader at this address and
    /// apply its committed record stream. Writes are answered with
    /// [`Response::Redirect`] naming this address; reads are served at
    /// the applied watermark, wrapped in [`Response::Stale`].
    pub follow: Option<String>,
    /// Follower reads whose lag behind the leader exceeds this many
    /// ops are refused with [`ErrorCode::StaleRead`]. `None` serves
    /// reads at any staleness (still surfaced via the `Stale` wrapper).
    pub max_lag: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_inflight: 64,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(100),
            max_sleep: Duration::from_secs(30),
            slow_query_threshold: Some(Duration::from_millis(250)),
            fsync: FsyncPolicy::Group(Duration::ZERO),
            checkpoint_every: None,
            strict_lint: false,
            follow: None,
            max_lag: None,
        }
    }
}

/// Group commit: one leader fsync covers every WAL op appended (and
/// flushed, which appends do under the write lock) before it started.
///
/// Durability is tracked in the journal's monotonic *op sequence*, not
/// in WAL byte offsets — checkpoints truncate the WAL, but op numbers
/// keep growing, and a checkpoint makes every op up to its point
/// durable via the snapshot (see [`GroupCommit::mark_durable`]).
struct GroupCommit {
    /// Clone of the WAL file handle; shares the open file description
    /// with the journal, so it survives checkpoint truncations and can
    /// be fsynced without holding the state lock.
    file: File,
    state: Mutex<GcState>,
    cv: Condvar,
}

struct GcState {
    /// Highest op sequence number known durable.
    durable_op: u64,
    /// Highest op any waiter has asked to make durable.
    requested_max: u64,
    /// A leader is currently fsyncing.
    leader: bool,
}

impl GroupCommit {
    fn new(file: File, durable_op: u64) -> GroupCommit {
        GroupCommit {
            file,
            state: Mutex::new(GcState {
                durable_op,
                requested_max: durable_op,
                leader: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GcState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until every WAL op up to and including `op` is on stable
    /// storage. The first waiter becomes the leader: it optionally
    /// waits `interval` for more commits to accumulate, issues one
    /// fsync, and wakes everyone whose ops it covered.
    fn wait_durable(&self, op: u64, interval: Duration) -> io::Result<()> {
        let mut st = self.lock();
        if st.requested_max < op {
            st.requested_max = op;
        }
        loop {
            if st.durable_op >= op {
                return Ok(());
            }
            if st.leader {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.leader = true;
            drop(st);
            if !interval.is_zero() {
                std::thread::sleep(interval);
            }
            // Everything requested by now has been appended *and
            // flushed* (appends flush under the state write lock before
            // the writer starts waiting), so one fsync covers it all.
            let goal = self.lock().requested_max;
            let started = Instant::now();
            let outcome = self.file.sync_data();
            obs::histogram!(
                "gkbms_journal_fsync_seconds",
                "Latency of WAL fsyncs (per-op and group-commit)"
            )
            .observe(started.elapsed());
            st = self.lock();
            st.leader = false;
            match outcome {
                Ok(()) => {
                    let covered = goal.saturating_sub(st.durable_op);
                    if goal > st.durable_op {
                        st.durable_op = goal;
                    }
                    obs::counter!(
                        "gkbms_group_commit_batches_total",
                        "Group-commit fsync batches issued"
                    )
                    .inc();
                    obs::counter!(
                        "gkbms_group_commit_batched_ops_total",
                        "WAL ops made durable by group-commit batches"
                    )
                    .add(covered);
                    self.cv.notify_all();
                }
                Err(e) => {
                    // Wake the others so they elect a new leader (or
                    // fail in turn) rather than waiting forever.
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Records that every op up to `op` is durable without an fsync —
    /// a checkpoint's snapshot already covers them.
    fn mark_durable(&self, op: u64) {
        let mut st = self.lock();
        if op > st.durable_op {
            st.durable_op = op;
            self.cv.notify_all();
        }
    }
}

/// One entry of the slow-query log: an ASK that crossed
/// [`Config::slow_query_threshold`], with its evaluation statistics.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query as issued (`ASK var/class WHERE expr`).
    pub source: String,
    /// Wall-clock evaluation time.
    pub duration: Duration,
    /// Semi-naive rounds of the evaluation.
    pub rounds: u64,
    /// Facts derived (including duplicates).
    pub derivations: u64,
    /// Genuinely new facts.
    pub new_facts: u64,
    /// Index probes performed.
    pub index_probes: u64,
    /// Tuples scanned.
    pub tuples_scanned: u64,
}

/// Bound on the slow-query ring: old entries fall off the front.
const SLOW_LOG_CAP: usize = 64;

/// The pin a session holds on a store version.
type SessionPin = gkbms::mvcc::Pin<KbVersion>;

/// Replication bookkeeping, present on every server (leaders ship,
/// followers apply, and a promoted follower switches roles in place).
struct ReplState {
    /// True while this server applies a leader's stream instead of
    /// accepting writes. Cleared by `Promote`.
    follower: AtomicBool,
    /// The leader address a follower redirects writes to (empty on a
    /// born leader).
    leader_addr: String,
    /// Follower read-staleness bound, in ops ([`Config::max_lag`]).
    max_lag: Option<u64>,
    /// Ops applied locally, mirrored out of the state lock so reads
    /// can stamp staleness without taking it.
    applied_seq: AtomicU64,
    /// The leader's committed sequence as last observed by the
    /// follower's apply loop (0 until the first message arrives).
    leader_seq: AtomicU64,
    /// The server's sequence epoch, mirrored for lock-free fencing.
    epoch: AtomicU64,
    /// True while a follower's subscription to the leader is live.
    connected: AtomicBool,
    /// Test hook: the apply loop keeps observing `leader_seq` but
    /// defers applying batches while this is set, so stale-read
    /// enforcement can be exercised deterministically.
    apply_paused: AtomicBool,
    /// The durable `(seq, epoch)` watermark ship loops block on. Only
    /// records at or below it are ever shipped to subscribers.
    commit: CommitSignal,
}

impl ReplState {
    fn lag(&self) -> u64 {
        self.leader_seq
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_seq.load(Ordering::SeqCst))
    }
}

struct Shared {
    state: RwLock<Gkbms>,
    /// Immutable store versions, one published per acknowledged
    /// mutation (under the write guard, so in commit order). Session
    /// reads are served from pinned versions, never from `state`.
    chain: VersionChain<KbVersion>,
    sessions: Mutex<SessionTable<SessionPin>>,
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Present iff the state has a journal attached at bind time.
    gc: Option<GroupCommit>,
    repl: ReplState,
    cfg: Config,
    addr: SocketAddr,
}

/// Decrements the in-flight count when a work-carrying request ends,
/// whichever way it ends.
struct AdmissionGuard<'a>(&'a Shared);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running GKBMS service.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    /// The follower apply thread, present in follower mode.
    follower: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), takes ownership of the
    /// knowledge base, and starts accepting connections. If the
    /// knowledge base has a journal attached (see [`Gkbms::recover`]),
    /// every acknowledged mutation is appended to the WAL and made
    /// durable per [`Config::fsync`].
    pub fn bind<A: ToSocketAddrs>(addr: A, mut state: Gkbms, cfg: Config) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let gc = match state.journal_mut() {
            Some(j) => {
                // Baseline: everything appended so far is made durable
                // now, so group commit only ever owes fsyncs for ops
                // appended while serving.
                j.sync().map_err(|e| io::Error::other(e.to_string()))?;
                let durable = j.appended_ops();
                let file = j.file().map_err(|e| io::Error::other(e.to_string()))?;
                Some(GroupCommit::new(file, durable))
            }
            None => None,
        };
        let chain = VersionChain::new(state.kb().version());
        let (applied, epoch) = (state.applied_seq(), state.epoch());
        let repl = ReplState {
            follower: AtomicBool::new(cfg.follow.is_some()),
            leader_addr: cfg.follow.clone().unwrap_or_default(),
            max_lag: cfg.max_lag,
            applied_seq: AtomicU64::new(applied),
            leader_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch),
            connected: AtomicBool::new(false),
            apply_paused: AtomicBool::new(false),
            // Everything recovered (and just fsynced, above) is
            // committed; group commit advances it from here.
            commit: CommitSignal::new(applied, epoch),
        };
        let shared = Arc::new(Shared {
            state: RwLock::new(state),
            chain,
            sessions: Mutex::new(SessionTable::new(cfg.idle_timeout)),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            slow_log: Mutex::new(VecDeque::new()),
            gc,
            repl,
            cfg,
            addr: local,
        });
        let follower = match shared.cfg.follow.clone() {
            Some(leader) => {
                let repl_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("gkbms-repl".into())
                        .spawn(move || follower_loop(&repl_shared, &leader))?,
                )
            }
            None => None,
        };
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gkbms-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            accept: Some(accept),
            follower,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and pokes the accept loop awake. Does
    /// not wait for drain; see [`Server::join`].
    pub fn initiate_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Number of live store versions: the head plus every superseded
    /// version still pinned by a session. Converges to 1 when all
    /// sessions are closed, refreshed, or reaped.
    pub fn store_versions_live(&self) -> usize {
        self.shared.chain.live_versions()
    }

    /// Number of distinct store epochs currently pinned by sessions.
    pub fn pinned_store_epochs(&self) -> usize {
        self.shared.chain.pinned_epochs()
    }

    /// True while this server is a follower (applies a leader's
    /// stream, redirects writes). Flips to false on `Promote`.
    pub fn is_follower(&self) -> bool {
        self.shared.repl.follower.load(Ordering::SeqCst)
    }

    /// Test hook: pause or resume the follower apply loop. While
    /// paused the loop keeps observing the leader's committed
    /// sequence (so lag grows) but defers applying its batch, making
    /// stale-read enforcement deterministic to exercise.
    pub fn set_apply_paused(&self, paused: bool) {
        self.shared
            .repl
            .apply_paused
            .store(paused, Ordering::SeqCst);
    }

    /// The slow-query log, oldest first (bounded; see
    /// [`Config::slow_query_threshold`]).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let log = self
            .shared
            .slow_log
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        log.iter().cloned().collect()
    }

    /// Blocks until shutdown has been initiated (locally or by a
    /// `Shutdown` frame) and everything has drained, then returns the
    /// final knowledge base. Fails with a typed [`JoinError`] — never
    /// a panic — if a handler thread outlives the drain grace period.
    pub fn join(mut self) -> Result<Gkbms, JoinError> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The follower apply thread polls the shutdown flag on every
        // idle read and exits on its own after promotion.
        if let Some(h) = self.follower.take() {
            let _ = h.join();
        }
        // The accept loop joins every handler before exiting, so the
        // remaining Arc references are gone or about to be; give
        // stragglers a short grace period instead of panicking.
        let mut shared = self.shared;
        for _ in 0..JOIN_GRACE_ROUNDS {
            match Arc::try_unwrap(shared) {
                Ok(s) => return Ok(s.state.into_inner().unwrap_or_else(|e| e.into_inner())),
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::sleep(JOIN_GRACE_STEP);
                }
            }
        }
        Err(JoinError::ConnectionsOutlivedJoin)
    }

    /// [`Server::initiate_shutdown`] then [`Server::join`].
    pub fn shutdown(self) -> Result<Gkbms, JoinError> {
        self.initiate_shutdown();
        self.join()
    }
}

/// How many [`JOIN_GRACE_STEP`]-long rounds [`Server::join`] waits for
/// connection threads to release the shared state (~2 s total).
const JOIN_GRACE_ROUNDS: u32 = 200;
const JOIN_GRACE_STEP: Duration = Duration::from_millis(10);

/// Failure to recover the knowledge base on [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// Connection threads still referenced the server state after the
    /// drain grace period; the knowledge base cannot be handed back.
    ConnectionsOutlivedJoin,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::ConnectionsOutlivedJoin => {
                f.write_str("connection threads outlived join; state still shared")
            }
        }
    }
}

impl std::error::Error for JoinError {}

fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Unblock the accept loop with a throwaway connection; it checks
    // the flag before handling anything.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        if let Ok(h) = std::thread::Builder::new()
            .name("gkbms-conn".into())
            .spawn(move || handle_conn(stream, &conn_shared))
        {
            handlers.push(h);
        }
        // Opportunistically reap finished handlers so a long-lived
        // server does not accumulate joinable threads.
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: every in-flight request completes and its response is
    // written before the handler notices the flag and exits.
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    loop {
        match proto::read_frame(&mut stream) {
            Ok(FrameRead::Frame(payload)) => {
                obs::counter!(
                    "gkbms_bytes_read_total",
                    "Request bytes received, including frame headers"
                )
                .add((payload.len() + HEADER_LEN) as u64);
                if let Some((applied_seq, epoch)) = Request::decode_replicate(&payload) {
                    // A subscription takes the connection over: from
                    // here it is a one-way push stream of ReplMsg
                    // frames, never a request/response socket again.
                    serve_replication(&mut stream, shared, applied_seq, epoch);
                    break;
                }
                let (resp, shutdown_after) = process(shared, &payload);
                let encoded = resp.encode();
                obs::counter!(
                    "gkbms_bytes_written_total",
                    "Response bytes sent, including frame headers"
                )
                .add((encoded.len() + HEADER_LEN) as u64);
                if proto::write_frame(&mut stream, &encoded).is_err() {
                    break;
                }
                if shutdown_after {
                    begin_shutdown(shared);
                }
            }
            Ok(FrameRead::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Reap idled-out sessions even when no requests arrive:
                // a leaked session must not pin a store version (and
                // the history behind it) forever.
                sweep_sessions(shared);
            }
            Ok(FrameRead::Eof) | Err(_) => break,
        }
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn session_err(e: SessionErr, id: u64) -> Response {
    match e {
        SessionErr::Unknown => err(ErrorCode::UnknownSession, format!("session {id}")),
        SessionErr::Expired => err(ErrorCode::SessionExpired, format!("session {id} idled out")),
    }
}

/// Handles one decoded frame. The bool asks the caller to begin
/// shutdown *after* the response has been written.
fn process(shared: &Shared, payload: &[u8]) -> (Response, bool) {
    let started = Instant::now();
    let req = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            obs::counter!(
                "gkbms_bad_requests_total",
                "Frames that failed to decode as a request"
            )
            .inc();
            return (err(ErrorCode::BadRequest, e.to_string()), false);
        }
    };
    let op = req.op_name();
    let result = process_decoded(shared, req);
    if obs::enabled() {
        let reg = obs::registry();
        reg.counter(
            &format!("gkbms_requests_total{{op=\"{op}\"}}"),
            "Requests dispatched, by operation",
        )
        .inc();
        reg.histogram(
            &format!("gkbms_request_seconds{{op=\"{op}\"}}"),
            "Request handling latency, by operation",
        )
        .observe(started.elapsed());
        if let Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } = &result.0
        {
            obs::counter!(
                "gkbms_overloaded_total",
                "Requests rejected at the admission gate"
            )
            .inc();
        }
    }
    result
}

fn process_decoded(shared: &Shared, req: Request) -> (Response, bool) {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    if req.is_control() {
        return control(shared, req, draining);
    }
    if draining {
        return (err(ErrorCode::ShuttingDown, "server is draining"), false);
    }
    // Admission gate: bound the work in flight, reject the overflow.
    let in_flight = shared.inflight.fetch_add(1, Ordering::SeqCst);
    if in_flight >= shared.cfg.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return (
            err(
                ErrorCode::Overloaded,
                format!("{in_flight} requests in flight"),
            ),
            false,
        );
    }
    let _permit = AdmissionGuard(shared);
    (dispatch(shared, req), false)
}

fn control(shared: &Shared, req: Request, draining: bool) -> (Response, bool) {
    match req {
        Request::Ping => (
            Response::Done {
                text: "pong".into(),
            },
            false,
        ),
        Request::Metrics => (
            Response::Metrics {
                text: obs::render_prometheus(),
            },
            false,
        ),
        Request::Hello => {
            if draining {
                return (err(ErrorCode::ShuttingDown, "server is draining"), false);
            }
            // Pin the chain head — a pointer clone, not the state
            // lock. Its capture clock is the session's watermark.
            let pin = shared.chain.acquire();
            let watermark = pin.data().now();
            let session = lock_sessions(shared).open(watermark, pin);
            (Response::Welcome { session, watermark }, false)
        }
        Request::Bye { session } => {
            lock_sessions(shared).close(session);
            (
                Response::Done {
                    text: format!("session {session} closed"),
                },
                false,
            )
        }
        Request::Shutdown { session } => {
            // Validate the session unless we are already draining (a
            // repeated Shutdown should stay idempotent).
            if !draining {
                if let Err(e) = lock_sessions(shared).touch(session) {
                    return (session_err(e, session), false);
                }
            }
            (
                Response::Done {
                    text: "shutting down".into(),
                },
                true,
            )
        }
        Request::Promote { session } => {
            if let Err(e) = lock_sessions(shared).touch(session) {
                return (session_err(e, session), false);
            }
            (promote(shared), false)
        }
        Request::ReplStatus => {
            let follower = shared.repl.follower.load(Ordering::SeqCst);
            let (applied_seq, epoch) = {
                let g = read_state(shared);
                (g.applied_seq(), g.epoch())
            };
            let leader_seq = if follower {
                shared.repl.leader_seq.load(Ordering::SeqCst)
            } else {
                applied_seq
            };
            (
                Response::ReplInfo {
                    is_leader: !follower,
                    leader: shared.repl.leader_addr.clone(),
                    applied_seq,
                    leader_seq,
                    epoch,
                    connected: shared.repl.connected.load(Ordering::SeqCst),
                },
                false,
            )
        }
        // Subscriptions are intercepted in the connection handler; one
        // arriving here was smuggled in a place it cannot take the
        // connection over (it never should be).
        Request::Replicate { .. } => (
            err(ErrorCode::BadRequest, "replication subscription rejected"),
            false,
        ),
        _ => unreachable!("is_control covers exactly these variants"),
    }
}

/// Seals this follower's log and makes it writable: bump the sequence
/// epoch, journal a durable seal record, and stop redirecting writes.
/// The old leader's records are fenced from here on — both by this
/// server's subscribers (frames carry the old epoch) and by its own
/// apply admission, should the deposed leader's stream still be live.
fn promote(shared: &Shared) -> Response {
    if !shared.repl.follower.load(Ordering::SeqCst) {
        return err(ErrorCode::Rejected, "already the leader");
    }
    // Flip the role first so the apply loop stops taking batches, then
    // serialize behind any in-flight batch via the write lock.
    shared.repl.follower.store(false, Ordering::SeqCst);
    let mut g = write_state(shared);
    match g.promote() {
        Ok(epoch) => {
            let applied = g.applied_seq();
            drop(g);
            shared.repl.epoch.store(epoch, Ordering::SeqCst);
            shared.repl.applied_seq.store(applied, Ordering::SeqCst);
            // Wake this server's own subscribers into the new epoch.
            shared.repl.commit.advance(applied, epoch);
            Response::Done {
                text: format!("promoted: sequence epoch {epoch}, applied op {applied}"),
            }
        }
        Err(e) => {
            // Roll the role back: the seal is not durable.
            shared.repl.follower.store(true, Ordering::SeqCst);
            err(ErrorCode::Internal, format!("promote: {e}"))
        }
    }
}

fn lock_sessions(shared: &Shared) -> std::sync::MutexGuard<'_, SessionTable<SessionPin>> {
    shared.sessions.lock().unwrap_or_else(|e| e.into_inner())
}

/// A VIEWASK answer: one space-joined line per row.
fn view_rows(result: gkbms::GkbmsResult<Vec<Vec<datalog::ast::Value>>>) -> Response {
    match result {
        Ok(tuples) => names(
            tuples
                .into_iter()
                .map(|t| {
                    t.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect(),
        ),
        Err(e) => err(ErrorCode::Rejected, e.to_string()),
    }
}

fn read_state(shared: &Shared) -> std::sync::RwLockReadGuard<'_, Gkbms> {
    shared.state.read().unwrap_or_else(|e| e.into_inner())
}

fn write_state(shared: &Shared) -> std::sync::RwLockWriteGuard<'_, Gkbms> {
    let waited = Instant::now();
    let guard = shared.state.write().unwrap_or_else(|e| e.into_inner());
    obs::histogram!(
        "gkbms_writer_lock_wait_seconds",
        "Time spent waiting to acquire the single-writer state lock"
    )
    .observe(waited.elapsed());
    guard
}

/// Completes a mutating request's commit: publishes the new store
/// version for snapshot readers, then enforces the configured fsync
/// policy (and the auto-checkpoint threshold) before the caller
/// acknowledges the mutation, releasing the write lock as early as the
/// policy allows. `mutated` is false when the operation failed and
/// appended nothing. Returns an error response if durability could not
/// be established — the mutation is applied in memory but the client
/// must not treat it as stable.
fn durable_commit(
    shared: &Shared,
    mut g: RwLockWriteGuard<'_, Gkbms>,
    mutated: bool,
) -> Result<(), Response> {
    if mutated {
        // Publish while still holding the write guard, so versions
        // enter the chain in commit order. Capture shares the
        // proposition chunks and posting lists but clones the symbol
        // map and the three index spines, so it is O(KB) keys, not
        // O(touched chunks). This is the commit point for snapshot
        // readers: sessions opened after this see the mutation, pinned
        // sessions keep their version.
        shared.chain.publish(g.kb().version());
    }
    if !mutated || g.journal().is_none() {
        drop(g);
        if mutated {
            sweep_sessions(shared);
        }
        return Ok(());
    }
    // The position replication may ship once this commit is durable.
    let commit_pos = (
        g.journal().expect("journal checked").appended_ops(),
        g.epoch(),
    );
    let mut pending = None;
    match shared.cfg.fsync {
        FsyncPolicy::Always => {
            // Strict per-op durability: fsync while still holding the
            // write lock, one fsync per acknowledged mutation.
            if let Err(e) = g.journal_mut().expect("journal checked").sync() {
                return Err(err(ErrorCode::Internal, format!("journal fsync: {e}")));
            }
        }
        FsyncPolicy::Group(interval) => {
            pending = Some((
                g.journal().expect("journal checked").appended_ops(),
                interval,
            ));
        }
        FsyncPolicy::Never => {}
    }
    if let Some(every) = shared.cfg.checkpoint_every {
        if g.journal().expect("journal checked").ops_since_checkpoint() >= every {
            match g.checkpoint() {
                Ok(report) => {
                    if let Some(gc) = &shared.gc {
                        gc.mark_durable(report.appended_ops);
                    }
                    pending = None;
                }
                Err(e) => {
                    return Err(err(
                        ErrorCode::Internal,
                        format!("auto-checkpoint failed: {e}"),
                    ))
                }
            }
        }
    }
    drop(g);
    sweep_sessions(shared);
    if let (Some((op, interval)), Some(gc)) = (pending, &shared.gc) {
        if let Err(e) = gc.wait_durable(op, interval) {
            return Err(err(ErrorCode::Internal, format!("group-commit fsync: {e}")));
        }
    }
    // Commit point for replication: under `Always`/`Group` the fsync
    // (or covering checkpoint) has happened; under `Never` the ack
    // itself is the commit, and replicas inherit exactly the leader's
    // (weak) durability contract. Ship loops wake here.
    shared
        .repl
        .applied_seq
        .store(commit_pos.0, Ordering::SeqCst);
    shared.repl.commit.advance(commit_pos.0, commit_pos.1);
    Ok(())
}

/// Reaps idled-out sessions, dropping their version pins so the chain
/// can reclaim history they alone retained. Runs on every publish and
/// on idle connection polls; never called while holding the state
/// lock (sessions-then-state is the forbidden order, we take neither
/// together).
fn sweep_sessions(shared: &Shared) {
    lock_sessions(shared).sweep();
}

/// Touches the session and returns its watermark, bumping counters.
fn touch(shared: &Shared, id: u64) -> Result<i64, Response> {
    lock_sessions(shared)
        .touch(id)
        .map(|s| s.watermark)
        .map_err(|e| session_err(e, id))
}

/// Touches the session and returns its watermark plus a handle to its
/// pinned store version. The `Arc` clone keeps the version alive for
/// this request even if the session is reaped mid-read; the chain
/// mutex is never taken on this path.
fn touch_pinned(shared: &Shared, id: u64) -> Result<(i64, Arc<Version<KbVersion>>), Response> {
    lock_sessions(shared)
        .touch(id)
        .map(|s| (s.watermark, s.pin.version()))
        .map_err(|e| session_err(e, id))
}

/// Appends an over-threshold ASK to the bounded slow-query ring.
fn record_slow_query(
    shared: &Shared,
    var: &str,
    class: &str,
    expr: &str,
    duration: Duration,
    stats: &datalog::seminaive::EvalStats,
) {
    obs::counter!(
        "gkbms_slow_queries_total",
        "ASKs that crossed the slow-query threshold"
    )
    .inc();
    let mut log = shared.slow_log.lock().unwrap_or_else(|e| e.into_inner());
    if log.len() >= SLOW_LOG_CAP {
        log.pop_front();
    }
    log.push_back(SlowQuery {
        source: format!("ASK {var}/{class} WHERE {expr}"),
        duration,
        rounds: stats.rounds as u64,
        derivations: stats.derivations as u64,
        new_facts: stats.new_facts as u64,
        index_probes: stats.index_probes as u64,
        tuples_scanned: stats.tuples_scanned as u64,
    });
}

fn names(list: Vec<String>) -> Response {
    Response::Names {
        probes: 0,
        scanned: 0,
        names: list,
    }
}

/// True for requests that mutate the knowledge base — on a follower
/// these must go to the leader instead. `Checkpoint` is deliberately
/// not a write here: it only compacts the local journal, which a
/// replica may do freely.
fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Tell { .. }
            | Request::Untell { .. }
            | Request::Execute { .. }
            | Request::RetractDecision { .. }
            | Request::RegisterObject { .. }
            | Request::RegisterView { .. }
            | Request::Load { .. }
    )
}

fn dispatch(shared: &Shared, req: Request) -> Response {
    if shared.repl.follower.load(Ordering::SeqCst) {
        if is_write(&req) {
            obs::counter!(
                "gkbms_replication_redirects_total",
                "Writes redirected from a follower to its leader"
            )
            .inc();
            return Response::Redirect {
                leader: shared.repl.leader_addr.clone(),
            };
        }
        // Bounded staleness: refuse reads that have fallen too far
        // behind, and stamp every served one with its lag.
        let lag = shared.repl.lag();
        if let Some(bound) = shared.repl.max_lag {
            if lag > bound {
                obs::counter!(
                    "gkbms_replication_stale_rejects_total",
                    "Follower reads refused for exceeding the lag bound"
                )
                .inc();
                return err(
                    ErrorCode::StaleRead,
                    format!("replica lag {lag} op(s) exceeds bound {bound}"),
                );
            }
        }
        let inner = dispatch_inner(shared, req);
        return Response::Stale {
            applied_seq: shared.repl.applied_seq.load(Ordering::SeqCst),
            lag,
            inner: inner.encode(),
        };
    }
    dispatch_inner(shared, req)
}

fn dispatch_inner(shared: &Shared, req: Request) -> Response {
    match req {
        Request::Refresh { session } => {
            let pin = shared.chain.acquire();
            let now = pin.data().now();
            match lock_sessions(shared).refresh(session, now, pin) {
                Ok(w) => Response::Done {
                    text: format!("watermark {w}"),
                },
                Err(e) => session_err(e, session),
            }
        }
        Request::Tell { session, src } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut g = write_state(shared);
            let outcome = g.tell_src_checked(&src, shared.cfg.strict_lint);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok((n, diags)) if diags.is_empty() => Response::Done {
                    text: format!("told {n} object(s)"),
                },
                Ok((n, diags)) => Response::Done {
                    text: format!(
                        "told {n} object(s); {} lint warning(s): {}",
                        diags.len(),
                        diags
                            .iter()
                            .map(|d| d.one_line())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ),
                },
                Err(GkbmsError::Lint(diags)) => err(
                    ErrorCode::LintRejected,
                    diags
                        .iter()
                        .map(|d| d.one_line())
                        .collect::<Vec<_>>()
                        .join("; "),
                ),
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Untell { session, name } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut g = write_state(shared);
            let outcome = g.untell(&name);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok(gone) => Response::Done {
                    text: format!("untold `{name}` ({gone} proposition(s))"),
                },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Ask {
            session,
            var,
            class,
            expr,
        } => {
            let (watermark, version) = match touch_pinned(shared, session) {
                Ok(wv) => wv,
                Err(resp) => return resp,
            };
            let started = Instant::now();
            // Served entirely from the session's pinned version: no
            // state lock, unaffected by concurrent writers.
            let result = objectbase::query::ask_with_stats_version(
                version.data(),
                watermark,
                &var,
                &class,
                &expr,
            );
            let elapsed = started.elapsed();
            match result {
                Ok((answers, stats)) => {
                    if shared
                        .cfg
                        .slow_query_threshold
                        .is_some_and(|t| elapsed >= t)
                    {
                        record_slow_query(shared, &var, &class, &expr, elapsed, &stats);
                    }
                    if let Ok(s) = lock_sessions(shared).touch(session) {
                        s.last_probes = stats.index_probes as u64;
                        s.last_scanned = stats.tuples_scanned as u64;
                        // The bookkeeping touch is not a client request.
                        s.requests -= 1;
                    }
                    Response::Names {
                        probes: stats.index_probes as u64,
                        scanned: stats.tuples_scanned as u64,
                        names: answers,
                    }
                }
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Holds { session, expr } => {
            let (watermark, version) = match touch_pinned(shared, session) {
                Ok(wv) => wv,
                Err(resp) => return resp,
            };
            let parsed = match telos::assertion::parse(&expr) {
                Ok(p) => p,
                Err(e) => return err(ErrorCode::Rejected, e.to_string()),
            };
            let snap = version.data().snapshot_at(watermark);
            let mut env = telos::assertion::Env::new();
            match telos::assertion::eval(&snap, &parsed, &mut env) {
                Ok(value) => Response::Truth { value },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Show { session, name } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let g = read_state(shared);
            let Some(id) = g.kb().lookup(&name) else {
                return err(ErrorCode::Rejected, format!("unknown object `{name}`"));
            };
            match frame_of(g.kb(), id) {
                Ok(frame) => Response::Table {
                    text: frame.to_string(),
                },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::ApplicableDecisions { session, object } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let g = read_state(shared);
            match g.applicable_decisions(&object) {
                Ok(rows) => names(
                    rows.into_iter()
                        .map(|(class, tools)| {
                            if tools.is_empty() {
                                class
                            } else {
                                format!("{class} [{}]", tools.join(", "))
                            }
                        })
                        .collect(),
                ),
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Execute { session, decision } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut dr = DecisionRequest::new(&decision.class, &decision.name, &decision.performer);
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
            let mut g = write_state(shared);
            g.begin_write();
            let outcome = g.execute(dr);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok(summary) => Response::Done {
                    text: format!(
                        "executed {}: created [{}] at tick {}",
                        summary.name,
                        summary.created.join(", "),
                        summary.tick
                    ),
                },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::RetractDecision { session, name } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut g = write_state(shared);
            g.begin_write();
            let outcome = g.retract_decision(&name);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok(affected) => names(affected),
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::History { session } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            Response::Table {
                text: read_state(shared).process_view().render(),
            }
        }
        Request::Status { session } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            Response::Table {
                text: read_state(shared).status_view().render(),
            }
        }
        Request::ObjectHistory { session, object } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let g = read_state(shared);
            match g.object_history(&object) {
                Ok(rows) => names(
                    rows.into_iter()
                        .map(|(tick, event)| format!("t{tick}: {event}"))
                        .collect(),
                ),
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::SessionStats { session } => {
            let (watermark, requests, probes, scanned, version) = {
                let mut sessions = lock_sessions(shared);
                match sessions.touch(session) {
                    Ok(s) => (
                        s.watermark,
                        s.requests,
                        s.last_probes,
                        s.last_scanned,
                        s.pin.version(),
                    ),
                    Err(e) => return session_err(e, session),
                }
            };
            Response::SessionInfo {
                session,
                watermark,
                // The chain head is published per commit, so its
                // capture clock is the live clock — no state lock.
                kb_now: shared.chain.head().data().now(),
                requests,
                believed: version.data().snapshot_at(watermark).believed_count() as u64,
                probes,
                scanned,
            }
        }
        Request::Save { session, path } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let g = read_state(shared);
            match g.save(&path) {
                Ok(()) => Response::Done {
                    text: format!("saved to {path}"),
                },
                Err(e) => err(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::Load { session, path } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            if shared.gc.is_some() {
                return err(
                    ErrorCode::Rejected,
                    "cannot load into a journaled server: state is owned by the journal \
                     (restart with a different --journal dir instead)",
                );
            }
            match Gkbms::load(&path) {
                Ok(fresh) => {
                    let mut g = write_state(shared);
                    *g = fresh;
                    let now = g.kb().now();
                    shared.chain.publish(g.kb().version());
                    drop(g);
                    // Old watermarks and versions refer to a store
                    // that no longer exists; re-pin every session to
                    // the fresh head.
                    let pin = shared.chain.acquire();
                    lock_sessions(shared).repin_all(now, pin);
                    Response::Done {
                        text: format!("loaded from {path}"),
                    }
                }
                Err(e) => err(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::Checkpoint { session } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut g = write_state(shared);
            match g.checkpoint() {
                Ok(report) => {
                    // The snapshot covers everything appended so far, so
                    // waiting group committers are durable too.
                    if let Some(gc) = &shared.gc {
                        gc.mark_durable(report.appended_ops);
                    }
                    shared.repl.commit.advance(report.appended_ops, g.epoch());
                    Response::Done {
                        text: format!(
                            "checkpointed: {} op(s) compacted into the snapshot",
                            report.compacted_ops
                        ),
                    }
                }
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Lint { session, src } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let diags = read_state(shared).lint_src(&src);
            Response::Diagnostics {
                diags: diags.iter().map(WireDiagnostic::from_diagnostic).collect(),
            }
        }
        Request::Sleep { session, millis } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let capped = Duration::from_millis(millis).min(shared.cfg.max_sleep);
            std::thread::sleep(capped);
            Response::Done {
                text: format!("slept {} ms", capped.as_millis()),
            }
        }
        Request::RegisterObject {
            session,
            name,
            class,
            source,
        } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            let mut g = write_state(shared);
            g.begin_write();
            let outcome = g.register_object(&name, &class, &source);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok(_) => Response::Done {
                    text: format!("registered `{name}` in `{class}`"),
                },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::RegisterView {
            session,
            name,
            rules,
        } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            // A journaled write like Tell: the registration is appended
            // to the WAL (inside register_view) so recovery and
            // replication rebuild the view by replay. The belief clock
            // does not move — registration changes no beliefs.
            let mut g = write_state(shared);
            let outcome = g.register_view_checked(&name, &rules);
            if let Err(resp) = durable_commit(shared, g, outcome.is_ok()) {
                return resp;
            }
            match outcome {
                Ok((as_of, diags)) => {
                    // CB013 maintainability warnings ride back in the
                    // confirmation text; they never block registration.
                    let mut text = format!("registered view `{name}` as of tick {as_of}");
                    for d in &diags {
                        text.push_str(&format!("\nwarning[{}]: {}", d.code, d.message));
                    }
                    Response::Done { text }
                }
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::ViewAsk {
            session,
            name,
            pred,
        } => {
            let (watermark, version) = match touch_pinned(shared, session) {
                Ok(wv) => wv,
                Err(resp) => return resp,
            };
            // The materialized model reflects the current belief state
            // (`as_of`). A session pinned at or after it may read the
            // model directly; an older watermark re-evaluates the
            // view's program over the session's pinned store version so
            // it never observes a refresh from a newer tick. That
            // evaluation takes only the program slice it needs and runs
            // after the state lock is released, so no writer queues
            // behind it.
            let query = {
                let g = read_state(shared);
                let Some(view) = g.view(&name) else {
                    return err(ErrorCode::Rejected, format!("unknown view `{name}`"));
                };
                if watermark >= view.as_of() {
                    obs::counter!(
                        "gkbms_view_asks_materialized_total",
                        "View reads served straight from the maintained model"
                    )
                    .inc();
                    return view_rows(Ok(view.tuples(&pred)));
                }
                view.pinned_query(&pred)
            };
            obs::counter!(
                "gkbms_view_asks_pinned_total",
                "View reads re-evaluated at an older pinned watermark"
            )
            .inc();
            view_rows(query.eval(version.data(), watermark))
        }
        Request::Recall {
            session,
            name,
            limit,
        } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            match read_state(shared).recall_similar(&name, limit as usize) {
                Ok(hits) => Response::RecallHits {
                    hits: hits
                        .into_iter()
                        .map(|h| proto::WireRecallHit {
                            decision: h.decision,
                            score_bits: h.score.to_bits(),
                            retracted: h.retracted,
                        })
                        .collect(),
                },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Explain { session, src } => {
            if let Err(resp) = touch(shared, session) {
                return resp;
            }
            match read_state(shared).explain_src(&src) {
                Ok(text) => Response::Done { text },
                Err(e) => err(ErrorCode::Rejected, e.to_string()),
            }
        }
        Request::Hello
        | Request::Bye { .. }
        | Request::Ping
        | Request::Shutdown { .. }
        | Request::Metrics
        | Request::Replicate { .. }
        | Request::Promote { .. }
        | Request::ReplStatus => {
            unreachable!("control requests are handled before dispatch")
        }
    }
}

// ---------------------------------------------------------------- //
//  Replication: leader-side shipping                               //
// ---------------------------------------------------------------- //

/// Payload-byte cap per shipped `Ops` batch.
const SHIP_BATCH_BYTES: usize = 256 * 1024;
/// Payload-byte cap per `SnapshotChunk` frame.
const SNAPSHOT_CHUNK_BYTES: usize = 256 * 1024;

/// Writes one replication stream frame, counting shipped bytes.
fn ship(stream: &mut TcpStream, msg: &ReplMsg) -> io::Result<()> {
    let encoded = msg.encode();
    obs::counter!(
        "gkbms_replication_bytes_shipped_total",
        "Replication stream bytes shipped to subscribers, including frame headers"
    )
    .add((encoded.len() + HEADER_LEN) as u64);
    proto::write_frame(stream, &encoded)
}

/// Reads every record payload of a length-prefixed CRC file (the
/// checkpoint snapshot) into memory.
fn read_payload_file(path: &Path) -> io::Result<Vec<Vec<u8>>> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut offset = 0u64;
    let mut out = Vec::new();
    loop {
        match record::read_record(&mut reader, offset) {
            Ok(ReadOutcome::Record(p)) => {
                offset += (HEADER_LEN + p.len()) as u64;
                out.push(p);
            }
            Ok(ReadOutcome::Eof) | Ok(ReadOutcome::Torn { .. }) => return Ok(out),
            Ok(ReadOutcome::BadCrc { offset }) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("snapshot corrupt at byte {offset}"),
                ))
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        }
    }
}

/// A snapshot staged for transfer to a far-behind subscriber.
struct ShipSnapshot {
    covered_seq: u64,
    payloads: Vec<Vec<u8>>,
}

/// Decides how a subscription at `sub_seq` starts: straight from the
/// WAL tail, or snapshot-first when the subscriber is behind the
/// checkpoint truncation horizon. Runs under the read lock —
/// checkpoints need the write lock, so the horizon and the snapshot
/// file cannot change underneath us.
fn plan_stream(
    shared: &Shared,
    sub_seq: u64,
) -> Result<(std::path::PathBuf, Option<ShipSnapshot>), Response> {
    let g = read_state(shared);
    let Some(j) = g.journal() else {
        return Err(err(
            ErrorCode::Rejected,
            "replication requires a journaled leader (start with --journal)",
        ));
    };
    let horizon = j.appended_ops() - j.ops_since_checkpoint();
    let wal_path = j.wal_path();
    if sub_seq < horizon {
        // The WAL no longer holds the records the subscriber lacks;
        // stage the covering snapshot (reading it into memory under
        // the read lock keeps it consistent with `horizon`).
        let payloads = read_payload_file(&j.snapshot_path())
            .map_err(|e| err(ErrorCode::Internal, format!("snapshot read: {e}")))?;
        Ok((
            wal_path,
            Some(ShipSnapshot {
                covered_seq: horizon,
                payloads,
            }),
        ))
    } else {
        Ok((wal_path, None))
    }
}

/// Serves one replication subscription: the connection becomes a push
/// stream of [`ReplMsg`] frames until the subscriber disconnects or
/// the server shuts down. Handshake refusals (fencing, no journal)
/// are written as plain [`Response`] frames, whose opcodes are
/// disjoint from the stream's.
fn serve_replication(stream: &mut TcpStream, shared: &Shared, sub_seq: u64, sub_epoch: u64) {
    let (_, epoch) = shared.repl.commit.current();
    if sub_epoch > epoch {
        obs::counter!(
            "gkbms_replication_fenced_total",
            "Replication records or subscriptions refused by sequence-epoch fencing"
        )
        .inc();
        let refusal = err(
            ErrorCode::Fenced,
            format!("subscriber epoch {sub_epoch} outranks leader epoch {epoch}"),
        );
        let _ = proto::write_frame(stream, &refusal.encode());
        return;
    }
    let snapshot = match plan_stream(shared, sub_seq) {
        Ok((_, snap)) => snap,
        Err(refusal) => {
            let _ = proto::write_frame(stream, &refusal.encode());
            return;
        }
    };
    let subscribers = obs::gauge!(
        "gkbms_replication_subscribers",
        "Live replication subscriptions"
    );
    subscribers.add(1);
    let _ = ship_stream(stream, shared, sub_seq, snapshot);
    subscribers.add(-1);
}

fn ship_snapshot(stream: &mut TcpStream, shared: &Shared, snap: ShipSnapshot) -> io::Result<()> {
    obs::counter!(
        "gkbms_replication_snapshots_shipped_total",
        "Checkpoint snapshots streamed to far-behind subscribers"
    )
    .inc();
    let (_, epoch) = shared.repl.commit.current();
    ship(
        stream,
        &ReplMsg::SnapshotStart {
            covered_seq: snap.covered_seq,
            epoch,
        },
    )?;
    let mut chunk: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0usize;
    for p in snap.payloads {
        bytes += p.len();
        chunk.push(p);
        if bytes >= SNAPSHOT_CHUNK_BYTES {
            ship(
                stream,
                &ReplMsg::SnapshotChunk {
                    payloads: std::mem::take(&mut chunk),
                },
            )?;
            bytes = 0;
        }
    }
    if !chunk.is_empty() {
        ship(stream, &ReplMsg::SnapshotChunk { payloads: chunk })?;
    }
    ship(stream, &ReplMsg::SnapshotEnd)
}

/// The ship loop proper: optional snapshot transfer, then the WAL
/// tail, then live pushes as group commits complete. Returns when the
/// subscriber disconnects (any write error) or the server drains.
fn ship_stream(
    stream: &mut TcpStream,
    shared: &Shared,
    sub_seq: u64,
    mut snapshot: Option<ShipSnapshot>,
) -> io::Result<()> {
    let (durable, epoch) = shared.repl.commit.current();
    ship(
        stream,
        &ReplMsg::Hello {
            leader_seq: durable,
            epoch,
        },
    )?;
    let mut start_seq = sub_seq + 1;
    'stream: loop {
        if let Some(snap) = snapshot.take() {
            start_seq = snap.covered_seq + 1;
            ship_snapshot(stream, shared, snap)?;
        }
        let wal_path = {
            let g = read_state(shared);
            match g.journal() {
                Some(j) => j.wal_path(),
                None => return Ok(()),
            }
        };
        let mut tail = WalTail::new(&wal_path, start_seq);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let (durable, epoch) = shared
                .repl
                .commit
                .wait_beyond(tail.next_seq().saturating_sub(1), shared.cfg.poll_interval);
            match tail.poll(durable, SHIP_BATCH_BYTES) {
                Ok(TailStep::Records(records)) => {
                    obs::counter!(
                        "gkbms_replication_records_shipped_total",
                        "Committed WAL records shipped to subscribers"
                    )
                    .add(records.len() as u64);
                    ship(
                        stream,
                        &ReplMsg::Ops {
                            leader_seq: durable,
                            records,
                        },
                    )?;
                }
                Ok(TailStep::Idle) => {
                    // Keeps the subscriber's view of the committed
                    // position fresh and detects dead peers by the
                    // write failing.
                    ship(
                        stream,
                        &ReplMsg::Heartbeat {
                            leader_seq: durable,
                            epoch,
                        },
                    )?;
                }
                Ok(TailStep::Truncated) => {
                    // A checkpoint compacted the WAL under the cursor.
                    // Re-plan from the subscriber's position: rescan
                    // the new file, or fall back to snapshot transfer
                    // if the needed range was truncated away.
                    match plan_stream(shared, tail.next_seq().saturating_sub(1)) {
                        Ok((_, snap)) => {
                            start_seq = tail.next_seq();
                            snapshot = snap;
                            continue 'stream;
                        }
                        Err(refusal) => {
                            let _ = proto::write_frame(stream, &refusal.encode());
                            return Ok(());
                        }
                    }
                }
                Err(_) => return Ok(()),
            }
        }
    }
}

// ---------------------------------------------------------------- //
//  Replication: follower runtime                                   //
// ---------------------------------------------------------------- //

/// Follower reconnect backoff bounds.
const FOLLOW_BACKOFF_MIN: Duration = Duration::from_millis(50);
const FOLLOW_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// True once the follower runtime should stop: the server is draining
/// or this replica was promoted to leader.
fn follow_done(shared: &Shared) -> bool {
    shared.shutdown.load(Ordering::SeqCst) || !shared.repl.follower.load(Ordering::SeqCst)
}

/// The follower thread: subscribe, apply, and on any disconnection
/// resubscribe from the last applied sequence with capped exponential
/// backoff — the leader answers from checkpoint + WAL exactly like
/// local recovery would.
fn follower_loop(shared: &Shared, leader: &str) {
    let mut backoff = FOLLOW_BACKOFF_MIN;
    loop {
        if follow_done(shared) {
            return;
        }
        let outcome = follow_once(shared, leader);
        if shared.repl.connected.swap(false, Ordering::SeqCst) {
            // The subscription was live; start the backoff over.
            backoff = FOLLOW_BACKOFF_MIN;
        }
        match outcome {
            Ok(()) => return,
            Err(e) => {
                obs::counter!(
                    "gkbms_replication_reconnects_total",
                    "Follower reconnect attempts after a failed or dropped subscription"
                )
                .inc();
                obs::gauge!(
                    "gkbms_replication_connected",
                    "1 while the follower's subscription to the leader is live"
                )
                .set(0);
                // Surfaced for operators; the loop itself just retries.
                let _ = e;
            }
        }
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline {
            if follow_done(shared) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        backoff = (backoff * 2).min(FOLLOW_BACKOFF_MAX);
    }
}

/// One subscription: connect, hand the leader our applied position,
/// then apply the push stream until it ends. `Ok(())` means a clean
/// stop (shutdown or promotion); `Err` asks the outer loop to retry.
fn follow_once(shared: &Shared, leader: &str) -> Result<(), ReplError> {
    let mut stream = TcpStream::connect(leader)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    let (applied, epoch) = {
        let g = read_state(shared);
        (g.applied_seq(), g.epoch())
    };
    proto::write_frame(
        &mut stream,
        &Request::Replicate {
            applied_seq: applied,
            epoch,
        }
        .encode(),
    )?;
    let mut applier = StreamApplier::new(applied, epoch);
    let mut snapshot: Option<Vec<Vec<u8>>> = None;
    loop {
        if follow_done(shared) {
            return Ok(());
        }
        let payload = match proto::read_frame(&mut stream)? {
            FrameRead::Frame(p) => p,
            FrameRead::Idle => continue,
            FrameRead::Eof => {
                return Err(ReplError::Protocol("leader closed the stream".into()));
            }
        };
        if ReplMsg::peek_opcode(&payload).is_none_or(|op| op < replication::msg::MSG_BASE) {
            // A plain Response on the stream: the handshake was
            // refused (fencing, journal-less leader, …).
            let resp = Response::decode(&payload)
                .map_err(|e| ReplError::Protocol(format!("unreadable refusal: {e}")))?;
            if let Response::Error {
                code: ErrorCode::Fenced,
                ..
            } = &resp
            {
                obs::counter!(
                    "gkbms_replication_fenced_total",
                    "Replication records or subscriptions refused by sequence-epoch fencing"
                )
                .inc();
            }
            return Err(ReplError::Protocol(format!(
                "leader refused the subscription: {resp:?}"
            )));
        }
        match ReplMsg::decode(&payload)? {
            ReplMsg::Hello { leader_seq, .. } | ReplMsg::Heartbeat { leader_seq, .. } => {
                shared.repl.leader_seq.store(leader_seq, Ordering::SeqCst);
                shared.repl.connected.store(true, Ordering::SeqCst);
                obs::gauge!(
                    "gkbms_replication_connected",
                    "1 while the follower's subscription to the leader is live"
                )
                .set(1);
                observe_lag(shared);
            }
            ReplMsg::SnapshotStart { .. } => snapshot = Some(Vec::new()),
            ReplMsg::SnapshotChunk { payloads } => match &mut snapshot {
                Some(acc) => acc.extend(payloads),
                None => {
                    return Err(ReplError::Protocol("snapshot chunk before start".into()));
                }
            },
            ReplMsg::SnapshotEnd => {
                let Some(payloads) = snapshot.take() else {
                    return Err(ReplError::Protocol("snapshot end before start".into()));
                };
                applier = install_snapshot(shared, payloads)?;
                observe_lag(shared);
            }
            ReplMsg::Ops {
                leader_seq,
                records,
            } => {
                shared.repl.leader_seq.store(leader_seq, Ordering::SeqCst);
                // Test hook: keep observing the leader's position (so
                // lag is visible) but defer applying the batch.
                while shared.repl.apply_paused.load(Ordering::SeqCst) && !follow_done(shared) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if follow_done(shared) {
                    return Ok(());
                }
                apply_batch(shared, &mut applier, &records)?;
                observe_lag(shared);
            }
        }
    }
}

/// Records the replica's position and lag in the metrics registry.
fn observe_lag(shared: &Shared) {
    let applied = shared.repl.applied_seq.load(Ordering::SeqCst);
    obs::gauge!(
        "gkbms_replication_applied_seq",
        "Ops this replica has applied from the leader's stream"
    )
    .set(applied.min(i64::MAX as u64) as i64);
    let lag = shared.repl.lag();
    obs::gauge!(
        "gkbms_replication_lag_ops_current",
        "Committed leader ops this replica has not applied yet"
    )
    .set(lag.min(i64::MAX as u64) as i64);
    obs::value_histogram!(
        "gkbms_replication_lag_ops",
        "Distribution of replica lag behind the leader's committed sequence, in ops"
    )
    .observe(lag);
}

/// Replaces the replica's state from a shipped checkpoint snapshot:
/// install (journaled replicas persist it and drop their stale WAL),
/// publish, and re-pin every session at the fresh head. Returns the
/// applier positioned after the snapshot's covered sequence.
fn install_snapshot(shared: &Shared, payloads: Vec<Vec<u8>>) -> Result<StreamApplier, ReplError> {
    obs::counter!(
        "gkbms_replication_snapshots_installed_total",
        "Checkpoint snapshots installed by this replica during catch-up"
    )
    .inc();
    let mut g = write_state(shared);
    let dir = g.journal().map(|j| j.dir().to_path_buf());
    let fresh = match dir {
        Some(dir) => Gkbms::install_replica_snapshot(&dir, payloads).map(|(g, _)| g),
        None => Gkbms::replica_from_snapshot(&payloads),
    }
    .map_err(|e| ReplError::Protocol(format!("snapshot install: {e}")))?;
    *g = fresh;
    let now = g.kb().now();
    let applied = g.applied_seq();
    let epoch = g.epoch();
    shared.chain.publish(g.kb().version());
    drop(g);
    shared.repl.applied_seq.store(applied, Ordering::SeqCst);
    shared.repl.epoch.store(epoch, Ordering::SeqCst);
    shared.repl.commit.advance(applied, epoch);
    // Old pins reference a store that no longer exists; re-pin every
    // session at the fresh head (mirrors `Load`).
    let pin = shared.chain.acquire();
    lock_sessions(shared).repin_all(now, pin);
    Ok(StreamApplier::new(applied, epoch))
}

/// Applies one shipped batch under the write lock. The whole batch is
/// admitted first — a spliced stream (gap, regression, fenced epoch)
/// is refused as a typed error *before* anything touches the replica,
/// and the caller disconnects instead of applying out of order.
fn apply_batch(
    shared: &Shared,
    applier: &mut StreamApplier,
    records: &[replication::ShippedRecord],
) -> Result<(), ReplError> {
    if records.is_empty() {
        return Ok(());
    }
    let mut probe = applier.clone();
    for r in records {
        if let Err(e) = probe.admit(r.seq, r.epoch) {
            if matches!(e, ReplError::EpochFenced { .. }) {
                obs::counter!(
                    "gkbms_replication_fenced_total",
                    "Replication records or subscriptions refused by sequence-epoch fencing"
                )
                .inc();
            }
            return Err(e);
        }
    }
    let mut g = write_state(shared);
    for r in records {
        applier
            .admit(r.seq, r.epoch)
            .expect("batch admitted by probe");
        g.apply_replicated(r.seq, r.epoch, &r.payload)
            .map_err(|e| ReplError::Protocol(format!("apply op {}: {e}", r.seq)))?;
    }
    // Publish once per batch, still under the write guard, so session
    // snapshots observe replicated commits in order.
    shared.chain.publish(g.kb().version());
    let applied = g.applied_seq();
    let epoch = g.epoch();
    drop(g);
    shared.repl.applied_seq.store(applied, Ordering::SeqCst);
    shared.repl.epoch.store(epoch, Ordering::SeqCst);
    // Chained subscribers of this replica may now ship these records.
    shared.repl.commit.advance(applied, epoch);
    obs::counter!(
        "gkbms_replication_records_applied_total",
        "Shipped records applied into this replica"
    )
    .add(records.len() as u64);
    sweep_sessions(shared);
    Ok(())
}
