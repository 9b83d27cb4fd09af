//! The TCP front-end: `doppel-server`.
//!
//! A running server is an accept thread plus the engine's core loops
//! ([`crate::service`]); there is no thread pool between the socket and the
//! transaction:
//!
//! ```text
//!  doppel-accept ──round-robin──► doppel-service-0 … doppel-service-{N-1}
//!                                 (each: epoll set + its connections +
//!                                  the core's TxHandle)
//!  doppel-coordinator, doppel-tuner: Doppel's own threads, as before
//! ```
//!
//! The accept thread hands each connection to one core; from then on that
//! core reads its frames, executes them on its own handle a group at a time
//! ([`CoreCtx::serve_group`]) and writes the replies. Replies are written in
//! completion order, which is exactly what the `Deferred` → `Done` protocol
//! expresses, and a client that stops reading its replies is shed rather
//! than allowed to grow server memory without bound ([`crate::reactor`]).
//!
//! What still crosses cores, and why: an in-process
//! [`crate::ServiceClient`] has no socket for a core to own, so it goes
//! through the core's submission queue and gets its completion through a
//! sink; the apply step of a 2PC `Decide` is submitted the same way (the
//! participant finishes its bookkeeping in the completion sink) and its
//! reply returns to the connection through the loop's outbox
//! ([`crate::reactor`]).

use crate::reactor::{CloseReason, FrameReply, ReactorConfig, Replied};
use crate::service::{CoreCtx, ServiceConfig, ServiceState, TransactionService};
use crate::twopc::Participant;
use crate::wire::{
    decode_client, decode_invoke, server_frame_append, ClientMsg, ServerMsg, WireAbort, WireDone,
    WireStmt,
};
use doppel_common::{
    ArgsRef, DoppelConfig, Engine, Op, Outcome, ProcId, ProcRegistry, ProcResult, ProcStats,
    Procedure, RegisteredCall, RequestId, Tid, Tx, TxError, Value,
};
use doppel_db::DoppelDb;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A transaction received over the wire, executable by any engine.
///
/// `Get` results are captured on every (re-)execution — Doppel may stash and
/// replay the procedure — so the values shipped with the completion are the
/// ones observed by the run that actually committed.
pub struct RemoteProcedure {
    stmts: Vec<WireStmt>,
    reads: parking_lot::Mutex<Vec<Option<Value>>>,
}

impl RemoteProcedure {
    /// Wraps a statement list.
    pub fn new(stmts: Vec<WireStmt>) -> Self {
        RemoteProcedure { stmts, reads: parking_lot::Mutex::new(Vec::new()) }
    }

    /// Takes the `Get` results of the last completed execution.
    pub fn take_values(&self) -> Vec<Option<Value>> {
        std::mem::take(&mut *self.reads.lock())
    }
}

impl Procedure for RemoteProcedure {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        // Reuse the previous execution's value buffer: Doppel may stash and
        // re-run this procedure several times, and the service replays it on
        // conflicts — each run would otherwise allocate a fresh vector.
        let mut vals = std::mem::take(&mut *self.reads.lock());
        vals.clear();
        for stmt in &self.stmts {
            match stmt {
                WireStmt::Get(k) => vals.push(tx.get(*k)?),
                WireStmt::Write(k, op) => {
                    // Ordered inserts carry the *executing* core, exactly as
                    // the direct path's `Tx::oput` / `Tx::topk_insert` fill
                    // it in — a remote client cannot know which core will
                    // run its procedure.
                    let op = match op.clone() {
                        Op::OPut { order, payload, .. } => {
                            Op::OPut { order, core: tx.core(), payload }
                        }
                        Op::TopKInsert { order, payload, k: cap, .. } => {
                            Op::TopKInsert { order, core: tx.core(), payload, k: cap }
                        }
                        other => other,
                    };
                    tx.write_op(*k, op)?;
                }
            }
        }
        *self.reads.lock() = vals;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "remote"
    }

    fn is_read_only(&self) -> bool {
        self.stmts.iter().all(|s| matches!(s, WireStmt::Get(_)))
    }
}

/// An engine prepared for serving: the trait object the service drives, the
/// concrete Doppel handle (when the engine is Doppel) for control operations
/// the [`Engine`] trait does not expose (split labelling), and the
/// stored-procedure registry `InvokeProc` messages dispatch against.
pub struct ServerEngine {
    /// The engine behind the service.
    pub engine: Arc<dyn Engine>,
    /// Set when `engine` is a Doppel database.
    pub doppel: Option<Arc<DoppelDb>>,
    /// Registered procedures served to `InvokeProc` clients (empty by
    /// default: such a server answers every invocation with `UnknownProc`
    /// but still serves raw statement lists).
    pub procs: Arc<ProcRegistry>,
    /// Durable vote log for cross-shard two-phase commit (normally the same
    /// [`doppel_wal::Wal`] attached as the engine's commit sink, so prepare
    /// and decide records interleave with ordinary commit records). `None`
    /// disables durable voting: 2PC still works but forgets prepared
    /// transactions on restart.
    pub vote_log: Option<Arc<doppel_wal::Wal>>,
    /// In-doubt transactions recovered from the vote log: prepared (voted
    /// yes) but with no decision on record. Their keys are re-locked at
    /// startup until the coordinator re-delivers the decision.
    pub in_doubt: Vec<doppel_wal::InDoubtTxn>,
    /// Run the adaptive contention controller alongside the coordinator
    /// (Doppel engines only): a [`doppel_tuner::Tuner`] thread that learns
    /// split labels and phase length from live telemetry.
    pub adaptive: bool,
}

impl ServerEngine {
    /// Wraps a started Doppel database.
    pub fn doppel(db: Arc<DoppelDb>) -> Self {
        ServerEngine {
            engine: db.clone(),
            doppel: Some(db),
            procs: Arc::default(),
            vote_log: None,
            in_doubt: Vec::new(),
            adaptive: false,
        }
    }

    /// Wraps any other engine.
    pub fn other(engine: Arc<dyn Engine>) -> Self {
        ServerEngine {
            engine,
            doppel: None,
            procs: Arc::default(),
            vote_log: None,
            in_doubt: Vec::new(),
            adaptive: false,
        }
    }

    /// Enables (or disables) the adaptive contention controller. Only
    /// meaningful for Doppel engines; ignored otherwise.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Attaches a procedure registry (built by registering procedure packs).
    pub fn with_procs(mut self, procs: Arc<ProcRegistry>) -> Self {
        self.procs = procs;
        self
    }

    /// Attaches the durable two-phase-commit vote log.
    pub fn with_vote_log(mut self, wal: Arc<doppel_wal::Wal>) -> Self {
        self.vote_log = Some(wal);
        self
    }

    /// Seeds recovered in-doubt transactions (see [`doppel_wal::Recovered::in_doubt`]).
    pub fn with_in_doubt(mut self, in_doubt: Vec<doppel_wal::InDoubtTxn>) -> Self {
        self.in_doubt = in_doubt;
        self
    }

    /// Builds an engine by name (`doppel`, `occ`, `2pl`, `atomic`), mirroring
    /// the benchmark crate's engine table but constructed here because the
    /// server cannot depend on the benchmark crate.
    pub fn build(name: &str, workers: usize, phase_ms: u64, shards: usize) -> Option<ServerEngine> {
        Self::build_with_tuner(name, workers, phase_ms, shards, doppel_common::TunerConfig::default())
    }

    /// [`ServerEngine::build`] with an explicit adaptive-tuner configuration
    /// for the Doppel engine (baselines have nothing to tune and ignore it).
    pub fn build_with_tuner(
        name: &str,
        workers: usize,
        phase_ms: u64,
        shards: usize,
        tuner: doppel_common::TunerConfig,
    ) -> Option<ServerEngine> {
        match name.to_ascii_lowercase().as_str() {
            "doppel" => {
                let config = DoppelConfig {
                    workers,
                    store_shards: shards,
                    phase_len: Duration::from_millis(phase_ms.max(1)),
                    tuner,
                    ..DoppelConfig::default()
                };
                Some(ServerEngine::doppel(Arc::new(DoppelDb::start(config))))
            }
            "occ" => Some(ServerEngine::other(Arc::new(doppel_occ::OccEngine::new(workers, shards)))),
            "2pl" | "twopl" => {
                Some(ServerEngine::other(Arc::new(doppel_twopl::TwoplEngine::new(workers, shards))))
            }
            "atomic" => Some(ServerEngine::other(Arc::new(doppel_atomic::AtomicEngine::new(workers)))),
            _ => None,
        }
    }
}

/// How the listener's connections are served. There is one way — each
/// engine core's loop serves the connections assigned to it — so this only
/// carries the socket-side tuning.
#[derive(Clone, Debug)]
pub enum FrontEnd {
    /// Per-core epoll loops (see [`crate::reactor`]).
    Reactor(ReactorConfig),
}

impl FrontEnd {
    /// The front-end with default tuning.
    pub fn reactor() -> FrontEnd {
        FrontEnd::Reactor(ReactorConfig::default())
    }
}

impl Default for FrontEnd {
    fn default() -> Self {
        FrontEnd::reactor()
    }
}

/// Front-end health counters.
#[derive(Default)]
pub struct NetStats {
    accept_errors: AtomicU64,
    conns_accepted: AtomicU64,
    conns_shed: AtomicU64,
    decode_errors: AtomicU64,
}

impl NetStats {
    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the front-end health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// `accept(2)` failures (e.g. `EMFILE`); each is followed by a short
    /// back-off, never a busy spin.
    pub accept_errors: u64,
    /// Connections successfully accepted.
    pub conns_accepted: u64,
    /// Connections disconnected because their write buffer overflowed (the
    /// client stopped reading) or a reply could not be framed.
    pub conns_shed: u64,
    /// Connections dropped for sending bytes that do not decode as the wire
    /// protocol (including hostile length prefixes).
    pub decode_errors: u64,
}

/// What a core loop serves frames against, shared by every core of one
/// server: the procedure registry, the Doppel control handle, the 2PC
/// participant and the front-end counters.
pub struct ServeCtx {
    pub(crate) doppel: Option<Arc<DoppelDb>>,
    pub(crate) procs: Arc<ProcRegistry>,
    pub(crate) net: Arc<NetStats>,
    pub(crate) twopc: Arc<Participant>,
    pub(crate) tuner: Option<doppel_tuner::TunerWatch>,
    pub(crate) write_queue_bytes: usize,
}

impl ServeCtx {
    /// The serving context of `engine`, with a per-connection write budget
    /// of `write_queue_bytes` and, when the adaptive tuner runs, its watch.
    pub fn new(
        engine: ServerEngine,
        write_queue_bytes: usize,
        tuner: Option<doppel_tuner::TunerWatch>,
    ) -> ServeCtx {
        ServeCtx {
            twopc: Arc::new(Participant::new(
                Arc::clone(&engine.engine),
                engine.vote_log,
                engine.in_doubt,
            )),
            doppel: engine.doppel,
            procs: engine.procs,
            net: Arc::default(),
            tuner,
            write_queue_bytes,
        }
    }
}

/// A stashed socket request: the owned transaction the engine keeps for the
/// replay, and how its completion is rendered on the wire.
pub(crate) enum Served {
    /// `InvokeProc`: a registered procedure bound to a copy of its arguments.
    Call(Arc<RegisteredCall>),
    /// `Submit`: a raw statement list.
    Stmts(Arc<RemoteProcedure>),
}

impl Served {
    /// The registry entry's counters, for a registered procedure.
    pub(crate) fn stats(&self) -> Option<&ProcStats> {
        match self {
            Served::Call(call) => call.proc_stats(),
            Served::Stmts(_) => None,
        }
    }

    /// The `Done` message for the replay's `result`, resolving the typed
    /// [`doppel_common::ProcResult`] or the `Get` values from the run that
    /// committed.
    pub(crate) fn done(&self, id: u64, result: Result<Tid, TxError>, deferred: bool) -> ServerMsg {
        match self {
            Served::Call(call) => done_msg(id, result, deferred, Vec::new(), call.take_result()),
            Served::Stmts(stmts) => done_msg(id, result, deferred, stmts.take_values(), None),
        }
    }
}

/// A `Done` message; what the transaction produced ships only on commit.
fn done_msg(
    id: u64,
    result: Result<Tid, TxError>,
    deferred: bool,
    values: Vec<Option<Value>>,
    proc_result: Option<ProcResult>,
) -> ServerMsg {
    ServerMsg::Done(match result {
        Ok(tid) => WireDone { id, result: Ok(tid.raw()), deferred, values, proc_result },
        Err(e) => WireDone {
            id,
            result: Err(WireAbort::from_error(&e)),
            deferred,
            values: Vec::new(),
            proc_result: None,
        },
    })
}

/// Appends a reply frame. A reply that cannot be framed (over `MAX_FRAME`)
/// can never reach the peer intact; the connection is beyond repair.
fn frame(out: &mut Vec<u8>, msg: &ServerMsg) -> Result<(), CloseReason> {
    server_frame_append(msg, out).map_err(|_| CloseReason::Shed)
}

/// Frames served as one group ([`CoreCtx::serve_group`]), sized by
/// `store_get_prefetched/N` in `crates/bench/benches/microbench.rs`: enough
/// lookups in flight to overlap their misses, and flat from 16 to 32.
pub const GROUP_FRAMES: usize = 32;

/// One frame of a group after the decoding pass.
#[derive(Clone, Copy)]
enum Decoded<'f> {
    /// An `InvokeProc`: its name resolved (`None`: not registered here), its
    /// arguments a validated view into the frame.
    Invoke { id: u64, proc: Option<ProcId>, args: ArgsRef<'f> },
    /// Any other message, left encoded: decoding one allocates its owned
    /// form, which is its turn's work.
    Other(&'f [u8]),
    /// Bytes that are not the protocol: the group and the connection end here.
    Malformed,
}

impl CoreCtx<'_> {
    /// The whole path of the socket requests one `read` delivered, minus the
    /// socket: takes up to [`GROUP_FRAMES`] of `frames` (read at `read_at`
    /// from connection `token`) and serves them in three passes.
    ///
    /// 1. **Decode**, each frame once: an `InvokeProc` into its id, the
    ///    procedure its name resolves to and an argument view into the frame
    ///    ([`decode_invoke`] validates it), noting the call's *footprint* —
    ///    the keys among its arguments ([`ArgsRef::keys`]).
    /// 2. **Prefetch**: the group's footprints go to the engine in one
    ///    [`doppel_common::TxHandle::prefetch`], so that the cache misses of
    ///    independent calls overlap instead of waiting for one another.
    /// 3. **Execute**, frame by frame in arrival order, a transaction each on
    ///    this core's own handle; every reply it can already give is appended
    ///    to `out` and `replied` called before the next frame runs.
    ///
    /// An `InvokeProc` is served where it lies: its body runs on the argument
    /// view, the result is caught on this stack and encoded straight into
    /// `out` — a warm call whose result fits
    /// [`doppel_common::proc::INLINE_ARG_BYTES`] allocates nothing here. Only
    /// a call the engine stashes is copied out of the frame, into the
    /// [`RegisteredCall`] kept for the replay; it gets its `Deferred` notice
    /// now and waits in this core's deferred map.
    ///
    /// Returns how many frames were served. Errors are acted on in order: the
    /// frames ahead of a malformed one (or of a hostile length prefix) run
    /// and are answered, then the error says why the connection must be
    /// closed; the frames behind it never run.
    pub fn serve_group(
        &mut self,
        token: usize,
        read_at: Instant,
        frames: &mut dyn Iterator<Item = io::Result<&[u8]>>,
        out: &mut Vec<u8>,
        replied: &mut Replied<'_>,
    ) -> Result<usize, CloseReason> {
        let serve = self.serve.ok_or(CloseReason::Protocol)?;
        let mut group = [Decoded::Malformed; GROUP_FRAMES];
        let mut len = 0;
        self.keys.clear();
        for (decoded, frame) in group.iter_mut().zip(frames) {
            len += 1;
            *decoded = match frame.ok().map(|payload| (payload, decode_invoke(payload))) {
                Some((_, Ok(Some((id, name, args))))) => {
                    self.keys.extend(args.keys());
                    Decoded::Invoke { id, proc: serve.procs.lookup(name), args }
                }
                Some((payload, Ok(None))) => Decoded::Other(payload),
                _ => break,
            };
        }
        self.handle.prefetch(&self.keys);
        let procs = &serve.procs;
        for decoded in &group[..len] {
            let before = out.len();
            let reply = match *decoded {
                Decoded::Invoke { id, proc: Some(proc), args } => {
                    let (mut result, mut owned) = (None, None);
                    let outcome = self.execute(
                        RequestId(id),
                        Some(procs.stats_of(proc)),
                        read_at,
                        &mut |tx| {
                            result = Some(procs.run(proc, tx, args)?);
                            Ok(())
                        },
                        &mut || {
                            let call = procs.call(proc, args.to_owned());
                            owned = Some(Arc::clone(&call));
                            call
                        },
                    );
                    self.reply(
                        token,
                        id,
                        outcome,
                        out,
                        |outcome| done_msg(id, outcome, false, Vec::new(), result),
                        || Served::Call(owned.expect("the engine owns what it stashes")),
                    )?
                }
                // Typed rejection: the name is not registered on this server
                // (the client sees a non-retryable abort).
                Decoded::Invoke { id, proc: None, .. } => {
                    let done = WireDone {
                        id,
                        result: Err(WireAbort::UnknownProc),
                        deferred: false,
                        values: Vec::new(),
                        proc_result: None,
                    };
                    frame(out, &ServerMsg::Done(done))?;
                    FrameReply::Written
                }
                Decoded::Other(payload) => self.serve_message(serve, token, read_at, payload, out)?,
                Decoded::Malformed => return Err(CloseReason::Protocol),
            };
            if let Some(reason) = replied(out, before, reply) {
                return Err(reason);
            }
        }
        Ok(len)
    }

    /// [`CoreCtx::serve_group`] for the group of one frame `payload`, with
    /// no write budget: what tests and allocation budgets drive.
    pub fn serve_frame(
        &mut self,
        token: usize,
        read_at: Instant,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<FrameReply, CloseReason> {
        let mut left = FrameReply::Written;
        let noted = &mut |_: &mut Vec<u8>, _, reply| {
            left = reply;
            None
        };
        self.serve_group(token, read_at, &mut std::iter::once(Ok(payload)), out, noted)?;
        Ok(left)
    }

    /// Renders a socket transaction's outcome: `done` on commit or abort; on
    /// a stash the `Deferred` notice, with `stashed` — the owned transaction —
    /// remembered until this core replays it.
    fn reply(
        &mut self,
        token: usize,
        id: u64,
        outcome: Outcome,
        out: &mut Vec<u8>,
        done: impl FnOnce(Result<Tid, TxError>) -> ServerMsg,
        stashed: impl FnOnce() -> Served,
    ) -> Result<FrameReply, CloseReason> {
        match outcome {
            Outcome::Committed(tid) => frame(out, &done(Ok(tid)))?,
            Outcome::Aborted(e) => frame(out, &done(Err(e)))?,
            Outcome::Stashed(ticket) => {
                frame(out, &ServerMsg::Deferred { id })?;
                self.defer_conn(ticket, RequestId(id), token, stashed());
                return Ok(FrameReply::Owed);
            }
        }
        Ok(FrameReply::Written)
    }

    /// Decodes and serves a frame that is not an `InvokeProc`: a statement
    /// list runs as a transaction; everything else is answered on the spot,
    /// except a commit decision, whose apply step goes through this core's
    /// queue.
    fn serve_message(
        &mut self,
        serve: &ServeCtx,
        token: usize,
        read_at: Instant,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<FrameReply, CloseReason> {
        let reply = match decode_client(payload).map_err(|_| CloseReason::Protocol)? {
            ClientMsg::Submit { id, stmts } => {
                let stmts = Arc::new(RemoteProcedure::new(stmts));
                let outcome = self.execute(
                    RequestId(id),
                    None,
                    read_at,
                    &mut |tx| stmts.run(tx),
                    &mut || Arc::clone(&stmts) as Arc<dyn Procedure>,
                );
                return self.reply(
                    token,
                    id,
                    outcome,
                    out,
                    |outcome| done_msg(id, outcome, false, stmts.take_values(), None),
                    || Served::Stmts(Arc::clone(&stmts)),
                );
            }
            ClientMsg::LabelSplit { id, key, op } => {
                if let Some(db) = &serve.doppel {
                    db.label_split(key, op.kind());
                }
                ServerMsg::Ack { id }
            }
            ClientMsg::Ping { id } => ServerMsg::Ack { id },
            ClientMsg::GetStats { id } => ServerMsg::Stats {
                id,
                snapshot: Box::new(telemetry_snapshot(serve, self.state, self.engine)),
            },
            ClientMsg::Prepare { id, txid, stmts } => match serve.twopc.prepare(txid, &stmts) {
                Some(values) => ServerMsg::Vote { id, txid, ok: true, values },
                None => ServerMsg::Vote { id, txid, ok: false, values: Vec::new() },
            },
            ClientMsg::Decide { id, txid, commit } => {
                if serve.twopc.crash_before_decide() {
                    // Test instrumentation: die in the in-doubt window — after
                    // the durable yes-vote, before the decision lands.
                    std::process::exit(86);
                }
                if commit {
                    let send = self.state.remote_replier(self.core, token);
                    serve.twopc.decide_commit(self.state, self.core, id, txid, send);
                    return Ok(FrameReply::Owed);
                }
                serve.twopc.decide_abort(txid);
                ServerMsg::Ack { id }
            }
            ClientMsg::InvokeProc { .. } => unreachable!("served by serve_group"),
        };
        frame(out, &reply)?;
        Ok(FrameReply::Written)
    }
}

/// Assembles the full telemetry bundle: engine counters, engine-side and
/// service-side metrics, network counters, the current phase and the
/// per-procedure table — everything a `GetStats` reply ships.
pub(crate) fn telemetry_snapshot(
    serve: &ServeCtx,
    state: &ServiceState,
    engine: &dyn Engine,
) -> crate::TelemetrySnapshot {
    let mut snap = crate::TelemetrySnapshot::default();
    snap.absorb_stats(&state.stats_with_queues(engine));
    snap.absorb_metrics(state.metrics());
    if let Some(reg) = engine.telemetry() {
        snap.absorb_metrics(reg.snapshot());
    }
    let net = serve.net.snapshot();
    snap.scalars.push(("accept_errors".into(), net.accept_errors));
    snap.scalars.push(("conns_accepted".into(), net.conns_accepted));
    snap.scalars.push(("conns_shed".into(), net.conns_shed));
    snap.scalars.push(("decode_errors".into(), net.decode_errors));
    snap.scalars.push(("trace_events".into(), doppel_telemetry::trace::events_recorded()));
    snap.scalars.extend(serve.twopc.scalars());
    snap.phase = match &serve.doppel {
        Some(db) => match db.current_phase() {
            doppel_db::Phase::Joined => "joined".into(),
            doppel_db::Phase::Split => "split".into(),
        },
        None => "-".into(),
    };
    snap.procs = serve.procs.stats();
    if let Some(watch) = &serve.tuner {
        let status = watch.status();
        snap.tuner = Some(crate::TunerSnapshot {
            epochs: status.epochs,
            phase_len_us: status.phase_len.as_micros().min(u64::MAX as u128) as u64,
            split_keys: status.split_keys,
            decisions: status.decisions,
        });
    }
    snap
}

/// How long the accept loop should sleep after `err`, or `None` for errors
/// that need no back-off. Per-connection failures (the peer aborted its own
/// handshake) carry no risk of spinning; resource exhaustion (`EMFILE`,
/// `ENFILE`, `ENOMEM`) absolutely does — `accept(2)` fails instantly without
/// consuming the pending connection, so a loop that just `continue`s pins a
/// core until a descriptor frees up.
pub(crate) fn accept_backoff(err: &io::Error) -> Option<Duration> {
    match err.kind() {
        io::ErrorKind::WouldBlock
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset => None,
        _ => Some(Duration::from_millis(10)),
    }
}

/// A running `doppel-server`: a listener plus the transaction service whose
/// core loops serve its connections. Dropping (or [`Server::shutdown`])
/// closes connections, drains the service and shuts the engine down.
pub struct Server {
    service: Arc<TransactionService>,
    serve: Arc<ServeCtx>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: parking_lot::Mutex<Option<JoinHandle<()>>>,
    tuner: parking_lot::Mutex<Option<doppel_tuner::TunerHandle>>,
}

impl Server {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` with default socket-side tuning.
    pub fn start(
        engine: ServerEngine,
        config: ServiceConfig,
        bind_addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        Server::start_with(engine, config, bind_addr, FrontEnd::default())
    }

    /// [`Server::start`] with explicit socket-side tuning.
    pub fn start_with(
        engine: ServerEngine,
        config: ServiceConfig,
        bind_addr: impl ToSocketAddrs,
        front_end: FrontEnd,
    ) -> io::Result<Server> {
        let FrontEnd::Reactor(reactor) = front_end;
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        // Close the loop: the tuner thread samples the engine's telemetry
        // each epoch and drives split labels / phase length / classifier
        // thresholds through the database's `TuneSink` hooks.
        let tuner = match (&engine.doppel, engine.adaptive) {
            (Some(db), true) => {
                let registry = db
                    .telemetry()
                    .unwrap_or_else(|| Arc::new(doppel_telemetry::Registry::new()));
                Some(doppel_tuner::TunerHandle::spawn(
                    db.config().tuner.clone(),
                    Arc::clone(db) as Arc<dyn doppel_common::TuneSink>,
                    registry,
                ))
            }
            _ => None,
        };

        let served_engine = Arc::clone(&engine.engine);
        let serve = Arc::new(ServeCtx::new(
            engine,
            reactor.write_queue_bytes,
            tuner.as_ref().map(|t| t.watch()),
        ));
        let service = TransactionService::spawn(served_engine, config, Some(Arc::clone(&serve)));

        let accept = {
            let (stop, net, service) =
                (Arc::clone(&stop), Arc::clone(&serve.net), Arc::clone(&service));
            std::thread::Builder::new()
                .name("doppel-accept".into())
                .spawn(move || accept_loop(listener, stop, net, service))?
        };

        Ok(Server {
            service,
            serve,
            addr,
            stop,
            accept: parking_lot::Mutex::new(Some(accept)),
            tuner: parking_lot::Mutex::new(tuner),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (statistics, direct submission).
    pub fn service(&self) -> &Arc<TransactionService> {
        &self.service
    }

    /// The concrete Doppel database, when serving one.
    pub fn doppel(&self) -> Option<&Arc<DoppelDb>> {
        self.serve.doppel.as_ref()
    }

    /// The stored-procedure registry (per-procedure statistics live here).
    pub fn procs(&self) -> &Arc<ProcRegistry> {
        &self.serve.procs
    }

    /// Front-end health counters (accepts, accept errors, shed connections,
    /// protocol errors).
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.serve.net.snapshot()
    }

    /// The same [`crate::TelemetrySnapshot`] a `GetStats` client receives,
    /// assembled in-process (the `--stats-interval` ticker uses this).
    pub fn telemetry_snapshot(&self) -> crate::TelemetrySnapshot {
        telemetry_snapshot(&self.serve, self.service.state(), self.service.engine().as_ref())
    }

    /// A live view of the adaptive tuner's state, when running with
    /// [`ServerEngine::with_adaptive`].
    pub fn tuner_watch(&self) -> Option<&doppel_tuner::TunerWatch> {
        self.serve.tuner.as_ref()
    }

    /// Stops accepting, drains the service (whose loops close every
    /// connection on their way out) and shuts the engine down. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Stop the tuner first so it never pokes a draining engine.
        if let Some(mut handle) = self.tuner.lock().take() {
            handle.stop();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.lock().take() {
            let _ = handle.join();
        }
        self.service.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    net: Arc<NetStats>,
    service: Arc<TransactionService>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                // Resource exhaustion (EMFILE & friends) fails instantly and
                // leaves the pending connection queued: back off instead of
                // spinning the accept thread at 100% CPU.
                net.note_accept_error();
                if let Some(pause) = accept_backoff(&e) {
                    std::thread::sleep(pause);
                }
                continue;
            }
        };
        // Replies are small and latency-sensitive; never wait for Nagle.
        let _ = stream.set_nodelay(true);
        net.note_conn_accepted();
        service.state().assign(stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_sleeps_on_resource_exhaustion() {
        // EMFILE / ENFILE: the pending connection stays queued and accept(2)
        // fails instantly — exactly the busy-spin case the back-off exists
        // for.
        let emfile = io::Error::from_raw_os_error(24);
        let enfile = io::Error::from_raw_os_error(23);
        assert!(accept_backoff(&emfile).is_some());
        assert!(accept_backoff(&enfile).is_some());
    }

    #[test]
    fn accept_backoff_skips_per_connection_failures() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
        ] {
            let err = io::Error::new(kind, "transient");
            assert!(accept_backoff(&err).is_none(), "{kind:?} should not pause accepting");
        }
    }
}
