//! The transaction service: engine-owned workers fed by submission queues.
//!
//! This is the paper's deployment model (§3, §6) made concrete: clients
//! submit [`Procedure`]s, one worker thread per core executes them. The
//! pipeline is the classic request decomposition — admission → queue →
//! execute → complete — with backpressure at the admission boundary:
//!
//! ```text
//!  clients ──submit──► [bounded queue per core] ──batched pop──► worker
//!     ▲                       │ full?                              │
//!     └──── Busy ◄────────────┘              Done / Deferred ◄─────┘
//! ```
//!
//! Two entry points share the same machinery:
//!
//! * [`ServiceState`] — the queue/dispatch core. It owns no threads, so a
//!   benchmark can run its worker loops on scoped threads borrowing a stack
//!   engine (`doppel_workloads::Driver` does exactly that).
//! * [`TransactionService`] — the owned flavour: spawns one worker thread
//!   per core over an `Arc<dyn Engine>` and tears everything down in
//!   [`TransactionService::shutdown`]. The TCP server builds on this.

use crate::queue::{PushError, SubmissionQueue};
use doppel_common::{
    Engine, EngineStats, Outcome, Procedure, RequestId, ServiceCompletion, ServiceReply,
    StatsSnapshot, SubmitError, Ticket, TxError, TxHandle,
};
use doppel_telemetry::trace::{self, EventKind};
use doppel_telemetry::{Registry, SharedHistogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a completion goes. Each submission carries its own sink so one
/// service can serve many independent clients (benchmark threads, TCP
/// connections) without a central completion router.
pub type ReplySink = Arc<dyn Fn(ServiceReply) + Send + Sync>;

/// Tuning knobs for a service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Depth cap of each per-core submission queue; a full queue rejects
    /// submissions with [`SubmitError::Busy`].
    pub queue_depth: usize,
    /// Maximum procedures dequeued (and executed) per batch.
    pub batch_max: usize,
    /// How long an idle worker parks before passing an engine safepoint.
    /// Bounds how long an idle worker can delay a Doppel phase transition.
    pub idle_poll: Duration,
    /// How long a draining worker keeps passing safepoints waiting for
    /// stash-deferred procedures to replay before aborting them with
    /// [`TxError::Shutdown`].
    pub drain_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 1024,
            batch_max: 64,
            idle_poll: Duration::from_micros(200),
            drain_timeout: Duration::from_secs(2),
        }
    }
}

/// One queued submission.
struct Request {
    id: RequestId,
    proc: Arc<dyn Procedure>,
    reply: ReplySink,
    enqueued_at: Instant,
}

/// The thread-agnostic service core: submission queues, dispatch loop and
/// queue statistics. See the module docs for how [`TransactionService`] and
/// the benchmark driver layer on top.
pub struct ServiceState {
    queues: Vec<SubmissionQueue<Request>>,
    config: ServiceConfig,
    /// Queue-side counters (`queue_*`); the engine owns everything else.
    /// Combined views come from [`ServiceState::stats_with_queues`].
    qstats: EngineStats,
    next_core: AtomicUsize,
    /// Service-side latency metrics: time spent queued vs. executing.
    telemetry: Arc<Registry>,
    hist_queue_wait: Arc<SharedHistogram>,
    hist_exec: Arc<SharedHistogram>,
}

impl ServiceState {
    /// Creates the core for `workers` cores.
    pub fn new(workers: usize, config: ServiceConfig) -> Self {
        assert!(workers > 0, "a service needs at least one worker");
        let telemetry = Arc::new(Registry::new());
        let hist_queue_wait = telemetry.histogram("queue_wait");
        let hist_exec = telemetry.histogram("exec");
        ServiceState {
            queues: (0..workers).map(|_| SubmissionQueue::new(config.queue_depth)).collect(),
            qstats: EngineStats::new(0),
            next_core: AtomicUsize::new(0),
            config,
            telemetry,
            hist_queue_wait,
            hist_exec,
        }
    }

    /// The service-side metrics registry (`queue_wait` / `exec` histograms).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Number of worker cores (= submission queues).
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Submits `proc` to a specific core's queue. `reply` receives a
    /// [`ServiceReply::Done`] (and possibly a [`ServiceReply::Deferred`]
    /// first); a rejection is returned synchronously instead.
    pub fn submit_to(
        &self,
        core: usize,
        id: RequestId,
        proc: Arc<dyn Procedure>,
        reply: ReplySink,
    ) -> Result<(), SubmitError> {
        let queue = &self.queues[core];
        // The depth gauge is raised *before* the push: once the item is in
        // the queue a worker may pop and decrement at any moment, and
        // raising first guarantees the increment happens-before that
        // decrement (no transient u64 underflow in concurrent snapshots).
        self.qstats.queue_depth.fetch_add(1, Ordering::Relaxed);
        match queue.try_push(Request { id, proc, reply, enqueued_at: Instant::now() }) {
            Ok(()) => {
                EngineStats::bump(&self.qstats.queue_enqueued);
                trace::instant(EventKind::TxnEnqueue, id.0);
                Ok(())
            }
            Err(e) => {
                self.qstats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                match e {
                    PushError::Full => {
                        EngineStats::bump(&self.qstats.queue_busy_rejections);
                        Err(SubmitError::Busy)
                    }
                    PushError::Closed => Err(SubmitError::Shutdown),
                }
            }
        }
    }

    /// Submits `proc` to the next core round-robin; returns the core chosen.
    pub fn submit(
        &self,
        id: RequestId,
        proc: Arc<dyn Procedure>,
        reply: ReplySink,
    ) -> Result<usize, SubmitError> {
        let core = self.next_core.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.submit_to(core, id, proc, reply).map(|()| core)
    }

    /// Closes every submission queue: new submissions fail with
    /// [`SubmitError::Shutdown`], queued work still executes, and workers
    /// move into their drain sequence once their queue is empty.
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }

    /// True once [`ServiceState::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.queues[0].is_closed()
    }

    /// Snapshot of the queue-side counters (all engine counters zero).
    pub fn queue_stats(&self) -> StatsSnapshot {
        self.qstats.snapshot()
    }

    /// The engine's statistics with this service's queue counters overlaid —
    /// the one snapshot benchmarks and reports should consume.
    pub fn stats_with_queues(&self, engine: &dyn Engine) -> StatsSnapshot {
        engine.stats().with_queue_counters(&self.queue_stats())
    }

    /// The worker loop for `core`: owns the core's [`TxHandle`], dequeues in
    /// batches, executes, routes completions (including stash-deferred ones)
    /// and performs the graceful drain once the queue closes. Run this on a
    /// dedicated thread — one per core, exactly once per core id.
    pub fn worker_loop(&self, engine: &dyn Engine, core: usize) {
        let mut handle = engine.handle(core);
        let queue = &self.queues[core];
        let mut batch: Vec<Request> = Vec::with_capacity(self.config.batch_max);
        // Stash-deferred procedures in flight on this worker (the procedure
        // rides along so registered calls get their final outcome counted).
        let mut deferred: HashMap<Ticket, (RequestId, ReplySink, Arc<dyn Procedure>)> =
            HashMap::new();

        loop {
            let open = queue.pop_batch(self.config.batch_max, self.config.idle_poll, &mut batch);
            if batch.is_empty() {
                if !open {
                    break;
                }
                // Idle: keep passing safepoints so phase transitions are
                // never held up, and keep delivering stash replays.
                handle.safepoint();
                Self::deliver_completions(handle.as_mut(), &mut deferred);
                continue;
            }
            self.qstats.queue_depth.fetch_sub(batch.len() as u64, Ordering::Relaxed);
            EngineStats::bump(&self.qstats.queue_batches);
            for req in batch.drain(..) {
                let exec_started = Instant::now();
                self.hist_queue_wait
                    .record(core, exec_started.saturating_duration_since(req.enqueued_at));
                let outcome = handle.execute(Arc::clone(&req.proc));
                self.hist_exec.record(core, exec_started.elapsed());
                trace::span_since(EventKind::TxnExec, req.id.0, exec_started);
                match outcome {
                    Outcome::Committed(tid) => {
                        if let Some(s) = req.proc.proc_stats() {
                            s.note_outcome(core, true);
                        }
                        trace::instant(EventKind::TxnCommit, req.id.0);
                        (req.reply)(ServiceReply::Done(ServiceCompletion {
                            request: req.id,
                            result: Ok(tid),
                            deferred: false,
                        }))
                    }
                    Outcome::Aborted(e) => {
                        if let Some(s) = req.proc.proc_stats() {
                            s.note_outcome(core, false);
                        }
                        trace::instant(EventKind::TxnAbort, req.id.0);
                        (req.reply)(ServiceReply::Done(ServiceCompletion {
                            request: req.id,
                            result: Err(e),
                            deferred: false,
                        }))
                    }
                    Outcome::Stashed(ticket) => {
                        if let Some(s) = req.proc.proc_stats() {
                            s.note_deferral(core);
                        }
                        (req.reply)(ServiceReply::Deferred(req.id));
                        deferred.insert(ticket, (req.id, req.reply, req.proc));
                    }
                }
            }
            Self::deliver_completions(handle.as_mut(), &mut deferred);
            if !open {
                break;
            }
        }

        // Graceful drain: the queue is closed and empty. Keep passing
        // safepoints so the engine can finish phase transitions and replay
        // this worker's stash; everything still deferred at the deadline is
        // aborted with `Shutdown` so no client waits forever.
        let deadline = Instant::now() + self.config.drain_timeout;
        while !deferred.is_empty() && Instant::now() < deadline {
            handle.safepoint();
            Self::deliver_completions(handle.as_mut(), &mut deferred);
            if deferred.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        for (_, (id, reply, proc)) in deferred.drain() {
            if let Some(s) = proc.proc_stats() {
                s.note_outcome(core, false);
            }
            reply(ServiceReply::Done(ServiceCompletion {
                request: id,
                result: Err(TxError::Shutdown),
                deferred: true,
            }));
        }
        // The handle drops here: a Doppel worker merges its remaining slices
        // and unregisters from the phase barrier.
    }

    fn deliver_completions(
        handle: &mut dyn TxHandle,
        deferred: &mut HashMap<Ticket, (RequestId, ReplySink, Arc<dyn Procedure>)>,
    ) {
        if deferred.is_empty() {
            return;
        }
        let core = handle.core();
        for completion in handle.take_completions() {
            if let Some((id, reply, proc)) = deferred.remove(&completion.ticket) {
                if let Some(s) = proc.proc_stats() {
                    s.note_outcome(core, completion.result.is_ok());
                }
                reply(ServiceReply::Done(ServiceCompletion {
                    request: id,
                    result: completion.result,
                    deferred: true,
                }));
            }
        }
    }
}

/// The owned transaction service: spawns one worker thread per engine core
/// and tears them down (with a graceful drain) in
/// [`TransactionService::shutdown`].
///
/// # Examples
///
/// ```
/// use doppel_common::{Engine, Key, ProcedureFn, Value};
/// use doppel_service::{ServiceConfig, TransactionService};
/// use std::sync::Arc;
///
/// let engine = Arc::new(doppel_occ::OccEngine::new(2, 64));
/// engine.load(Key::raw(1), Value::Int(0));
/// let service = TransactionService::start(engine.clone(), ServiceConfig::default());
/// let mut client = service.client();
/// let id = client.submit(Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)))).unwrap();
/// assert!(client.wait(id).result.is_ok());
/// service.shutdown();
/// assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(1)));
/// ```
pub struct TransactionService {
    state: Arc<ServiceState>,
    engine: Arc<dyn Engine>,
    workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

impl TransactionService {
    /// Starts one worker thread per engine core.
    pub fn start(engine: Arc<dyn Engine>, config: ServiceConfig) -> Arc<TransactionService> {
        let state = Arc::new(ServiceState::new(engine.workers(), config));
        let mut workers = Vec::with_capacity(engine.workers());
        for core in 0..engine.workers() {
            let state = Arc::clone(&state);
            let engine = Arc::clone(&engine);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("doppel-service-{core}"))
                    .spawn(move || state.worker_loop(engine.as_ref(), core))
                    .expect("failed to spawn service worker"),
            );
        }
        Arc::new(TransactionService { state, engine, workers: parking_lot::Mutex::new(workers) })
    }

    /// The engine this service fronts.
    pub fn engine(&self) -> &Arc<dyn Engine> {
        &self.engine
    }

    /// Number of worker cores.
    pub fn workers(&self) -> usize {
        self.state.workers()
    }

    /// See [`ServiceState::submit`].
    pub fn submit(
        &self,
        id: RequestId,
        proc: Arc<dyn Procedure>,
        reply: ReplySink,
    ) -> Result<usize, SubmitError> {
        self.state.submit(id, proc, reply)
    }

    /// See [`ServiceState::submit_to`].
    pub fn submit_to(
        &self,
        core: usize,
        id: RequestId,
        proc: Arc<dyn Procedure>,
        reply: ReplySink,
    ) -> Result<(), SubmitError> {
        self.state.submit_to(core, id, proc, reply)
    }

    /// Engine statistics with the queue counters overlaid.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats_with_queues(self.engine.as_ref())
    }

    /// The service-side metrics registry (`queue_wait` / `exec` histograms).
    pub fn telemetry(&self) -> &Arc<doppel_telemetry::Registry> {
        self.state.telemetry()
    }

    /// Creates a client with its own completion channel.
    pub fn client(self: &Arc<Self>) -> ServiceClient {
        ServiceClient::new(Arc::clone(self))
    }

    /// Graceful drain and shutdown: close the queues (new submissions are
    /// rejected with [`SubmitError::Shutdown`]), let workers finish queued
    /// work and replay Doppel stashes, join the worker threads, then shut
    /// the engine down (which flushes any pending WAL group-commit batch).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.state.close();
        self.engine.begin_drain();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
        self.engine.shutdown();
    }
}

impl Drop for TransactionService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A synchronous client of a [`TransactionService`]: submits procedures and
/// collects typed completions over a private channel.
pub struct ServiceClient {
    service: Arc<TransactionService>,
    sink: ReplySink,
    rx: Receiver<ServiceReply>,
    next_id: u64,
    /// Completions that arrived while waiting for a different request.
    buffered: HashMap<RequestId, ServiceCompletion>,
    /// Requests for which a `Deferred` notice has been observed.
    deferred_seen: std::collections::HashSet<RequestId>,
}

impl ServiceClient {
    fn new(service: Arc<TransactionService>) -> Self {
        let (tx, rx): (Sender<ServiceReply>, Receiver<ServiceReply>) = std::sync::mpsc::channel();
        let sink: ReplySink = Arc::new(move |reply| {
            let _ = tx.send(reply);
        });
        ServiceClient {
            service,
            sink,
            rx,
            next_id: 0,
            buffered: HashMap::new(),
            deferred_seen: std::collections::HashSet::new(),
        }
    }

    fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// Submits to the next core round-robin.
    pub fn submit(&mut self, proc: Arc<dyn Procedure>) -> Result<RequestId, SubmitError> {
        let id = self.fresh_id();
        self.service.submit(id, proc, Arc::clone(&self.sink))?;
        Ok(id)
    }

    /// Submits to a specific core.
    pub fn submit_to(
        &mut self,
        core: usize,
        proc: Arc<dyn Procedure>,
    ) -> Result<RequestId, SubmitError> {
        let id = self.fresh_id();
        self.service.submit_to(core, id, proc, Arc::clone(&self.sink))?;
        Ok(id)
    }

    /// True once a `Deferred` notice for `id` has been observed (the
    /// procedure was stashed by a Doppel split phase).
    pub fn was_deferred(&self, id: RequestId) -> bool {
        self.deferred_seen.contains(&id)
    }

    fn absorb(&mut self, reply: ServiceReply) -> Option<ServiceCompletion> {
        match reply {
            ServiceReply::Deferred(id) => {
                self.deferred_seen.insert(id);
                None
            }
            ServiceReply::Done(c) => Some(c),
        }
    }

    /// Blocks until the completion for `id` arrives, buffering completions
    /// of other requests. Panics if the service dropped the channel without
    /// completing `id` (cannot happen through the public API: every accepted
    /// submission is completed, by `Shutdown` at worst).
    pub fn wait(&mut self, id: RequestId) -> ServiceCompletion {
        if let Some(done) = self.buffered.remove(&id) {
            return done;
        }
        loop {
            let reply = self.rx.recv().expect("service completed all accepted submissions");
            if let Some(done) = self.absorb(reply) {
                if done.request == id {
                    return done;
                }
                self.buffered.insert(done.request, done);
            }
        }
    }

    /// Non-blocking drain: returns every completion that has arrived.
    pub fn poll_completions(&mut self) -> Vec<ServiceCompletion> {
        let mut out: Vec<ServiceCompletion> = self.buffered.drain().map(|(_, c)| c).collect();
        while let Ok(reply) = self.rx.try_recv() {
            if let Some(done) = self.absorb(reply) {
                out.push(done);
            }
        }
        out
    }

    /// Blocks up to `timeout` for one completion.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ServiceCompletion> {
        let buffered_first = self.buffered.keys().next().copied();
        if let Some(id) = buffered_first {
            return self.buffered.remove(&id);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(reply) => {
                    if let Some(done) = self.absorb(reply) {
                        return Some(done);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Submit-and-wait convenience: the synchronous call style of the old
    /// direct `TxHandle` interface, now one queue hop away. Backpressure is
    /// absorbed here — a `Busy` admission waits for the queue to move, the
    /// natural closed-loop behaviour — so the only error surfaced is a real
    /// transaction abort (or [`TxError::Shutdown`] once the service drains).
    pub fn execute(&mut self, proc: Arc<dyn Procedure>) -> Result<doppel_common::Tid, TxError> {
        loop {
            match self.submit(Arc::clone(&proc)) {
                Ok(id) => return self.wait(id).result,
                Err(SubmitError::Busy) => std::thread::sleep(Duration::from_micros(20)),
                Err(SubmitError::Shutdown) => return Err(TxError::Shutdown),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{DoppelConfig, Key, OpKind, ProcedureFn, Value};

    fn incr(key: u64, n: i64) -> Arc<dyn Procedure> {
        Arc::new(ProcedureFn::new("incr", move |tx| tx.add(Key::raw(key), n)))
    }

    #[test]
    fn occ_service_commits_and_counts() {
        let engine = Arc::new(doppel_occ::OccEngine::new(2, 64));
        for k in 0..4 {
            engine.load(Key::raw(k), Value::Int(0));
        }
        let service = TransactionService::start(engine.clone(), ServiceConfig::default());
        let mut client = service.client();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            ids.push(client.submit(incr(i % 4, 1)).unwrap());
        }
        for id in ids {
            assert!(client.wait(id).result.is_ok());
        }
        let stats = service.stats();
        assert_eq!(stats.queue_enqueued, 100);
        assert!(stats.queue_batches > 0);
        assert!(stats.queue_batches <= 100);
        service.shutdown();
        let total: i64 = (0..4)
            .map(|k| engine.global_get(Key::raw(k)).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn busy_backpressure_surfaces_and_counts() {
        // One worker, tiny queue: the worker is slow because every procedure
        // sleeps, so the queue fills and later submissions bounce.
        let engine = Arc::new(doppel_occ::OccEngine::new(1, 16));
        engine.load(Key::raw(1), Value::Int(0));
        let cfg = ServiceConfig { queue_depth: 2, ..Default::default() };
        let service = TransactionService::start(engine, cfg);
        let mut client = service.client();
        let slow: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("slow", |tx| {
            std::thread::sleep(Duration::from_millis(5));
            tx.add(Key::raw(1), 1)
        }));
        let mut accepted = 0;
        let mut busy = 0;
        for _ in 0..50 {
            match client.submit(Arc::clone(&slow)) {
                Ok(_) => accepted += 1,
                Err(SubmitError::Busy) => busy += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(busy > 0, "a depth-2 queue must reject under this burst");
        assert_eq!(service.stats().queue_busy_rejections, busy);
        // Everything accepted still completes.
        let mut done = 0;
        while done < accepted {
            if client.recv_timeout(Duration::from_secs(5)).is_some() {
                done += 1;
            } else {
                panic!("timed out waiting for completions");
            }
        }
        service.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let engine = Arc::new(doppel_occ::OccEngine::new(1, 16));
        let service = TransactionService::start(engine, ServiceConfig::default());
        let mut client = service.client();
        service.shutdown();
        assert_eq!(client.submit(incr(1, 1)).unwrap_err(), SubmitError::Shutdown);
        assert_eq!(client.execute(incr(1, 1)), Err(TxError::Shutdown));
    }

    #[test]
    fn doppel_stash_defers_then_completes_through_the_service() {
        // Coordinator-driven Doppel with a manually labelled split key: a
        // read of that key during a split phase is stashed; the service must
        // surface Deferred and later the replayed completion.
        let cfg = DoppelConfig {
            workers: 1,
            phase_len: Duration::from_millis(5),
            split_min_conflicts: 1,
            split_conflict_fraction: 0.0,
            unsplit_write_fraction: 0.0,
            ..Default::default()
        };
        let db = Arc::new(doppel_db::DoppelDb::start(cfg));
        db.load(Key::raw(7), Value::Int(0));
        db.label_split(Key::raw(7), OpKind::Add);
        let service = TransactionService::start(db.clone(), ServiceConfig::default());
        let mut client = service.client();

        let read: Arc<dyn Procedure> =
            Arc::new(ProcedureFn::read_only("read", |tx| tx.get(Key::raw(7)).map(|_| ())));
        let mut deferred_id = None;
        let deadline = Instant::now() + Duration::from_secs(10);
        while deferred_id.is_none() && Instant::now() < deadline {
            // Keep the key hot so it stays split, and probe with reads.
            for _ in 0..20 {
                let _ = client.submit(incr(7, 1));
            }
            let id = client.submit(Arc::clone(&read)).unwrap();
            let done = client.wait(id);
            assert!(done.result.is_ok(), "read must eventually commit: {:?}", done.result);
            if done.deferred {
                assert!(client.was_deferred(id), "Deferred notice precedes the completion");
                deferred_id = Some(id);
            }
        }
        assert!(deferred_id.is_some(), "no read was stash-deferred within the deadline");
        service.shutdown();
        // Every accepted increment was reconciled by the drain.
        let committed = client.poll_completions().iter().filter(|c| c.result.is_ok()).count();
        let _ = committed; // increments may still be in flight counts; the store is the truth:
        assert!(db.global_get(Key::raw(7)).unwrap().as_int().unwrap() > 0);
    }

    #[test]
    fn drain_replays_doppel_stashes_before_shutdown_completes() {
        let cfg = DoppelConfig {
            workers: 1,
            phase_len: Duration::from_millis(5),
            split_min_conflicts: 1,
            split_conflict_fraction: 0.0,
            unsplit_write_fraction: 0.0,
            ..Default::default()
        };
        let db = Arc::new(doppel_db::DoppelDb::start(cfg));
        db.load(Key::raw(3), Value::Int(10));
        db.label_split(Key::raw(3), OpKind::Add);
        let service = TransactionService::start(db.clone(), ServiceConfig::default());
        let mut client = service.client();

        // Collect some stash-deferred reads, then shut down immediately: the
        // drain must replay them (completions Ok), not abort them.
        let read: Arc<dyn Procedure> =
            Arc::new(ProcedureFn::read_only("read", |tx| tx.get(Key::raw(3)).map(|_| ())));
        let mut ids = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ids.is_empty() && Instant::now() < deadline {
            for _ in 0..10 {
                let _ = client.submit(incr(3, 1));
            }
            let id = client.submit(Arc::clone(&read)).unwrap();
            // Wait briefly for a Deferred notice without consuming the Done.
            std::thread::sleep(Duration::from_millis(1));
            let _ = client.poll_completions();
            if client.was_deferred(id) {
                ids.push(id);
            }
        }
        service.shutdown();
        if let Some(&id) = ids.first() {
            // The completion was delivered during the drain.
            let done = self::find_completion(&mut client, id);
            assert!(done.deferred);
            assert!(done.result.is_ok(), "drain must replay the stash, got {:?}", done.result);
        }
    }

    fn find_completion(client: &mut ServiceClient, id: RequestId) -> ServiceCompletion {
        if let Some(c) = client.buffered.remove(&id) {
            return c;
        }
        for c in client.poll_completions() {
            if c.request == id {
                return c;
            }
            client.buffered.insert(c.request, c);
        }
        panic!("completion for {id} was never delivered");
    }
}
