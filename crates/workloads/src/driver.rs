//! The benchmark driver.
//!
//! Reproduces the measurement methodology of §8.1 — per-core clients that
//! generate transactions, retry aborts with exponential backoff and track
//! stashed-transaction completions — but through the paper's *deployment*
//! model (§3, §6): clients and workers are separate threads. [`Driver::run`]
//! spawns a [`doppel_service::ServiceState`] worker per core (each owning
//! its engine [`TxHandle`]), plus one closed-loop client per core that
//! submits procedures through the bounded submission queues and consumes
//! typed completions.
//!
//! [`Driver::run_direct`] preserves the original caller-thread execution
//! model — the benchmark thread calling [`TxHandle::execute`] on its own
//! stack — both as the zero-queue baseline and for the service-vs-direct
//! differential test suites.
//!
//! The driver works against any [`Engine`] — Doppel, OCC, 2PL or Atomic —
//! exactly as in the paper where all schemes share one framework.

use crate::hist::{Histogram, LatencySummary};
use doppel_common::{
    AllocCheckpoint, Engine, Outcome, Procedure, ProcRegistry, ProcStatsSnapshot, RequestId,
    ServiceReply, StatsSnapshot, SubmitError, Ticket, TxHandle,
};
use doppel_service::{ReplySink, ServiceConfig, ServiceState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generated transaction: the procedure plus the metadata the harness
/// needs for latency accounting.
pub struct GeneratedTxn {
    /// The transaction body.
    pub proc: Arc<dyn Procedure>,
    /// True when the transaction writes (paper reports read and write
    /// latencies separately).
    pub is_write: bool,
}

/// Per-worker transaction generator.
pub trait TxnGenerator: Send {
    /// Produces the next transaction this worker should submit.
    fn next_txn(&mut self) -> GeneratedTxn;
}

/// A benchmark workload: knows how to pre-populate the store and how to build
/// per-worker generators.
pub trait Workload: Sync {
    /// Workload name used in reports.
    fn name(&self) -> String;

    /// Pre-populates the engine's store ("we pre-allocate all the records",
    /// §8.1).
    fn load(&self, engine: &dyn Engine);

    /// Creates the generator for worker `core`.
    fn generator(&self, core: usize, seed: u64) -> Box<dyn TxnGenerator>;

    /// The procedure registry this workload's generated transactions invoke,
    /// when the workload routes through registered procedures. The driver
    /// snapshots its per-procedure counters into
    /// [`BenchResult::proc_stats`]; closure-based workloads return `None`.
    fn proc_registry(&self) -> Option<Arc<ProcRegistry>> {
        None
    }
}

/// Options controlling one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Number of worker threads to drive (must not exceed the engine's
    /// configured worker count).
    pub workers: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Base random seed (worker `i` uses `seed + i`).
    pub seed: u64,
    /// Maximum number of retry entries buffered per worker before the worker
    /// prefers draining retries over generating new transactions.
    pub max_pending_retries: usize,
    /// Per-core submission queue depth for the service path.
    pub queue_depth: usize,
    /// How long clients keep collecting stash-deferred completions after the
    /// measurement window closes.
    pub drain_grace: Duration,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            workers: 1,
            duration: Duration::from_millis(200),
            seed: 0xD0_99E1,
            max_pending_retries: 4096,
            queue_depth: 1024,
            drain_grace: Duration::from_millis(500),
        }
    }
}

impl BenchOptions {
    /// Convenience constructor for `workers` workers running for `duration`.
    pub fn new(workers: usize, duration: Duration) -> Self {
        BenchOptions { workers, duration, ..Default::default() }
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchResult {
    /// Engine name ("Doppel", "OCC", "2PL", "Atomic").
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Number of worker threads used.
    pub workers: usize,
    /// Measured wall-clock duration in seconds.
    pub seconds: f64,
    /// Transactions that committed during the run (including replayed
    /// stashed transactions).
    pub committed: u64,
    /// Commits per second.
    pub throughput: f64,
    /// Aborts handed back to the harness for retry.
    pub aborts: u64,
    /// Transactions stashed by Doppel during split phases.
    pub stashed: u64,
    /// Read-transaction latency summary.
    pub read_latency: LatencySummary,
    /// Write-transaction latency summary.
    pub write_latency: LatencySummary,
    /// Engine statistics delta over the run (service runs include the
    /// submission-queue counters).
    pub engine_stats: StatsSnapshot,
    /// Per-procedure counters, when the workload routes through a
    /// [`ProcRegistry`] (empty for closure-based workloads).
    pub proc_stats: Vec<ProcStatsSnapshot>,
}

impl BenchResult {
    /// Throughput in transactions per second per worker.
    pub fn per_core_throughput(&self) -> f64 {
        self.throughput / self.workers.max(1) as f64
    }
}

/// Per-run delta of a workload's per-procedure counters. A registry lives
/// inside its workload and outlives a run (experiments reuse one workload
/// across engines), so the cumulative snapshot must be differenced exactly
/// like `engine_stats`.
fn proc_stats_delta(
    registry: Option<&Arc<ProcRegistry>>,
    before: Option<Vec<ProcStatsSnapshot>>,
) -> Vec<ProcStatsSnapshot> {
    let Some(registry) = registry else { return Vec::new() };
    let before = before.unwrap_or_default();
    registry
        .stats()
        .into_iter()
        .enumerate()
        .map(|(i, after)| match before.get(i) {
            Some(b) if b.name == after.name => after.delta(b),
            _ => after,
        })
        .collect()
}

/// A transaction waiting to be retried after an abort.
struct RetryEntry {
    proc: Arc<dyn Procedure>,
    is_write: bool,
    submitted: Instant,
    attempts: u32,
    due: Instant,
}

/// Per-worker measurement state.
#[derive(Default)]
struct WorkerTally {
    committed: u64,
    aborts: u64,
    stashed: u64,
    reads: Histogram,
    writes: Histogram,
}

/// The benchmark driver.
pub struct Driver;

impl Driver {
    /// Runs `workload` against `engine` through a transaction service and
    /// collects a [`BenchResult`].
    ///
    /// One service worker and one closed-loop client are spawned per core:
    /// the client submits through the core's bounded queue and waits for the
    /// typed completion, retrying retryable aborts with exponential backoff.
    /// Stash-deferred transactions (`Deferred` replies) do not block the
    /// client; their completions are collected as they arrive.
    ///
    /// The engine must have been created with at least `options.workers`
    /// workers. The store is loaded through [`Workload::load`] before
    /// measurement starts. The engine is shut down (and its WAL flushed)
    /// before this returns.
    pub fn run(engine: &dyn Engine, workload: &dyn Workload, options: &BenchOptions) -> BenchResult {
        assert!(
            options.workers <= engine.workers(),
            "engine configured with {} workers but the benchmark asked for {}",
            engine.workers(),
            options.workers
        );
        workload.load(engine);
        let stats_before = engine.stats();
        let proc_registry = workload.proc_registry();
        let proc_stats_before = proc_registry.as_ref().map(|r| r.stats());
        let service_config = ServiceConfig {
            queue_depth: options.queue_depth,
            ..ServiceConfig::default()
        };
        let state = Arc::new(ServiceState::new(options.workers, service_config));
        let stop = AtomicBool::new(false);
        // Allocation window covers the measured run only, not store loading.
        let alloc_cp = AllocCheckpoint::now();
        let started = Instant::now();
        let mut measured = Duration::ZERO;

        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let mut worker_joins = Vec::with_capacity(options.workers);
            for core in 0..options.workers {
                let state = Arc::clone(&state);
                worker_joins.push(scope.spawn(move || state.core_loop(engine, core)));
            }
            let mut client_joins = Vec::with_capacity(options.workers);
            for core in 0..options.workers {
                let state = Arc::clone(&state);
                let stop = &stop;
                let mut generator = workload.generator(core, options.seed + core as u64);
                let opts = options.clone();
                client_joins.push(scope.spawn(move || {
                    run_closed_loop_client(&state, core, generator.as_mut(), stop, &opts)
                }));
            }
            // Let the clients run for the configured duration, then stop
            // them; the measurement window closes here.
            std::thread::sleep(options.duration);
            stop.store(true, Ordering::Release);
            measured = started.elapsed();
            let tallies: Vec<WorkerTally> =
                client_joins.into_iter().map(|j| j.join().expect("benchmark client panicked")).collect();
            // Graceful drain: close the queues and let the workers replay
            // any remaining Doppel stashes before they exit.
            state.close();
            engine.begin_drain();
            for j in worker_joins {
                j.join().expect("service worker panicked");
            }
            tallies
        });
        let (alloc_count, alloc_bytes) = alloc_cp.delta();

        let mut committed = 0;
        let mut aborts = 0;
        let mut stashed = 0;
        let mut reads = Histogram::new();
        let mut writes = Histogram::new();
        for t in &tallies {
            committed += t.committed;
            aborts += t.aborts;
            stashed += t.stashed;
            reads.merge(&t.reads);
            writes.merge(&t.writes);
        }
        engine.shutdown();
        let stats_after = engine.stats().with_queue_counters(&state.queue_stats());
        BenchResult {
            engine: engine.name().to_string(),
            workload: workload.name(),
            workers: options.workers,
            seconds: measured.as_secs_f64(),
            committed,
            throughput: committed as f64 / measured.as_secs_f64(),
            aborts,
            stashed,
            read_latency: reads.summary(),
            write_latency: writes.summary(),
            engine_stats: stats_after
                .delta(&stats_before)
                .with_alloc_counters(alloc_count, alloc_bytes),
            proc_stats: proc_stats_delta(proc_registry.as_ref(), proc_stats_before),
        }
    }

    /// Runs `workload` with the original caller-thread execution model: each
    /// benchmark thread drives its core's [`TxHandle`] directly, no queues
    /// in between. Kept as the zero-queue baseline and for the
    /// service-vs-direct equivalence suites.
    pub fn run_direct(
        engine: &dyn Engine,
        workload: &dyn Workload,
        options: &BenchOptions,
    ) -> BenchResult {
        assert!(
            options.workers <= engine.workers(),
            "engine configured with {} workers but the benchmark asked for {}",
            engine.workers(),
            options.workers
        );
        workload.load(engine);
        let stats_before = engine.stats();
        let proc_registry = workload.proc_registry();
        let proc_stats_before = proc_registry.as_ref().map(|r| r.stats());
        let stop = AtomicBool::new(false);
        // Allocation window covers the measured run only, not store loading.
        let alloc_cp = AllocCheckpoint::now();
        let started = Instant::now();

        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(options.workers);
            for core in 0..options.workers {
                let stop = &stop;
                let mut generator = workload.generator(core, options.seed + core as u64);
                let mut handle = engine.handle(core);
                let max_pending = options.max_pending_retries;
                joins.push(scope.spawn(move || {
                    run_direct_worker(handle.as_mut(), generator.as_mut(), stop, max_pending)
                }));
            }
            // Let the workers run for the configured duration, then stop them.
            std::thread::sleep(options.duration);
            stop.store(true, Ordering::Release);
            // Unblock any Doppel worker waiting on a phase transition whose
            // peers have already stopped.
            engine.shutdown();
            joins.into_iter().map(|j| j.join().expect("benchmark worker panicked")).collect()
        });
        let (alloc_count, alloc_bytes) = alloc_cp.delta();

        let elapsed = started.elapsed();
        let mut committed = 0;
        let mut aborts = 0;
        let mut stashed = 0;
        let mut reads = Histogram::new();
        let mut writes = Histogram::new();
        for t in &tallies {
            committed += t.committed;
            aborts += t.aborts;
            stashed += t.stashed;
            reads.merge(&t.reads);
            writes.merge(&t.writes);
        }
        let stats_after = engine.stats();
        BenchResult {
            engine: engine.name().to_string(),
            workload: workload.name(),
            workers: options.workers,
            seconds: elapsed.as_secs_f64(),
            committed,
            throughput: committed as f64 / elapsed.as_secs_f64(),
            aborts,
            stashed,
            read_latency: reads.summary(),
            write_latency: writes.summary(),
            engine_stats: stats_after
                .delta(&stats_before)
                .with_alloc_counters(alloc_count, alloc_bytes),
            proc_stats: proc_stats_delta(proc_registry.as_ref(), proc_stats_before),
        }
    }
}

/// Exponential backoff delay after `attempts` consecutive aborts.
fn backoff_delay(attempts: u32) -> Duration {
    let exp = attempts.min(12);
    Duration::from_micros(2u64.pow(exp).min(4_096))
}

/// Closed-loop client for one core: submit one transaction, wait for its
/// typed completion, repeat. Stash-deferred transactions release the loop
/// immediately (their completions are consumed when they arrive), matching
/// the paper's harness where a stashed transaction frees its worker.
fn run_closed_loop_client(
    state: &ServiceState,
    core: usize,
    generator: &mut dyn TxnGenerator,
    stop: &AtomicBool,
    options: &BenchOptions,
) -> WorkerTally {
    let (tx, rx): (Sender<ServiceReply>, Receiver<ServiceReply>) = std::sync::mpsc::channel();
    let sink: ReplySink = Arc::new(move |reply| {
        let _ = tx.send(reply);
    });
    let mut tally = WorkerTally::default();
    let mut retries: Vec<RetryEntry> = Vec::new();
    // Stash-deferred submissions accumulate here until their replayed
    // completions arrive; the (single) synchronously awaited submission
    // lives in a local inside the loop.
    let mut deferred: HashMap<RequestId, (Instant, bool)> = HashMap::new();
    let mut next_id = 0u64;
    let mut shutdown_seen = false;

    let mut check_counter = 0u32;
    'outer: loop {
        check_counter += 1;
        if check_counter & 0x3F == 0 && stop.load(Ordering::Acquire) {
            break;
        }

        // Consume completions of stash-deferred transactions.
        while let Ok(reply) = rx.try_recv() {
            absorb_async_reply(reply, &mut deferred, &mut tally);
        }

        // Prefer a due retry; otherwise generate a fresh transaction, unless
        // the retry queue is saturated.
        let now = Instant::now();
        let due_idx = retries.iter().position(|r| r.due <= now);
        let (proc, is_write, submitted, attempts) = match due_idx {
            Some(idx) => {
                let entry = retries.swap_remove(idx);
                (entry.proc, entry.is_write, entry.submitted, entry.attempts)
            }
            None if retries.len() >= options.max_pending_retries => {
                let earliest = retries.iter().map(|r| r.due).min().expect("non-empty");
                let wait = earliest.saturating_duration_since(now);
                if !wait.is_zero() {
                    std::thread::sleep(wait.min(Duration::from_millis(1)));
                }
                continue;
            }
            None => {
                let txn = generator.next_txn();
                (txn.proc, txn.is_write, Instant::now(), 0)
            }
        };

        next_id += 1;
        let id = RequestId(next_id);
        loop {
            match state.submit_to(core, id, Arc::clone(&proc), Arc::clone(&sink)) {
                Ok(()) => break,
                Err(SubmitError::Busy) => {
                    // Closed-loop backpressure: wait for the queue to move.
                    std::thread::sleep(Duration::from_micros(20));
                    if stop.load(Ordering::Acquire) {
                        break 'outer;
                    }
                }
                Err(SubmitError::Shutdown) => break 'outer,
            }
        }

        // Wait for this submission's reply (other ids may complete first).
        loop {
            let reply = match rx.recv() {
                Ok(r) => r,
                Err(_) => break 'outer,
            };
            if reply.request() != id {
                absorb_async_reply(reply, &mut deferred, &mut tally);
                continue;
            }
            match reply {
                ServiceReply::Deferred(_) => {
                    tally.stashed += 1;
                    deferred.insert(id, (submitted, is_write));
                }
                ServiceReply::Done(c) => match c.result {
                    Ok(_) => {
                        tally.committed += 1;
                        record_latency(&mut tally, is_write, submitted.elapsed());
                    }
                    Err(e) if e.is_retryable() => {
                        tally.aborts += 1;
                        let attempts = attempts + 1;
                        retries.push(RetryEntry {
                            proc,
                            is_write,
                            submitted,
                            attempts,
                            due: Instant::now() + backoff_delay(attempts),
                        });
                    }
                    Err(doppel_common::TxError::Shutdown) => {
                        shutdown_seen = true;
                    }
                    Err(_) => {
                        // User aborts and type errors are not retried.
                        tally.aborts += 1;
                    }
                },
            }
            break;
        }
        if shutdown_seen {
            break;
        }
    }

    // Collect outstanding stash-deferred completions: their replays need a
    // phase transition, so give the engine a bounded grace period.
    let deadline = Instant::now() + options.drain_grace;
    while !deferred.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left.min(Duration::from_millis(5))) {
            Ok(reply) => absorb_async_reply(reply, &mut deferred, &mut tally),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    tally
}

/// Accounts a reply that arrived asynchronously (a stash-deferred
/// completion, or a `Deferred` notice raced past its waiter).
fn absorb_async_reply(
    reply: ServiceReply,
    deferred: &mut HashMap<RequestId, (Instant, bool)>,
    tally: &mut WorkerTally,
) {
    if let ServiceReply::Done(c) = reply {
        if let Some((submitted, is_write)) = deferred.remove(&c.request) {
            match c.result {
                Ok(_) => {
                    tally.committed += 1;
                    record_latency(tally, is_write, submitted.elapsed());
                }
                Err(_) => tally.aborts += 1,
            }
        }
    }
}

fn run_direct_worker(
    handle: &mut dyn TxHandle,
    generator: &mut dyn TxnGenerator,
    stop: &AtomicBool,
    max_pending_retries: usize,
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut retries: Vec<RetryEntry> = Vec::new();
    // Stashed transactions: ticket → (submit time, is_write).
    let mut stashed: HashMap<Ticket, (Instant, bool)> = HashMap::new();

    let mut check_counter = 0u32;
    loop {
        // Check the stop flag every few transactions to keep overhead low.
        check_counter += 1;
        if check_counter & 0x3F == 0 && stop.load(Ordering::Acquire) {
            break;
        }

        // Collect completions of previously stashed transactions.
        for completion in handle.take_completions() {
            if let Some((submitted, is_write)) = stashed.remove(&completion.ticket) {
                match completion.result {
                    Ok(_) => {
                        tally.committed += 1;
                        record_latency(&mut tally, is_write, submitted.elapsed());
                    }
                    Err(_) => tally.aborts += 1,
                }
            }
        }

        // Prefer a due retry; otherwise (or if none is due yet) generate a
        // fresh transaction, unless the retry queue is saturated.
        let now = Instant::now();
        let due_idx = retries.iter().position(|r| r.due <= now);
        let (proc, is_write, submitted, attempts) = match due_idx {
            Some(idx) => {
                let entry = retries.swap_remove(idx);
                (entry.proc, entry.is_write, entry.submitted, entry.attempts)
            }
            None if retries.len() >= max_pending_retries => {
                // Saturated: wait for the earliest retry to become due.
                let earliest = retries.iter().map(|r| r.due).min().expect("non-empty");
                let wait = earliest.saturating_duration_since(now);
                if !wait.is_zero() {
                    std::thread::sleep(wait.min(Duration::from_millis(1)));
                }
                continue;
            }
            None => {
                let txn = generator.next_txn();
                (txn.proc, txn.is_write, Instant::now(), 0)
            }
        };

        match handle.execute(Arc::clone(&proc)) {
            Outcome::Committed(_) => {
                tally.committed += 1;
                record_latency(&mut tally, is_write, submitted.elapsed());
            }
            Outcome::Stashed(ticket) => {
                tally.stashed += 1;
                stashed.insert(ticket, (submitted, is_write));
            }
            Outcome::Aborted(e) if e.is_retryable() => {
                tally.aborts += 1;
                let attempts = attempts + 1;
                retries.push(RetryEntry {
                    proc,
                    is_write,
                    submitted,
                    attempts,
                    due: Instant::now() + backoff_delay(attempts),
                });
            }
            Outcome::Aborted(doppel_common::TxError::Shutdown) => break,
            Outcome::Aborted(_) => {
                // User aborts and type errors are not retried.
                tally.aborts += 1;
            }
        }
    }

    // Drain remaining completions once more so stashed transactions that
    // finished just before the stop flag are counted.
    for completion in handle.take_completions() {
        if let Some((submitted, is_write)) = stashed.remove(&completion.ticket) {
            if completion.result.is_ok() {
                tally.committed += 1;
                record_latency(&mut tally, is_write, submitted.elapsed());
            } else {
                tally.aborts += 1;
            }
        }
    }
    tally
}

fn record_latency(tally: &mut WorkerTally, is_write: bool, latency: Duration) {
    if is_write {
        tally.writes.record(latency);
    } else {
        tally.reads.record(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{Key, ProcedureFn, Value};

    /// A trivial workload: every transaction increments one of `keys` keys
    /// chosen round-robin, so any engine can run it without conflicts.
    struct RoundRobin {
        keys: u64,
    }

    struct RoundRobinGen {
        keys: u64,
        next: u64,
    }

    impl Workload for RoundRobin {
        fn name(&self) -> String {
            "round-robin".into()
        }

        fn load(&self, engine: &dyn Engine) {
            for k in 0..self.keys {
                engine.load(Key::raw(k), Value::Int(0));
            }
        }

        fn generator(&self, core: usize, _seed: u64) -> Box<dyn TxnGenerator> {
            Box::new(RoundRobinGen { keys: self.keys, next: core as u64 })
        }
    }

    impl TxnGenerator for RoundRobinGen {
        fn next_txn(&mut self) -> GeneratedTxn {
            let key = self.next % self.keys;
            self.next += 7;
            GeneratedTxn {
                proc: Arc::new(ProcedureFn::new("rr-incr", move |tx| tx.add(Key::raw(key), 1))),
                is_write: true,
            }
        }
    }

    #[test]
    fn driver_reports_consistent_totals_on_occ() {
        let engine = doppel_occ::OccEngine::new(2, 64);
        let workload = RoundRobin { keys: 1024 };
        let options = BenchOptions::new(2, Duration::from_millis(100));
        let result = Driver::run(&engine, &workload, &options);
        assert_eq!(result.engine, "OCC");
        assert!(result.committed > 0);
        assert!(result.throughput > 0.0);
        assert_eq!(result.workers, 2);
        // Every committed increment must be in the store.
        let mut total = 0i64;
        for k in 0..1024 {
            total += engine.global_get(Key::raw(k)).unwrap().as_int().unwrap();
        }
        assert_eq!(total as u64, result.committed);
        // Latency was recorded for every committed write.
        assert_eq!(result.write_latency.count, result.committed);
        assert_eq!(result.read_latency.count, 0);
        // The run went through the submission queues (retried aborts
        // re-enqueue, so enqueued can exceed commits).
        assert!(result.engine_stats.queue_enqueued >= result.committed);
        assert!(result.engine_stats.queue_batches > 0);
        assert_eq!(result.engine_stats.queue_depth, 0, "queues drained at shutdown");
    }

    #[test]
    fn direct_driver_reports_consistent_totals_on_occ() {
        let engine = doppel_occ::OccEngine::new(2, 64);
        let workload = RoundRobin { keys: 1024 };
        let options = BenchOptions::new(2, Duration::from_millis(100));
        let result = Driver::run_direct(&engine, &workload, &options);
        assert!(result.committed > 0);
        let mut total = 0i64;
        for k in 0..1024 {
            total += engine.global_get(Key::raw(k)).unwrap().as_int().unwrap();
        }
        assert_eq!(total as u64, result.committed);
        // The direct path never touches a submission queue.
        assert_eq!(result.engine_stats.queue_enqueued, 0);
    }

    #[test]
    fn driver_runs_doppel_with_coordinator() {
        let cfg = doppel_common::DoppelConfig {
            workers: 2,
            phase_len: Duration::from_millis(5),
            split_min_conflicts: 1,
            split_conflict_fraction: 0.0,
            ..Default::default()
        };
        let engine = doppel_db::DoppelDb::start(cfg);
        let workload = RoundRobin { keys: 8 };
        let options = BenchOptions::new(2, Duration::from_millis(120));
        let result = Driver::run(&engine, &workload, &options);
        assert!(result.committed > 0, "Doppel committed nothing");
        let mut total = 0i64;
        for k in 0..8 {
            total += engine.global_get(Key::raw(k)).unwrap().as_int().unwrap();
        }
        assert_eq!(
            total as u64, result.committed,
            "all committed increments must be reconciled into the store"
        );
    }

    #[test]
    fn backoff_grows_and_saturates() {
        assert!(backoff_delay(1) < backoff_delay(4));
        assert_eq!(backoff_delay(12), backoff_delay(30));
        assert!(backoff_delay(30) <= Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn too_many_workers_panics() {
        let engine = doppel_occ::OccEngine::new(1, 16);
        let workload = RoundRobin { keys: 8 };
        let options = BenchOptions::new(4, Duration::from_millis(10));
        let _ = Driver::run(&engine, &workload, &options);
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn too_many_workers_panics_direct() {
        let engine = doppel_occ::OccEngine::new(1, 16);
        let workload = RoundRobin { keys: 8 };
        let options = BenchOptions::new(4, Duration::from_millis(10));
        let _ = Driver::run_direct(&engine, &workload, &options);
    }
}
