//! Open-loop benchmarking: a fixed offered load against the service.
//!
//! The closed-loop driver ([`crate::Driver::run`]) measures *capacity*: each
//! client submits the next transaction only when the previous one completed,
//! so latency feedback throttles the arrival rate. An open-loop client
//! instead submits on a fixed schedule regardless of completions — the
//! arrival process of real external clients — which makes
//! latency-vs-throughput curves measurable: as the offered load approaches
//! capacity, queues fill, latency soars, and past capacity the bounded
//! queues shed load as `Busy` rejections instead of collapsing.
//!
//! Latency is measured from each transaction's *scheduled* submission time,
//! not the instant the submit call ran, so the numbers stay honest when the
//! client itself falls behind (no coordinated omission).

use crate::driver::Workload;
use crate::hist::{Histogram, LatencySummary};
use doppel_common::{Engine, RequestId, ServiceReply, StatsSnapshot, SubmitError};
use doppel_service::{ReplySink, ServiceConfig, ServiceState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopOptions {
    /// Service worker cores (must not exceed the engine's worker count).
    pub workers: usize,
    /// Client threads generating the offered load.
    pub clients: usize,
    /// Total offered load across all clients, in transactions per second.
    pub offered_load: f64,
    /// Measurement window.
    pub duration: Duration,
    /// Base random seed (client `i` uses `seed + i`).
    pub seed: u64,
    /// Per-core submission queue depth (the backpressure cap).
    pub queue_depth: usize,
    /// How long clients wait for outstanding completions after the window.
    pub drain_grace: Duration,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        OpenLoopOptions {
            workers: 1,
            clients: 1,
            offered_load: 10_000.0,
            duration: Duration::from_millis(200),
            seed: 0xD0_99E1,
            queue_depth: 1024,
            drain_grace: Duration::from_millis(500),
        }
    }
}

/// Result of one open-loop run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpenLoopResult {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Service worker cores.
    pub workers: usize,
    /// Client threads.
    pub clients: usize,
    /// The configured offered load (txn/s).
    pub offered_load: f64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Transactions submitted (accepted by a queue).
    pub submitted: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (open loop does not retry: the abort rate
    /// is part of the curve).
    pub aborted: u64,
    /// Submissions shed at the admission boundary (`Busy`).
    pub busy_rejected: u64,
    /// Transactions that went through a Doppel stash before completing.
    pub deferred: u64,
    /// Commits per second over the window.
    pub throughput: f64,
    /// Scheduled-submit → completion latency of committed transactions.
    pub latency: LatencySummary,
    /// Engine statistics delta, including the submission-queue counters.
    pub engine_stats: StatsSnapshot,
}

#[derive(Default)]
struct ClientTally {
    submitted: u64,
    committed: u64,
    aborted: u64,
    busy_rejected: u64,
    deferred: u64,
    latency: Histogram,
}

/// Runs `workload` at a fixed offered load through a transaction service.
/// The engine is shut down (flushing its WAL) before this returns.
pub fn run_open_loop(
    engine: &dyn Engine,
    workload: &dyn Workload,
    options: &OpenLoopOptions,
) -> OpenLoopResult {
    assert!(
        options.workers <= engine.workers(),
        "engine configured with {} workers but the benchmark asked for {}",
        engine.workers(),
        options.workers
    );
    assert!(options.clients > 0, "open loop needs at least one client");
    assert!(options.offered_load > 0.0, "offered load must be positive");
    workload.load(engine);
    let stats_before = engine.stats();
    let service_config =
        ServiceConfig { queue_depth: options.queue_depth, ..ServiceConfig::default() };
    let state = Arc::new(ServiceState::new(options.workers, service_config));
    // Allocation window covers the measured run only, not store loading.
    let alloc_cp = doppel_common::AllocCheckpoint::now();
    let started = Instant::now();

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let mut worker_joins = Vec::with_capacity(options.workers);
        for core in 0..options.workers {
            let state = Arc::clone(&state);
            worker_joins.push(scope.spawn(move || state.core_loop(engine, core)));
        }
        let mut client_joins = Vec::with_capacity(options.clients);
        for client in 0..options.clients {
            let state = Arc::clone(&state);
            let mut generator = workload.generator(client, options.seed + client as u64);
            let opts = options.clone();
            client_joins.push(scope.spawn(move || {
                run_open_loop_client(&state, client, generator.as_mut(), &opts, started)
            }));
        }
        let tallies: Vec<ClientTally> =
            client_joins.into_iter().map(|j| j.join().expect("open-loop client panicked")).collect();
        state.close();
        engine.begin_drain();
        for j in worker_joins {
            j.join().expect("service worker panicked");
        }
        tallies
    });
    let (alloc_count, alloc_bytes) = alloc_cp.delta();

    let mut totals = ClientTally::default();
    for t in &tallies {
        totals.submitted += t.submitted;
        totals.committed += t.committed;
        totals.aborted += t.aborted;
        totals.busy_rejected += t.busy_rejected;
        totals.deferred += t.deferred;
        totals.latency.merge(&t.latency);
    }
    engine.shutdown();
    let stats_after = engine.stats().with_queue_counters(&state.queue_stats());
    let seconds = options.duration.as_secs_f64();
    OpenLoopResult {
        engine: engine.name().to_string(),
        workload: workload.name(),
        workers: options.workers,
        clients: options.clients,
        offered_load: options.offered_load,
        seconds,
        submitted: totals.submitted,
        committed: totals.committed,
        aborted: totals.aborted,
        busy_rejected: totals.busy_rejected,
        deferred: totals.deferred,
        throughput: totals.committed as f64 / seconds,
        latency: totals.latency.summary(),
        engine_stats: stats_after
            .delta(&stats_before)
            .with_alloc_counters(alloc_count, alloc_bytes),
    }
}

fn run_open_loop_client(
    state: &ServiceState,
    client: usize,
    generator: &mut dyn crate::driver::TxnGenerator,
    options: &OpenLoopOptions,
    started: Instant,
) -> ClientTally {
    let (tx, rx): (Sender<ServiceReply>, Receiver<ServiceReply>) = std::sync::mpsc::channel();
    let sink: ReplySink = Arc::new(move |reply| {
        let _ = tx.send(reply);
    });
    let mut tally = ClientTally::default();
    // id → scheduled submission time of in-flight transactions.
    let mut inflight: HashMap<RequestId, Instant> = HashMap::new();
    let mut next_id = 0u64;

    // Each client carries `offered / clients` txn/s; stagger the schedules
    // so the aggregate arrival process is smooth rather than lock-stepped.
    let interval = Duration::from_secs_f64(options.clients as f64 / options.offered_load);
    let mut next_submit = started + interval.mul_f64(client as f64 / options.clients as f64);
    let end = started + options.duration;
    let mut submit_core = client % state.workers();

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if now < next_submit {
            // Ahead of schedule: use the slack to collect completions.
            let slack = next_submit.min(end).saturating_duration_since(now);
            if let Ok(reply) = rx.recv_timeout(slack.min(Duration::from_millis(1))) {
                absorb(reply, &mut inflight, &mut tally);
            }
            continue;
        }
        // Due (possibly overdue): submit one transaction stamped with its
        // *scheduled* time, then advance the schedule.
        let scheduled = next_submit;
        next_submit += interval;
        let txn = generator.next_txn();
        next_id += 1;
        let id = RequestId(next_id);
        submit_core = (submit_core + 1) % state.workers();
        match state.submit_to(submit_core, id, txn.proc, Arc::clone(&sink)) {
            Ok(()) => {
                tally.submitted += 1;
                inflight.insert(id, scheduled);
            }
            Err(SubmitError::Busy) => tally.busy_rejected += 1,
            Err(SubmitError::Shutdown) => break,
        }
        // Opportunistically drain without blocking so the schedule holds.
        while let Ok(reply) = rx.try_recv() {
            absorb(reply, &mut inflight, &mut tally);
        }
    }

    // Grace period: wait for outstanding completions (queue backlog plus
    // stash replays).
    let deadline = Instant::now() + options.drain_grace;
    while !inflight.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match rx.recv_timeout(left.min(Duration::from_millis(5))) {
            Ok(reply) => absorb(reply, &mut inflight, &mut tally),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    tally
}

fn absorb(reply: ServiceReply, inflight: &mut HashMap<RequestId, Instant>, tally: &mut ClientTally) {
    match reply {
        ServiceReply::Deferred(_) => tally.deferred += 1,
        ServiceReply::Done(c) => {
            if let Some(scheduled) = inflight.remove(&c.request) {
                match c.result {
                    Ok(_) => {
                        tally.committed += 1;
                        tally.latency.record(scheduled.elapsed());
                    }
                    Err(_) => tally.aborted += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incr::Incr1Workload;

    #[test]
    fn open_loop_hits_a_modest_offered_load() {
        let engine = doppel_occ::OccEngine::new(2, 256);
        let workload = Incr1Workload::new(1024, 0.5);
        let options = OpenLoopOptions {
            workers: 2,
            clients: 2,
            offered_load: 20_000.0,
            duration: Duration::from_millis(200),
            ..Default::default()
        };
        let result = run_open_loop(&engine, &workload, &options);
        // A modest load on an in-memory engine: the vast majority must be
        // admitted and complete.
        assert!(result.submitted > 0);
        assert!(result.committed > 0);
        let target = options.offered_load * options.duration.as_secs_f64();
        assert!(
            (result.submitted + result.busy_rejected) as f64 >= 0.5 * target,
            "offered {} but only {} submissions were attempted",
            target,
            result.submitted + result.busy_rejected
        );
        assert!(result.latency.count == result.committed);
        assert!(result.engine_stats.queue_enqueued >= result.submitted);
        assert_eq!(result.engine, "OCC");
    }

    #[test]
    fn overload_sheds_as_busy_rejections_not_collapse() {
        // One slow worker (every txn sleeps) with a tiny queue: an offered
        // load far beyond capacity must surface as Busy rejections.
        struct SlowWorkload;
        struct SlowGen;
        impl crate::driver::Workload for SlowWorkload {
            fn name(&self) -> String {
                "slow".into()
            }
            fn load(&self, engine: &dyn Engine) {
                engine.load(doppel_common::Key::raw(1), doppel_common::Value::Int(0));
            }
            fn generator(&self, _core: usize, _seed: u64) -> Box<dyn crate::driver::TxnGenerator> {
                Box::new(SlowGen)
            }
        }
        impl crate::driver::TxnGenerator for SlowGen {
            fn next_txn(&mut self) -> crate::driver::GeneratedTxn {
                crate::driver::GeneratedTxn {
                    proc: Arc::new(doppel_common::ProcedureFn::new("slow", |tx| {
                        std::thread::sleep(Duration::from_micros(500));
                        tx.add(doppel_common::Key::raw(1), 1)
                    })),
                    is_write: true,
                }
            }
        }
        let engine = doppel_occ::OccEngine::new(1, 16);
        let options = OpenLoopOptions {
            workers: 1,
            clients: 1,
            offered_load: 50_000.0, // capacity is ~2k/s with the 500µs sleep
            duration: Duration::from_millis(150),
            queue_depth: 4,
            ..Default::default()
        };
        let result = run_open_loop(&engine, &SlowWorkload, &options);
        assert!(result.busy_rejected > 0, "overload must shed at the admission boundary");
        assert!(result.engine_stats.queue_busy_rejections >= result.busy_rejected);
    }
}
