//! Tests of the benchmark driver's retry, stash-completion and latency
//! accounting paths, using a scripted mock engine so the behaviours are
//! deterministic.

use doppel_common::{
    Completion, CoreId, Engine, Key, Outcome, Procedure, StatsSnapshot, Ticket, Tid, TxError,
    TxHandle, Value,
};
use doppel_workloads::driver::{BenchOptions, Driver, GeneratedTxn, TxnGenerator, Workload};
use doppel_workloads::report::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A mock engine whose handles follow a script: abort the first `abort_every`
/// submissions of each transaction, stash every `stash_every`-th transaction
/// and complete it at the next execute call, commit everything else.
struct ScriptedEngine {
    aborts_before_commit: u32,
    stash_every: u64,
    commits: Arc<AtomicU64>,
}

impl ScriptedEngine {
    fn new(aborts_before_commit: u32, stash_every: u64) -> Self {
        ScriptedEngine { aborts_before_commit, stash_every, commits: Arc::new(AtomicU64::new(0)) }
    }
}

impl Engine for ScriptedEngine {
    fn name(&self) -> &'static str {
        "Scripted"
    }
    fn workers(&self) -> usize {
        1
    }
    fn handle(&self, core: CoreId) -> Box<dyn TxHandle> {
        Box::new(ScriptedHandle {
            core,
            stash_every: self.stash_every,
            commits: Arc::clone(&self.commits),
            seen: 0,
            attempts_left: self.aborts_before_commit,
            pending: Vec::new(),
            next_ticket: 0,
            tid: 0,
        })
    }
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot { commits: self.commits.load(Ordering::Relaxed), ..Default::default() }
    }
    fn global_get(&self, _k: Key) -> Option<Value> {
        None
    }
    fn load(&self, _k: Key, _v: Value) {}
}

struct ScriptedHandle {
    core: CoreId,
    stash_every: u64,
    commits: Arc<AtomicU64>,
    seen: u64,
    attempts_left: u32,
    pending: Vec<Ticket>,
    next_ticket: u64,
    tid: u64,
}

impl TxHandle for ScriptedHandle {
    fn core(&self) -> CoreId {
        self.core
    }

    fn execute_with(
        &mut self,
        _body: &mut dyn FnMut(&mut dyn doppel_common::Tx) -> Result<(), TxError>,
        _own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome {
        self.seen += 1;
        // Abort the first `aborts_before_commit` submissions overall, forcing
        // the driver through its retry-with-backoff path.
        if self.attempts_left > 0 {
            self.attempts_left -= 1;
            return Outcome::Aborted(TxError::Conflict { key: Key::raw(0) });
        }
        if self.stash_every > 0 && self.seen.is_multiple_of(self.stash_every) {
            self.next_ticket += 1;
            let ticket = Ticket(self.next_ticket);
            self.pending.push(ticket);
            return Outcome::Stashed(ticket);
        }
        self.tid += 1;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Outcome::Committed(Tid::from_parts(self.tid, self.core))
    }

    fn safepoint(&mut self) {}

    fn take_completions(&mut self) -> Vec<Completion> {
        let completions = self
            .pending
            .drain(..)
            .map(|ticket| {
                self.tid += 1;
                self.commits.fetch_add(1, Ordering::Relaxed);
                Completion { ticket, result: Ok(Tid::from_parts(self.tid, self.core)) }
            })
            .collect();
        completions
    }
}

/// A workload whose transactions do nothing (the scripted engine ignores
/// them); half are flagged as reads for latency-bucket accounting.
struct NoopWorkload;

struct NoopGenerator {
    n: u64,
}

impl Workload for NoopWorkload {
    fn name(&self) -> String {
        "noop".into()
    }
    fn load(&self, _engine: &dyn Engine) {}
    fn generator(&self, _core: usize, _seed: u64) -> Box<dyn TxnGenerator> {
        Box::new(NoopGenerator { n: 0 })
    }
}

struct NoopProc;
impl Procedure for NoopProc {
    fn run(&self, _tx: &mut dyn doppel_common::Tx) -> Result<(), TxError> {
        Ok(())
    }
}

impl TxnGenerator for NoopGenerator {
    fn next_txn(&mut self) -> GeneratedTxn {
        self.n += 1;
        GeneratedTxn { proc: Arc::new(NoopProc), is_write: self.n.is_multiple_of(2) }
    }
}

#[test]
fn driver_retries_aborted_transactions_and_counts_once() {
    let engine = ScriptedEngine::new(5, 0);
    let result = Driver::run(&engine, &NoopWorkload, &BenchOptions::new(1, Duration::from_millis(60)));
    // The 5 scripted aborts were retried (counted as aborts), and every
    // commit is counted exactly once.
    assert_eq!(result.aborts, 5);
    assert_eq!(result.committed, engine.stats().commits);
    assert!(result.committed > 0);
    assert_eq!(result.engine, "Scripted");
}

#[test]
fn driver_accounts_stashed_completions_with_latency() {
    let engine = ScriptedEngine::new(0, 10);
    let result =
        Driver::run(&engine, &NoopWorkload, &BenchOptions::new(1, Duration::from_millis(60)));
    assert!(result.stashed > 0, "every 10th transaction is stashed");
    // Stashed transactions complete via take_completions and are counted as
    // commits; the total must match the engine's own commit counter.
    assert_eq!(result.committed, engine.stats().commits);
    // Latencies were recorded for both reads and writes.
    assert!(result.read_latency.count > 0);
    assert!(result.write_latency.count > 0);
    assert_eq!(
        result.read_latency.count + result.write_latency.count,
        result.committed,
        "every committed transaction is in exactly one latency bucket"
    );
}

#[test]
fn per_core_throughput_divides_by_workers() {
    let engine = ScriptedEngine::new(0, 0);
    let result =
        Driver::run(&engine, &NoopWorkload, &BenchOptions::new(1, Duration::from_millis(40)));
    let per_core = result.per_core_throughput();
    assert!((per_core - result.throughput).abs() < 1e-9, "one worker: per-core == total");
    // Serialisation of the result (used by --out) round-trips.
    let json = serde_json::to_string(&result).unwrap();
    let back: doppel_workloads::driver::BenchResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.committed, result.committed);
    // Cell conversion helpers accept the throughput.
    let _ = Cell::Mtps(result.throughput);
}
