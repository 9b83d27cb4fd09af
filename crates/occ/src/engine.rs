//! The OCC baseline engine.
//!
//! This is the paper's "OCC" comparison point: plain Silo-style optimistic
//! concurrency control with no phases and no split data. Doppel degenerates
//! to exactly this behaviour when nothing is contended.

use crate::rwsets::SetPool;
use crate::tx::OccTx;
use doppel_common::{
    CommitSink, Completion, CoreId, Engine, EngineStats, Key, Outcome, Procedure, StatsSnapshot,
    TidGenerator, Tx, TxError, TxHandle, Value,
};
use doppel_store::{Session, Store};
use parking_lot::Mutex;
use std::sync::Arc;

/// The engine-side half of commit-hook plumbing: handles capture the sink
/// when they are created, so attaching durability requires no handle rebuild
/// and a commit reads no shared cell.
type SinkCell = Mutex<Option<Arc<dyn CommitSink>>>;

/// Shared state of the OCC engine.
pub struct OccEngine {
    store: Arc<Store>,
    stats: Arc<EngineStats>,
    sink: SinkCell,
    workers: usize,
}

impl OccEngine {
    /// Creates an engine with `workers` workers and `shards` store shards.
    pub fn new(workers: usize, shards: usize) -> Self {
        OccEngine {
            store: Arc::new(Store::new(shards)),
            stats: Arc::new(EngineStats::new(workers)),
            sink: Mutex::new(None),
            workers,
        }
    }

    /// The underlying store (for tests and invariant checks).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl Engine for OccEngine {
    fn name(&self) -> &'static str {
        "OCC"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn handle(&self, core: CoreId) -> Box<dyn TxHandle> {
        assert!(core < self.workers, "core {core} out of range (workers = {})", self.workers);
        Box::new(OccHandle {
            core,
            store: Arc::clone(&self.store),
            stats: Arc::clone(&self.stats),
            // Captured once: per-commit sink-cell reads would put a shared
            // atomic RMW in every worker's commit path (this is why attach
            // must precede handle creation).
            sink: self.sink.lock().clone(),
            tid_gen: TidGenerator::new(core),
            session: self.store.register(),
            sets: SetPool::default(),
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn global_get(&self, k: Key) -> Option<Value> {
        self.store.read_unlocked(&k)
    }

    fn load(&self, k: Key, v: Value) {
        self.store.load(k, v);
    }

    fn attach_commit_sink(&self, sink: Arc<dyn CommitSink>) {
        *self.sink.lock() = Some(sink);
    }

    fn for_each_record(&self, f: &mut dyn FnMut(Key, &Value)) {
        self.store.for_each(|k, v| f(*k, v));
    }

    fn note_recovered(&self, records: u64) {
        EngineStats::add(&self.stats.recovered_txns, records);
    }

    fn shutdown(&self) {
        // Make everything logged so far durable before the engine goes away.
        if let Some(sink) = self.sink.lock().as_ref() {
            self.stats.absorb_log(&sink.sync());
        }
    }
}

/// Per-worker OCC execution handle.
pub struct OccHandle {
    core: CoreId,
    store: Arc<Store>,
    stats: Arc<EngineStats>,
    sink: Option<Arc<dyn CommitSink>>,
    tid_gen: TidGenerator,
    /// This handle's registration with the store: lets its transactions read
    /// records in place, and keeps what their commits replace until every
    /// handle has passed a safepoint.
    session: Session,
    /// Read/write set buffers reused across transactions, so steady-state
    /// execution allocates no set storage per transaction.
    sets: SetPool,
}

impl OccHandle {
    fn run_once(&mut self, body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>) -> Outcome {
        // Between transactions the handle holds nothing of the store.
        self.session.quiesce(false);
        let (rs, ws) = self.sets.take();
        let mut tx = OccTx::from_parts(&self.store, &mut self.session, self.core, rs, ws);
        let outcome = match body(&mut tx) {
            Ok(()) => match tx.commit_durable(&mut self.tid_gen, self.sink.as_deref()) {
                Ok((tid, receipt)) => {
                    self.stats.absorb_log(&receipt);
                    self.stats.core(self.core).commits.bump();
                    Outcome::Committed(tid)
                }
                Err(e) => {
                    self.stats.core(self.core).conflicts.bump();
                    Outcome::Aborted(e)
                }
            },
            Err(e) => {
                let cell = self.stats.core(self.core);
                match &e {
                    TxError::UserAbort { .. } => cell.user_aborts.bump(),
                    _ => cell.conflicts.bump(),
                }
                Outcome::Aborted(e)
            }
        };
        let (rs, ws) = tx.into_sets();
        self.sets = SetPool::recycle(rs, ws);
        outcome
    }
}

impl TxHandle for OccHandle {
    fn core(&self) -> CoreId {
        self.core
    }

    fn execute_with(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>,
        _own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome {
        self.run_once(body)
    }

    fn prefetch(&mut self, keys: &[Key]) {
        self.store.prefetch(&self.session, keys);
    }

    fn safepoint(&mut self) {
        // OCC has no phases; the store's reclamation is all that waits on
        // this handle.
        self.session.quiesce(true);
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::ProcedureFn;

    #[test]
    fn engine_executes_and_counts() {
        let engine = OccEngine::new(2, 16);
        engine.load(Key::raw(1), Value::Int(0));
        let mut h = engine.handle(0);
        let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
        for _ in 0..10 {
            assert!(h.execute(proc.clone()).is_committed());
        }
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(10)));
        let stats = engine.stats();
        assert_eq!(stats.commits, 10);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(engine.name(), "OCC");
        assert_eq!(engine.workers(), 2);
    }

    #[test]
    fn user_abort_is_counted_separately() {
        let engine = OccEngine::new(1, 4);
        let mut h = engine.handle(0);
        let proc = Arc::new(ProcedureFn::new("fail", |_tx| {
            Err(TxError::UserAbort { reason: "business rule" })
        }));
        let out = h.execute(proc);
        assert!(matches!(out, Outcome::Aborted(TxError::UserAbort { .. })));
        assert_eq!(engine.stats().user_aborts, 1);
        assert_eq!(engine.stats().commits, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let engine = OccEngine::new(1, 4);
        let _ = engine.handle(5);
    }

    #[test]
    fn concurrent_workers_preserve_counter_total() {
        let engine = Arc::new(OccEngine::new(4, 16));
        engine.load(Key::raw(9), Value::Int(0));
        let per_worker = 500;
        let mut handles = Vec::new();
        for core in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut h = engine.handle(core);
                let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(9), 1)));
                let mut committed = 0;
                while committed < per_worker {
                    if h.execute(proc.clone()).is_committed() {
                        committed += 1;
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(engine.global_get(Key::raw(9)), Some(Value::Int(4 * per_worker)));
        let stats = engine.stats();
        assert_eq!(stats.commits, 4 * per_worker as u64);
    }
}
