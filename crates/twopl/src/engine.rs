//! The 2PL engine and its per-worker handle.

use crate::lock_manager::LockManager;
use crate::tx::{TwoplTx, TxBuffers};
use doppel_common::{
    CommitSink, Completion, CoreId, Engine, EngineStats, Key, Outcome, Procedure, StatsSnapshot,
    TidGenerator, Tx, TxError, TxHandle, Value,
};
use doppel_store::{Session, Store};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type SinkCell = Arc<RwLock<Option<Arc<dyn CommitSink>>>>;

/// Shared state of the 2PL engine.
pub struct TwoplEngine {
    store: Arc<Store>,
    locks: Arc<LockManager>,
    stats: Arc<EngineStats>,
    sink: SinkCell,
    next_ts: Arc<AtomicU64>,
    workers: usize,
}

impl TwoplEngine {
    /// Creates an engine with `workers` workers and `shards` store shards.
    pub fn new(workers: usize, shards: usize) -> Self {
        TwoplEngine {
            store: Arc::new(Store::new(shards)),
            locks: Arc::new(LockManager::new(shards)),
            stats: Arc::new(EngineStats::new(workers)),
            sink: Arc::new(RwLock::new(None)),
            next_ts: Arc::new(AtomicU64::new(1)),
            workers,
        }
    }

    /// The underlying store (for tests and invariant checks).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

impl Engine for TwoplEngine {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn handle(&self, core: CoreId) -> Box<dyn TxHandle> {
        assert!(core < self.workers, "core {core} out of range (workers = {})", self.workers);
        Box::new(TwoplHandle {
            core,
            store: Arc::clone(&self.store),
            locks: Arc::clone(&self.locks),
            stats: Arc::clone(&self.stats),
            // Captured once so the commit path carries no shared sink-cell
            // read (attach must precede handle creation).
            sink: self.sink.read().clone(),
            next_ts: Arc::clone(&self.next_ts),
            tid_gen: TidGenerator::new(core),
            bufs: TxBuffers::default(),
            session: self.store.register(),
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
        *self.sink.write() = Some(sink);
    }

    fn for_each_record(&self, f: &mut dyn FnMut(Key, &Value)) {
        self.store.for_each(|k, v| f(*k, v));
    }

    fn note_recovered(&self, records: u64) {
        EngineStats::add(&self.stats.recovered_txns, records);
    }

    fn shutdown(&self) {
        if let Some(sink) = self.sink.read().as_ref() {
            self.stats.absorb_log(&sink.sync());
        }
    }
}

/// Per-worker 2PL execution handle.
pub struct TwoplHandle {
    core: CoreId,
    store: Arc<Store>,
    locks: Arc<LockManager>,
    stats: Arc<EngineStats>,
    sink: Option<Arc<dyn CommitSink>>,
    next_ts: Arc<AtomicU64>,
    tid_gen: TidGenerator,
    /// Transaction buffers reused across transactions (and across wait-die
    /// retries of the same transaction), so steady-state execution allocates
    /// nothing for lock bookkeeping or buffered writes.
    bufs: TxBuffers,
    /// This handle's registration with the store (reads in place, retired
    /// values).
    session: Session,
}

impl TxHandle for TwoplHandle {
    fn core(&self) -> CoreId {
        self.core
    }

    fn execute_with(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>,
        _own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome {
        // The wait-die timestamp is assigned once per transaction and kept
        // across internal retries, so a repeatedly dying transaction
        // eventually becomes the oldest requester and completes — "2PL never
        // aborts" (§8.2).
        let ts = self.next_ts.fetch_add(1, Ordering::Relaxed);
        let mut backoff = 0u32;
        let mut bufs = std::mem::take(&mut self.bufs);
        loop {
            // Between attempts the handle holds nothing of the store.
            self.session.quiesce(false);
            let mut tx = TwoplTx::from_parts(
                &self.store,
                &mut self.session,
                &self.locks,
                self.core,
                ts,
                bufs,
            );
            let run = body(&mut tx);
            match run {
                Ok(()) => {
                    let committed = tx.commit_durable(&mut self.tid_gen, self.sink.as_deref());
                    self.bufs = tx.into_buffers();
                    return match committed {
                        Ok((tid, receipt)) => {
                            self.stats.absorb_log(&receipt);
                            self.stats.core(self.core).commits.bump();
                            Outcome::Committed(tid)
                        }
                        Err(e) => {
                            self.stats.core(self.core).user_aborts.bump();
                            Outcome::Aborted(e)
                        }
                    };
                }
                Err(TxError::LockBusy { .. }) => {
                    // Wait-die told us to back off: release the transaction's
                    // locks (keeping its buffers for the retry), yield, retry.
                    bufs = tx.into_buffers();
                    self.stats.core(self.core).conflicts.bump();
                    backoff = (backoff + 1).min(10);
                    for _ in 0..(1u32 << backoff.min(6)) {
                        std::hint::spin_loop();
                    }
                    std::thread::yield_now();
                }
                Err(e) => {
                    self.bufs = tx.into_buffers();
                    self.stats.core(self.core).user_aborts.bump();
                    return Outcome::Aborted(e);
                }
            }
        }
    }

    fn prefetch(&mut self, keys: &[Key]) {
        self.store.prefetch(&self.session, keys);
    }

    fn safepoint(&mut self) {
        // 2PL has no phases; the store's reclamation is all that waits on
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
    fn engine_basics() {
        let engine = TwoplEngine::new(2, 8);
        engine.load(Key::raw(0), Value::Int(0));
        let mut h = engine.handle(0);
        let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(0), 1)));
        for _ in 0..5 {
            assert!(h.execute(proc.clone()).is_committed());
        }
        assert_eq!(engine.global_get(Key::raw(0)), Some(Value::Int(5)));
        assert_eq!(engine.stats().commits, 5);
        assert_eq!(engine.name(), "2PL");
    }

    #[test]
    fn never_aborts_under_contention() {
        let engine = Arc::new(TwoplEngine::new(4, 8));
        engine.load(Key::raw(7), Value::Int(0));
        let per_worker = 250;
        let mut handles = Vec::new();
        for core in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut h = engine.handle(core);
                let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(7), 1)));
                for _ in 0..per_worker {
                    // Every call must commit: 2PL retries internally.
                    assert!(h.execute(proc.clone()).is_committed());
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(engine.global_get(Key::raw(7)), Some(Value::Int(4 * per_worker)));
        assert_eq!(engine.stats().commits, 4 * per_worker as u64);
    }

    #[test]
    fn multi_key_transactions_do_not_deadlock() {
        // Transactions touching the same pair of keys in opposite orders
        // would deadlock without wait-die.
        let engine = Arc::new(TwoplEngine::new(2, 8));
        engine.load(Key::raw(1), Value::Int(0));
        engine.load(Key::raw(2), Value::Int(0));
        let mut handles = Vec::new();
        for core in 0..2usize {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut h = engine.handle(core);
                let proc: Arc<dyn Procedure> = if core == 0 {
                    Arc::new(ProcedureFn::new("fwd", |tx| {
                        tx.add(Key::raw(1), 1)?;
                        tx.add(Key::raw(2), 1)
                    }))
                } else {
                    Arc::new(ProcedureFn::new("rev", |tx| {
                        tx.add(Key::raw(2), 1)?;
                        tx.add(Key::raw(1), 1)
                    }))
                };
                for _ in 0..300 {
                    assert!(h.execute(proc.clone()).is_committed());
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(600)));
        assert_eq!(engine.global_get(Key::raw(2)), Some(Value::Int(600)));
    }

    #[test]
    fn user_abort_propagates_and_releases_locks() {
        let engine = TwoplEngine::new(1, 8);
        engine.load(Key::raw(1), Value::Int(0));
        let mut h = engine.handle(0);
        let proc = Arc::new(ProcedureFn::new("fail", |tx| {
            tx.add(Key::raw(1), 1)?;
            Err(TxError::UserAbort { reason: "no" })
        }));
        let out = h.execute(proc);
        assert!(matches!(out, Outcome::Aborted(TxError::UserAbort { .. })));
        // The write was never applied and the locks are free.
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(0)));
        let ok = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
        assert!(h.execute(ok).is_committed());
    }
}
