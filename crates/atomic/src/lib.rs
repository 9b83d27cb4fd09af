//! The "Atomic" baseline engine.
//!
//! "Atomic uses an atomic increment instruction with no other concurrency
//! control. Atomic represents an upper bound for locking schemes." (§8.2)
//!
//! This engine executes integer operations (`Add`, `Max`, `Min`) directly on
//! per-record atomics with no transaction semantics at all: no read sets, no
//! validation, no aborts, no isolation across multi-key transactions. It is
//! only meaningful for the single-key INCR microbenchmarks, where it bounds
//! what hardware-assisted serialization can achieve on one record; it is not
//! a serializable engine and must not be used as one.

use doppel_common::{
    CommitSink, Completion, CoreId, Engine, EngineStats, Key, Op, Outcome, Procedure,
    StatsSnapshot, TidGenerator, Tx, TxError, TxHandle, Value,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

type SinkCell = Arc<RwLock<Option<Arc<dyn CommitSink>>>>;

/// A store of per-key atomic integers.
///
/// Non-integer values are kept in a side map so that `Put`/`Get` of byte
/// strings still work (the LIKE benchmark writes a user row next to the
/// contended counter), but only integer operations take the lock-free path.
#[derive(Default)]
struct AtomicStore {
    ints: RwLock<HashMap<Key, Arc<AtomicI64>>>,
    others: RwLock<HashMap<Key, Value>>,
}

impl AtomicStore {
    fn int_cell(&self, k: Key) -> Arc<AtomicI64> {
        if let Some(cell) = self.ints.read().get(&k) {
            return Arc::clone(cell);
        }
        let mut map = self.ints.write();
        Arc::clone(map.entry(k).or_insert_with(|| Arc::new(AtomicI64::new(0))))
    }

    fn get(&self, k: &Key) -> Option<Value> {
        if let Some(cell) = self.ints.read().get(k) {
            return Some(Value::Int(cell.load(Ordering::Relaxed)));
        }
        self.others.read().get(k).cloned()
    }
}

/// The Atomic baseline engine.
pub struct AtomicEngine {
    store: Arc<AtomicStore>,
    stats: Arc<EngineStats>,
    sink: SinkCell,
    workers: usize,
}

impl AtomicEngine {
    /// Creates an engine with `workers` workers.
    pub fn new(workers: usize) -> Self {
        AtomicEngine {
            store: Arc::new(AtomicStore::default()),
            stats: Arc::new(EngineStats::new(workers)),
            sink: Arc::new(RwLock::new(None)),
            workers,
        }
    }
}

impl Engine for AtomicEngine {
    fn name(&self) -> &'static str {
        "Atomic"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn handle(&self, core: CoreId) -> Box<dyn TxHandle> {
        assert!(core < self.workers, "core {core} out of range (workers = {})", self.workers);
        Box::new(AtomicHandle {
            core,
            store: Arc::clone(&self.store),
            stats: Arc::clone(&self.stats),
            // Captured once so the execute path carries no shared sink-cell
            // read (attach must precede handle creation).
            sink: self.sink.read().clone(),
            tid_gen: TidGenerator::new(core),
            capture_buf: Vec::new(),
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn global_get(&self, k: Key) -> Option<Value> {
        self.store.get(&k)
    }

    fn load(&self, k: Key, v: Value) {
        match v {
            Value::Int(n) => {
                self.store.int_cell(k).store(n, Ordering::Relaxed);
            }
            other => {
                self.store.others.write().insert(k, other);
            }
        }
    }

    fn attach_commit_sink(&self, sink: Arc<dyn CommitSink>) {
        *self.sink.write() = Some(sink);
    }

    fn for_each_record(&self, f: &mut dyn FnMut(Key, &Value)) {
        for (k, cell) in self.store.ints.read().iter() {
            f(*k, &Value::Int(cell.load(Ordering::Relaxed)));
        }
        for (k, v) in self.store.others.read().iter() {
            f(*k, v);
        }
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

/// Per-worker handle for the Atomic engine.
pub struct AtomicHandle {
    core: CoreId,
    store: Arc<AtomicStore>,
    stats: Arc<EngineStats>,
    sink: Option<Arc<dyn CommitSink>>,
    tid_gen: TidGenerator,
    /// Reused capture buffer for the durable path: each procedure's write log
    /// borrows this vector and hands it back cleared, so steady-state
    /// execution allocates nothing per transaction.
    capture_buf: Vec<(Key, Op)>,
}

struct AtomicTx<'s> {
    core: CoreId,
    store: &'s AtomicStore,
    /// `Some` when a commit sink is attached: the operations applied by this
    /// procedure, captured for logging. Atomic applies writes eagerly and has
    /// no rollback, so the log mirrors exactly what reached the store — even
    /// when the procedure later returns an error.
    captured: Option<Vec<(Key, Op)>>,
}

impl Tx for AtomicTx<'_> {
    fn core(&self) -> CoreId {
        self.core
    }

    fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
        f(self.store.get(&k).as_ref());
        Ok(())
    }

    fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
        self.apply_op(k, op.clone())?;
        // Captured only after a successful apply: a type-mismatched op never
        // reaches the store, so logging it would poison replay with the same
        // deterministic error.
        if let Some(captured) = &mut self.captured {
            captured.push((k, op));
        }
        Ok(())
    }
}

impl AtomicTx<'_> {
    fn apply_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
        match op {
            Op::Add(n) => {
                self.store.int_cell(k).fetch_add(n, Ordering::Relaxed);
                Ok(())
            }
            Op::Max(n) => {
                self.store.int_cell(k).fetch_max(n, Ordering::Relaxed);
                Ok(())
            }
            Op::Min(n) => {
                self.store.int_cell(k).fetch_min(n, Ordering::Relaxed);
                Ok(())
            }
            Op::BitOr(n) => {
                self.store.int_cell(k).fetch_or(n, Ordering::Relaxed);
                Ok(())
            }
            Op::BoundedAdd { n, bound } => {
                // No single hardware instruction saturates at an arbitrary
                // bound; a CAS loop keeps the update lock-free.
                let _ = self.store.int_cell(k).fetch_update(
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                    |v| Some(v.saturating_add(n.max(0)).min(bound)),
                );
                Ok(())
            }
            Op::Put(v) => {
                match v {
                    Value::Int(n) => self.store.int_cell(k).store(n, Ordering::Relaxed),
                    other => {
                        self.store.others.write().insert(k, other);
                    }
                }
                Ok(())
            }
            // The Atomic baseline only exists to bound single-integer update
            // throughput; richer operations are executed via a short critical
            // section on the side map.
            other => {
                let mut map = self.store.others.write();
                let current = map.get(&k).cloned();
                let new = other.apply_to(current.as_ref())?;
                map.insert(k, new);
                Ok(())
            }
        }
    }
}

impl TxHandle for AtomicHandle {
    fn core(&self) -> CoreId {
        self.core
    }

    fn execute_with(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>,
        _own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome {
        let sink = self.sink.as_ref();
        let mut tx = AtomicTx {
            core: self.core,
            store: &self.store,
            captured: sink.map(|_| std::mem::take(&mut self.capture_buf)),
        };
        let run = body(&mut tx);
        let mut captured = tx.captured.take().unwrap_or_default();
        let tid = self.tid_gen.next();
        // Applied operations are logged on both paths: Atomic has no
        // rollback, so a failed procedure's earlier writes are store state
        // and must be recoverable.
        if let (Some(sink), false) = (&sink, captured.is_empty()) {
            self.stats
                .absorb_log(&sink.log_commit(tid, &mut captured.iter().map(|(k, op)| (*k, op))));
        }
        // Hand the buffer back for the next transaction (capacity kept).
        captured.clear();
        self.capture_buf = captured;
        match run {
            Ok(()) => {
                self.stats.core(self.core).commits.bump();
                Outcome::Committed(tid)
            }
            Err(e) => {
                self.stats.core(self.core).user_aborts.bump();
                Outcome::Aborted(e)
            }
        }
    }

    fn safepoint(&mut self) {}

    fn take_completions(&mut self) -> Vec<Completion> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::ProcedureFn;

    #[test]
    fn atomic_increments() {
        let engine = AtomicEngine::new(2);
        engine.load(Key::raw(1), Value::Int(5));
        let mut h = engine.handle(0);
        let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 3)));
        assert!(h.execute(proc).is_committed());
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(8)));
        assert_eq!(engine.name(), "Atomic");
        assert_eq!(engine.workers(), 2);
    }

    #[test]
    fn atomic_max_min() {
        let engine = AtomicEngine::new(1);
        let mut h = engine.handle(0);
        let p = Arc::new(ProcedureFn::new("maxmin", |tx| {
            tx.max(Key::raw(1), 50)?;
            tx.max(Key::raw(1), 20)?;
            tx.min(Key::raw(2), -5)?;
            tx.min(Key::raw(2), 3)?;
            Ok(())
        }));
        h.execute(p);
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(50)));
        assert_eq!(engine.global_get(Key::raw(2)), Some(Value::Int(-5)));
    }

    #[test]
    fn atomic_bitor_and_bounded_add() {
        let engine = AtomicEngine::new(1);
        engine.load(Key::raw(1), Value::Int(0b0001));
        engine.load(Key::raw(2), Value::Int(8));
        let mut h = engine.handle(0);
        let p = Arc::new(ProcedureFn::new("flags", |tx| {
            tx.bit_or(Key::raw(1), 0b0110)?;
            tx.bounded_add(Key::raw(2), 5, 10)?;
            tx.bounded_add(Key::raw(2), 5, 10)
        }));
        assert!(h.execute(p).is_committed());
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(0b0111)));
        assert_eq!(engine.global_get(Key::raw(2)), Some(Value::Int(10)));
    }

    #[test]
    fn atomic_set_union_uses_side_map() {
        let engine = AtomicEngine::new(1);
        engine.load(Key::raw(5), Value::Set(doppel_common::IntSet::new()));
        let mut h = engine.handle(0);
        let p = Arc::new(ProcedureFn::new("visit", |tx| {
            tx.set_insert(Key::raw(5), 42)?;
            tx.set_insert(Key::raw(5), 42)?;
            tx.set_insert(Key::raw(5), 7)
        }));
        assert!(h.execute(p).is_committed());
        let v = engine.global_get(Key::raw(5)).unwrap();
        assert_eq!(v.as_set().unwrap().iter().collect::<Vec<_>>(), vec![7, 42]);
    }

    #[test]
    fn non_integer_values_round_trip() {
        let engine = AtomicEngine::new(1);
        engine.load(Key::raw(9), Value::from("hello"));
        assert_eq!(engine.global_get(Key::raw(9)), Some(Value::from("hello")));
        let mut h = engine.handle(0);
        let p = Arc::new(ProcedureFn::new("put", |tx| {
            tx.put(Key::raw(10), Value::from("row"))
        }));
        h.execute(p);
        assert_eq!(engine.global_get(Key::raw(10)), Some(Value::from("row")));
    }

    #[test]
    fn concurrent_adds_never_lose_updates() {
        let engine = Arc::new(AtomicEngine::new(4));
        engine.load(Key::raw(0), Value::Int(0));
        let mut handles = Vec::new();
        for core in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let mut h = engine.handle(core);
                let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(0), 1)));
                for _ in 0..1000 {
                    assert!(h.execute(proc.clone()).is_committed());
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(engine.global_get(Key::raw(0)), Some(Value::Int(4000)));
        assert_eq!(engine.stats().commits, 4000);
    }

    #[test]
    fn failed_ops_are_never_logged() {
        use std::sync::atomic::AtomicU64;

        #[derive(Default)]
        struct CountingSink(AtomicU64);
        impl CommitSink for CountingSink {
            fn log_commit(
                &self,
                _tid: doppel_common::Tid,
                writes: &mut dyn ExactSizeIterator<Item = (Key, &Op)>,
            ) -> doppel_common::LogReceipt {
                self.0.fetch_add(writes.len() as u64, Ordering::Relaxed);
                doppel_common::LogReceipt::default()
            }
            fn log_merged_delta(&self, _tid: doppel_common::Tid, _key: Key, _ops: &[Op]) -> doppel_common::LogReceipt {
                doppel_common::LogReceipt::default()
            }
            fn sync(&self) -> doppel_common::LogReceipt {
                doppel_common::LogReceipt::default()
            }
        }

        let engine = AtomicEngine::new(1);
        let sink = Arc::new(CountingSink::default());
        engine.attach_commit_sink(sink.clone());
        engine.load(Key::raw(1), Value::from("bytes"));
        let mut h = engine.handle(0);
        // An applied op followed by a type-mismatched one: only the applied
        // op may reach the log — replaying the failed op would deterministically
        // fail recovery.
        let p = Arc::new(ProcedureFn::new("mixed", |tx| {
            tx.add(Key::raw(2), 5)?;
            tx.set_insert(Key::raw(1), 7) // SetUnion on a Bytes record: type error
        }));
        assert!(matches!(h.execute(p), Outcome::Aborted(TxError::TypeMismatch { .. })));
        assert_eq!(sink.0.load(Ordering::Relaxed), 1, "only the successful Add is logged");
        assert_eq!(engine.global_get(Key::raw(2)), Some(Value::Int(5)));
    }

    #[test]
    fn user_abort_counted() {
        let engine = AtomicEngine::new(1);
        let mut h = engine.handle(0);
        let p = Arc::new(ProcedureFn::new("fail", |_tx| {
            Err(TxError::UserAbort { reason: "nope" })
        }));
        assert!(matches!(h.execute(p), Outcome::Aborted(_)));
        assert_eq!(engine.stats().user_aborts, 1);
    }
}
