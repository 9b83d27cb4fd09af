//! Engine-agnostic execution interface.
//!
//! The paper compares Doppel against OCC, 2PL and an "Atomic" baseline, all
//! "implemented in the same framework" (§8.1). This module is that framework:
//!
//! * a [`Procedure`] is a one-shot transaction (§3) — a closed description of
//!   the work, submitted to a worker and rerunnable (Doppel may stash it and
//!   re-execute it in the next joined phase);
//! * a [`Tx`] is the operation interface a procedure uses while it runs;
//! * a [`TxHandle`] is a per-worker execution handle (one per core);
//! * an [`Engine`] creates handles and exposes statistics.

use crate::error::TxError;
use crate::key::Key;
use crate::ops::{Op, OpKind, OrderKey};
use crate::stats::StatsSnapshot;
use crate::tid::Tid;
use crate::value::Value;
use crate::CoreId;
use bytes::Bytes;
use std::sync::Arc;

/// Operation interface available to a running transaction.
///
/// Write operations are buffered in the transaction's write set and applied
/// at commit, so their effects are not visible to other transactions until
/// this one commits; a transaction's own reads ([`Tx::read`], [`Tx::get`]) see
/// its buffered writes applied (read-your-writes), because several RUBiS
/// transactions rely on reading a row they just created.
pub trait Tx {
    /// The core / worker this transaction runs on.
    fn core(&self) -> CoreId;

    /// Reads a record in place: lends `f` the value, or `None` when the
    /// record does not exist, exactly once if the read succeeds and not at
    /// all if it fails. This is the engine's one read path; on the store
    /// engines it writes no shared memory and copies nothing.
    ///
    /// **The lending rule.** The reference dies with `f`: it points into the
    /// store, at a value a concurrent commit may replace the moment `f`
    /// returns. Parse, compare or encode inside `f`; clone out what must
    /// outlive it (that is what [`Tx::get`] does).
    fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError>;

    /// Reads a record, returning `None` when it does not exist: [`Tx::read`]
    /// cloning the value out. Cloning a row or an index counts a reference on
    /// memory every core shares; prefer `read` where the value is only looked
    /// at.
    fn get(&mut self, k: Key) -> Result<Option<Value>, TxError> {
        let mut out = None;
        self.read(k, &mut |v| out = v.cloned())?;
        Ok(out)
    }

    /// Buffers a write operation against a record.
    fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError>;

    /// Overwrites a record with a new value.
    fn put(&mut self, k: Key, v: Value) -> Result<(), TxError> {
        self.write_op(k, Op::Put(v))
    }

    /// `v[k] ← max(v[k], n)` (splittable).
    fn max(&mut self, k: Key, n: i64) -> Result<(), TxError> {
        self.write_op(k, Op::Max(n))
    }

    /// `v[k] ← min(v[k], n)` (splittable).
    fn min(&mut self, k: Key, n: i64) -> Result<(), TxError> {
        self.write_op(k, Op::Min(n))
    }

    /// `v[k] ← v[k] + n` (splittable).
    fn add(&mut self, k: Key, n: i64) -> Result<(), TxError> {
        self.write_op(k, Op::Add(n))
    }

    /// `v[k] ← v[k] * n` (splittable).
    fn mult(&mut self, k: Key, n: i64) -> Result<(), TxError> {
        self.write_op(k, Op::Mult(n))
    }

    /// Ordered put: replaces the tuple at `k` when `(order, core)` is larger
    /// than the stored tuple's (splittable). The core id is filled in
    /// automatically from [`Tx::core`].
    fn oput(&mut self, k: Key, order: OrderKey, payload: Bytes) -> Result<(), TxError> {
        let core = self.core();
        self.write_op(k, Op::OPut { order, core, payload })
    }

    /// Inserts `(order, core, payload)` into the top-K set at `k`
    /// (splittable). `k_cap` bounds the set if the record is created by this
    /// operation.
    fn topk_insert(
        &mut self,
        k: Key,
        order: OrderKey,
        payload: Bytes,
        k_cap: usize,
    ) -> Result<(), TxError> {
        let core = self.core();
        self.write_op(k, Op::TopKInsert { order, core, payload, k: k_cap })
    }

    /// `v[k] ← v[k] | n` (splittable): accumulates flag bits.
    fn bit_or(&mut self, k: Key, n: i64) -> Result<(), TxError> {
        self.write_op(k, Op::BitOr(n))
    }

    /// `v[k] ← min(bound, v[k] + max(n, 0))` (splittable): a counter that
    /// saturates at `bound` (rate limiting). All `bounded_add` calls on one
    /// key must use the same bound.
    fn bounded_add(&mut self, k: Key, n: i64, bound: i64) -> Result<(), TxError> {
        self.write_op(k, Op::BoundedAdd { n, bound })
    }

    /// `v[k] ← v[k] ∪ {elem}` (splittable): records a distinct element
    /// (e.g. a unique visitor id).
    fn set_insert(&mut self, k: Key, elem: i64) -> Result<(), TxError> {
        self.write_op(k, Op::SetUnion(crate::IntSet::singleton(elem)))
    }

    /// Reads an integer record, treating a missing record as 0.
    fn get_int(&mut self, k: Key) -> Result<i64, TxError> {
        let mut out = Ok(0);
        self.read(k, &mut |v| match v {
            None => {}
            Some(Value::Int(n)) => out = Ok(*n),
            Some(v) => out = Err(TxError::type_mismatch(OpKind::Get, v.kind())),
        })?;
        out
    }
}

/// A one-shot transaction procedure (§3: "clients submit transactions in the
/// form of procedures").
///
/// Procedures must be deterministic functions of the database state they
/// read: Doppel may abort and re-execute them (OCC retry) or stash and replay
/// them in a later joined phase, and the serializability argument of §5.6
/// relies on re-execution producing the same decisions when reads return the
/// same values.
pub trait Procedure: Send + Sync {
    /// Executes the transaction body against `tx`.
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError>;

    /// Short, static name used in statistics and latency breakdowns.
    fn name(&self) -> &'static str {
        "procedure"
    }

    /// True when the procedure issues no writes; used by the harness to
    /// report read and write latencies separately (Table 3 of the paper).
    fn is_read_only(&self) -> bool {
        false
    }

    /// The per-procedure counters of this procedure's registry entry, when it
    /// is a [`crate::proc::RegisteredCall`]. The transaction service uses the
    /// hook to account commits, aborts and stash-deferrals per registered
    /// procedure; closure procedures return `None` and are not tracked.
    fn proc_stats(&self) -> Option<&crate::proc::ProcStats> {
        None
    }
}

/// A [`Procedure`] built from a closure, convenient in examples and tests.
///
/// # Examples
///
/// ```
/// use doppel_common::{Key, ProcedureFn, Procedure};
///
/// let incr = ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1));
/// assert_eq!(incr.name(), "incr");
/// ```
pub struct ProcedureFn<F> {
    name: &'static str,
    read_only: bool,
    f: F,
}

impl<F> ProcedureFn<F>
where
    F: Fn(&mut dyn Tx) -> Result<(), TxError> + Send + Sync,
{
    /// Wraps a closure as a (read-write) procedure.
    pub fn new(name: &'static str, f: F) -> Self {
        ProcedureFn { name, read_only: false, f }
    }

    /// Wraps a closure as a read-only procedure.
    pub fn read_only(name: &'static str, f: F) -> Self {
        ProcedureFn { name, read_only: true, f }
    }
}

impl<F> Procedure for ProcedureFn<F>
where
    F: Fn(&mut dyn Tx) -> Result<(), TxError> + Send + Sync,
{
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        (self.f)(tx)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn is_read_only(&self) -> bool {
        self.read_only
    }
}

/// Identifier handed back when a Doppel worker stashes a transaction; the
/// matching [`Completion`] carries the same ticket once the transaction
/// finally commits or aborts in a later joined phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// Result of submitting a procedure to a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The transaction committed with the given TID.
    Committed(Tid),
    /// The transaction aborted; [`TxError::is_retryable`] tells the caller
    /// whether resubmitting later makes sense.
    Aborted(TxError),
    /// The transaction touched split data incompatibly during a split phase;
    /// the worker stashed it and will re-execute it in the next joined phase.
    /// A [`Completion`] with the same ticket will be reported by
    /// [`TxHandle::take_completions`].
    Stashed(Ticket),
}

impl Outcome {
    /// True if the transaction committed immediately.
    pub fn is_committed(&self) -> bool {
        matches!(self, Outcome::Committed(_))
    }

    /// True if the transaction was stashed.
    pub fn is_stashed(&self) -> bool {
        matches!(self, Outcome::Stashed(_))
    }

    /// The commit TID, if committed.
    pub fn tid(&self) -> Option<Tid> {
        match self {
            Outcome::Committed(t) => Some(*t),
            _ => None,
        }
    }
}

/// Deferred result of a stashed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Ticket returned by the original [`Outcome::Stashed`].
    pub ticket: Ticket,
    /// Final result: commit TID or the abort that ended the transaction.
    pub result: Result<Tid, TxError>,
}

/// Per-worker execution handle. Exactly one handle exists per core, and a
/// handle must only be used from one thread at a time.
pub trait TxHandle: Send {
    /// The core this handle is bound to.
    fn core(&self) -> CoreId;

    /// Executes `body` as one transaction, borrowed: nothing about the call
    /// has to be on the heap for it to run.
    ///
    /// The call participates in phase changes: a Doppel worker first passes a
    /// safepoint where it may acknowledge a pending phase transition, merge
    /// its per-core slices (reconciliation), or drain its stash.
    ///
    /// `body` is the transaction; the handle may run it more than once
    /// (2PL's wait-die retries), so it must be a deterministic function of
    /// what it reads, like [`Procedure::run`].
    ///
    /// **The stash contract.** `own` is how the handle takes ownership of the
    /// transaction when, and only when, it must keep it past this call: a
    /// Doppel worker whose split phase cannot run `body` now calls `own`
    /// **once**, stashes the procedure it returns, answers
    /// [`Outcome::Stashed`], and runs *that procedure* — not `body` — in the
    /// next joined phase, reporting the result as a [`Completion`] with the
    /// same ticket. The procedure `own` returns must therefore be the same
    /// transaction as `body`. On every other outcome (`Committed`, `Aborted`)
    /// `own` is not called, and engines that never stash never call it.
    fn execute_with(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>,
        own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome;

    /// Executes an owned procedure as one transaction:
    /// [`TxHandle::execute_with`] running `proc` and, should the engine need
    /// to keep the transaction, handing it `proc` itself.
    fn execute(&mut self, proc: Arc<dyn Procedure>) -> Outcome {
        self.execute_with(&mut |tx| proc.run(tx), &mut || Arc::clone(&proc))
    }

    /// A hint that transactions touching the records of `keys` are about to
    /// run on this handle: an engine that can starts fetching them, so that
    /// the cache misses of a group of independent calls overlap. It reads no
    /// value and orders nothing; doing nothing, the default, is correct.
    fn prefetch(&mut self, _keys: &[Key]) {}

    /// Passes a safepoint without executing anything. Idle workers should
    /// call this periodically so that they do not hold up phase transitions.
    fn safepoint(&mut self);

    /// Returns completions of previously stashed transactions that have since
    /// been re-executed.
    fn take_completions(&mut self) -> Vec<Completion>;

    /// Number of transactions currently stashed on this worker.
    fn stash_len(&self) -> usize {
        0
    }
}

/// Accounting returned by every [`CommitSink`] call: what the call appended
/// and whether it triggered a group-commit flush.
///
/// Engines fold receipts into their [`crate::EngineStats`] via
/// [`crate::EngineStats::absorb_log`], so the WAL itself stays
/// engine-agnostic while each engine's statistics reflect its own logging
/// activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogReceipt {
    /// Log records appended by this call.
    pub records: u64,
    /// Bytes appended by this call.
    pub bytes: u64,
    /// `fsync` calls performed by this call (0 or 1: appends only sync when
    /// they close a group-commit batch).
    pub fsyncs: u64,
    /// Group-commit batches flushed by this call.
    pub batches: u64,
}

impl LogReceipt {
    /// Component-wise sum of two receipts.
    pub fn merge(self, other: LogReceipt) -> LogReceipt {
        LogReceipt {
            records: self.records + other.records,
            bytes: self.bytes + other.bytes,
            fsyncs: self.fsyncs + other.fsyncs,
            batches: self.batches + other.batches,
        }
    }
}

/// Destination for durability records — the commit-hook half of write-ahead
/// logging.
///
/// The log crate provides the real implementation (an append-only,
/// CRC-checksummed, group-committed file); this trait lives in `common` so
/// every engine can log without depending on the log's mechanics.
///
/// Engines call it at two points, reflecting the paper's durability
/// observation that phase reconciliation makes logging *cheaper*:
///
/// * [`CommitSink::log_commit`] — a conventionally committed transaction's
///   write set (OCC / 2PL / Atomic commits, and Doppel's joined-phase and
///   non-split split-phase writes). One record per transaction, O(write set)
///   bytes.
/// * [`CommitSink::log_merged_delta`] — Doppel's split-phase fast path:
///   slice operations are **not** logged individually; instead each worker
///   emits one merged-delta record per split key while acknowledging the
///   split→joined transition, i.e. O(split keys) records per phase instead of
///   O(operations).
///
/// Calls must be made while the caller still holds whatever exclusivity
/// protects the records being logged (OCC record locks, 2PL logical locks,
/// the reconciliation record lock), so that log order is a valid
/// serialization order for replay.
pub trait CommitSink: Send + Sync {
    /// Appends one commit record for a transaction's write set.
    ///
    /// The write set is streamed as borrowed `(key, &op)` pairs so callers
    /// log straight out of their in-place write sets — the commit hot path
    /// must not have to materialize an owned `Vec<(Key, Op)>` (cloning every
    /// op) just to cross this trait boundary. `ExactSizeIterator` lets
    /// implementations emit the entry count up front. Slice-shaped callers
    /// (tests, recovery replay) can use [`CommitSinkExt::log_commit_slice`].
    fn log_commit(
        &self,
        tid: Tid,
        writes: &mut dyn ExactSizeIterator<Item = (Key, &Op)>,
    ) -> LogReceipt;

    /// Appends one merged-delta record for a split key's reconciliation
    /// (`ops` are the merge operations produced by the per-core slice).
    fn log_merged_delta(&self, tid: Tid, key: Key, ops: &[Op]) -> LogReceipt;

    /// Blocks until everything appended so far is durable (flush + fsync).
    fn sync(&self) -> LogReceipt;
}

/// Slice-shaped convenience over [`CommitSink::log_commit`] for callers that
/// already hold an owned `&[(Key, Op)]` (tests, recovery replay, captured
/// write logs). Blanket-implemented for every sink, including trait objects.
pub trait CommitSinkExt {
    /// Appends one commit record from a `(key, op)` slice.
    fn log_commit_slice(&self, tid: Tid, writes: &[(Key, Op)]) -> LogReceipt;
}

impl<T: CommitSink + ?Sized> CommitSinkExt for T {
    fn log_commit_slice(&self, tid: Tid, writes: &[(Key, Op)]) -> LogReceipt {
        self.log_commit(tid, &mut writes.iter().map(|(k, op)| (*k, op)))
    }
}

/// A transactional engine: creates per-core handles and exposes global state.
pub trait Engine: Send + Sync {
    /// Engine name used in benchmark output ("Doppel", "OCC", "2PL", …).
    fn name(&self) -> &'static str;

    /// Number of workers the engine was configured with.
    fn workers(&self) -> usize;

    /// Creates the execution handle for `core`. Must be called at most once
    /// per core id in `0..workers()`.
    fn handle(&self, core: CoreId) -> Box<dyn TxHandle>;

    /// Point-in-time statistics snapshot.
    fn stats(&self) -> StatsSnapshot;

    /// Reads a record directly from the global store, bypassing concurrency
    /// control. Only meaningful when the engine is quiescent (no concurrent
    /// transactions and, for Doppel, no split phase in progress); intended
    /// for test assertions and benchmark validation.
    fn global_get(&self, k: Key) -> Option<Value>;

    /// Loads a record directly into the global store, bypassing concurrency
    /// control. Intended for benchmark pre-population ("we pre-allocate all
    /// the records", §8.1).
    fn load(&self, k: Key, v: Value);

    /// Signals the engine to stop background activity (e.g. Doppel's
    /// coordinator thread). Engines without background threads ignore this.
    fn shutdown(&self) {}

    /// Worker-ownership hook: a service that owns this engine's workers is
    /// starting a graceful drain. No new procedures will be submitted; the
    /// workers will keep passing safepoints until their stashes are empty.
    ///
    /// Engines whose stash replay depends on a phase transition (Doppel)
    /// nudge their phase machinery here so the drain does not have to wait a
    /// full phase length; engines without deferred work ignore the call.
    /// Unlike [`Engine::shutdown`] the engine must keep executing
    /// transactions normally afterwards — stash replays still run through
    /// the ordinary commit path.
    fn begin_drain(&self) {}

    /// Attaches a durability sink: from now on the engine logs every
    /// committed transaction's write set (and, for Doppel, merged split-key
    /// deltas at reconciliation) through `sink`.
    ///
    /// Attach **before** creating handles: engines are allowed to capture the
    /// sink per handle at creation time. The default implementation ignores
    /// the sink (an engine without durability support stays volatile).
    fn attach_commit_sink(&self, sink: Arc<dyn CommitSink>) {
        let _ = sink;
    }

    /// Applies `f` to every `(key, value)` pair in the store. Only meaningful
    /// when the engine is quiescent; used by checkpointing and recovery
    /// assertions. The default implementation visits nothing (such an engine
    /// produces empty checkpoints).
    fn for_each_record(&self, f: &mut dyn FnMut(Key, &Value)) {
        let _ = f;
    }

    /// Notes that `records` log records were replayed into this engine during
    /// crash recovery (surfaces as `recovered_txns` in the statistics). The
    /// default implementation ignores the notification.
    fn note_recovered(&self, records: u64) {
        let _ = records;
    }

    /// The engine's telemetry registry (phase-duration and stash-latency
    /// histograms, the conflict heat sketch), when the engine is
    /// instrumented. Baseline engines return `None`: their behavior is fully
    /// described by [`Engine::stats`] counters.
    fn telemetry(&self) -> Option<Arc<doppel_telemetry::Registry>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopTx(CoreId, Vec<(Key, Op)>);

    impl Tx for NopTx {
        fn core(&self) -> CoreId {
            self.0
        }
        fn read(&mut self, _k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
            f(Some(&Value::Int(7)));
            Ok(())
        }
        fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
            self.1.push((k, op));
            Ok(())
        }
    }

    #[test]
    fn tx_default_methods_build_ops() {
        let mut tx = NopTx(3, vec![]);
        tx.add(Key::raw(1), 5).unwrap();
        tx.max(Key::raw(2), 9).unwrap();
        tx.min(Key::raw(3), 9).unwrap();
        tx.mult(Key::raw(4), 2).unwrap();
        tx.put(Key::raw(5), Value::Int(1)).unwrap();
        tx.oput(Key::raw(6), OrderKey::from(10), "x".into()).unwrap();
        tx.topk_insert(Key::raw(7), OrderKey::from(10), "y".into(), 8).unwrap();
        tx.bit_or(Key::raw(8), 0b100).unwrap();
        tx.bounded_add(Key::raw(9), 1, 50).unwrap();
        tx.set_insert(Key::raw(10), 77).unwrap();
        assert_eq!(tx.1.len(), 10);
        assert_eq!(tx.1[0].1.kind(), OpKind::Add);
        assert_eq!(tx.1[7].1, Op::BitOr(0b100));
        assert_eq!(tx.1[8].1, Op::BoundedAdd { n: 1, bound: 50 });
        match &tx.1[9].1 {
            Op::SetUnion(s) => assert!(s.contains(77)),
            other => panic!("unexpected op {other:?}"),
        }
        // The core id is threaded into OPut / TopKInsert automatically.
        match &tx.1[5].1 {
            Op::OPut { core, .. } => assert_eq!(*core, 3),
            other => panic!("unexpected op {other:?}"),
        }
        match &tx.1[6].1 {
            Op::TopKInsert { core, k, .. } => {
                assert_eq!(*core, 3);
                assert_eq!(*k, 8);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn get_int_defaults_missing_to_zero() {
        struct Missing;
        impl Tx for Missing {
            fn core(&self) -> CoreId {
                0
            }
            fn read(&mut self, _k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
                f(None);
                Ok(())
            }
            fn write_op(&mut self, _k: Key, _op: Op) -> Result<(), TxError> {
                Ok(())
            }
        }
        assert_eq!(Missing.get_int(Key::raw(1)).unwrap(), 0);
        let mut t = NopTx(0, vec![]);
        assert_eq!(t.get_int(Key::raw(1)).unwrap(), 7);
    }

    #[test]
    fn procedure_fn_metadata() {
        let p = ProcedureFn::new("write", |tx| tx.add(Key::raw(1), 1));
        assert_eq!(p.name(), "write");
        assert!(!p.is_read_only());
        let r = ProcedureFn::read_only("read", |tx| tx.get(Key::raw(1)).map(|_| ()));
        assert!(r.is_read_only());
        let mut tx = NopTx(0, vec![]);
        p.run(&mut tx).unwrap();
        r.run(&mut tx).unwrap();
        assert_eq!(tx.1.len(), 1);
    }

    #[test]
    fn outcome_helpers() {
        let c = Outcome::Committed(Tid::from_parts(1, 0));
        assert!(c.is_committed());
        assert!(!c.is_stashed());
        assert!(c.tid().is_some());
        let s = Outcome::Stashed(Ticket(9));
        assert!(s.is_stashed());
        assert_eq!(s.tid(), None);
        let a = Outcome::Aborted(TxError::Shutdown);
        assert!(!a.is_committed());
    }
}
