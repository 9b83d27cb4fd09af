//! The Doppel transaction context for joined and split phases.
//!
//! * In a **joined** phase every access goes through plain OCC (§5.1) — the
//!   context simply wraps [`OccTx`].
//! * In a **split** phase, accesses to records in the current [`SplitSet`]
//!   are special (§5.2): the selected operation is buffered in the *split
//!   write set* `SW` and applied to the worker's per-core slices only if the
//!   OCC part of the commit succeeds (Figure 3); any other access to a split
//!   record — a read, or a non-selected operation — fails with
//!   [`TxError::Stash`], telling the worker to stash the transaction until
//!   the next joined phase.
//!
//! The context also records which write operation the transaction *intended*
//! for each key it wrote; when a commit aborts on a conflict, the worker uses
//! the intent to attribute the conflict to an operation for the classifier
//! (§5.5: "which records are most conflicted … and by which operations"). A
//! key it only read is attributed to `Get` without being recorded.

use crate::split_registry::SplitSet;
use doppel_common::{CoreId, Key, Op, OpKind, Tid, TidGenerator, TxError, Value};
use doppel_occ::{OccTx, SetPool};
use doppel_store::{Session, Store};

/// The reusable buffers of a [`DoppelTx`]: the OCC read/write sets plus the
/// split write set and intent list. [`crate::DoppelWorker`] pools one of
/// these across transactions so steady-state execution allocates no
/// per-transaction bookkeeping.
#[derive(Default)]
pub struct TxBuffers {
    sets: SetPool,
    split_writes: Vec<(usize, Op)>,
    intents: Vec<(Key, OpKind)>,
}

/// A running Doppel transaction.
pub struct DoppelTx<'s> {
    occ: OccTx<'s>,
    /// The split decisions of the running split phase, borrowed from the
    /// worker; `None` in a joined phase, where everything is reconciled and
    /// the transaction is plain OCC.
    split_set: Option<&'s SplitSet>,
    /// Split write set `SW` (Figure 3): operations on split records by
    /// [`SplitSet`] slot, applied to per-core slices after the OCC commit
    /// succeeds.
    split_writes: Vec<(usize, Op)>,
    /// Write operations this transaction attempted per key, newest last.
    intents: Vec<(Key, OpKind)>,
}

impl<'s> DoppelTx<'s> {
    /// Starts a transaction on pooled buffers (cleared here): split-phase,
    /// restricted by `split_set`, or joined-phase when that is `None`.
    pub fn new(
        store: &'s Store,
        session: &'s mut Session,
        core: CoreId,
        split_set: Option<&'s SplitSet>,
        bufs: TxBuffers,
    ) -> Self {
        let TxBuffers { mut sets, mut split_writes, mut intents } = bufs;
        split_writes.clear();
        intents.clear();
        let (read_set, write_set) = sets.take();
        DoppelTx {
            occ: OccTx::from_parts(store, session, core, read_set, write_set),
            split_set,
            split_writes,
            intents,
        }
    }

    /// Recovers the internal buffers (capacity intact, contents cleared) for
    /// reuse by the next transaction on this worker.
    pub fn into_buffers(mut self) -> TxBuffers {
        let (read_set, write_set) = self.occ.into_sets();
        self.split_writes.clear();
        self.intents.clear();
        TxBuffers {
            sets: SetPool::recycle(read_set, write_set),
            split_writes: self.split_writes,
            intents: self.intents,
        }
    }

    /// The operation kind this transaction attempted on `key`: its last
    /// write, or `Get` for a key it only read or never touched (a conflict on
    /// a key that was both read and written is attributed to the write,
    /// which is what the classifier can act on).
    pub fn intent_for(&self, key: &Key) -> OpKind {
        let last_write = self.intents.iter().rev().find(|(k, _)| k == key);
        last_write.map_or(OpKind::Get, |(_, op)| *op)
    }

    /// Commits the reconciled (OCC) part of the transaction, write-ahead
    /// logging its write set when a sink is given. Split writes are
    /// deliberately **not** logged here — they become merged-delta records at
    /// reconciliation (the paper's O(split keys) logging fast path).
    pub fn commit_occ_durable(
        &mut self,
        tid_gen: &mut TidGenerator,
        sink: Option<&dyn doppel_common::CommitSink>,
    ) -> Result<(Tid, doppel_common::LogReceipt), TxError> {
        self.occ.commit_durable(tid_gen, sink)
    }

    /// Drains the buffered split writes, `(slot, operation)`, to apply to the
    /// per-core slices after a successful OCC commit. The buffer keeps its
    /// allocation.
    pub fn drain_split_writes(&mut self) -> std::vec::Drain<'_, (usize, Op)> {
        self.split_writes.drain(..)
    }
}

impl doppel_common::Tx for DoppelTx<'_> {
    fn core(&self) -> CoreId {
        self.occ.core()
    }

    fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
        if let Some(split_set) = self.split_set {
            if split_set.is_split(&k) {
                // Split data cannot be read during a split phase; the
                // transaction blocks (is stashed) until the next joined
                // phase (§4, §5.2).
                return Err(TxError::Stash { key: k, attempted: OpKind::Get });
            }
        }
        self.occ.read(k, f)
    }

    fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
        if let Some(split_set) = self.split_set {
            if let Some((slot, selected)) = split_set.lookup(&k) {
                let kind = op.kind();
                if kind == selected {
                    // The fast path that phase reconciliation exists for:
                    // buffer the operation for the per-core slice; no global
                    // coordination.
                    self.split_writes.push((slot, op));
                    return Ok(());
                }
                // Any operation other than the selected one aborts the
                // transaction for restart in the next joined phase.
                return Err(TxError::Stash { key: k, attempted: kind });
            }
        }
        self.intents.push((k, op.kind()));
        self.occ.write_op(k, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::Tx;

    fn store() -> Store {
        let s = Store::new(16);
        for i in 0..10 {
            s.load(Key::raw(i), Value::Int(0));
        }
        s
    }

    fn split_on_add(key: u64) -> SplitSet {
        SplitSet::from_decisions([(Key::raw(key), OpKind::Add)])
    }

    fn joined<'s>(store: &'s Store, session: &'s mut Session, core: CoreId) -> DoppelTx<'s> {
        DoppelTx::new(store, session, core, None, TxBuffers::default())
    }

    fn split<'s>(store: &'s Store, session: &'s mut Session, set: &'s SplitSet) -> DoppelTx<'s> {
        DoppelTx::new(store, session, 0, Some(set), TxBuffers::default())
    }

    #[test]
    fn joined_mode_behaves_like_occ() {
        let s = store();
        let mut gen = TidGenerator::new(0);
        let mut session = s.register();
        let mut tx = joined(&s, &mut session, 0);
        tx.add(Key::raw(1), 5).unwrap();
        assert_eq!(tx.get(Key::raw(1)).unwrap(), Some(Value::Int(5)));
        tx.commit_occ_durable(&mut gen, None).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(5)));
        assert_eq!(tx.drain_split_writes().count(), 0);
    }

    #[test]
    fn split_mode_buffers_selected_op() {
        let s = store();
        let set = split_on_add(1);
        let mut gen = TidGenerator::new(0);
        let mut session = s.register();
        let mut tx = split(&s, &mut session, &set);
        tx.add(Key::raw(1), 5).unwrap();
        tx.add(Key::raw(2), 7).unwrap(); // not split → OCC path
        tx.commit_occ_durable(&mut gen, None).unwrap();
        // The split write did NOT touch the global store.
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(0)));
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::Int(7)));
        let sw: Vec<_> = tx.drain_split_writes().collect();
        assert_eq!(sw, vec![(0, Op::Add(5))], "buffered under key 1's slot");
    }

    #[test]
    fn split_mode_stashes_reads_of_split_data() {
        let s = store();
        let set = split_on_add(1);
        let mut session = s.register();
        let mut tx = split(&s, &mut session, &set);
        let err = tx.get(Key::raw(1)).unwrap_err();
        assert_eq!(err, TxError::Stash { key: Key::raw(1), attempted: OpKind::Get });
        // Reads of non-split data are fine.
        assert_eq!(tx.get(Key::raw(2)).unwrap(), Some(Value::Int(0)));
    }

    #[test]
    fn split_mode_stashes_non_selected_ops() {
        let s = store();
        let set = split_on_add(1);
        let mut session = s.register();
        let mut tx = split(&s, &mut session, &set);
        let err = tx.max(Key::raw(1), 10).unwrap_err();
        assert_eq!(err, TxError::Stash { key: Key::raw(1), attempted: OpKind::Max });
        let err = tx.put(Key::raw(1), Value::Int(1)).unwrap_err();
        assert_eq!(err, TxError::Stash { key: Key::raw(1), attempted: OpKind::Put });
    }

    #[test]
    fn intents_are_recorded_and_prefer_writes() {
        let s = store();
        let mut session = s.register();
        let mut tx = joined(&s, &mut session, 0);
        tx.get(Key::raw(3)).unwrap();
        assert_eq!(tx.intent_for(&Key::raw(3)), OpKind::Get);
        tx.add(Key::raw(3), 1).unwrap();
        assert_eq!(tx.intent_for(&Key::raw(3)), OpKind::Add);
        tx.get(Key::raw(3)).unwrap();
        assert_eq!(tx.intent_for(&Key::raw(3)), OpKind::Add, "write intent wins over later read");
        assert_eq!(tx.intent_for(&Key::raw(99)), OpKind::Get, "unknown keys default to Get");
    }

    #[test]
    fn split_writes_are_isolated_from_occ_abort() {
        // If the OCC part of a split-phase transaction aborts, the caller
        // never applies the split writes: they stay buffered in the tx.
        let s = store();
        let set = split_on_add(1);
        let mut gen0 = TidGenerator::new(0);
        let mut gen1 = TidGenerator::new(1);

        let mut session = s.register();
        let mut tx = split(&s, &mut session, &set);
        tx.add(Key::raw(1), 5).unwrap(); // split write
        tx.add(Key::raw(2), 1).unwrap(); // OCC read-modify-write

        // A concurrent transaction commits to key 2, invalidating the read.
        let mut other_session = s.register();
        let mut other = joined(&s, &mut other_session, 1);
        other.add(Key::raw(2), 100).unwrap();
        other.commit_occ_durable(&mut gen1, None).unwrap();

        let err = tx.commit_occ_durable(&mut gen0, None).unwrap_err();
        assert_eq!(err, TxError::Conflict { key: Key::raw(2) });
        // The worker checks commit success before applying split writes, so
        // nothing leaked into the global store or slices.
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(0)));
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::Int(100)));
    }
}
