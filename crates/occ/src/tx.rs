//! The OCC transaction context.
//!
//! [`OccTx`] implements the [`Tx`] operation interface on top of a shared
//! [`Store`] using a read set and a buffered write set. Doppel's joined phase
//! behaves identically (§5.1: "A joined phase can execute any transaction …
//! the protocol treats all records the same"), so the Doppel engine reuses
//! this type for its non-split accesses.

use crate::rwsets::{ReadSet, WriteSet};
use doppel_common::{CoreId, Key, Op, OpKind, Tid, TxError, Value};
use doppel_store::{Record, RecordReadError, Session, Store};

/// A running optimistic transaction.
///
/// Reads are lent consistent snapshots in place — executing one writes
/// nothing another core can see — and recorded with their TID in the read
/// set; writes are buffered. Read-modify-write operations (`Add`, `Max`, …)
/// are expanded into a read of the current value plus a buffered `Put` of the
/// computed result, exactly as the paper's OCC baseline executes them (§8.2)
/// — which is why they conflict under contention.
pub struct OccTx<'s> {
    store: &'s Store,
    /// The handle's registration with `store`: what makes reading in place
    /// safe, and where commit retires the values it replaces.
    session: &'s mut Session,
    core: CoreId,
    read_set: ReadSet<'s>,
    write_set: WriteSet<'s>,
}

impl<'s> OccTx<'s> {
    /// Starts a transaction against `store` on worker `core`.
    pub fn new(store: &'s Store, session: &'s mut Session, core: CoreId) -> Self {
        Self::from_parts(store, session, core, ReadSet::new(), WriteSet::new())
    }

    /// Starts a transaction reusing previously allocated set buffers.
    ///
    /// Engine handles keep the two sets in a [`crate::SetPool`] between
    /// transactions (recovered via [`OccTx::into_sets`]) so the per-txn hot
    /// path performs no set allocation. Both sets are cleared here, so handing
    /// in dirty buffers is fine.
    pub fn from_parts(
        store: &'s Store,
        session: &'s mut Session,
        core: CoreId,
        mut read_set: ReadSet<'s>,
        mut write_set: WriteSet<'s>,
    ) -> Self {
        read_set.clear();
        write_set.clear();
        OccTx { store, session, core, read_set, write_set }
    }

    /// The read set accumulated so far.
    pub fn read_set(&self) -> &ReadSet<'s> {
        &self.read_set
    }

    /// The write set accumulated so far.
    pub fn write_set(&self) -> &WriteSet<'s> {
        &self.write_set
    }

    /// Splits the transaction into its read and write sets, consuming it.
    pub fn into_sets(self) -> (ReadSet<'s>, WriteSet<'s>) {
        (self.read_set, self.write_set)
    }

    /// Reads `record` through the read set, lending `f` the committed value
    /// with this transaction's own buffered write applied (read-your-writes).
    fn tracked_read(
        &mut self,
        key: Key,
        record: &'s Record,
        f: &mut dyn FnMut(Option<&Value>),
    ) -> Result<(), TxError> {
        let own = self.write_set.op_for(record);
        let read = record.read(self.session, |committed| Op::lend_applied(own, committed, f));
        match read {
            Ok((tid, applied)) => {
                // Every read is validated against the TID it saw. If the
                // record changes between two reads of it, the second sees the
                // newer value, and commit-time validation of the first aborts
                // the transaction (standard OCC behaviour).
                self.read_set.record(key, record, tid);
                applied
            }
            // The paper's OCC aborts when it encounters a locked item and
            // retries the transaction later (§8.1).
            Err(RecordReadError::Locked) => Err(TxError::LockBusy { key }),
        }
    }

    /// Runs the commit protocol (Figure 2) over the accumulated sets.
    pub fn commit(&mut self, tid_gen: &mut doppel_common::TidGenerator) -> Result<Tid, TxError> {
        self.commit_durable(tid_gen, None).map(|(tid, _)| tid)
    }

    /// [`OccTx::commit`] with write-ahead logging: the committed write set is
    /// appended to `sink` while the record locks are held.
    pub fn commit_durable(
        &mut self,
        tid_gen: &mut doppel_common::TidGenerator,
        sink: Option<&dyn doppel_common::CommitSink>,
    ) -> Result<(Tid, doppel_common::LogReceipt), TxError> {
        crate::protocol::commit_durable(
            &self.read_set,
            &mut self.write_set,
            tid_gen,
            sink,
            self.session,
        )
    }
}

impl doppel_common::Tx for OccTx<'_> {
    fn core(&self) -> CoreId {
        self.core
    }

    fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
        let record = self.store.get_or_create(self.session, k);
        self.tracked_read(k, record, f)
    }

    /// Buffers a write. Every operation other than a blind `Put` first reads
    /// the record (joining the read set) and buffers the computed result: the
    /// record is looked up once either way.
    fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
        let record = self.store.get_or_create(self.session, k);
        let op = match op.kind() {
            OpKind::Put => op,
            _ => {
                // Read-modify-write expansion: read current value (validated
                // at commit), compute, buffer the result as a Put.
                let mut new = None;
                self.tracked_read(k, record, &mut |current| new = Some(op.apply_to(current)))?;
                Op::Put(new.expect("a read that succeeds lends exactly once")?)
            }
        };
        self.write_set.buffer(k, record, op);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{TidGenerator, Tx};

    fn setup() -> (Store, TidGenerator) {
        let s = Store::new(16);
        for i in 0..10 {
            s.load(Key::raw(i), Value::Int(i as i64 * 10));
        }
        (s, TidGenerator::new(0))
    }

    #[test]
    fn read_your_writes_with_put() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let mut tx = OccTx::new(&s, &mut session, 0);
        assert_eq!(tx.get(Key::raw(1)).unwrap(), Some(Value::Int(10)));
        tx.put(Key::raw(1), Value::Int(77)).unwrap();
        assert_eq!(tx.get(Key::raw(1)).unwrap(), Some(Value::Int(77)));
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(77)));
    }

    #[test]
    fn read_your_writes_with_add() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let mut tx = OccTx::new(&s, &mut session, 0);
        tx.add(Key::raw(2), 5).unwrap();
        // The buffered computed value is visible to this transaction.
        assert_eq!(tx.get(Key::raw(2)).unwrap(), Some(Value::Int(25)));
        tx.add(Key::raw(2), 5).unwrap();
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::Int(30)));
    }

    #[test]
    fn rmw_ops_join_the_read_set() {
        let (s, _) = setup();
        let mut session = s.register();
        let mut tx = OccTx::new(&s, &mut session, 0);
        tx.add(Key::raw(3), 1).unwrap();
        assert!(tx.read_set().contains(&Key::raw(3)), "Add must validate its read");
        assert_eq!(tx.read_set().tid_of(&Key::raw(3)), Some(Tid::ZERO));
        drop(tx);
        let mut tx2 = OccTx::new(&s, &mut session, 0);
        tx2.put(Key::raw(3), Value::Int(0)).unwrap();
        assert!(!tx2.read_set().contains(&Key::raw(3)), "blind Put must not read");
        assert_eq!(tx2.write_set().len(), 1);
    }

    #[test]
    fn conflicting_increment_aborts_one_side() {
        let (s, mut gen_a) = setup();
        let mut gen_b = TidGenerator::new(1);
        let (mut session_a, mut session_b) = (s.register(), s.register());

        let mut a = OccTx::new(&s, &mut session_a, 0);
        let mut b = OccTx::new(&s, &mut session_b, 1);
        a.add(Key::raw(4), 1).unwrap();
        b.add(Key::raw(4), 1).unwrap();
        a.commit(&mut gen_a).unwrap();
        let err = b.commit(&mut gen_b).unwrap_err();
        assert_eq!(err, TxError::Conflict { key: Key::raw(4) });
        assert_eq!(s.read_unlocked(&Key::raw(4)), Some(Value::Int(41)));
    }

    #[test]
    fn missing_keys_read_as_none_and_can_be_inserted() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let mut tx = OccTx::new(&s, &mut session, 0);
        assert_eq!(tx.get(Key::raw(100)).unwrap(), None);
        tx.put(Key::raw(100), Value::from("row")).unwrap();
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(100)), Some(Value::from("row")));
    }

    #[test]
    fn insert_read_conflict_detected() {
        // A reader that saw "absent" must abort if someone inserts the key
        // before it commits (anti-insert validation).
        let (s, mut gen_a) = setup();
        let mut gen_b = TidGenerator::new(1);
        let (mut session_a, mut session_b) = (s.register(), s.register());
        let mut reader = OccTx::new(&s, &mut session_a, 0);
        assert_eq!(reader.get(Key::raw(200)).unwrap(), None);
        reader.put(Key::raw(201), Value::Int(1)).unwrap();

        let mut writer = OccTx::new(&s, &mut session_b, 1);
        writer.put(Key::raw(200), Value::Int(9)).unwrap();
        writer.commit(&mut gen_b).unwrap();

        let err = reader.commit(&mut gen_a).unwrap_err();
        assert_eq!(err, TxError::Conflict { key: Key::raw(200) });
    }

    #[test]
    fn a_second_read_after_a_commit_fails_validation_of_the_first() {
        let (s, mut gen_a) = setup();
        let mut gen_b = TidGenerator::new(1);
        let (mut session_a, mut session_b) = (s.register(), s.register());
        let mut reader = OccTx::new(&s, &mut session_a, 0);
        assert_eq!(reader.get(Key::raw(6)).unwrap(), Some(Value::Int(60)));
        let mut writer = OccTx::new(&s, &mut session_b, 1);
        writer.add(Key::raw(6), 1).unwrap();
        writer.commit(&mut gen_b).unwrap();
        assert_eq!(reader.get(Key::raw(6)).unwrap(), Some(Value::Int(61)));
        assert_eq!(reader.read_set().len(), 2, "both reads are validated");
        assert_eq!(reader.commit(&mut gen_a).unwrap_err(), TxError::Conflict { key: Key::raw(6) });
    }

    #[test]
    fn locked_record_aborts_read_immediately() {
        let (s, _) = setup();
        let mut session = s.register();
        let r = s.get(&session, &Key::raw(5)).unwrap();
        let held = r.try_lock().unwrap();
        let mut tx = OccTx::new(&s, &mut session, 0);
        let err = tx.get(Key::raw(5)).unwrap_err();
        assert_eq!(err, TxError::LockBusy { key: Key::raw(5) });
        drop(held);
    }

    #[test]
    fn type_error_propagates_from_rmw() {
        let (s, _) = setup();
        s.load(Key::raw(50), Value::from("text"));
        let mut session = s.register();
        let mut tx = OccTx::new(&s, &mut session, 0);
        let err = tx.add(Key::raw(50), 1).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
    }
}
