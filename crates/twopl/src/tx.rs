//! The 2PL transaction context.

use crate::lock_manager::{LockManager, LockMode, LockRequestOutcome, Timestamp};
use doppel_common::{CoreId, Key, Op, OpKind, Tid, TidGenerator, TxError, Value};
use doppel_store::{RecordReadError, Session, Store};
use std::collections::HashMap;

/// A running strict-2PL transaction.
///
/// The transaction acquires shared locks for reads and exclusive locks for
/// writes as operations are issued (growing phase), buffers its writes, and
/// applies them at commit before releasing every lock (shrinking phase).
/// Wait-die conflicts surface as [`TxError::LockBusy`]; the
/// [`crate::TwoplEngine`] handle retries the whole procedure internally with
/// the same timestamp, so callers never observe lock-induced aborts.
pub struct TwoplTx<'s> {
    store: &'s Store,
    /// The handle's registration with `store`: reads lend values in place,
    /// commit retires what it replaces.
    session: &'s mut Session,
    locks: &'s LockManager,
    core: CoreId,
    ts: Timestamp,
    /// Keys whose locks this transaction holds.
    held: Vec<Key>,
    /// Buffered writes, applied at commit.
    writes: HashMap<Key, Op>,
    /// Order in which writes were first buffered (applied in this order).
    write_order: Vec<Key>,
}

/// The reusable buffers of a [`TwoplTx`], pooled by [`crate::TwoplHandle`]
/// across transactions and wait-die retries so the hot path performs no
/// per-transaction allocation for lock bookkeeping or the write buffer.
#[derive(Default)]
pub struct TxBuffers {
    held: Vec<Key>,
    writes: HashMap<Key, Op>,
    write_order: Vec<Key>,
}

impl<'s> TwoplTx<'s> {
    /// Starts a 2PL transaction with wait-die timestamp `ts`.
    pub fn new(
        store: &'s Store,
        session: &'s mut Session,
        locks: &'s LockManager,
        core: CoreId,
        ts: Timestamp,
    ) -> Self {
        Self::from_parts(store, session, locks, core, ts, TxBuffers::default())
    }

    /// Starts a 2PL transaction reusing previously allocated buffers
    /// (recovered from a finished transaction via [`TwoplTx::into_buffers`]).
    pub fn from_parts(
        store: &'s Store,
        session: &'s mut Session,
        locks: &'s LockManager,
        core: CoreId,
        ts: Timestamp,
        mut bufs: TxBuffers,
    ) -> Self {
        bufs.held.clear();
        bufs.writes.clear();
        bufs.write_order.clear();
        TwoplTx {
            store,
            session,
            locks,
            core,
            ts,
            held: bufs.held,
            writes: bufs.writes,
            write_order: bufs.write_order,
        }
    }

    /// Releases any locks still held and returns the internal buffers with
    /// their capacity intact, for reuse by the next transaction.
    pub fn into_buffers(mut self) -> TxBuffers {
        self.release();
        TxBuffers {
            held: std::mem::take(&mut self.held),
            writes: std::mem::take(&mut self.writes),
            write_order: std::mem::take(&mut self.write_order),
        }
    }

    /// The wait-die timestamp of this transaction.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    fn lock(&mut self, key: Key, mode: LockMode) -> Result<(), TxError> {
        match self.locks.acquire(self.ts, key, mode) {
            LockRequestOutcome::Granted => {
                if !self.held.contains(&key) {
                    self.held.push(key);
                }
                Ok(())
            }
            LockRequestOutcome::Die => Err(TxError::LockBusy { key }),
        }
    }

    fn buffer(&mut self, key: Key, op: Op) {
        if self.writes.insert(key, op).is_none() {
            self.write_order.push(key);
        }
    }

    /// Lends `f` the current value of `k` — the committed one with this
    /// transaction's own buffered write applied — in place. The caller holds
    /// `k`'s logical lock, so no commit is replacing the value; a record lock
    /// seen held is about to be released.
    fn current(&self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
        let record = self.store.get_or_create(self.session, k);
        let own = self.writes.get(&k);
        loop {
            let read = record.read(self.session, |committed| Op::lend_applied(own, committed, f));
            match read {
                Ok((_, applied)) => return applied,
                Err(RecordReadError::Locked) => std::hint::spin_loop(),
            }
        }
    }

    /// Releases every lock held and clears buffered state. Called on both
    /// commit and abort paths.
    pub fn release(&mut self) {
        self.locks.release_all(self.ts, self.held.iter());
        self.held.clear();
        self.writes.clear();
        self.write_order.clear();
    }

    /// Applies the buffered writes (under the exclusive locks acquired during
    /// the growing phase), bumps record TIDs and releases all locks.
    pub fn commit(&mut self, tid_gen: &mut TidGenerator) -> Result<Tid, TxError> {
        self.commit_durable(tid_gen, None).map(|(tid, _)| tid)
    }

    /// [`TwoplTx::commit`] with write-ahead logging: when `sink` is given,
    /// the write set is appended **before** the logical locks are released,
    /// so two conflicting transactions log in their serialization order.
    pub fn commit_durable(
        &mut self,
        tid_gen: &mut TidGenerator,
        sink: Option<&dyn doppel_common::CommitSink>,
    ) -> Result<(Tid, doppel_common::LogReceipt), TxError> {
        let commit_tid = tid_gen.next();
        for key in &self.write_order {
            let op = &self.writes[key];
            // The logical lock manager already guarantees exclusive access;
            // the record lock is what lets the value be written at all, and
            // makes the mutation and the TID one step for readers that take
            // no logical lock (checks, checkpoints).
            let mut locked = self.store.get_or_create(self.session, *key).lock_spin();
            if let Err(e) = locked.apply(op, self.session) {
                drop(locked);
                self.release();
                return Err(e);
            }
            locked.publish(commit_tid);
        }
        let receipt = match sink {
            Some(sink) if !self.write_order.is_empty() => {
                // Stream the write set in lock-acquisition order straight out
                // of the buffer — no owned `Vec<(Key, Op)>` rebuild, no
                // per-entry op clone.
                let writes = &self.writes;
                sink.log_commit(
                    commit_tid,
                    &mut self.write_order.iter().map(|k| (*k, &writes[k])),
                )
            }
            _ => doppel_common::LogReceipt::default(),
        };
        self.release();
        Ok((commit_tid, receipt))
    }
}

impl doppel_common::Tx for TwoplTx<'_> {
    fn core(&self) -> CoreId {
        self.core
    }

    fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
        self.lock(k, LockMode::Shared)?;
        self.current(k, f)
    }

    fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
        self.lock(k, LockMode::Exclusive)?;
        match op.kind() {
            OpKind::Put => {
                self.buffer(k, op);
            }
            _ => {
                // Read-modify-write under the exclusive lock: read the current
                // value (plus our own buffered effect), compute, buffer a Put.
                let mut new = None;
                self.current(k, &mut |current| new = Some(op.apply_to(current)))?;
                self.buffer(k, Op::Put(new.expect("a read that succeeds lends exactly once")?));
            }
        }
        Ok(())
    }
}

impl Drop for TwoplTx<'_> {
    fn drop(&mut self) {
        // A transaction abandoned mid-flight (user abort, die, panic in the
        // procedure) must not leave locks behind.
        if !self.held.is_empty() {
            self.locks.release_all(self.ts, self.held.iter());
            self.held.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::Tx;

    fn setup() -> (Store, LockManager) {
        let s = Store::new(16);
        for i in 0..10 {
            s.load(Key::raw(i), Value::Int(i as i64));
        }
        (s, LockManager::new(16))
    }

    #[test]
    fn read_write_commit() {
        let (s, lm) = setup();
        let mut gen = TidGenerator::new(0);
        let mut session = s.register();
        let mut tx = TwoplTx::new(&s, &mut session, &lm, 0, 1);
        assert_eq!(tx.get(Key::raw(3)).unwrap(), Some(Value::Int(3)));
        tx.add(Key::raw(3), 10).unwrap();
        assert_eq!(tx.get(Key::raw(3)).unwrap(), Some(Value::Int(13)));
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(3)), Some(Value::Int(13)));
        assert_eq!(lm.active_locks(), 0);
    }

    #[test]
    fn younger_conflicting_txn_dies() {
        let (s, lm) = setup();
        let (mut old_session, mut young_session) = (s.register(), s.register());
        let mut old_tx = TwoplTx::new(&s, &mut old_session, &lm, 0, 1);
        old_tx.add(Key::raw(1), 1).unwrap();
        let mut young_tx = TwoplTx::new(&s, &mut young_session, &lm, 1, 2);
        let err = young_tx.add(Key::raw(1), 1).unwrap_err();
        assert_eq!(err, TxError::LockBusy { key: Key::raw(1) });
        let mut gen = TidGenerator::new(0);
        old_tx.commit(&mut gen).unwrap();
        // After the older transaction commits, the younger can proceed.
        drop(young_tx);
        let mut retry = TwoplTx::new(&s, &mut young_session, &lm, 1, 2);
        retry.add(Key::raw(1), 1).unwrap();
        retry.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(3)));
    }

    #[test]
    fn drop_releases_locks() {
        let (s, lm) = setup();
        {
            let mut session = s.register();
        let mut tx = TwoplTx::new(&s, &mut session, &lm, 0, 1);
            tx.get(Key::raw(1)).unwrap();
            tx.add(Key::raw(2), 1).unwrap();
            assert_eq!(lm.active_locks(), 2);
            // Dropped without commit (e.g. user abort).
        }
        assert_eq!(lm.active_locks(), 0);
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::Int(2)));
    }

    #[test]
    fn shared_then_exclusive_upgrade_on_same_key() {
        let (s, lm) = setup();
        let mut gen = TidGenerator::new(0);
        let mut session = s.register();
        let mut tx = TwoplTx::new(&s, &mut session, &lm, 0, 1);
        let v = tx.get(Key::raw(5)).unwrap().unwrap().as_int().unwrap();
        tx.put(Key::raw(5), Value::Int(v * 2)).unwrap();
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(5)), Some(Value::Int(10)));
    }

    #[test]
    fn insert_new_key() {
        let (s, lm) = setup();
        let mut gen = TidGenerator::new(0);
        let mut session = s.register();
        let mut tx = TwoplTx::new(&s, &mut session, &lm, 0, 1);
        assert_eq!(tx.get(Key::raw(99)).unwrap(), None);
        tx.put(Key::raw(99), Value::from("new row")).unwrap();
        tx.commit(&mut gen).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(99)), Some(Value::from("new row")));
    }
}
