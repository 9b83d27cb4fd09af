//! Per-transaction read and write sets.
//!
//! "A read set and a write set are maintained for each executing transaction.
//! During execution, a transaction buffers its writes and records the TIDs
//! for all values read or written in its read set." (§5.1)
//!
//! Transactions in the paper's workloads touch a handful of records, so both
//! sets are small vectors; entries hold plain record references (a record's
//! address is stable for the life of its store), so filling and clearing a
//! set counts nothing, and the write set is searched by record address. The
//! vectors are reused across transactions through a [`SetPool`].

use doppel_common::{Key, Op, Tid};
use doppel_store::{Locked, Record};

/// One read-set entry: the record, and the TID observed when it was read.
#[derive(Clone, Copy)]
pub struct ReadEntry<'s> {
    /// Key of the record (kept for conflict reporting).
    pub key: Key,
    /// The record itself.
    pub record: &'s Record,
    /// TID observed at the read; validation checks it is unchanged.
    pub tid: Tid,
}

/// The transaction's read set: one entry per read, in order. A record read
/// twice is validated twice — against the same TID, or else against two of
/// which the first already fails — so nothing is searched on the read path.
#[derive(Default)]
pub struct ReadSet<'s> {
    entries: Vec<ReadEntry<'s>>,
}

impl<'s> ReadSet<'s> {
    /// Creates an empty read set.
    pub fn new() -> Self {
        ReadSet { entries: Vec::new() }
    }

    /// Records that `key` was read with TID `tid`. Reading the record that
    /// was read last at the same TID again (`get` then `add`) adds nothing.
    pub fn record(&mut self, key: Key, record: &'s Record, tid: Tid) {
        let again = |last: &ReadEntry<'_>| std::ptr::eq(last.record, record) && last.tid == tid;
        if !self.entries.last().is_some_and(again) {
            self.entries.push(ReadEntry { key, record, tid });
        }
    }

    /// The TID recorded at the first read of `key`, if the key was read.
    pub fn tid_of(&self, key: &Key) -> Option<Tid> {
        self.entries.iter().find(|e| &e.key == key).map(|e| e.tid)
    }

    /// True if `key` is in the read set.
    pub fn contains(&self, key: &Key) -> bool {
        self.tid_of(key).is_some()
    }

    /// All entries, for validation.
    pub fn entries(&self) -> &[ReadEntry<'s>] {
        &self.entries
    }

    /// All observed TIDs, used for local TID generation.
    pub fn tids(&self) -> impl Iterator<Item = Tid> + '_ {
        self.entries.iter().map(|e| e.tid)
    }

    /// Number of reads recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was read.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the set for reuse by the next transaction.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One write-set entry: the record and the operation to apply at commit.
pub struct WriteEntry<'s> {
    /// Key of the record (write sets are locked in key order).
    pub key: Key,
    /// The record itself.
    pub record: &'s Record,
    /// The buffered operation.
    pub op: Op,
    /// The record's lock, from part 1 of the commit protocol until the
    /// commit publishes or [`WriteSet::release`] gives up.
    pub(crate) lock: Option<Locked<'s>>,
}

/// The transaction's write set. At most one entry exists per record: a second
/// buffered write replaces the first (callers chain the effect themselves,
/// e.g. by reading their own earlier write before computing the new value).
#[derive(Default)]
pub struct WriteSet<'s> {
    entries: Vec<WriteEntry<'s>>,
}

impl<'s> WriteSet<'s> {
    /// Creates an empty write set.
    pub fn new() -> Self {
        WriteSet { entries: Vec::new() }
    }

    /// Buffers `op` against `record`, replacing any previously buffered write
    /// to the same record.
    pub fn buffer(&mut self, key: Key, record: &'s Record, op: Op) {
        match self.entries.iter_mut().find(|e| std::ptr::eq(e.record, record)) {
            Some(existing) => existing.op = op,
            None => self.entries.push(WriteEntry { key, record, op, lock: None }),
        }
    }

    /// The buffered operation for `record`, if any.
    pub fn op_for(&self, record: &Record) -> Option<&Op> {
        self.entries.iter().find(|e| std::ptr::eq(e.record, record)).map(|e| &e.op)
    }

    /// True if `record` has a buffered write.
    pub fn contains(&self, record: &Record) -> bool {
        self.op_for(record).is_some()
    }

    /// Sorts the entries by key — the global lock order of the commit
    /// protocol. After this call [`WriteSet::entries`] returns them sorted.
    pub fn sort(&mut self) {
        self.entries.sort_by_key(|e| e.key);
    }

    /// Entries in insertion order, or key order after [`WriteSet::sort`].
    pub fn entries(&self) -> &[WriteEntry<'s>] {
        &self.entries
    }

    pub(crate) fn entries_mut(&mut self) -> &mut [WriteEntry<'s>] {
        &mut self.entries
    }

    /// Releases every record lock the set still holds (a commit that aborted
    /// after part 1); a record nothing was applied to keeps its TID.
    pub fn release(&mut self) {
        for entry in &mut self.entries {
            entry.lock = None;
        }
    }

    /// Number of distinct records written.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the set for reuse by the next transaction.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The two sets between transactions: empty, so borrowing from no store. A
/// handle keeps one, and steady-state execution allocates no set storage.
#[derive(Default)]
pub struct SetPool(ReadSet<'static>, WriteSet<'static>);

impl SetPool {
    /// Hands out the pooled (empty) sets for a transaction against any store.
    pub fn take<'s>(&mut self) -> (ReadSet<'s>, WriteSet<'s>) {
        let SetPool(reads, writes) = std::mem::take(self);
        (reads, writes)
    }

    /// Pools a transaction's sets: cleared, with their capacity.
    pub fn recycle(mut reads: ReadSet<'_>, mut writes: WriteSet<'_>) -> SetPool {
        reads.clear();
        writes.clear();
        // SAFETY: each type differs from its pooled form only in the lifetime
        // of the references its entries hold, and holds no entry.
        unsafe {
            SetPool(
                std::mem::transmute::<ReadSet<'_>, ReadSet<'static>>(reads),
                std::mem::transmute::<WriteSet<'_>, WriteSet<'static>>(writes),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::Value;
    use doppel_store::Store;

    fn store_with(keys: &[u64]) -> Store {
        let s = Store::new(8);
        for &k in keys {
            s.load(Key::raw(k), Value::Int(0));
        }
        s
    }

    #[test]
    fn read_set_keeps_the_first_tid_of_a_key() {
        let s = store_with(&[1, 2]);
        let session = s.register();
        let r = s.get(&session, &Key::raw(1)).unwrap();
        let mut rs = ReadSet::new();
        rs.record(Key::raw(1), r, Tid::from_parts(5, 0));
        rs.record(Key::raw(1), r, Tid::from_parts(5, 0));
        assert_eq!(rs.len(), 1, "the same read again adds nothing");
        rs.record(Key::raw(1), r, Tid::from_parts(9, 0));
        assert_eq!(rs.len(), 2, "a newer TID is its own entry: the first one fails validation");
        assert_eq!(rs.tid_of(&Key::raw(1)), Some(Tid::from_parts(5, 0)));
        assert!(rs.contains(&Key::raw(1)));
        assert!(!rs.contains(&Key::raw(2)));
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn write_set_replaces_same_record() {
        let s = store_with(&[1, 2, 3]);
        let session = s.register();
        let [r1, r2, r3] = [1, 2, 3].map(|k| s.get(&session, &Key::raw(k)).unwrap());
        let mut ws = WriteSet::new();
        ws.buffer(Key::raw(2), r2, Op::Add(1));
        ws.buffer(Key::raw(1), r1, Op::Put(Value::Int(10)));
        ws.buffer(Key::raw(1), r1, Op::Put(Value::Int(20)));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.op_for(r1), Some(&Op::Put(Value::Int(20))));
        assert!(ws.contains(r2));
        assert!(!ws.contains(r3));
        ws.sort();
        let keys: Vec<Key> = ws.entries().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![Key::raw(1), Key::raw(2)]);
        ws.clear();
        assert!(ws.is_empty());
    }

    #[test]
    fn read_set_tids_iterator() {
        let s = store_with(&[1, 2, 3]);
        let session = s.register();
        let mut rs = ReadSet::new();
        for (i, k) in [1u64, 2, 3].iter().enumerate() {
            let r = s.get(&session, &Key::raw(*k)).unwrap();
            rs.record(Key::raw(*k), r, Tid::from_parts(i as u64 + 1, 0));
        }
        assert_eq!(rs.tids().max().unwrap(), Tid::from_parts(3, 0));
        assert_eq!(rs.entries().len(), 3);
    }

    #[test]
    fn pooled_sets_keep_their_capacity_across_stores() {
        let mut pool = SetPool::default();
        let capacity = {
            let s = store_with(&[1]);
            let session = s.register();
            let r = s.get(&session, &Key::raw(1)).unwrap();
            let (mut reads, mut writes) = pool.take();
            reads.record(Key::raw(1), r, Tid::ZERO);
            writes.buffer(Key::raw(1), r, Op::Add(1));
            let capacity = (reads.entries.capacity(), writes.entries.capacity());
            pool = SetPool::recycle(reads, writes);
            capacity
        };
        let (reads, writes) = pool.take();
        assert!(reads.is_empty() && writes.is_empty());
        assert_eq!((reads.entries.capacity(), writes.entries.capacity()), capacity);
    }
}
