//! Database records with Silo-style version words.
//!
//! A [`Record`] packs the concurrency-control metadata the paper's commit
//! protocols need (Figures 2–4):
//!
//! * a *version word*: one `AtomicU64` holding a lock bit and the TID of the
//!   last transaction that wrote the record;
//! * the typed value, in place, written only by the holder of the lock bit.
//!
//! A read is invisible: load the version word, copy the value's bits, load
//! the version word again; the copy is looked at only if the two loads agree
//! and are unlocked, and nothing a reader does can be seen by another core.
//! "Doppel and OCC transactions abort and later retry when they see a locked
//! item" (§8.1) — after looking again a few times, because a committer holds
//! the lock for some tens of nanoseconds. Writers take the lock bit at commit
//! through [`Record::try_lock`], replace the value through the [`Locked`]
//! guard, and publish the new TID and release the lock in a single store.

use crate::reclaim::{Domain, Session};
use doppel_common::tid::CORE_BITS;
use doppel_common::{Op, Tid, TxError, Value};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock bit in the version word (bit 63). TIDs use the low 63 bits.
const LOCK_BIT: u64 = 1 << 63;

/// How often a read looks again at a locked record before it gives up: a
/// committer holds the lock from validation to publication only, and waiting
/// that out is cheaper than an abort and a retry (without it twice as many
/// first attempts abort on two cores sharing eight hot keys).
const LOCKED_SPINS: u32 = 16;

/// Why an optimistic read could not produce a stable snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordReadError {
    /// The record is locked by a committing transaction.
    Locked,
}

/// A single database record.
///
/// Records are created once, by their [`crate::Store`], and never removed
/// (the store grows monotonically, as in the paper's benchmarks); a record
/// whose value is `None` is *logically absent*: it exists so that concurrent
/// inserts and reads of a missing key can still be validated against a TID.
pub struct Record {
    /// Version word: `LOCK_BIT | tid`.
    meta: AtomicU64,
    /// The store's reclamation domain ([`Domain::addr`]): a session of
    /// another store protects nothing here, so value access checks it.
    owner: usize,
    /// The value; `None` means logically absent. Written only while `meta`
    /// holds the lock bit, read by bitwise copy validated against `meta`.
    value: UnsafeCell<Option<Value>>,
}

// SAFETY: `value` is the only field that is not `Sync` by itself. It is
// written only through `Locked`, of which at most one exists per record (the
// lock bit is taken by compare-exchange), and read only by `snapshot`, which
// discards any copy that may overlap a write. `Value` is `Send + Sync`.
unsafe impl Sync for Record {}

impl Record {
    /// Creates a record of `owner`'s store holding `value`, with TID 0
    /// ("never written by a transaction").
    pub(crate) fn new(owner: &Arc<Domain>, value: Option<Value>) -> Self {
        Record { meta: AtomicU64::new(0), owner: owner.addr(), value: UnsafeCell::new(value) }
    }

    /// The current TID, ignoring the lock bit. Only meaningful for
    /// diagnostics; concurrency-control decisions must use
    /// [`Record::read`] / [`Record::validate`].
    pub fn tid(&self) -> Tid {
        Tid(self.meta.load(Ordering::Acquire) & !LOCK_BIT)
    }

    /// True if a committing transaction currently holds the record lock.
    pub fn is_locked(&self) -> bool {
        self.meta.load(Ordering::Acquire) & LOCK_BIT != 0
    }

    /// Optimistic read: lends a consistent snapshot of the value to `f` and
    /// returns the TID it was published under, or
    /// [`RecordReadError::Locked`] if a committer holds the lock and keeps it
    /// for [`LOCKED_SPINS`] looks. Writes no memory. The reference dies with
    /// `f`; clone to keep.
    ///
    /// # Panics
    ///
    /// If `session` is registered with another store.
    pub fn read<R>(
        &self,
        session: &Session,
        f: impl FnOnce(Option<&Value>) -> R,
    ) -> Result<(Tid, R), RecordReadError> {
        assert!(session.protects(self.owner), "session of another store");
        // SAFETY: the session is registered with this record's store and,
        // being borrowed, passes no safepoint before `f` returns.
        unsafe { self.snapshot(|| (), f) }
    }

    /// The seqlock read behind [`Record::read`]. `after_copy` is a seam for
    /// the unit tests, which play the writer that strikes between the copy
    /// and its validation.
    ///
    /// # Safety
    ///
    /// Until `f` returns, nothing this record's store has retired may be
    /// dropped: the caller is a registered session that does not quiesce
    /// meanwhile, or holds the domain's lock.
    #[inline(always)]
    pub(crate) unsafe fn snapshot<R>(
        &self,
        mut after_copy: impl FnMut(),
        f: impl FnOnce(Option<&Value>) -> R,
    ) -> Result<(Tid, R), RecordReadError> {
        let mut waited = 0;
        loop {
            // Acquire: pairs with the publishing store; a TID seen here comes
            // with every byte written under it.
            let before = self.meta.load(Ordering::Acquire);
            if before & LOCK_BIT != 0 {
                if waited == LOCKED_SPINS {
                    return Err(RecordReadError::Locked);
                }
                waited += 1;
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: the pointer is valid for reads of the value's size. A
            // writer may be storing to it right now, so the bytes go into a
            // `MaybeUninit` — never looked at as a value, never dropped —
            // and the read is volatile so that it stays between the two
            // version loads (the `crossbeam` `AtomicCell` seqlock idiom).
            let copy: MaybeUninit<Option<Value>> =
                unsafe { std::ptr::read_volatile(self.value.get().cast()) };
            after_copy();
            // Pairs with the release fence a writer issues between taking the
            // lock bit and its first byte: if the copy has any of a writer's
            // bytes, the load below sees that writer's lock bit or a later
            // version.
            fence(Ordering::Acquire);
            let after = self.meta.load(Ordering::Relaxed);
            if before == after {
                // SAFETY: no writer held the lock between the two loads, so
                // the copy is the whole value published under `before`. What
                // it points at may since have been replaced, but then it was
                // retired, and the caller keeps retired objects alive. The
                // copy owns nothing: lending it never runs a destructor.
                let value: &Option<Value> = unsafe { &*copy.as_ptr() };
                return Ok((Tid(before), f(value.as_ref())));
            }
        }
    }

    /// [`Record::snapshot`] for readers outside any transaction, which wait
    /// for a committer instead of aborting.
    ///
    /// # Safety
    ///
    /// As for [`Record::snapshot`].
    pub(crate) unsafe fn settled<R>(&self, mut f: impl FnMut(Option<&Value>) -> R) -> R {
        loop {
            // SAFETY: the caller's guarantee, passed on.
            if let Ok((_, result)) = unsafe { self.snapshot(|| (), &mut f) } {
                return result;
            }
            std::hint::spin_loop();
        }
    }

    /// Tries to acquire the record lock (commit protocol part 1). Returns
    /// `None` if another transaction holds it.
    pub fn try_lock(&self) -> Option<Locked<'_>> {
        let cur = self.meta.load(Ordering::Relaxed) & !LOCK_BIT;
        let taken = self.meta.compare_exchange(cur, cur | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed);
        // Lazily: a guard built for a failed exchange would release the
        // holder's lock when dropped.
        taken.ok().map(|_| Locked { record: self, dirty: false })
    }

    /// Acquires the record lock, spinning until it is available. Used by
    /// reconciliation merges (Figure 4), which must not abort.
    pub fn lock_spin(&self) -> Locked<'_> {
        let mut spins = 0u32;
        loop {
            if let Some(locked) = self.try_lock() {
                return locked;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// OCC read-set validation (commit protocol part 2): the record must
    /// still carry `read_tid` and must not be locked by *another*
    /// transaction. `in_write_set` tells the validator whether the caller
    /// itself holds the record lock.
    pub fn validate(&self, read_tid: Tid, in_write_set: bool) -> bool {
        let meta = self.meta.load(Ordering::Acquire);
        Tid(meta & !LOCK_BIT) == read_tid && (meta & LOCK_BIT == 0 || in_write_set)
    }
}

/// The record lock, held: the only way to write a record's value. Dropping
/// the guard releases the lock — keeping the TID if nothing was applied (a
/// commit that aborts after part 1), under the next sequence number if
/// something was, so that no reader's two version loads can agree across the
/// change.
pub struct Locked<'r> {
    record: &'r Record,
    dirty: bool,
}

impl Locked<'_> {
    /// The TID the record carried when it was locked.
    pub fn tid(&self) -> Tid {
        Tid(self.record.meta.load(Ordering::Relaxed) & !LOCK_BIT)
    }

    /// Applies a buffered operation (commit protocol part 3, or one merge
    /// operation of a reconciliation). The value it replaces is retired on
    /// `session`, not dropped: a reader may be looking at it. An integer is
    /// replaced in place and retires nothing. A type error leaves the value
    /// untouched.
    ///
    /// # Panics
    ///
    /// If `session` is registered with another store.
    pub fn apply(&mut self, op: &Op, session: &mut Session) -> Result<(), TxError> {
        assert!(session.protects(self.record.owner), "session of another store");
        if let Some(old) = self.replace(|current| op.apply_to(current).map(Some))? {
            session.retire(old);
        }
        Ok(())
    }

    /// Replaces the value with `next(current)`; returns the old value if it
    /// owns memory a reader could be looking at.
    pub(crate) fn replace(
        &mut self,
        next: impl FnOnce(Option<&Value>) -> Result<Option<Value>, TxError>,
    ) -> Result<Option<Value>, TxError> {
        // SAFETY: this guard is the lock bit, so no other writer exists, and
        // readers only copy bytes they validate afterwards.
        let slot = unsafe { &mut *self.record.value.get() };
        let new = next(slot.as_ref())?;
        if !self.dirty {
            self.dirty = true;
            // The lock bit reaches every reader before the first byte does
            // (pairs with the acquire fence in `snapshot`).
            fence(Ordering::Release);
        }
        let old = std::mem::replace(slot, new);
        Ok(old.filter(|v| !matches!(v, Value::Int(_))))
    }

    /// Publishes `commit_tid` and releases the lock in one store.
    pub fn publish(self, commit_tid: Tid) {
        assert_eq!(commit_tid.raw() & LOCK_BIT, 0, "TID overflow into lock bit");
        self.record.meta.store(commit_tid.raw(), Ordering::Release);
        std::mem::forget(self);
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        let bump = if self.dirty { 1 << CORE_BITS } else { 0 };
        self.record.meta.store(self.tid().raw() + bump, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use doppel_common::{Key, TidGenerator};

    fn record_with(store: &Store, v: Value) -> &Record {
        store.load(Key::raw(1), v);
        store.get(&store.register(), &Key::raw(1)).unwrap()
    }

    #[test]
    fn read_and_locking() {
        let store = Store::new(1);
        let session = store.register();
        let r = record_with(&store, Value::Int(1));
        assert_eq!(r.read(&session, |v| v.cloned()), Ok((Tid::ZERO, Some(Value::Int(1)))));

        let locked = r.try_lock().unwrap();
        assert!(r.is_locked());
        assert!(r.try_lock().is_none(), "second lock attempt must fail");
        assert_eq!(r.read(&session, |_| ()), Err(RecordReadError::Locked));
        drop(locked);
        assert!(!r.is_locked());
        assert_eq!(r.tid(), Tid::ZERO, "a lock that applied nothing keeps the TID");
        assert!(r.read(&session, |_| ()).is_ok());
    }

    #[test]
    fn a_copy_a_writer_overlapped_is_never_lent() {
        let store = Store::new(1);
        let mut session = store.register();
        let r = record_with(&store, Value::from("old"));
        let tid = Tid::from_parts(7, 1);

        // A whole commit lands between the copy and its validation: the copy
        // (of "old") is discarded, the retry lends "new" under the new TID.
        let mut strikes = 0;
        let commit = || {
            strikes += 1;
            if strikes == 1 {
                let mut locked = r.try_lock().unwrap();
                locked.apply(&Op::Put(Value::from("new")), &mut session).unwrap();
                locked.publish(tid);
            }
        };
        // SAFETY: nothing is dropped here: the one session does not quiesce.
        let read = unsafe { r.snapshot(commit, |v| v.cloned()) };
        assert_eq!(read, Ok((tid, Some(Value::from("new")))));
        assert_eq!(strikes, 2, "the first copy was retried");

        // A writer that has only locked by then: the reader aborts, and the
        // closure is not called at all.
        let mut held = None;
        // SAFETY: as above.
        let read = unsafe { r.snapshot(|| held = r.try_lock(), |_| unreachable!()) };
        assert_eq!(read, Err::<(Tid, ()), _>(RecordReadError::Locked));
    }

    #[test]
    fn apply_and_publish_bumps_tid() {
        let store = Store::new(1);
        let mut session = store.register();
        let r = record_with(&store, Value::Int(10));
        let tid = TidGenerator::new(1).next();
        let mut locked = r.try_lock().unwrap();
        locked.apply(&Op::Add(5), &mut session).unwrap();
        locked.publish(tid);
        assert!(!r.is_locked());
        assert_eq!(r.read(&session, |v| v.cloned()), Ok((tid, Some(Value::Int(15)))));
    }

    #[test]
    fn type_error_keeps_value_and_tid_but_a_dropped_write_moves_the_version() {
        let store = Store::new(1);
        let mut session = store.register();
        let r = record_with(&store, Value::from("str"));
        let mut locked = r.try_lock().unwrap();
        let err = locked.apply(&Op::Add(5), &mut session).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        drop(locked);
        assert_eq!(r.read(&session, |v| v.cloned()), Ok((Tid::ZERO, Some(Value::from("str")))));

        let mut locked = r.lock_spin();
        locked.apply(&Op::Put(Value::Int(1)), &mut session).unwrap();
        drop(locked);
        assert_eq!(r.tid(), Tid::from_parts(1, 0), "unpublished write still changes the version");
    }

    #[test]
    fn validation_semantics() {
        let store = Store::new(1);
        let mut session = store.register();
        let r = record_with(&store, Value::Int(0));
        let t0 = r.tid();
        assert!(r.validate(t0, false));
        // Someone else holds the lock → invalid unless it is our own write.
        let mut locked = r.try_lock().unwrap();
        assert!(!r.validate(t0, false));
        assert!(r.validate(t0, true));
        // TID moved on → invalid.
        locked.apply(&Op::Add(1), &mut session).unwrap();
        locked.publish(Tid::from_parts(3, 0));
        assert!(!r.validate(t0, false));
        assert!(r.validate(Tid::from_parts(3, 0), false));
    }

    #[test]
    fn merges_apply_several_times_under_one_lock() {
        let store = Store::new(1);
        let mut session = store.register();
        let r = store.get_or_create(&session, Key::raw(1));
        let mut locked = r.lock_spin();
        locked.apply(&Op::Max(4), &mut session).unwrap();
        locked.apply(&Op::Max(9), &mut session).unwrap();
        locked.publish(Tid::from_parts(2, 1));
        assert_eq!(store.read_unlocked(&Key::raw(1)), Some(Value::Int(9)));
        assert_eq!(r.tid(), Tid::from_parts(2, 1));
    }

    #[test]
    fn concurrent_lock_contention_is_exclusive() {
        let store = Store::new(1);
        store.load(Key::raw(1), Value::Int(0));
        let (threads, iters) = (4, 1_000);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = &store;
                scope.spawn(move || {
                    let mut session = store.register();
                    let r = store.get(&session, &Key::raw(1)).unwrap();
                    let mut gen = TidGenerator::new(t + 1);
                    for _ in 0..iters {
                        let mut locked = r.lock_spin();
                        let tid = gen.next_after([locked.tid()]);
                        locked.apply(&Op::Add(1), &mut session).unwrap();
                        locked.publish(tid);
                    }
                });
            }
        });
        assert_eq!(store.read_unlocked(&Key::raw(1)), Some(Value::Int((threads * iters) as i64)));
    }

    #[test]
    #[should_panic(expected = "another store")]
    fn a_session_of_another_store_is_refused() {
        let (a, b) = (Store::new(1), Store::new(1));
        let r = record_with(&a, Value::Int(0));
        let _ = r.read(&b.register(), |_| ());
    }
}
