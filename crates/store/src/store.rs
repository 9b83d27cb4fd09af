//! The sharded hash-table store.
//!
//! "Workers read and write to a shared store, which is a set of key/value
//! maps, using per-key locks. The maps are implemented as hash tables." (§6)
//!
//! The contention the paper studies is on *records*, so the map stays out of
//! the way: records are created once and never removed, which makes a shard a
//! grow-only open-addressing table that a lookup reads with acquire loads
//! only. Inserts and growth take the shard's mutex; a record's address is
//! stable for the life of the store, so engines keep plain `&Record`; a
//! superseded bucket array is retired like a value ([`crate::reclaim`]).

use crate::reclaim::{Domain, Garbage, Session};
use crate::record::Record;
use doppel_common::{Key, Value};
use parking_lot::Mutex;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Slots of a shard's first bucket array.
const FIRST_TABLE: usize = 16;

/// Keys [`Store::prefetch`] takes through both of its passes at a time: the
/// slots the first pass found wait on the stack for the second.
const PREFETCH_CHUNK: usize = 32;

/// Asks for the cache line holding `p`, reading nothing: the one place the
/// prefetch instruction is spelled. Nothing on other architectures.
#[inline(always)]
fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It loads no value, faults on no address
    // (mapped or not) and orders nothing; SSE is part of x86_64's baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint like the above: no value, no fault, no order.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{p}]", p = in(reg) p, options(nostack, readonly, preserves_flags))
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// A key and its record, allocated once and freed with the store.
struct Entry {
    key: Key,
    record: Record,
}

/// One bucket: the key's [`Key::stable_hash`] (a probe passes a neighbour
/// without touching its entry) and the entry. Written once, under the shard's
/// mutex: `hash`, then `entry` with release.
struct Slot {
    hash: AtomicU64,
    entry: AtomicPtr<Entry>,
}

/// A shard's bucket array: linear probing over a power-of-two number of
/// slots, at most half of them used. It does not own the entries.
pub(crate) struct Table(Box<[Slot]>);

// `AtomicPtr` is `Send + Sync` whatever it points at: check what it points at.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<(Entry, Table)>();
};

impl Table {
    fn new(slots: usize) -> Arc<Table> {
        let empty = || Slot { hash: AtomicU64::new(0), entry: AtomicPtr::new(ptr::null_mut()) };
        Arc::new(Table((0..slots).map(|_| empty()).collect()))
    }

    /// Where the probe for `hash` starts. The low bits chose the shard.
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.0.len() - 1)
    }

    /// Puts `entry` into the first free slot of its probe sequence; the
    /// caller holds the shard's mutex and knows there is one.
    fn place(&self, hash: u64, entry: *mut Entry) {
        let mut i = self.home(hash);
        while !self.0[i].entry.load(Ordering::Relaxed).is_null() {
            i = (i + 1) & (self.0.len() - 1);
        }
        self.0[i].hash.store(hash, Ordering::Relaxed);
        // Release: a lookup that sees the entry sees its hash and contents.
        self.0[i].entry.store(entry, Ordering::Release);
    }

    /// The entries in the table, in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, *mut Entry)> + '_ {
        let slot = |s: &Slot| (s.hash.load(Ordering::Relaxed), s.entry.load(Ordering::Acquire));
        self.0.iter().map(slot).filter(|(_, entry)| !entry.is_null())
    }
}

/// One shard, on a cache line of its own: an insert writes the mutex, and
/// must not take the neighbours' table pointers out of every reader's cache.
#[repr(align(64))]
struct Shard {
    /// Serialises inserts and growth; holds the number of entries.
    entries: Mutex<usize>,
    /// The current bucket array (`Arc::into_raw`), null until the first
    /// insert. Replaced under the mutex by growth, which retires the old one.
    table: AtomicPtr<Table>,
}

impl Shard {
    /// The current bucket array, if there is one yet.
    ///
    /// # Safety
    ///
    /// Growth may retire the array while the reference is in use: the caller
    /// is a registered session that does not quiesce until then, or holds the
    /// domain's lock, or this shard's mutex (then it is not even retired).
    unsafe fn table(&self) -> Option<&Table> {
        // Acquire: pairs with growth's release store of a filled table.
        // SAFETY: non-null means `Arc::into_raw` in `Store::insert`; the
        // caller keeps what it points at alive.
        unsafe { self.table.load(Ordering::Acquire).as_ref() }
    }

    /// Looks `key` up in the current bucket array, writing nothing.
    ///
    /// # Safety
    ///
    /// As for [`Shard::table`].
    unsafe fn find(&self, hash: u64, key: &Key) -> Option<&Entry> {
        // SAFETY: the caller's guarantee, passed on.
        let table = unsafe { self.table() }?;
        let mut i = table.home(hash);
        loop {
            // Acquire: pairs with `place`. A table is never full, so the
            // probe ends at an empty slot.
            let entry = table.0[i].entry.load(Ordering::Acquire);
            // SAFETY: entries are freed only by `Store::drop`, which cannot
            // run while `&self` is borrowed.
            let entry = unsafe { entry.as_ref() }?;
            if table.0[i].hash.load(Ordering::Relaxed) == hash && entry.key == *key {
                return Some(entry);
            }
            i = (i + 1) & (table.0.len() - 1);
        }
    }
}

/// A sharded concurrent map from [`Key`] to [`Record`].
pub struct Store {
    shards: Box<[Shard]>,
    mask: u64,
    domain: Arc<Domain>,
}

impl Store {
    /// Creates a store with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let shard = || Shard { entries: Mutex::new(0), table: AtomicPtr::new(ptr::null_mut()) };
        Store {
            shards: (0..shards).map(|_| shard()).collect(),
            mask: shards as u64 - 1,
            domain: Arc::default(),
        }
    }

    /// Registers a session: what an engine's handle looks records up with,
    /// reads them in place under, and retires what it replaces on.
    pub fn register(&self) -> Session {
        self.domain.register()
    }

    fn shard_for(&self, hash: u64) -> &Shard {
        &self.shards[(hash & self.mask) as usize]
    }

    /// Number of records, present or logically absent. Takes every shard's
    /// mutex: for checks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| *shard.entries.lock()).sum()
    }

    /// True if the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the record for `k`, if it exists, taking no lock.
    ///
    /// # Panics
    ///
    /// If `session` is registered with another store.
    pub fn get(&self, session: &Session, k: &Key) -> Option<&Record> {
        assert!(session.protects(self.domain.addr()), "session of another store");
        let hash = k.stable_hash();
        // SAFETY: the session is this store's and, being borrowed, does not
        // quiesce before `find` returns.
        unsafe { self.shard_for(hash).find(hash, k) }.map(|entry| &entry.record)
    }

    /// Starts the memory traffic of looking `keys` up, so that the misses of
    /// a group of independent lookups overlap instead of being taken one
    /// lookup at a time: for every key the home slot of its probe, then — the
    /// slots arriving by now — the lines of the entry each probe ends at. A
    /// hint and nothing else (crate docs, "A prefetch is less than a read"):
    /// a missing key or an empty shard is passed over. Panics like
    /// [`Store::get`].
    pub fn prefetch(&self, session: &Session, keys: &[Key]) {
        assert!(session.protects(self.domain.addr()), "session of another store");
        for keys in keys.chunks(PREFETCH_CHUNK) {
            let mut probes: [Option<(&Table, u64)>; PREFETCH_CHUNK] = [None; PREFETCH_CHUNK];
            for (probe, k) in probes.iter_mut().zip(keys) {
                let hash = k.stable_hash();
                // SAFETY: the session is this store's and, being borrowed,
                // does not quiesce before this call returns: `probes` dies.
                let table = unsafe { self.shard_for(hash).table() };
                *probe = table.map(|table| (table, hash));
                if let Some(table) = table {
                    prefetch_line(&table.0[table.home(hash)]);
                }
            }
            for &(table, hash) in probes.iter().flatten() {
                let mut i = table.home(hash);
                // The probe of `find`, told apart by hash alone: it must not
                // touch an entry, whose lines are what it is fetching. The
                // acquire load pairs with `place`, as there.
                let entry = loop {
                    let entry = table.0[i].entry.load(Ordering::Acquire);
                    if entry.is_null() || table.0[i].hash.load(Ordering::Relaxed) == hash {
                        break entry;
                    }
                    i = (i + 1) & (table.0.len() - 1);
                };
                if !entry.is_null() {
                    // Every line an entry can lie on: longer than one, aligned to less.
                    let first = entry.cast_const().cast::<u8>();
                    for at in (0..size_of::<Entry>()).step_by(64).chain([size_of::<Entry>() - 1]) {
                        prefetch_line(first.wrapping_add(at));
                    }
                }
            }
        }
    }

    /// Looks up the record for `k`, creating a logically absent one if there
    /// is none: the path of writes (inserts) and of reads that must be
    /// validated against later inserts. Only a creation takes the shard's
    /// mutex. Panics like [`Store::get`].
    pub fn get_or_create(&self, session: &Session, k: Key) -> &Record {
        match self.get(session, &k) {
            Some(record) => record,
            None => self.insert(k, None).0,
        }
    }

    /// The record for `k`, created with `value` if the key is new; `value`
    /// comes back if it was not.
    fn insert(&self, k: Key, value: Option<Value>) -> (&Record, Option<Value>) {
        let hash = k.stable_hash();
        let shard = self.shard_for(hash);
        let mut entries = shard.entries.lock();
        // SAFETY: the shard's mutex is held.
        let (found, mut table) = unsafe { (shard.find(hash, &k), shard.table()) };
        if let Some(entry) = found {
            return (&entry.record, value);
        }
        if (*entries + 1) * 2 > table.map_or(0, |t| t.0.len()) {
            let grown = Table::new(table.map_or(FIRST_TABLE, |t| t.0.len() * 2));
            for (hash, entry) in table.into_iter().flat_map(Table::entries) {
                grown.place(hash, entry);
            }
            // Release: a lookup that loads the new table sees it filled.
            let old = shard.table.swap(Arc::into_raw(grown).cast_mut(), Ordering::Release);
            if !old.is_null() {
                // SAFETY: from `Arc::into_raw` here and unlinked just now, so
                // this is its one handle. Lookups may still be probing it:
                // that is what retiring it is for.
                self.domain.orphan(Garbage::Table(unsafe { Arc::from_raw(old) }));
            }
            // SAFETY: the mutex is still held.
            table = unsafe { shard.table() };
        }
        let entry = Box::into_raw(Box::new(Entry { key: k, record: Record::new(&self.domain, value) }));
        // At most half the slots are used, so there is a free one.
        table.expect("grown above if there was none").place(hash, entry);
        *entries += 1;
        // SAFETY: freed only by `Store::drop`, which needs `&mut self`.
        (unsafe { &(*entry).record }, None)
    }

    /// Loads `(k, v)` directly, bypassing concurrency control: benchmark
    /// pre-population ("we pre-allocate all the records", §8.1) and recovery.
    /// A new key gets TID 0; a load over a record moves its TID on, as any
    /// write must.
    pub fn load(&self, k: Key, v: Value) {
        if let (record, Some(v)) = self.insert(k, Some(v)) {
            if let Some(old) = record.lock_spin().replace(|_| Ok(Some(v))).expect("cannot fail") {
                self.domain.orphan(Garbage::Value(old));
            }
        }
    }

    /// Reads a value outside any transaction (checks, checkpoints). Safe
    /// while transactions run — retired objects stay alive for the duration
    /// of the call — and consistent per record only.
    pub fn read_unlocked(&self, k: &Key) -> Option<Value> {
        let hash = k.stable_hash();
        let _held = self.domain.hold();
        // SAFETY: `_held` keeps retired bucket arrays and values alive.
        unsafe { self.shard_for(hash).find(hash, k)?.record.settled(|v| v.cloned()) }
    }

    /// Lends `f` every key with a value. Same standing as
    /// [`Store::read_unlocked`], whose lock it holds: `f` must not call it.
    pub fn for_each(&self, mut f: impl FnMut(&Key, &Value)) {
        let _held = self.domain.hold();
        // SAFETY: `_held` keeps retired bucket arrays alive.
        for table in self.shards.iter().filter_map(|shard| unsafe { shard.table() }) {
            for (_, entry) in table.entries() {
                // SAFETY: entries live as long as the store, and `_held`
                // keeps retired values alive.
                unsafe { (*entry).record.settled(|v| v.map(|v| f(&(*entry).key, v))) };
            }
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        for shard in &mut *self.shards {
            // SAFETY: `&mut self`: no lookup runs, no `&Record` is left. The
            // table is from `Arc::into_raw` in `insert`, its entries from
            // `Box::into_raw` there, each in exactly one current table.
            unsafe {
                if let Some(table) = shard.table.get_mut().as_ref() {
                    table.entries().for_each(|(_, entry)| drop(Box::from_raw(entry)));
                    drop(Arc::from_raw(table));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{Op, Tid};

    #[test]
    fn shards_round_up_to_power_of_two() {
        assert_eq!(Store::new(0).shards.len(), 1);
        assert_eq!(Store::new(3).shards.len(), 4);
        assert_eq!(Store::new(256).shards.len(), 256);
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let s = Store::new(8);
        let session = s.register();
        let a = s.get_or_create(&session, Key::raw(1));
        let b = s.get_or_create(&session, Key::raw(1));
        assert!(ptr::eq(a, b));
        assert_eq!(s.len(), 1);
        assert!(s.get(&session, &Key::raw(2)).is_none());
        assert_eq!(s.read_unlocked(&Key::raw(1)), None, "created absent");
    }

    #[test]
    fn load_and_read() {
        let s = Store::new(8);
        assert!(s.is_empty());
        s.load(Key::raw(5), Value::Int(50));
        assert_eq!(s.read_unlocked(&Key::raw(5)), Some(Value::Int(50)));
        assert_eq!(s.read_unlocked(&Key::raw(6)), None);
        let session = s.register();
        let record = s.get(&session, &Key::raw(5)).unwrap();
        assert_eq!(record.tid(), Tid::ZERO, "a fresh load is TID 0");
        s.load(Key::raw(5), Value::from("row"));
        assert_eq!(s.read_unlocked(&Key::raw(5)), Some(Value::from("row")));
        assert_ne!(record.tid(), Tid::ZERO, "a load over a record is a write");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn records_keep_their_address_through_growth() {
        let s = Store::new(1);
        let session = s.register();
        let first = s.get_or_create(&session, Key::raw(0));
        for i in 0..10_000 {
            s.load(Key::raw(i), Value::Int(i as i64));
        }
        assert!(ptr::eq(first, s.get(&session, &Key::raw(0)).unwrap()));
        assert_eq!(s.len(), 10_000);
        let mut sum = 0;
        s.for_each(|_, v| sum += v.as_int().unwrap());
        assert_eq!(sum, (0..10_000).sum::<i64>());
    }

    #[test]
    fn concurrent_get_or_create_counts_each_key_once() {
        let s = Store::new(16);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut session = s.register();
                    for i in 0..500u64 {
                        let r = s.get_or_create(&session, Key::raw(i));
                        let mut locked = r.lock_spin();
                        let tid = Tid(locked.tid().raw() + (1 << 10));
                        locked.apply(&Op::Add(1), &mut session).unwrap();
                        locked.publish(tid);
                        session.quiesce(false);
                    }
                });
            }
        });
        assert_eq!(s.len(), 500);
        let mut total = 0;
        s.for_each(|_, v| total += v.as_int().unwrap());
        assert_eq!(total, 2000);
    }

    #[test]
    fn prefetch_creates_nothing_and_changes_no_lookup() {
        // Shard 0 of 2 stays empty unless a key hashes there; one store of a
        // single shard covers the "no table yet" case outright.
        let empty = Store::new(1);
        empty.prefetch(&empty.register(), &[Key::raw(1), Key::raw(2)]);
        assert!(empty.is_empty());

        let s = Store::new(4);
        let session = s.register();
        for i in 0..1_000 {
            s.load(Key::raw(i), Value::Int(i as i64));
        }
        // Present and missing keys, more than one chunk of them, and none.
        let keys: Vec<Key> = (900..1_100).map(Key::raw).collect();
        s.prefetch(&session, &keys);
        s.prefetch(&session, &[]);
        assert_eq!(s.len(), 1_000, "a missing key is passed over, not created");
        assert!(s.get(&session, &Key::raw(1_050)).is_none());
        let record = s.get(&session, &Key::raw(950)).unwrap();
        assert_eq!(record.tid(), Tid::ZERO, "nothing was written");
        assert_eq!(record.read(&session, |v| v.cloned()).unwrap().1, Some(Value::Int(950)));
    }

    #[test]
    #[should_panic(expected = "another store")]
    fn a_session_of_another_store_is_refused() {
        let (a, b) = (Store::new(1), Store::new(1));
        let _ = a.get(&b.register(), &Key::raw(1));
    }

    #[test]
    #[should_panic(expected = "another store")]
    fn a_prefetch_under_a_session_of_another_store_is_refused() {
        let (a, b) = (Store::new(1), Store::new(1));
        a.prefetch(&b.register(), &[Key::raw(1)]);
    }
}
