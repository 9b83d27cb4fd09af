//! Stress tests of the read protocol: lock-free lookup (and the prefetch that
//! runs ahead of it), seqlock snapshots lent in place, reclamation at the
//! safepoint. Run in both profiles — a seqlock that is wrong shows under
//! optimisation. `PROPTEST_CASES` scales the duration like it scales the
//! property tests (64 cases ≈ 0.25 s).

use doppel_common::{Key, Op, OrderKey, OrderedTuple, Tid, TidGenerator, TopKSet, Value};
use doppel_store::{RecordReadError, Store};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

fn duration() -> Duration {
    let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64u64);
    Duration::from_millis(4 * cases)
}

/// True once the store has dropped its handle to the heap data of `value`,
/// a clone the test kept: how the tests see reclamation, from outside.
fn store_let_go(value: &Value) -> bool {
    match value {
        Value::Bytes(row) => row.is_unique(),
        Value::Tuple(tuple) => tuple.payload.is_unique(),
        Value::TopK(set) => set.is_unique(),
        _ => true,
    }
}

const KINDS: u64 = 4;

/// The 64 bytes a writer derives from `n`: seven words of a sequence seeded
/// by `n`, and their xor.
fn row(n: u64) -> Vec<u8> {
    let mut words = [0u64; 8];
    for i in 0..7 {
        words[i] = n.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        words[7] ^= words[i];
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The value of kind `key % KINDS` that a writer publishes under TID `n`.
fn payload(key: u64, n: u64) -> Value {
    match key % KINDS {
        0 => Value::Int(n as i64),
        1 => Value::from(row(n)),
        2 => Value::Tuple(OrderedTuple::new(OrderKey::pair(n as i64, !n as i64), 0, row(n))),
        _ => {
            let mut set = TopKSet::new(8);
            for i in 0..8 {
                set.insert(OrderKey::from((n + i) as i64), 0, row(n + i));
            }
            Value::TopK(set)
        }
    }
}

/// Which `n` the lent value was built from. Compares the whole value: a torn
/// copy, a half-written one or freed memory does not get through.
fn published_as(key: u64, lent: &Value) -> u64 {
    let n = match lent {
        Value::Int(n) => *n as u64,
        Value::Bytes(b) => u64::from_le_bytes(b[..8].try_into().unwrap()).wrapping_mul(0xF1DE_83E1_9937_733D),
        Value::Tuple(t) => t.order.primary() as u64,
        Value::TopK(set) => set.iter().map(|e| e.order.primary() as u64).min().expect("8 entries"),
        other => panic!("nobody published {other:?}"),
    };
    assert!(*lent == payload(key, n), "key {key}: the lent value is not the one published as {n}");
    n
}

#[test]
fn the_inverse_of_the_row_seed_is_right() {
    assert_eq!(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(0xF1DE_83E1_9937_733D), 1);
    for key in 0..KINDS {
        assert_eq!(published_as(key, &payload(key, 77)), 77);
    }
}

/// Writers replace the values of a few hot records as fast as they can while
/// readers take snapshots — one of them behind a prefetch of every record,
/// as a serving loop reads: every snapshot that validates is the value some
/// writer published whole under exactly that TID; once every session is gone,
/// everything the writers replaced has been dropped.
#[test]
fn lent_snapshots_are_whole_and_reclaimed_after_their_grace_period() {
    const HOT: u64 = 8;
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    /// Published values each writer keeps a clone of.
    const KEPT: usize = 20_000;
    let store = Store::new(4);
    for key in 0..HOT {
        store.load(Key::raw(key), payload(key, 0));
    }
    let stop = AtomicBool::new(false);
    let start = Barrier::new(WRITERS + READERS + 1);
    let (lent, busy, kept) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, stop, start) = (&store, &stop, &start);
                scope.spawn(move || {
                    let mut session = store.register();
                    let mut gen = TidGenerator::new(w);
                    let mut kept = Vec::with_capacity(KEPT);
                    start.wait();
                    let mut key = w as u64;
                    while !stop.load(Ordering::Relaxed) {
                        key = (key + 1) % HOT;
                        let mut locked = store.get(&session, &Key::raw(key)).unwrap().lock_spin();
                        let tid = gen.next_after([locked.tid()]);
                        let value = payload(key, tid.raw());
                        if kept.len() < KEPT {
                            kept.push((key, value.clone()));
                        }
                        locked.apply(&Op::Put(value), &mut session).unwrap();
                        locked.publish(tid);
                        session.quiesce(false);
                    }
                    kept
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (store, stop, start) = (&store, &stop, &start);
                scope.spawn(move || {
                    let mut session = store.register();
                    let (mut lent, mut busy) = (0u64, 0u64);
                    let hot: Vec<Key> = (0..HOT).map(Key::raw).collect();
                    start.wait();
                    let mut key = r as u64;
                    // One more round after the writers stopped: every record
                    // is readable then, so the check runs even on one CPU.
                    let mut last_round = HOT;
                    while last_round > 0 {
                        if stop.load(Ordering::Relaxed) {
                            last_round -= 1;
                        }
                        key = (key + 1) % HOT;
                        if r == 0 && key == 0 {
                            // Holds nothing: the safepoints below stay what
                            // they were, and so does every grace period.
                            store.prefetch(&session, &hot);
                        }
                        let record = store.get(&session, &Key::raw(key)).unwrap();
                        match record.read(&session, |v| published_as(key, v.expect("loaded"))) {
                            Ok((tid, n)) => {
                                assert_eq!(Tid(n), tid, "key {key}: value and TID of two writes");
                                lent += 1;
                            }
                            Err(RecordReadError::Locked) => busy += 1,
                        }
                        session.quiesce(false);
                    }
                    (lent, busy)
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(duration());
        stop.store(true, Ordering::Relaxed);
        let (lent, busy) =
            readers.into_iter().map(|r| r.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let kept: Vec<_> = writers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        (lent, busy, kept)
    });
    assert!(lent >= (READERS as u64) * HOT, "readers validated {lent} snapshots ({busy} locked)");
    // Every session is gone: of what was published, the store still holds
    // only what is in place now.
    assert!(kept.len() > HOT as usize, "writers replaced values");
    let mut in_place = 0;
    for (key, value) in &kept {
        if store.read_unlocked(&Key::raw(*key)).as_ref() == Some(value) {
            in_place += 1;
        } else {
            assert!(store_let_go(value), "key {key}: a replaced value was never dropped");
        }
    }
    assert!(in_place <= HOT);
}

/// A registered session that never reaches a safepoint holds reclamation
/// back — at the cost of memory only — and dropping it releases it. Nothing
/// is dropped before every session registered when it was replaced has
/// passed a safepoint, however often the others do.
#[test]
fn an_idle_session_holds_reclamation_back_until_it_is_dropped() {
    let store = Store::new(1);
    store.load(Key::raw(1), payload(1, 0));
    let idle = store.register();
    let mut writer = store.register();
    let mut gen = TidGenerator::new(0);
    let mut published = Vec::new();
    let mut write = |writer: &mut doppel_store::Session| {
        let mut locked = store.get(writer, &Key::raw(1)).unwrap().lock_spin();
        let tid = gen.next_after([locked.tid()]);
        published.push(payload(1, tid.raw()));
        locked.apply(&Op::Put(published.last().unwrap().clone()), writer).unwrap();
        locked.publish(tid);
        writer.quiesce(true);
        published.iter().filter(|value| store_let_go(value)).count()
    };
    for _ in 0..500 {
        assert_eq!(write(&mut writer), 0, "the idle session pins everything replaced since");
    }
    // What the idle session may be looking at is still whole.
    let seen = store.get(&idle, &Key::raw(1)).unwrap().read(&idle, |v| published_as(1, v.unwrap()));
    assert!(seen.is_ok());
    drop(idle);
    let dropped = (0..4).map(|_| write(&mut writer)).last().unwrap();
    assert!((500..504).contains(&dropped), "all but the last few writes are past their grace ({dropped})");
    drop(writer);
    assert_eq!(published.iter().filter(|value| store_let_go(value)).count(), 503, "all but the one in place");
}

/// Concurrent inserts into one growing shard: every key an inserter has
/// announced is found while the table grows under the reader — which
/// prefetches them first, beside keys nobody inserts, probing bucket arrays
/// that growth is retiring — and each key has one record at one address for
/// good; a prefetch creates none.
#[test]
fn inserts_during_growth_are_found_during_and_after() {
    const INSERTERS: u64 = 3;
    const KEYS: u64 = 20_000;
    let store = Store::new(1);
    let done: Vec<AtomicU64> = (0..INSERTERS).map(|_| AtomicU64::new(0)).collect();
    let start = Barrier::new(INSERTERS as usize + 1);
    let addresses = std::thread::scope(|scope| {
        let inserters: Vec<_> = (0..INSERTERS)
            .map(|t| {
                let (store, done, start) = (&store, &done, &start);
                scope.spawn(move || {
                    let mut session = store.register();
                    start.wait();
                    let mut addresses = Vec::with_capacity(KEYS as usize);
                    for i in 0..KEYS {
                        // Every inserter creates every key, in its own order;
                        // the ones it announces are its own third.
                        let key = (i + t * KEYS / INSERTERS) % KEYS;
                        let record = store.get_or_create(&session, Key::raw(key));
                        addresses.push((key, record as *const _ as usize));
                        store.get_or_create(&session, Key::new(doppel_common::Table::Raw, i, t as u32 + 1));
                        done[t as usize].store(i + 1, Ordering::Release);
                        session.quiesce(false);
                    }
                    addresses
                })
            })
            .collect();
        let mut session = store.register();
        start.wait();
        let mut found = 0u64;
        let mut group = Vec::new();
        while done.iter().any(|d| d.load(Ordering::Relaxed) < KEYS) {
            group.clear();
            for (t, d) in done.iter().enumerate() {
                let announced = d.load(Ordering::Acquire);
                if announced > 0 {
                    group.push(Key::new(doppel_common::Table::Raw, announced - 1, t as u32 + 1));
                }
                group.push(Key::new(doppel_common::Table::Raw, announced, u32::MAX));
            }
            store.prefetch(&session, &group);
            for key in group.iter().filter(|key| key.sub() != u32::MAX) {
                assert!(store.get(&session, key).is_some(), "{key} was inserted, then not found");
                found += 1;
            }
            session.quiesce(true);
        }
        assert!(found > 0);
        inserters.into_iter().flat_map(|t| t.join().unwrap()).collect::<Vec<_>>()
    });
    assert_eq!(store.len() as u64, KEYS * (1 + INSERTERS));
    let session = store.register();
    for (key, address) in addresses {
        let record = store.get(&session, &Key::raw(key)).expect("inserted");
        assert_eq!(record as *const _ as usize, address, "key {key} has two records, or moved");
    }
}
