//! Criterion microbenchmarks of the core primitives: record access, the OCC
//! commit protocol, per-core slice updates, merge operations, and the Zipf
//! sampler. These quantify the constant factors behind the experiment
//! binaries (the experiments themselves are regenerated by the `fig*` /
//! `table*` binaries, not by Criterion).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use doppel_common::{Key, Op, OpKind, OrderKey, TidGenerator, Value};
use doppel_db::Slice;
use doppel_occ::{commit, OccTx, ReadSet, WriteSet};
use doppel_store::Store;
use doppel_workloads::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_record(c: &mut Criterion) {
    let store = Store::new(1);
    store.load(Key::raw(0), Value::Int(42));
    let mut session = store.register();
    let record = store.get(&session, &Key::raw(0)).unwrap();
    c.bench_function("record/read", |b| {
        b.iter(|| black_box(record.read(&session, |v| v.and_then(Value::as_int)).unwrap()))
    });

    c.bench_function("record/lock_apply_publish", |b| {
        let mut gen = TidGenerator::new(0);
        b.iter(|| {
            let mut locked = record.lock_spin();
            locked.apply(&Op::Add(1), &mut session).unwrap();
            locked.publish(gen.next());
        })
    });
}

fn bench_store(c: &mut Criterion) {
    let store = Store::new(1024);
    for i in 0..100_000u64 {
        store.load(Key::raw(i), Value::Int(0));
    }
    let session = store.register();
    c.bench_function("store/get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 100_000;
            black_box(store.get(&session, &Key::raw(i)))
        })
    });
    c.bench_function("store/get_or_create_existing", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 100_000;
            black_box(store.get_or_create(&session, Key::raw(i)))
        })
    });
}

/// One lookup plus an in-place read of the value, over the `kv_tcp` shape (a
/// million integer records in 1024 shards: slots and entries far exceed the
/// caches), each lookup *dependent* on the one before — its key is offset by
/// the value just read, always 0 — so the core cannot overlap two of them by
/// itself, as it cannot across the ~1 µs of serving between two calls.
/// `store_get_cold` takes its misses one lookup at a time;
/// `store_get_prefetched/N` hands the next `N` keys to [`Store::prefetch`]
/// first, as the serving loop does with the frames of one read.
///
/// The numbers that fixed `doppel_service::server::GROUP_FRAMES` (ns per
/// lookup, one thread of a 2-vCPU host, three runs): cold 333–336;
/// prefetched/8 66–71, /16 53–57, /32 54–57, /64 63–66. The two or three
/// dependent misses of a lookup taken alone cost ≈ 280 ns; groups of 16 and
/// of 32 tie, a lookup in a group of 8 is a quarter slower, in one of 64 a
/// sixth. `kv_tcp` end to end read the same for 16, 32 and 64 (2.48–2.69 M
/// txn/s, three seeds each, in no order): the group is 32, the middle of the
/// flat part.
fn bench_store_prefetch(c: &mut Criterion) {
    const KEYS: u64 = 1_000_000;
    let store = Store::new(1024);
    for i in 0..KEYS {
        store.load(Key::raw(i), Value::Int(0));
    }
    let session = store.register();
    let lookup = |id: u64| {
        let record = store.get(&session, &Key::raw(id)).expect("loaded");
        record.read(&session, |v| v.and_then(Value::as_int)).expect("no writer").1.expect("int") as u64
    };
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut uniform = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % KEYS
    };
    c.bench_function("store_get_cold", |b| {
        let mut dep = 0;
        b.iter(|| dep = lookup(uniform() + dep))
    });
    for group in [8usize, 16, 32, 64] {
        c.bench_function(format!("store_get_prefetched/{group}"), |b| {
            let (mut keys, mut next, mut dep) = (vec![Key::raw(0); group], group, 0);
            b.iter(|| {
                if next == group {
                    keys.fill_with(|| Key::raw(uniform() + dep));
                    store.prefetch(&session, &keys);
                    next = 0;
                }
                dep = lookup(keys[next].id() + dep);
                next += 1;
            })
        });
    }
}

fn bench_occ(c: &mut Criterion) {
    let store = Store::new(256);
    for i in 0..1_000u64 {
        store.load(Key::raw(i), Value::Int(0));
    }
    let mut session = store.register();

    c.bench_function("occ/single_key_increment_txn", |b| {
        let mut gen = TidGenerator::new(0);
        let mut i = 0u64;
        b.iter(|| {
            use doppel_common::Tx;
            i = (i + 1) % 1_000;
            let mut tx = OccTx::new(&store, &mut session, 0);
            tx.add(Key::raw(i), 1).unwrap();
            tx.commit(&mut gen).unwrap()
        })
    });

    c.bench_function("occ/commit_protocol_only", |b| {
        let mut gen = TidGenerator::new(0);
        let record = store.get(&session, &Key::raw(0)).unwrap();
        b.iter(|| {
            let reads = ReadSet::new();
            let mut writes = WriteSet::new();
            writes.buffer(Key::raw(0), record, Op::Add(1));
            commit(&reads, &mut writes, &mut gen, &mut session).unwrap()
        })
    });
}

fn bench_slices(c: &mut Criterion) {
    c.bench_function("slice/add_apply", |b| {
        let mut slice = Slice::new(OpKind::Add);
        b.iter(|| slice.apply(black_box(&Op::Add(1))).unwrap())
    });
    c.bench_function("slice/max_apply", |b| {
        let mut slice = Slice::new(OpKind::Max);
        let mut n = 0i64;
        b.iter(|| {
            n += 1;
            slice.apply(black_box(&Op::Max(n))).unwrap()
        })
    });
    c.bench_function("slice/topk_apply", |b| {
        let mut slice = Slice::new(OpKind::TopKInsert);
        let mut n = 0i64;
        b.iter(|| {
            n += 1;
            slice
                .apply(black_box(&Op::TopKInsert {
                    order: OrderKey::from(n % 1_000),
                    core: 0,
                    payload: bytes::Bytes::from_static(b"p"),
                    k: 16,
                }))
                .unwrap()
        })
    });
    c.bench_function("slice/merge_into_record", |b| {
        let store = Store::new(1);
        store.load(Key::raw(0), Value::Int(0));
        let mut session = store.register();
        let record = store.get(&session, &Key::raw(0)).unwrap();
        let mut gen = TidGenerator::new(0);
        b.iter(|| {
            let mut slice = Slice::new(OpKind::Add);
            for _ in 0..64 {
                slice.apply(&Op::Add(1)).unwrap();
            }
            let mut locked = record.lock_spin();
            for op in slice.into_merge_ops() {
                locked.apply(&op, &mut session).unwrap();
            }
            locked.publish(gen.next());
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let sampler = ZipfSampler::new(1_000_000, 1.4);
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("zipf/sample_1M_keys", |b| b.iter(|| black_box(sampler.sample(&mut rng))));
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_record, bench_store, bench_store_prefetch, bench_occ, bench_slices, bench_zipf
);
criterion_main!(benches);
