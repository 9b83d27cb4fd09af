//! Allocation-discipline tests: pin the hot path's allocation budget.
//!
//! Transaction state is pooled per worker (read/write sets, 2PL lock lists,
//! Doppel split buffers) and frames decode borrowed from the receive buffer,
//! so a committed transaction should cost ~zero heap allocations once its
//! worker's pools are warm, and a served call — frame in, reply bytes out —
//! exactly zero: its arguments are read in place from the frame and its
//! procedure executes borrowed. These tests measure real allocation counts
//! through the counting global allocator and fail if a hot path regresses
//! past a generous per-transaction budget.
//!
//! The counting allocator is registered by `doppel_bench` (`use doppel_bench
//! as _` below links it in); a binary admits exactly one `#[global_allocator]`,
//! so this file must never register its own.

use doppel_bench as _;

use doppel_common::{
    DoppelConfig, Engine, Key, OpKind, Outcome, Procedure, ProcedureFn, ThreadAllocCheckpoint,
    Value,
};
use doppel_db::{DoppelDb, Phase};
use doppel_service::wire::{
    decode_client, decode_server, encode_client, encode_invoke_into, write_frame, ClientMsg,
    FrameDecoder, ServerMsg,
};
use doppel_service::server::GROUP_FRAMES;
use doppel_service::{
    CoreCtx, FrameReply, ReactorConfig, ServeCtx, ServerEngine, ServiceConfig, ServiceState,
};
use std::sync::Arc;
use std::time::Instant;

const WARMUP: usize = 256;
const MEASURED: usize = 2048;

/// Runs `txn` WARMUP times to fill the worker's pools, then MEASURED times
/// under a thread-local allocation checkpoint; returns mean allocations per
/// committed transaction. Single-threaded on purpose: the thread-local
/// counters see exactly this worker's traffic.
fn allocs_per_commit(mut txn: impl FnMut() -> bool) -> f64 {
    for _ in 0..WARMUP {
        txn();
    }
    let cp = ThreadAllocCheckpoint::now();
    let mut commits = 0u64;
    for _ in 0..MEASURED {
        if txn() {
            commits += 1;
        }
    }
    let (count, _bytes) = cp.delta();
    assert!(commits > 0, "measurement loop committed nothing");
    count as f64 / commits as f64
}

#[test]
fn occ_commit_allocation_budget() {
    let engine = doppel_occ::OccEngine::new(1, 64);
    engine.load(Key::raw(1), Value::Int(0));
    let mut handle = engine.handle(0);
    let incr: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
    let avg = allocs_per_commit(|| {
        matches!(handle.execute(Arc::clone(&incr)), Outcome::Committed(_))
    });
    assert!(avg <= 2.0, "OCC INCR commit allocates {avg:.2} per txn (budget 2)");
}

#[test]
fn twopl_commit_allocation_budget() {
    let engine = doppel_twopl::TwoplEngine::new(1, 64);
    engine.load(Key::raw(1), Value::Int(0));
    let mut handle = engine.handle(0);
    let incr: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
    let avg = allocs_per_commit(|| {
        matches!(handle.execute(Arc::clone(&incr)), Outcome::Committed(_))
    });
    assert!(avg <= 8.0, "2PL INCR commit allocates {avg:.2} per txn (budget 8)");
}

#[test]
fn atomic_commit_allocation_budget() {
    let engine = doppel_atomic::AtomicEngine::new(1);
    engine.load(Key::raw(1), Value::Int(0));
    let mut handle = engine.handle(0);
    let incr: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
    let avg = allocs_per_commit(|| {
        matches!(handle.execute(Arc::clone(&incr)), Outcome::Committed(_))
    });
    assert!(avg <= 2.0, "Atomic INCR commit allocates {avg:.2} per txn (budget 2)");
}

#[test]
fn doppel_split_phase_allocation_budget() {
    // Manual phase control, one worker: increments on a split record take
    // the per-core-slice fast path, which must be allocation-free once the
    // slice exists.
    let db = DoppelDb::new(DoppelConfig::with_workers(1));
    db.load(Key::raw(1), Value::Int(0));
    db.label_split(Key::raw(1), OpKind::Add);
    let mut worker = db.handle(0);
    db.request_phase(Phase::Split);
    worker.safepoint();
    let incr: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
    let avg = allocs_per_commit(|| {
        matches!(worker.execute(Arc::clone(&incr)), Outcome::Committed(_))
    });
    assert!(avg <= 4.0, "Doppel split-phase INCR allocates {avg:.2} per txn (budget 4)");
}

#[test]
fn doppel_joined_phase_allocation_budget() {
    let db = DoppelDb::new(DoppelConfig::with_workers(1));
    db.load(Key::raw(1), Value::Int(0));
    let mut worker = db.handle(0);
    let incr: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
    let avg = allocs_per_commit(|| {
        matches!(worker.execute(Arc::clone(&incr)), Outcome::Committed(_))
    });
    assert!(avg <= 4.0, "Doppel joined-phase INCR allocates {avg:.2} per txn (budget 4)");
}

#[test]
fn doppel_phase_cycle_allocation_budget() {
    // One full joined → split → joined cycle over 8 labelled keys, manual
    // phase control: per-phase state (contention samples, the phase
    // aggregate, the split set, slices, merge buffers) is cleared and kept,
    // so once the first cycle has sized every table a cycle allocates
    // nothing, however many transactions it runs.
    const KEYS: u64 = 8;
    let db = DoppelDb::new(DoppelConfig::with_workers(1));
    let adds: Vec<Arc<dyn Procedure>> = (0..KEYS)
        .map(|k| {
            db.load(Key::raw(k), Value::Int(0));
            db.label_split(Key::raw(k), OpKind::Add);
            Arc::new(ProcedureFn::new("incr", move |tx| tx.add(Key::raw(k), 1))) as Arc<dyn Procedure>
        })
        .collect();
    let mut worker = db.handle(0);
    let mut cycle = || {
        for round in 0..64 {
            if round == 8 {
                db.request_phase(Phase::Split);
                worker.safepoint();
            }
            for add in &adds {
                assert!(worker.execute(Arc::clone(add)).is_committed());
            }
        }
        db.request_phase(Phase::Joined);
        worker.safepoint();
    };
    cycle();
    let cp = ThreadAllocCheckpoint::now();
    for _ in 0..4 {
        cycle();
    }
    let (count, _bytes) = cp.delta();
    assert_eq!(count, 0, "four warm phase cycles allocated {count} times");
    drop(worker);
    assert_eq!(db.stats().split_phases, 5);
    assert_eq!(db.stats().slice_ops, 5 * 56 * KEYS);
    assert_eq!(db.global_get(Key::raw(0)), Some(Value::Int(5 * 64)));
}

#[test]
fn frame_decode_is_allocation_free() {
    // A stream of Ping frames: next_frame_ref borrows payloads from the
    // receive buffer and Ping decodes without owned fields, so the decode
    // loop itself must not allocate at all.
    let frames = 512u64;
    let mut stream = Vec::new();
    for id in 0..frames {
        write_frame(&mut stream, &encode_client(&ClientMsg::Ping { id })).unwrap();
    }
    let mut decoder = FrameDecoder::new();
    decoder.feed(&stream);

    let cp = ThreadAllocCheckpoint::now();
    let mut decoded = 0u64;
    while let Some(payload) = decoder.next_frame_ref().unwrap() {
        let msg = decode_client(payload).unwrap();
        assert!(matches!(msg, ClientMsg::Ping { .. }));
        decoded += 1;
    }
    let (count, _bytes) = cp.delta();
    assert_eq!(decoded, frames);
    assert_eq!(count, 0, "decoding {frames} buffered frames allocated {count} times");
}

/// `Value`, `Op` and `OrderKey` are copied per transaction on the direct
/// path (`incr_direct`); holding small order keys inline must not have made
/// any of them larger than they were with `OrderKey(Vec<i64>)`: 24, 56 and
/// 64 bytes.
const _: () = {
    assert!(std::mem::size_of::<doppel_common::OrderKey>() <= 24);
    assert!(std::mem::size_of::<Value>() <= 56);
    assert!(std::mem::size_of::<doppel_common::Op>() <= 64);
    // A record is an allocation of its own per key (1 M of them in `kv_tcp`'s
    // `setup_s` and `process.peak_rss_mb`): no larger than when it was an
    // `Arc` of a version word, a lock and the value (16 + 8 + 16 + 56).
    assert!(std::mem::size_of::<doppel_store::Record>() <= 96);
};

#[test]
fn served_calls_allocate_nothing() {
    // The whole server-side path of one socket request, minus the socket:
    // frame payload in, reply bytes appended to the connection's write
    // buffer. The procedure is resolved by a name borrowed from the frame,
    // runs on arguments read in place from the frame, and its result goes
    // from this stack into the write buffer: a warm call allocates nothing,
    // whether it writes (`kv.add`), returns a value (`kv.get`), reads RUBiS
    // rows (`rubis.view_item`) or lists a page of 1, 25 or 62 of them. Reads
    // are lent in place: when the calls are over no row, index or value is
    // shared with anyone (its reference count is where loading left it).
    use doppel_rubis::procs::{args, register_rubis};
    use doppel_rubis::{RubisData, RubisScale, TxnStyle};

    let mut procs = doppel_common::ProcRegistry::new();
    doppel_service::register_kv(&mut procs);
    register_rubis(&mut procs);
    let built = ServerEngine::build("occ", 1, 20, 256).expect("known engine").with_procs(Arc::new(procs));
    let engine = Arc::clone(&built.engine);
    engine.load(Key::raw(1), Value::Int(0));
    engine.load(Key::raw(2), Value::from("a row of some bytes"));
    RubisData::new(RubisScale::small()).load(engine.as_ref());
    let shared_values = || {
        let mut shared = Vec::new();
        engine.for_each_record(&mut |k, v| {
            let unique = match v {
                Value::Bytes(row) => row.is_unique(),
                Value::TopK(index) => index.is_unique(),
                Value::Tuple(tuple) => tuple.payload.is_unique(),
                _ => true,
            };
            if !unique {
                shared.push(k);
            }
        });
        shared
    };
    let serve = ServeCtx::new(built, ReactorConfig::default().write_queue_bytes, None);
    let state = ServiceState::new(1, ServiceConfig::default());
    let mut ctx = CoreCtx::new(&state, engine.as_ref(), 0, Some(&serve));

    let frame = |name: &str, args: doppel_common::Args| {
        let mut payload = Vec::new();
        encode_invoke_into(1, name, &args, &mut payload);
        payload
    };
    let mut out = Vec::with_capacity(1 << 10);
    let mut serve_into = |payload: &[u8], out: &mut Vec<u8>| {
        out.clear();
        let reply = ctx.serve_frame(1, Instant::now(), payload, out).expect("well-formed frame");
        assert_eq!(reply, FrameReply::Written);
        ctx.end_turn();
        // Peek instead of decoding: [len u32][0x81 Done][id u64][status u8:
        // 0 = committed].
        out[4] == 0x81 && out[13] == 0
    };
    let mut serve_one = |payload: &[u8]| serve_into(payload, &mut out);

    // Category 0 and item 0 get a 1-entry index each, category 1 and item 1
    // a full one (25 entries).
    for i in 0..26u64 {
        let target = u64::from(i > 0);
        let item = args::store_item(1_000 + i, 2, target, target, "lamp", 100, 9, TxnStyle::Doppel);
        let bid = args::store_bid(2_000 + i, 3, target, 500 + i as i64, 1, TxnStyle::Doppel);
        assert!(serve_one(&frame("rubis.store_item", item)));
        assert!(serve_one(&frame("rubis.store_bid", bid)));
    }

    let calls = [
        ("kv.add", frame("kv.add", doppel_common::Args::new().key(Key::raw(1)).int(2))),
        ("kv.get", frame("kv.get", doppel_common::Args::new().key(Key::raw(1)))),
        ("kv.get of a row", frame("kv.get", doppel_common::Args::new().key(Key::raw(2)))),
        ("rubis.browse_regions", frame("rubis.browse_regions", args::browse_regions(62))),
        ("rubis.view_item", frame("rubis.view_item", args::view_item(1))),
        ("a 1-entry page", frame("rubis.search_items_by_category", args::search_items_by_category(0))),
        ("a 25-entry page", frame("rubis.search_items_by_category", args::search_items_by_category(1))),
    ];
    assert_eq!(shared_values(), [], "before the calls");
    for (what, payload) in &calls {
        let avg = allocs_per_commit(|| serve_one(payload));
        assert_eq!(avg, 0.0, "a served {what} allocates {avg:.4} times per call");
    }
    assert_eq!(shared_values(), [], "after the calls");
    let total = Value::Int(2 * (WARMUP + MEASURED) as i64);
    assert_eq!(engine.global_get(Key::raw(1)), Some(total.clone()), "every kv.add reached the store");
    let mut result_of = |payload: &[u8]| {
        let mut out = Vec::new();
        assert!(serve_into(payload, &mut out));
        match decode_server(&out[4..]).expect("one reply frame") {
            ServerMsg::Done(done) => done.proc_result.expect("a result"),
            other => panic!("expected a Done reply, got {other:?}"),
        }
    };
    assert_eq!(result_of(&calls[1].1).get_value(0).unwrap(), total);
    assert_eq!(result_of(&calls[2].1).get_value(0).unwrap(), Value::from("a row of some bytes"));
    assert_eq!(result_of(&calls[3].1).get_int(0).unwrap(), 4, "the small scale has 4 regions");
    assert_eq!(result_of(&calls[4].1).get_int(1).unwrap(), 25, "view_item counts the 25 bids");
    assert_eq!(result_of(&calls[5].1).get_int(0).unwrap(), 1);
    assert_eq!(result_of(&calls[6].1).get_int(0).unwrap(), 25);

    // A write that replaces heap values (the bid row, the max-bidder tuple,
    // the copy-on-write bid index) retires them on a list the handle reuses:
    // it allocates what it did before there was a list (3: the row, the
    // bidder payload, the index's new entry vector).
    let bid = frame("rubis.store_bid", args::store_bid(2_000, 3, 1, 900, 1, TxnStyle::Doppel));
    let mut out = Vec::with_capacity(1 << 10);
    let avg = allocs_per_commit(|| serve_into(&bid, &mut out));
    assert!(avg <= 3.0, "a served rubis.store_bid allocates {avg:.4} times per call (budget 3)");

    // The same calls as the loop serves them: lent by the decoder a read's
    // worth at a time, decoded and their keys prefetched as groups (two full
    // ones and a rest), replies behind one another in one buffer. The
    // group's arrays were allocated with the context: still nothing.
    let mut read = Vec::new();
    for (_, payload) in calls.iter().cycle().take(2 * GROUP_FRAMES + 3) {
        write_frame(&mut read, payload).unwrap();
    }
    let mut decoder = FrameDecoder::new();
    decoder.feed(&read);
    let avg = allocs_per_commit(|| {
        out.clear();
        let mut dones = 0;
        let mut count = |out: &mut Vec<u8>, before: usize, reply| {
            dones += usize::from(reply == FrameReply::Written && out[before + 4] == 0x81);
            None
        };
        let mut served = 0;
        loop {
            let mut frames = decoder.frames().skip(served);
            match ctx.serve_group(1, Instant::now(), &mut frames, &mut out, &mut count) {
                Ok(0) => break,
                Ok(n) => served += n,
                Err(reason) => panic!("a well-formed read closed the connection: {reason:?}"),
            }
        }
        ctx.end_turn();
        (served, dones) == (2 * GROUP_FRAMES + 3, served)
    });
    assert_eq!(avg, 0.0, "a served read of {} calls allocates {avg:.4} times", 2 * GROUP_FRAMES + 3);
    let adds = (WARMUP + MEASURED) * (2 * GROUP_FRAMES + 3).div_ceil(calls.len());
    let total = Value::Int(2 * (WARMUP + MEASURED + adds) as i64);
    assert_eq!(engine.global_get(Key::raw(1)), Some(total), "every grouped kv.add reached the store");
}

#[test]
fn a_pipelined_batch_allocates_nothing_on_the_client() {
    // The other end of `served_calls_allocate_nothing`: `kv_tcp`'s batch —
    // 128 calls framed from borrowed parts, one flush, 128 small results
    // decoded into inline buffers. The ids come back as their first and their
    // count (`BatchIds`), so the client thread's count is exactly zero.
    use doppel_service::{kv_registry, RemoteClient, RemoteOutcome, Server};
    let engine = ServerEngine::build("occ", 1, 20, 64).expect("known engine").with_procs(kv_registry());
    engine.engine.load(Key::raw(1), Value::Int(0));
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = RemoteClient::connect(server.local_addr()).expect("connect");
    let calls: Vec<(&str, doppel_common::Args)> = (0..128i64)
        .map(|i| match i % 2 {
            0 => ("kv.add", doppel_common::Args::new().key(Key::raw(1)).int(i)),
            _ => ("kv.get", doppel_common::Args::new().key(Key::raw(1))),
        })
        .collect();
    let avg = allocs_per_commit(|| {
        let ids = client.submit_batch(&calls).expect("submit");
        ids.iter().all(|id| matches!(client.wait(*id), Ok(RemoteOutcome::Committed { .. })))
    });
    assert_eq!(avg, 0.0, "a pipelined batch allocates {avg:.4} times on the client");
    server.shutdown();
}

#[test]
fn rubis_procedure_allocation_budgets() {
    // The owned harness — `reg.call` + `execute(Arc)` — costs the one
    // allocation it is made of, the `Arc<RegisteredCall>`: arguments and
    // results of these sizes are inline, RUBiS procedures read stored rows in
    // place, and a page costs the same however many rows it lists.
    use doppel_rubis::procs::{args, rubis_registry, RubisProcs};
    use doppel_rubis::{RubisData, RubisScale, TxnStyle};

    let engine = doppel_occ::OccEngine::new(1, 256);
    RubisData::new(RubisScale::small()).load(&engine);
    let reg = rubis_registry();
    let procs = RubisProcs::resolve(&reg);
    let mut handle = engine.handle(0);
    // The result of a call, if it committed.
    let mut call = |id, a: doppel_common::Args| {
        let call = reg.call(id, a);
        handle.execute(Arc::clone(&call) as _).is_committed().then(|| call.take_result())
    };

    // Category 0, item 0 and user 0 get a 1-entry index each; category 1,
    // item 1 and user 1 a full one (25 entries).
    for i in 0..26u64 {
        let target = u64::from(i > 0);
        let item = args::store_item(1_000 + i, 2, target, target, "lamp", 100, 9, TxnStyle::Doppel);
        let bid = args::store_bid(2_000 + i, 3, target, 500 + i as i64, 1, TxnStyle::Doppel);
        let comment = args::store_comment(3_000 + i, 3, target, 4, 1, "fine", TxnStyle::Doppel);
        assert!(call(procs.store_item, item).is_some());
        assert!(call(procs.store_bid, bid).is_some());
        assert!(call(procs.store_comment, comment).is_some());
    }

    let view_item = allocs_per_commit(|| call(procs.view_item, args::view_item(1)).is_some());
    assert!(view_item <= 1.0, "rubis.view_item allocates {view_item:.2} times (budget 1)");

    let pages = [
        ("rubis.search_items_by_category", procs.search_items_by_category),
        ("rubis.view_bid_history", procs.view_bid_history),
        ("rubis.about_me", procs.about_me),
    ];
    for (name, id) in pages {
        let page = |target| doppel_common::Args::new().uint(target);
        let one = allocs_per_commit(|| call(id, page(0)).is_some());
        let full = allocs_per_commit(|| call(id, page(1)).is_some());
        assert!(one <= 1.0, "{name} allocates {one:.2} times (budget 1)");
        assert_eq!(one, full, "{name}: 1 entry listed vs 25");
        // The two pages did list what was stored (the count is the last result).
        let mut listed = |target| {
            let result = call(id, page(target)).flatten().expect("a page returns its counts");
            result.get_int(result.len() - 1).unwrap()
        };
        assert_eq!((listed(0), listed(1)), (1, 25), "{name}");
    }

    // The `Arc<RegisteredCall>` and one row buffer, into which the nickname
    // goes straight from the argument bytes; the budget leaves one to spare.
    // Re-registering one id keeps store growth out of the count.
    let register = allocs_per_commit(|| {
        call(procs.register_user, args::register_user(70_000, "newbie", 1, 5)).is_some()
    });
    assert!(register <= 3.0, "rubis.register_user allocates {register:.2} times (budget 3)");
}
