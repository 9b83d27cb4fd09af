//! Allocation-discipline tests: pin the hot path's allocation budget.
//!
//! Transaction state is pooled per worker (read/write sets, 2PL lock lists,
//! Doppel split buffers) and frames decode borrowed from the receive buffer,
//! so a committed transaction should cost ~zero heap allocations once its
//! worker's pools are warm. These tests measure real allocation counts
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
use doppel_service::wire::{decode_client, encode_client, write_frame, ClientMsg, FrameDecoder};
use std::sync::Arc;

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
