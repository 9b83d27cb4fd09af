//! All four engines implement the same transactional semantics: a
//! deterministic single-worker transaction stream must leave every engine's
//! store in the same state (the Atomic baseline included, because with one
//! worker there is no concurrency for it to mis-handle).

use doppel_bench::engines::{build_engine, EngineKind, EngineParams};
use doppel_common::{Engine, Key, OrderKey, ProcedureFn, Value};
use std::sync::Arc;
use std::time::Duration;

/// Runs a deterministic mixed-operation workload on one worker.
fn run_stream(engine: &dyn Engine) -> Vec<Option<Value>> {
    for k in 0..16u64 {
        engine.load(Key::raw(k), Value::Int(0));
    }
    let mut handle = engine.handle(0);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for step in 0..2_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = Key::raw(x % 16);
        let arg = (x % 1_000) as i64;
        let proc: Arc<dyn doppel_common::Procedure> = match step % 5 {
            0 => Arc::new(ProcedureFn::new("add", move |tx| tx.add(key, arg))),
            1 => Arc::new(ProcedureFn::new("max", move |tx| tx.max(key, arg))),
            2 => Arc::new(ProcedureFn::new("min", move |tx| tx.min(key, -arg))),
            3 => Arc::new(ProcedureFn::new("rmw", move |tx| {
                let current = tx.get_int(key)?;
                tx.put(key, Value::Int(current / 2 + arg))
            })),
            _ => Arc::new(ProcedureFn::new("combo", move |tx| {
                tx.add(key, 1)?;
                tx.add(Key::raw((key.id() + 1) % 16), arg % 10)
            })),
        };
        let outcome = handle.execute(proc);
        assert!(outcome.is_committed(), "single-worker transactions never conflict: {outcome:?}");
    }
    (0..16u64).map(|k| engine.global_get(Key::raw(k))).collect()
}

#[test]
fn all_engines_agree_on_a_deterministic_stream() {
    let params = EngineParams { workers: 1, ..EngineParams::default() };
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let engine = build_engine(*kind, &params);
        let state = run_stream(engine.as_ref());
        engine.shutdown();
        results.push((kind.label(), state));
    }
    let (reference_name, reference) = &results[0];
    for (name, state) in &results[1..] {
        assert_eq!(
            state, reference,
            "{name} diverged from {reference_name} on a deterministic stream"
        );
    }
}

#[test]
fn doppel_with_and_without_splitting_agree() {
    // Ablation: disabling splitting must not change results, only performance.
    let enabled = build_engine(EngineKind::Doppel, &EngineParams { workers: 1, ..Default::default() });
    let disabled = build_engine(
        EngineKind::Doppel,
        &EngineParams { workers: 1, disable_splitting: true, ..Default::default() },
    );
    let a = run_stream(enabled.as_ref());
    let b = run_stream(disabled.as_ref());
    enabled.shutdown();
    disabled.shutdown();
    assert_eq!(a, b);
}

#[test]
fn ordered_tuple_and_topk_operations_agree_across_transactional_engines() {
    // OPut / TopKInsert are not supported by the Atomic baseline's fast path
    // in a meaningful way, so compare the three transactional engines.
    let params = EngineParams { workers: 1, ..EngineParams::default() };
    let mut states = Vec::new();
    for kind in EngineKind::TRANSACTIONAL {
        let engine = build_engine(*kind, &params);
        let mut handle = engine.handle(0);
        for i in 0..200u64 {
            let order = ((i * 37) % 101) as i64;
            let proc = Arc::new(ProcedureFn::new("board", move |tx| {
                tx.topk_insert(
                    Key::raw(0),
                    OrderKey::from(order),
                    order.to_le_bytes().to_vec().into(),
                    8,
                )?;
                tx.oput(
                    Key::raw(1),
                    OrderKey::pair(order, i as i64),
                    i.to_le_bytes().to_vec().into(),
                )
            }));
            assert!(handle.execute(proc).is_committed());
        }
        states.push((kind.label(), engine.global_get(Key::raw(0)), engine.global_get(Key::raw(1))));
        engine.shutdown();
    }
    for window in states.windows(2) {
        assert_eq!(window[0].1, window[1].1, "{} vs {}", window[0].0, window[1].0);
        assert_eq!(window[0].2, window[1].2, "{} vs {}", window[0].0, window[1].0);
    }
}

/// Differential test over the new splittable operations: a deterministic
/// random mix of `Add` / `Max` / `Min` / `BitOr` / `BoundedAdd` on integer
/// records plus `SetUnion` on set records must leave **all four** engines —
/// Doppel, OCC, 2PL and Atomic — with byte-identical final stores. (Every
/// operation here maps to a lock-free update in the Atomic baseline, so
/// unlike `Mult`/`OPut`/`TopKInsert` it participates meaningfully.)
fn run_new_ops_stream(engine: &dyn Engine) -> String {
    const INT_KEYS: u64 = 8;
    const SET_KEYS: u64 = 4;
    const BOUND: i64 = 500;
    for k in 0..INT_KEYS {
        engine.load(Key::raw(k), Value::Int(0));
    }
    for k in 0..SET_KEYS {
        engine.load(Key::raw(100 + k), Value::Set(doppel_common::IntSet::new()));
    }
    let mut handle = engine.handle(0);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for step in 0..3_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = Key::raw(x % INT_KEYS);
        let set_key = Key::raw(100 + x % SET_KEYS);
        let arg = (x % 1_000) as i64 - 500;
        let proc: Arc<dyn doppel_common::Procedure> = match step % 6 {
            0 => Arc::new(ProcedureFn::new("add", move |tx| tx.add(key, arg))),
            1 => Arc::new(ProcedureFn::new("max", move |tx| tx.max(key, arg))),
            2 => Arc::new(ProcedureFn::new("min", move |tx| tx.min(key, arg))),
            3 => Arc::new(ProcedureFn::new("flags", move |tx| tx.bit_or(key, arg & 0xFFFF))),
            4 => Arc::new(ProcedureFn::new("rate", move |tx| {
                tx.bounded_add(key, arg.rem_euclid(40), BOUND)
            })),
            _ => Arc::new(ProcedureFn::new("visit", move |tx| {
                tx.set_insert(set_key, arg.rem_euclid(64))?;
                tx.bit_or(key, 1 << (x % 48))
            })),
        };
        let outcome = handle.execute(proc);
        assert!(outcome.is_committed(), "single-worker transactions never conflict: {outcome:?}");
    }
    let final_values: Vec<Option<Value>> = (0..INT_KEYS)
        .map(Key::raw)
        .chain((0..SET_KEYS).map(|k| Key::raw(100 + k)))
        .map(|k| engine.global_get(k))
        .collect();
    serde_json::to_string(&final_values).expect("final store serializes")
}

#[test]
fn new_ops_agree_across_all_four_engines() {
    let params = EngineParams { workers: 1, ..EngineParams::default() };
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let engine = build_engine(*kind, &params);
        let state = run_new_ops_stream(engine.as_ref());
        engine.shutdown();
        results.push((kind.label(), state));
    }
    // Aggressive Doppel phase cycling must not change the outcome either.
    let cycled = build_engine(
        EngineKind::Doppel,
        &EngineParams { workers: 1, phase_len: Duration::from_millis(1), ..Default::default() },
    );
    results.push(("Doppel(1ms phases)", run_new_ops_stream(cycled.as_ref())));
    cycled.shutdown();

    let (reference_name, reference) = &results[0];
    for (name, state) in &results[1..] {
        assert_eq!(
            state, reference,
            "{name} diverged from {reference_name} on the new-operation stream"
        );
    }
}

#[test]
fn doppel_phase_cycling_does_not_change_single_worker_results() {
    // Run the same deterministic stream with an aggressive 1 ms phase length
    // so many phase transitions happen mid-stream; results must match the
    // OCC reference exactly.
    let occ = build_engine(EngineKind::Occ, &EngineParams { workers: 1, ..Default::default() });
    let reference = run_stream(occ.as_ref());
    occ.shutdown();

    let doppel = build_engine(
        EngineKind::Doppel,
        &EngineParams { workers: 1, phase_len: Duration::from_millis(1), ..Default::default() },
    );
    let cycled = run_stream(doppel.as_ref());
    doppel.shutdown();
    assert_eq!(cycled, reference);
}

/// The borrowed entry (`TxHandle::execute_with`) on every engine: a commit
/// and an abort both run the body and never ask for an owned copy — no engine
/// keeps a transaction that finished inside the call.
#[test]
fn no_engine_takes_ownership_of_a_transaction_that_commits_or_aborts() {
    use doppel_common::{Outcome, TxError};
    let params = EngineParams { workers: 1, ..EngineParams::default() };
    for kind in EngineKind::ALL {
        let engine = build_engine(*kind, &params);
        engine.load(Key::raw(1), Value::Int(0));
        let mut handle = engine.handle(0);
        let mut owned = 0;
        let mut own = || -> Arc<dyn doppel_common::Procedure> {
            owned += 1;
            Arc::new(ProcedureFn::new("never", |_| Ok(())))
        };
        let mut runs = 0;
        let outcome = handle.execute_with(
            &mut |tx| {
                runs += 1;
                tx.add(Key::raw(1), 5)
            },
            &mut own,
        );
        assert!(outcome.is_committed(), "{}: {outcome:?}", kind.label());
        let outcome = handle.execute_with(
            &mut |tx| {
                runs += 1;
                tx.get(Key::raw(1))?;
                Err(TxError::UserAbort { reason: "no" })
            },
            &mut own,
        );
        assert_eq!(outcome, Outcome::Aborted(TxError::UserAbort { reason: "no" }), "{}", kind.label());
        drop(handle);
        engine.shutdown();
        assert_eq!((runs, owned), (2, 0), "{}", kind.label());
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(5)), "{}", kind.label());
    }
}

/// `Tx::read` is the engines' one read path and `Tx::get` its clone-out
/// wrapper: on every engine both show the same value — an integer, a row, an
/// index, a missing key — before and after the transaction's own writes.
#[test]
fn read_and_get_agree_on_every_engine() {
    let params = EngineParams { workers: 1, ..EngineParams::default() };
    let index = {
        let mut set = doppel_common::TopKSet::new(4);
        set.insert(OrderKey::from(3), 0, b"three".as_ref());
        Value::TopK(set)
    };
    for kind in EngineKind::ALL {
        let engine = build_engine(*kind, &params);
        engine.load(Key::raw(1), Value::Int(7));
        engine.load(Key::raw(2), Value::from("a row"));
        engine.load(Key::raw(3), index.clone());
        let mut handle = engine.handle(0);
        let mut seen = Vec::new();
        let outcome = handle.execute_with(
            &mut |tx| {
                seen.clear();
                let mut both = |tx: &mut dyn doppel_common::Tx, k: u64| {
                    let mut lent = None;
                    tx.read(Key::raw(k), &mut |v| lent = Some(v.cloned()))?;
                    let lent = lent.expect("a read that succeeds lends exactly once");
                    assert_eq!(lent, tx.get(Key::raw(k))?, "{}: key {k}", kind.label());
                    seen.push(lent);
                    Ok(())
                };
                for k in 1..=4 {
                    both(tx, k)?;
                }
                // The transaction's own writes show through both.
                tx.add(Key::raw(1), 5)?;
                tx.put(Key::raw(2), Value::from("another row"))?;
                tx.topk_insert(Key::raw(3), OrderKey::from(9), b"nine".as_ref().into(), 4)?;
                tx.put(Key::raw(4), Value::Int(44))?;
                for k in 1..=4 {
                    both(tx, k)?;
                }
                Ok(())
            },
            &mut || unreachable!("nothing is split"),
        );
        assert!(outcome.is_committed(), "{}: {outcome:?}", kind.label());
        drop(handle);
        engine.shutdown();
        let committed: Vec<_> = (1..=4).map(|k| engine.global_get(Key::raw(k))).collect();
        assert_eq!(seen[..4], [Some(Value::Int(7)), Some(Value::from("a row")), Some(index.clone()), None]);
        assert_eq!(seen[4..], committed[..], "{}: what the writer saw is what it committed", kind.label());
        assert_eq!(committed[0], Some(Value::Int(12)));
        assert_eq!(committed[2].as_ref().and_then(Value::as_topk).map(|s| s.len()), Some(2));
    }
}

/// A missing key is lent as `None`, and the read still counts: an insert that
/// commits before the reader does invalidates it (the optimistic engines'
/// anti-insert validation, `insert_read_conflict_detected` in `doppel_occ`).
#[test]
fn a_lent_none_is_validated_against_a_later_insert() {
    use doppel_common::{DoppelConfig, Outcome, TxError};
    let engines: [Arc<dyn Engine>; 2] = [
        Arc::new(doppel_occ::OccEngine::new(2, 16)),
        // Manual phases: no coordinator asks the reader's core for a safepoint
        // while its transaction is open.
        Arc::new(doppel_db::DoppelDb::new(DoppelConfig { workers: 2, ..DoppelConfig::default() })),
    ];
    for engine in engines {
        let (mut reader, mut writer) = (engine.handle(0), engine.handle(1));
        let missing = Key::raw(200);
        let outcome = reader.execute_with(
            &mut |tx| {
                let mut lent = None;
                tx.read(missing, &mut |v| lent = Some(v.cloned()))?;
                assert_eq!(lent, Some(None), "{}", engine.name());
                assert_eq!(tx.get(missing)?, None);
                let insert = Arc::new(ProcedureFn::new("insert", move |tx| tx.put(missing, Value::Int(9))));
                assert!(writer.execute(insert).is_committed());
                tx.put(Key::raw(201), Value::Int(1))
            },
            &mut || unreachable!("nothing is split"),
        );
        assert_eq!(outcome, Outcome::Aborted(TxError::Conflict { key: missing }), "{}", engine.name());
        assert_eq!(engine.global_get(Key::raw(201)), None, "{}: the reader wrote nothing", engine.name());
    }
}
