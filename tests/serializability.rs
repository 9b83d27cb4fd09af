//! Cross-crate serializability tests.
//!
//! The core guarantee of the paper (§5.6) is that Doppel's phased execution is
//! serializable: the effect of the committed transactions equals some serial
//! order. For commutative counter workloads this has an easily checkable
//! consequence — every committed update is reflected in the final state
//! exactly once — which these tests verify under real multi-threaded
//! execution with the automatic coordinator flipping phases underneath.

use doppel_common::{DoppelConfig, Engine, Key, Outcome, ProcedureFn, TxError, Value};
use doppel_db::DoppelDb;
use std::sync::Arc;
use std::time::Duration;

fn contended_config(workers: usize) -> DoppelConfig {
    DoppelConfig {
        workers,
        phase_len: Duration::from_millis(3),
        split_min_conflicts: 2,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        ..DoppelConfig::default()
    }
}

/// Every committed `Add` is reflected exactly once, across many phase cycles.
#[test]
fn concurrent_adds_sum_to_committed_count() {
    let workers = 3;
    let keys = 4u64;
    let db = Arc::new(DoppelDb::start(contended_config(workers)));
    for k in 0..keys {
        db.load(Key::raw(k), Value::Int(0));
    }
    // Label one key split up front so phase cycling (and the slice fast path)
    // is exercised deterministically even when the time-sliced workers happen
    // not to conflict; the other keys are left to automatic classification.
    db.label_split(Key::raw(0), doppel_common::OpKind::Add);
    // A fixed iteration count alone is not enough to see phase cycling: on a
    // fast (or lightly loaded) machine all the commits can land inside the
    // first joined phase. Each worker therefore also keeps committing for a
    // multiple of the phase length, so the coordinator provably flips phases
    // under the workload; the exactly-once bookkeeping covers every commit
    // either way.
    let per_thread = 4_000;
    let min_run = Duration::from_millis(30);
    let mut handles = Vec::new();
    for core in 0..workers {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let mut worker = db.handle(core);
            let mut per_key = vec![0i64; keys as usize];
            let mut committed = 0;
            let mut i = 0u64;
            while committed < per_thread || start.elapsed() < min_run {
                i += 1;
                let key = i % keys;
                let amount = (i % 7) as i64 + 1;
                let proc = Arc::new(ProcedureFn::new("add", move |tx| {
                    tx.add(Key::raw(key), amount)
                }));
                match worker.execute(proc) {
                    Outcome::Committed(_) => {
                        per_key[key as usize] += amount;
                        committed += 1;
                    }
                    Outcome::Aborted(TxError::Shutdown) => break,
                    Outcome::Aborted(_) => {}
                    Outcome::Stashed(_) => unreachable!("adds never stash"),
                }
            }
            per_key
        }));
    }
    let mut expected = vec![0i64; keys as usize];
    for h in handles {
        for (k, v) in h.join().unwrap().into_iter().enumerate() {
            expected[k] += v;
        }
    }
    db.shutdown();
    for k in 0..keys {
        assert_eq!(
            db.global_get(Key::raw(k)).unwrap().as_int().unwrap(),
            expected[k as usize],
            "key {k}: committed adds must be reflected exactly once"
        );
    }
    // The split machinery must actually have been exercised.
    assert!(db.stats().split_phases > 0, "the run should have cycled through split phases");
    assert!(db.stats().slice_ops > 0, "some adds should have used per-core slices");
}

/// Max updates commute: the final value equals the maximum of the committed
/// arguments even when they were applied through per-core slices.
#[test]
fn concurrent_maxes_keep_global_maximum() {
    let workers = 3;
    let db = Arc::new(DoppelDb::start(contended_config(workers)));
    let key = Key::raw(0);
    db.load(key, Value::Int(0));
    let per_thread = 3_000u64;
    let mut handles = Vec::new();
    for core in 0..workers {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut worker = db.handle(core);
            let mut max_committed = 0i64;
            let mut committed = 0;
            let mut x = (core as u64 + 1) * 0x9E37_79B9;
            while committed < per_thread {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let val = (x % 1_000_000) as i64;
                let proc = Arc::new(ProcedureFn::new("max", move |tx| tx.max(key, val)));
                match worker.execute(proc) {
                    Outcome::Committed(_) => {
                        max_committed = max_committed.max(val);
                        committed += 1;
                    }
                    Outcome::Aborted(TxError::Shutdown) => break,
                    Outcome::Aborted(_) => {}
                    Outcome::Stashed(_) => unreachable!(),
                }
            }
            max_committed
        }));
    }
    let expected: i64 = handles.into_iter().map(|h| h.join().unwrap()).max().unwrap();
    db.shutdown();
    assert_eq!(db.global_get(key).unwrap().as_int().unwrap(), expected);
}

/// Multi-record transactions stay atomic across phases: a transfer-like
/// transaction keeps the sum of two records invariant no matter how phases
/// interleave.
#[test]
fn multi_record_invariant_preserved() {
    let workers = 3;
    let db = Arc::new(DoppelDb::start(contended_config(workers)));
    let a = Key::raw(100);
    let b = Key::raw(101);
    db.load(a, Value::Int(10_000));
    db.load(b, Value::Int(10_000));
    let per_thread = 3_000;
    let mut handles = Vec::new();
    for core in 0..workers {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut worker = db.handle(core);
            let mut committed = 0;
            let mut i = 0i64;
            while committed < per_thread {
                i += 1;
                let delta = (i % 13) - 6;
                // Move `delta` from a to b: the sum a+b is invariant.
                let proc = Arc::new(ProcedureFn::new("transfer", move |tx| {
                    tx.add(a, -delta)?;
                    tx.add(b, delta)
                }));
                match worker.execute(proc) {
                    Outcome::Committed(_) => committed += 1,
                    Outcome::Aborted(TxError::Shutdown) => break,
                    Outcome::Aborted(_) => {}
                    Outcome::Stashed(_) => unreachable!(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    db.shutdown();
    let sum = db.global_get(a).unwrap().as_int().unwrap()
        + db.global_get(b).unwrap().as_int().unwrap();
    assert_eq!(sum, 20_000, "transfers must preserve the total");
}

/// Reads of split data are stashed and eventually observe a value that
/// reflects a prefix of the committed writes (never a torn or partial one).
#[test]
fn stashed_reads_observe_consistent_counter() {
    let workers = 2;
    let db = Arc::new(DoppelDb::start(contended_config(workers)));
    let hot = Key::raw(7);
    db.load(hot, Value::Int(0));

    // Writer thread: hammers the counter with +2 increments; the counter must
    // therefore always read as an even number.
    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        let mut worker = writer_db.handle(0);
        let mut committed = 0;
        while committed < 20_000 {
            let proc = Arc::new(ProcedureFn::new("add2", move |tx| tx.add(hot, 2)));
            match worker.execute(proc) {
                Outcome::Committed(_) => committed += 1,
                Outcome::Aborted(TxError::Shutdown) => break,
                _ => {}
            }
        }
        committed
    });

    // Reader thread: reads the counter; during split phases the reads are
    // stashed and complete later, but every observed value must be even.
    let reader_db = Arc::clone(&db);
    let reader = std::thread::spawn(move || {
        let mut worker = reader_db.handle(1);
        let observed = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut submitted = 0;
        while submitted < 2_000 {
            let sink = Arc::clone(&observed);
            let proc = Arc::new(ProcedureFn::read_only("read", move |tx| {
                let v = tx.get_int(Key::raw(7))?;
                sink.lock().unwrap().push(v);
                Ok(())
            }));
            match worker.execute(proc) {
                Outcome::Committed(_) | Outcome::Stashed(_) => submitted += 1,
                Outcome::Aborted(TxError::Shutdown) => break,
                Outcome::Aborted(_) => {}
            }
            worker.take_completions();
        }
        // Drain any remaining stashed reads by passing safepoints until the
        // stash is empty or shutdown.
        for _ in 0..1_000 {
            worker.safepoint();
            worker.take_completions();
            if worker.stash_len() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let data = observed.lock().unwrap().clone();
        data
    });

    let committed_writes = writer.join().unwrap();
    let observations = reader.join().unwrap();
    db.shutdown();

    assert!(committed_writes > 0);
    assert!(!observations.is_empty(), "the reader should have observed values");
    for v in &observations {
        assert!(v % 2 == 0, "observed value {v} would expose a half-applied state");
    }
    assert_eq!(
        db.global_get(hot).unwrap().as_int().unwrap(),
        committed_writes * 2
    );
}

// ---------------------------------------------------------------------------
// A constant sum, read inside one transaction
//
// The tests above check final states. This one checks what a transaction
// *sees*: transfers move money between accounts on every core while audits
// read all of them in one transaction, in place. An audit that commits must
// have seen the constant total — on every engine, whether it ran at once or
// was stashed by a split phase and replayed. (An audit that aborts may have
// seen anything: OCC validates at commit.)
// ---------------------------------------------------------------------------

const ACCOUNTS: u64 = 8;
const TOTAL: i64 = ACCOUNTS as i64 * 1_000;

/// Odd accounts are fixed-layout rows: the balance and its complement.
fn account_row(balance: i64) -> Value {
    Value::from([balance.to_le_bytes(), (!balance).to_le_bytes()].concat())
}

/// The balance of an account, integer or row, as lent by a read.
fn balance(account: Option<&Value>) -> i64 {
    match account.expect("accounts are loaded") {
        Value::Int(n) => *n,
        Value::Bytes(row) => {
            let word = |at: usize| i64::from_le_bytes(row[at..at + 8].try_into().unwrap());
            assert_eq!(word(0), !word(8), "a torn account row was lent");
            word(0)
        }
        other => panic!("not an account: {other:?}"),
    }
}

fn adjust(tx: &mut dyn doppel_common::Tx, account: u64, delta: i64) -> Result<(), TxError> {
    let key = Key::raw(account);
    if account.is_multiple_of(2) {
        return tx.add(key, delta);
    }
    let mut current = 0;
    tx.read(key, &mut |row| current = balance(row))?;
    tx.put(key, account_row(current + delta))
}

/// Runs transfers and audits on every core of `engine` for at least
/// `min_run`; returns how many audits committed at once and after a stash.
fn audits_see_the_total(engine: Arc<dyn Engine>, min_run: Duration) -> (u64, u64) {
    use std::sync::atomic::{AtomicI64, Ordering};
    for account in 0..ACCOUNTS {
        let start = if account.is_multiple_of(2) { Value::Int(1_000) } else { account_row(1_000) };
        engine.load(Key::raw(account), start);
    }
    let threads: Vec<_> = (0..engine.workers())
        .map(|core| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let mut worker = engine.handle(core);
                let mut pending = std::collections::HashMap::new();
                let (mut at_once, mut replayed) = (0u64, 0u64);
                let mut settle = |worker: &mut Box<dyn doppel_common::TxHandle>,
                                  pending: &mut std::collections::HashMap<_, Arc<AtomicI64>>| {
                    for done in worker.take_completions() {
                        let seen = pending.remove(&done.ticket).expect("a ticket this worker got");
                        if done.result.is_ok() {
                            assert_eq!(seen.load(Ordering::Relaxed), TOTAL, "a replayed audit");
                            replayed += 1;
                        }
                    }
                };
                let mut i = core as u64;
                while i < 6_000 || started.elapsed() < min_run {
                    i += 1;
                    let (from, to, delta) = (i % ACCOUNTS, (i / 3 + 1) % ACCOUNTS, (i % 17) as i64);
                    let transfer = Arc::new(ProcedureFn::new("transfer", move |tx| {
                        adjust(tx, from, -delta)?;
                        adjust(tx, to, delta)
                    }));
                    if let Outcome::Aborted(TxError::Shutdown) = worker.execute(transfer) {
                        break;
                    }
                    // Each audit has its own cell: the last run to write it
                    // is the one whose outcome the engine reports.
                    let seen = Arc::new(AtomicI64::new(i64::MIN));
                    let cell = Arc::clone(&seen);
                    let audit = Arc::new(ProcedureFn::read_only("audit", move |tx| {
                        let mut sum = 0;
                        for account in 0..ACCOUNTS {
                            tx.read(Key::raw(account), &mut |v| sum += balance(v))?;
                        }
                        cell.store(sum, Ordering::Relaxed);
                        Ok(())
                    }));
                    match worker.execute(audit) {
                        Outcome::Committed(_) => {
                            assert_eq!(seen.load(Ordering::Relaxed), TOTAL, "an audit");
                            at_once += 1;
                        }
                        Outcome::Stashed(ticket) => drop(pending.insert(ticket, seen)),
                        Outcome::Aborted(_) => {}
                    }
                    settle(&mut worker, &mut pending);
                }
                // Stashed audits replay in the next joined phase.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while worker.stash_len() > 0 && std::time::Instant::now() < deadline {
                    worker.safepoint();
                    std::thread::sleep(Duration::from_millis(1));
                }
                settle(&mut worker, &mut pending);
                (at_once, replayed)
            })
        })
        .collect();
    let (at_once, replayed) = threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    engine.shutdown();
    let end: i64 = (0..ACCOUNTS).map(|a| balance(engine.global_get(Key::raw(a)).as_ref())).sum();
    assert_eq!(end, TOTAL, "transfers must preserve the total");
    (at_once, replayed)
}

#[test]
fn committed_audits_see_the_constant_sum_on_occ_and_2pl() {
    let engines: [Arc<dyn Engine>; 2] = [
        Arc::new(doppel_occ::OccEngine::new(3, 16)),
        Arc::new(doppel_twopl::TwoplEngine::new(3, 16)),
    ];
    for engine in engines {
        let name = engine.name();
        let (at_once, replayed) = audits_see_the_total(engine, Duration::ZERO);
        assert!(at_once > 0, "{name}: no audit committed");
        assert_eq!(replayed, 0, "{name} never stashes");
    }
}

#[test]
fn committed_audits_see_the_constant_sum_across_doppel_phases() {
    let db = Arc::new(DoppelDb::start(contended_config(3)));
    // One integer account is split from the start, so every split phase
    // stashes the audits (they read it) and takes the transfers on it through
    // the slices; the rows and the other integers stay reconciled.
    db.label_split(Key::raw(0), doppel_common::OpKind::Add);
    let (at_once, replayed) = audits_see_the_total(Arc::clone(&db) as _, Duration::from_millis(60));
    let stats = db.stats();
    assert!(stats.split_phases > 1, "joined → split → joined, more than once");
    assert!(stats.slice_ops > 0, "transfers on the split account went to the slices");
    assert!(at_once > 0, "audits in joined phases commit at once");
    assert!(replayed > 0, "audits in split phases are stashed and replayed");
}
