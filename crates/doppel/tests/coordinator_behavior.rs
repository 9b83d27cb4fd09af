//! Tests of the coordinator feedback rules (§5.4) and of worker lifecycle
//! corner cases that the in-module unit tests cannot cover.

use doppel_common::{
    DoppelConfig, Engine, Key, OpKind, Outcome, Procedure, ProcedureFn, TxError, TxHandle, Value,
};
use doppel_db::{DoppelDb, Phase};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The tests below assert on wall-clock phase lengths with a coordinator
/// thread that sleeps in 500 µs steps; run one at a time so that they do not
/// take the cores from each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn add(key: Key) -> Arc<dyn Procedure> {
    Arc::new(ProcedureFn::new("add", move |tx| tx.add(key, 1)))
}

/// Runs `proc` on `w` until the database leaves the phase it is in; returns
/// that phase and how long it lasted from this call. With a single worker the
/// transition completes inside the worker's own `execute`, so calling this
/// back to back times every phase from its first transaction to its last.
fn run_phase(db: &DoppelDb, w: &mut dyn TxHandle, proc: &Arc<dyn Procedure>) -> (Phase, Duration) {
    let (phase, started) = (db.current_phase(), Instant::now());
    while db.current_phase() == phase {
        assert!(w.execute(Arc::clone(proc)).is_committed());
    }
    (phase, started.elapsed())
}

/// The stash contract of [`TxHandle::execute_with`]: a split-phase read of a
/// split key cannot run now, so the worker asks for an owned copy — once —
/// and it is that copy, not the borrowed body, that the joined phase replays;
/// its completion carries the ticket the stash handed out.
#[test]
fn a_stash_owns_the_call_once_and_replays_the_owned_copy() {
    use std::sync::atomic::AtomicU64;
    let db = DoppelDb::new(DoppelConfig::with_workers(1));
    db.load(Key::raw(7), Value::Int(5));
    db.label_split(Key::raw(7), OpKind::Add);
    let mut w = db.handle(0);

    let (borrowed_runs, owned_runs) = (AtomicU64::new(0), Arc::new(AtomicU64::new(0)));
    let mut owned = 0;
    let mut read = |w: &mut dyn TxHandle| {
        w.execute_with(
            &mut |tx| {
                borrowed_runs.fetch_add(1, Ordering::Relaxed);
                tx.get(Key::raw(7)).map(drop)
            },
            &mut || {
                owned += 1;
                let runs = Arc::clone(&owned_runs);
                Arc::new(ProcedureFn::read_only("read", move |tx| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    tx.get(Key::raw(7)).map(drop)
                }))
            },
        )
    };

    // Joined phase: the read commits from the borrowed body.
    assert!(read(w.as_mut()).is_committed());
    db.request_phase(Phase::Split);
    w.safepoint();
    let Outcome::Stashed(ticket) = read(w.as_mut()) else {
        panic!("a split-phase read of a split key must stash");
    };
    assert_eq!(w.stash_len(), 1);
    assert!(w.take_completions().is_empty(), "nothing replays inside the split phase");
    // A split-phase add of the split key runs on the slice, borrowed.
    assert!(w.execute_with(&mut |tx| tx.add(Key::raw(7), 1), &mut || unreachable!()).is_committed());

    db.request_phase(Phase::Joined);
    w.safepoint();
    let completions = w.take_completions();
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].ticket, ticket);
    assert!(completions[0].result.is_ok());
    assert_eq!(w.stash_len(), 0);
    drop(w);
    assert_eq!(owned, 1, "own is called exactly once, by the stash");
    assert_eq!(borrowed_runs.load(Ordering::Relaxed), 2, "the commit and the attempt that stashed");
    assert_eq!(owned_runs.load(Ordering::Relaxed), 1, "the replay ran the owned copy");
    assert_eq!(db.global_get(Key::raw(7)), Some(Value::Int(6)));
}

/// "If, in a joined phase, no records appear contended … the coordinator
/// delays the next split phase": an uncontended workload must never enter a
/// split phase even though the coordinator is running.
#[test]
fn uncontended_workload_never_enters_split_phases() {
    let _serial = one_at_a_time();
    let db = Arc::new(DoppelDb::start(DoppelConfig {
        workers: 2,
        phase_len: Duration::from_millis(2),
        ..DoppelConfig::default()
    }));
    for k in 0..10_000u64 {
        db.load(Key::raw(k), Value::Int(0));
    }
    let mut handles = Vec::new();
    for core in 0..2usize {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut w = db.handle(core);
            // Each worker touches its own disjoint key range: zero conflicts.
            let base = core as u64 * 5_000;
            for i in 0..20_000u64 {
                let key = Key::raw(base + (i % 5_000));
                let proc = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(key, 1)));
                match w.execute(proc) {
                    Outcome::Committed(_) => {}
                    Outcome::Aborted(TxError::Shutdown) => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    db.shutdown();
    let stats = db.stats();
    assert_eq!(stats.split_phases, 0, "nothing was contended, so no split phase should run");
    assert_eq!(stats.total_splits, 0);
    assert!(stats.commits >= 40_000 - 2);
}

/// "If, in a split phase, workers have to abort and stash too many
/// transactions, the coordinator hurries the next joined phase": with a
/// read-only workload against a manually split key, split phases must end
/// well before the nominal phase length.
#[test]
fn stash_storm_hurries_the_joined_phase() {
    let _serial = one_at_a_time();
    let phase_len = Duration::from_millis(200);
    let db = Arc::new(DoppelDb::start(DoppelConfig {
        workers: 1,
        phase_len,
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        // Hurry as soon as >30% of split-phase transactions are stashed.
        feedback: doppel_common::PhaseFeedback {
            hurry_joined_stash_fraction: 0.3,
            min_split_fraction: 0.05,
            ..Default::default()
        },
        ..DoppelConfig::default()
    }));
    let hot = Key::raw(0);
    db.load(hot, Value::Int(1));
    db.label_split(hot, OpKind::Add);

    let worker_db = Arc::clone(&db);
    let worker = std::thread::spawn(move || {
        let mut w = worker_db.handle(0);
        let started = Instant::now();
        let mut first_stash_completion: Option<Duration> = None;
        let mut submitted = 0u64;
        // Reads of the split key: all of them stash during split phases.
        while started.elapsed() < Duration::from_millis(600) {
            let proc = Arc::new(ProcedureFn::read_only("read-hot", move |tx| {
                tx.get(Key::raw(0)).map(|_| ())
            }));
            match w.execute(proc) {
                Outcome::Aborted(TxError::Shutdown) => break,
                _ => submitted += 1,
            }
            for completion in w.take_completions() {
                if completion.result.is_ok() && first_stash_completion.is_none() {
                    first_stash_completion = Some(started.elapsed());
                }
            }
        }
        (submitted, first_stash_completion)
    });
    let (submitted, first_completion) = worker.join().unwrap();
    db.shutdown();

    assert!(submitted > 0);
    let stats = db.stats();
    if stats.stashes > 0 {
        // At least one split phase stashed reads; the hurry rule must have cut
        // that split phase short, so the first stashed read completed well
        // before a full 200 ms phase elapsed on top of the joined phase.
        let completed_at = first_completion.expect("a stashed read should have completed");
        assert!(
            completed_at < Duration::from_millis(550),
            "stashed reads waited {completed_at:?}, the split phase was not hurried"
        );
    }
}

/// Workers that disappear mid-split-phase must not lose slice updates or hang
/// the remaining workers' phase transitions.
#[test]
fn worker_dropped_mid_split_phase_flushes_and_unblocks() {
    let _serial = one_at_a_time();
    let db = DoppelDb::new(DoppelConfig {
        workers: 2,
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        ..DoppelConfig::default()
    });
    let hot = Key::raw(0);
    db.load(hot, Value::Int(0));
    db.label_split(hot, OpKind::Add);

    let w0 = db.handle(0);
    let w1 = db.handle(1);
    db.request_phase(Phase::Split);

    // A worker waiting for the transition release blocks until every other
    // worker has acknowledged, so the two workers must pass their safepoints
    // on separate threads.
    let run_split_phase_work = |mut w: Box<dyn doppel_common::TxHandle>| {
        std::thread::spawn(move || {
            w.safepoint();
            let incr = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(Key::raw(0), 1)));
            for _ in 0..10 {
                assert!(w.execute(incr.clone()).is_committed());
            }
            w
        })
    };
    let t0 = run_split_phase_work(w0);
    let t1 = run_split_phase_work(w1);
    let mut w0 = t0.join().unwrap();
    let w1 = t1.join().unwrap();
    assert_eq!(db.current_phase(), Phase::Split);

    // Worker 1 goes away while the split phase is still running (its slice
    // holds 10 buffered increments).
    drop(w1);

    // The remaining worker can still drive the database back to joined.
    db.request_phase(Phase::Joined);
    w0.safepoint();
    assert_eq!(db.current_phase(), Phase::Joined);
    assert_eq!(
        db.global_get(hot).unwrap().as_int().unwrap(),
        20,
        "the dropped worker's slice must have been merged"
    );
}

/// The coordinator shuts down cleanly even while a transition is pending and
/// no worker will ever acknowledge it (e.g. all workers already exited).
#[test]
fn shutdown_with_unacknowledged_transition_does_not_hang() {
    let _serial = one_at_a_time();
    let db = DoppelDb::start(DoppelConfig {
        workers: 2,
        phase_len: Duration::from_millis(1),
        split_min_conflicts: 1,
        split_conflict_fraction: 0.0,
        feedback: doppel_common::PhaseFeedback {
            delay_split_when_uncontended: false,
            ..Default::default()
        },
        ..DoppelConfig::default()
    });
    db.load(Key::raw(0), Value::Int(0));
    {
        // Create a worker so transitions require its acknowledgement, commit a
        // little work, then drop it while the coordinator keeps requesting
        // phases.
        let mut w = db.handle(0);
        let proc = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(0), 1)));
        for _ in 0..100 {
            let _ = w.execute(proc.clone());
        }
    }
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    db.shutdown();
    assert!(started.elapsed() < Duration::from_secs(5), "shutdown must not hang");
}

/// Asymmetric phases: over a split set that has settled, joined phases last
/// a tenth of `phase_len`, so the database spends most of its time split —
/// and a read of split data, stashed at the worst moment, still completes
/// within the split phase it waited out plus the short joined phase behind
/// it.
#[test]
fn settled_split_set_spends_most_time_split_and_bounds_the_stash_wait() {
    let _serial = one_at_a_time();
    let phase_len = Duration::from_millis(20);
    let db = DoppelDb::start(DoppelConfig { workers: 1, phase_len, ..DoppelConfig::default() });
    let hot = Key::raw(0);
    db.load(hot, Value::Int(0));
    db.label_split(hot, OpKind::Add);
    let mut w = db.handle(0);
    let incr = add(hot);
    let read: Arc<dyn Procedure> =
        Arc::new(ProcedureFn::read_only("read", move |tx| tx.get(hot).map(|_| ())));

    let (mut split, mut joined) = (Duration::ZERO, Duration::ZERO);
    let mut stashed_at: HashMap<u64, Instant> = HashMap::new();
    let mut worst_wait = Duration::ZERO;
    let (started, mut last, mut calls) = (Instant::now(), Instant::now(), 0u64);
    while started.elapsed() < Duration::from_secs(1) || !stashed_at.is_empty() {
        calls += 1;
        let reading = calls % 64 == 0 && started.elapsed() < Duration::from_secs(1);
        match w.execute(Arc::clone(if reading { &read } else { &incr })) {
            Outcome::Stashed(ticket) => {
                stashed_at.insert(ticket.0, Instant::now());
            }
            outcome => assert!(outcome.is_committed(), "{outcome:?}"),
        }
        for completion in w.take_completions() {
            assert!(completion.result.is_ok());
            let waited = stashed_at.remove(&completion.ticket.0).expect("unknown ticket").elapsed();
            worst_wait = worst_wait.max(waited);
        }
        let now = Instant::now();
        match db.current_phase() {
            Phase::Split => split += now - last,
            Phase::Joined => joined += now - last,
        }
        last = now;
    }
    drop(w);
    db.shutdown();

    let share = split.as_secs_f64() / (split + joined).as_secs_f64();
    assert!(share >= 0.8, "split phases covered {share:.2} of the run ({split:?} / {joined:?})");
    assert!(db.stats().stashes > 0, "reads of the split key must have stashed");
    assert!(
        worst_wait <= 2 * phase_len,
        "a stashed read waited {worst_wait:?}, more than two phase lengths"
    );
}

/// The joined phase is short only while nothing about the split set is in
/// question: a label added or removed since the last joined phase, or a
/// conflict on a splittable operation outside the split set, buys the
/// classifier a joined phase of the full length.
#[test]
fn unsettled_split_set_gets_a_full_length_joined_phase() {
    let _serial = one_at_a_time();
    let phase_len = Duration::from_millis(20);
    let db = DoppelDb::start(DoppelConfig { workers: 1, phase_len, ..DoppelConfig::default() });
    let (first, second) = (Key::raw(0), Key::raw(1));
    db.load(first, Value::Int(0));
    db.load(second, Value::Int(0));
    db.label_split(first, OpKind::Add);
    let mut w = db.handle(0);
    // Both keys are written all along, so either stays split once labelled.
    let both: Arc<dyn Procedure> = Arc::new(ProcedureFn::new("add-both", move |tx| {
        tx.add(first, 1)?;
        tx.add(second, 1)
    }));
    let short = |d: Duration| d < phase_len / 2;
    let full = |d: Duration| d >= phase_len.mul_f64(0.9);

    // Runs whole phases until a joined phase comes out short, i.e. the split
    // set has settled; returns in the split phase behind it.
    let settle = |w: &mut dyn TxHandle| {
        for _ in 0..12 {
            if let (Phase::Joined, d) = run_phase(&db, w, &both) {
                if short(d) {
                    return;
                }
            }
        }
        panic!("the joined phase never became short");
    };
    // From inside a split phase: the length of the joined phase behind it.
    let next_joined = |w: &mut dyn TxHandle| {
        assert_eq!(run_phase(&db, w, &both).0, Phase::Split);
        let (phase, d) = run_phase(&db, w, &both);
        assert_eq!(phase, Phase::Joined);
        d
    };

    settle(w.as_mut());
    let d = next_joined(w.as_mut());
    assert!(short(d), "a settled split set keeps its joined phases short, got {d:?}");

    db.label_split(second, OpKind::Add);
    let d = next_joined(w.as_mut());
    assert!(full(d), "a new label must buy a full joined phase, got {d:?}");
    // (A key labelled mid-split-phase is judged by that phase's write sample
    // and dropped again; labelled in a joined phase it stays.)
    assert_eq!(run_phase(&db, w.as_mut(), &both).0, Phase::Split);
    db.label_split(second, OpKind::Add);
    settle(w.as_mut());
    assert_eq!(db.split_count(), 2);

    db.label_reconciled(second);
    let d = next_joined(w.as_mut());
    assert!(full(d), "a removed label must buy a full joined phase, got {d:?}");
    settle(w.as_mut());
    assert_eq!(db.split_count(), 1);

    // What a worker reports when a sampled conflict blames a splittable
    // operation on a key outside the split set (a single worker cannot
    // conflict with itself): raised as the joined phase begins.
    assert_eq!(run_phase(&db, w.as_mut(), &both).0, Phase::Split);
    db.shared().splittable_conflicts.fetch_add(1, Ordering::Relaxed);
    let (phase, d) = run_phase(&db, w.as_mut(), &both);
    assert_eq!(phase, Phase::Joined);
    assert!(full(d), "contention outside the split set must buy a full joined phase, got {d:?}");

    drop(w);
    db.shutdown();
    let total = db.stats().commits as i64;
    assert_eq!(db.global_get(first), Some(Value::Int(total)));
    assert_eq!(db.global_get(second), Some(Value::Int(total)));
}
