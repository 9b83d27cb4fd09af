//! Differential test for the adaptive contention controller: the same
//! deterministic increment workload, run once with the tuner live (zero
//! manual hints) and once with an oracle labelling (every hot key split up
//! front), must leave byte-identical final stores.
//!
//! Splittable increments commute, so whatever the tuner decides — promote
//! late, demote early, steer the phase length, or do nothing at all on a
//! quiet host — the committed effects must survive every split/merge cycle
//! it causes. The workload migrates its hot set halfway through precisely
//! to make the controller act while transactions are in flight.

use doppel_common::{
    DoppelConfig, Engine, Key, OpKind, Outcome, ProcedureFn, TuneSink, TunerConfig, TxError, Value,
};
use doppel_db::DoppelDb;
use doppel_tuner::TunerHandle;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
/// Commits per thread per phase; divisible by the hot-set size so every
/// key in the set receives exactly the same number of increments, and enough
/// of them that the run outlasts several 20 ms tuner epochs at a few hundred
/// nanoseconds per commit.
const PER_PHASE: u64 = 20_000;
const FIRST: [u64; 2] = [3, 4];
const SECOND: [u64; 2] = [7_000, 7_001];

fn config() -> DoppelConfig {
    DoppelConfig {
        workers: WORKERS,
        phase_len: Duration::from_millis(5),
        tuner: TunerConfig {
            epoch: Duration::from_millis(20),
            promote_min_hits: 2,
            demote_idle_epochs: 2,
            ..TunerConfig::default()
        },
        ..DoppelConfig::default()
    }
}

/// Hammers `FIRST` and then `SECOND` from every worker, retrying until each
/// thread lands exactly `PER_PHASE` commits per phase, round-robin across
/// the set — so the final value of every hot key is exactly
/// `WORKERS * PER_PHASE / set.len()` no matter how execution interleaved.
fn drive(db: &Arc<DoppelDb>) {
    let mut threads = Vec::new();
    for core in 0..WORKERS {
        let db = Arc::clone(db);
        threads.push(std::thread::spawn(move || {
            let mut w = db.handle(core);
            for set in [FIRST, SECOND] {
                let mut committed = 0u64;
                loop {
                    let key = Key::raw(set[(committed % set.len() as u64) as usize]);
                    let proc = Arc::new(ProcedureFn::new("incr", move |tx| tx.add(key, 1)));
                    match w.execute(proc) {
                        Outcome::Committed(_) => {
                            committed += 1;
                            if committed == PER_PHASE {
                                break;
                            }
                        }
                        Outcome::Aborted(TxError::Shutdown) => return,
                        _ => {}
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
}

fn load(db: &DoppelDb) {
    for id in FIRST.iter().chain(&SECOND) {
        db.load(Key::raw(*id), Value::Int(0));
    }
}

fn final_store(db: &DoppelDb) -> Vec<(u64, Option<Value>)> {
    FIRST.iter().chain(&SECOND).map(|id| (*id, db.global_get(Key::raw(*id)))).collect()
}

#[test]
fn adaptive_and_oracle_runs_produce_identical_stores() {
    // Adaptive: no labels; the control loop watches telemetry and decides.
    let adaptive_db = Arc::new(DoppelDb::start(config()));
    load(&adaptive_db);
    let registry = adaptive_db.telemetry().expect("doppel always has a telemetry registry");
    let mut tuner = TunerHandle::spawn(
        adaptive_db.config().tuner.clone(),
        Arc::clone(&adaptive_db) as Arc<dyn TuneSink>,
        registry,
    );
    drive(&adaptive_db);
    // On a fast host the workload can end inside the first epoch; the loop
    // keeps ticking on the idle engine, so give it that one epoch.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tuner.status().epochs == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = tuner.status();
    tuner.stop();
    adaptive_db.shutdown();

    assert!(status.epochs > 0, "the control loop must tick");
    let cfg = config().tuner;
    assert!(
        status.phase_len >= cfg.min_phase_len && status.phase_len <= cfg.max_phase_len,
        "tuned phase length {:?} must respect the configured bounds",
        status.phase_len
    );

    // Oracle: every key that will ever be hot is labelled before the first
    // transaction — the upper bound a perfect manual hint could reach.
    let oracle_db = Arc::new(DoppelDb::start(config()));
    load(&oracle_db);
    for id in FIRST.iter().chain(&SECOND) {
        oracle_db.label_split(Key::raw(*id), OpKind::Add);
    }
    drive(&oracle_db);
    oracle_db.shutdown();

    // Both stores must hold the exact deterministic totals: increments
    // commute, so no tuner decision may lose or duplicate one.
    let expected = WORKERS as u64 * PER_PHASE / FIRST.len() as u64;
    let adaptive_store = final_store(&adaptive_db);
    let oracle_store = final_store(&oracle_db);
    for (id, value) in &adaptive_store {
        assert_eq!(
            value.as_ref().and_then(Value::as_int),
            Some(expected as i64),
            "adaptive run lost increments on key {id} (tuner decisions: {:?})",
            status.decisions
        );
    }
    assert_eq!(adaptive_store, oracle_store, "adaptive and oracle stores diverged");
}
