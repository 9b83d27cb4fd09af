//! ADAPTIVE experiment: the adaptive contention controller versus an oracle
//! labelling on a migrating hot set.
//!
//! The workload is [`AdaptiveWorkload`]: most increments hit a small hot set
//! of auction items whose identity rotates mid-run. Two Doppel runs compare:
//!
//! * **adaptive** — zero manual hints; a [`doppel_tuner::Tuner`] control loop
//!   samples the engine's telemetry every epoch and promotes/demotes split
//!   labels (and steers phase length) online;
//! * **oracle** — every item that will ever be hot is labelled split up
//!   front, via the workload's deterministic rotation schedule. This is the
//!   upper bound a perfect static labelling could reach.
//!
//! The headline number is the ratio: adaptive throughput as a fraction of
//! oracle throughput, with zero configuration.
//!
//! Run with `--help` (`cargo run --release --bin adaptive -- --help`)
//! for the full flag list.

use doppel_bench::{emit, Args, ExperimentConfig};
use doppel_common::{DoppelConfig, Engine, TuneSink};
use doppel_db::DoppelDb;
use doppel_tuner::TunerHandle;
use doppel_workloads::driver::Driver;
use doppel_workloads::report::{Cell, Table};
use doppel_workloads::AdaptiveWorkload;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args = Args::from_env_or_usage(
        "ADAPTIVE: tuner-learned split labels vs an oracle labelling on a migrating hot set",
        &[
            "  --rotate-secs S  rotate the hot set every S seconds",
            "  --hot F          fraction of transactions writing the hot set",
            "  --hot-items N    size of the hot set",
            "  --tuner-epoch-ms MS  tuner control-loop period",
            "  --promote-hits N     conflict-heat delta per epoch that promotes a key",
        ],
    );
    let mut config = ExperimentConfig::from_args(&args);
    if !args.flag("full") && args.get("seconds").is_none() {
        // Long enough for several tuner epochs on either side of a rotation.
        config.seconds = 4.0;
    }
    if !args.flag("full") && args.get("keys").is_none() {
        config.keys = 10_000;
    }
    let rotate = Duration::from_secs_f64(
        args.get_f64("rotate-secs", if args.flag("full") { 5.0 } else { config.seconds / 2.0 }),
    );
    let hot = args.get_f64("hot", 0.95);
    let hot_items = args.get_usize("hot-items", 2);

    let workload =
        AdaptiveWorkload::new(config.keys, hot_items, hot).with_rotation(rotate);
    let epochs = workload.epochs_in(Duration::from_secs_f64(config.seconds));
    let oracle_labels = workload.oracle_labels(epochs);

    // The control loop's sensitivity is workload- and host-relative: a
    // conflict rate that saturates 20 physical cores is unreachable on a
    // small CI box, so the promote threshold and epoch are flags with
    // defaults scaled for modest hosts (a longer epoch accumulates enough
    // heat per decision for promotion to trigger at low conflict rates).
    let mut tuner_cfg = doppel_common::TunerConfig {
        epoch: Duration::from_millis(args.get_u64("tuner-epoch-ms", 250)),
        promote_min_hits: args.get_u64("promote-hits", 4),
        ..Default::default()
    };
    tuner_cfg.max_phase_len = tuner_cfg.max_phase_len.max(config.phase_len);
    let doppel_config = DoppelConfig {
        workers: config.cores,
        store_shards: config.shards,
        phase_len: config.phase_len,
        tuner: tuner_cfg,
        ..Default::default()
    };
    doppel_config.validate().expect("experiment config must validate");

    // Adaptive run: no hints, the control loop learns the labels online.
    let db = Arc::new(DoppelDb::start(doppel_config.clone()));
    let registry = db.telemetry().expect("doppel always has a telemetry registry");
    let mut tuner = TunerHandle::spawn(
        db.config().tuner.clone(),
        Arc::clone(&db) as Arc<dyn TuneSink>,
        registry,
    );
    let adaptive = Driver::run(db.as_ref(), &workload, &config.bench_options());
    let status = tuner.status();
    tuner.stop();
    let adaptive_splits = db.split_keys().len();
    db.shutdown();
    eprintln!(
        "  adaptive: {:.0} txns/s ({} conflicts, {} stashes), {} tuner epochs, {} decision(s), \
         {} key(s) split at end",
        adaptive.throughput,
        adaptive.engine_stats.conflicts,
        adaptive.engine_stats.stashes,
        status.epochs,
        status.decisions.len(),
        adaptive_splits
    );
    for d in &status.decisions {
        eprintln!("    {d}");
    }

    // Oracle run: the full rotation schedule labelled split before a single
    // transaction executes.
    let db = DoppelDb::start(doppel_config);
    for (key, kind) in &oracle_labels {
        db.label_split(*key, *kind);
    }
    let oracle = Driver::run(&db, &workload, &config.bench_options());
    db.shutdown();
    eprintln!(
        "  oracle:   {:.0} txns/s ({} labels fed up front)",
        oracle.throughput,
        oracle_labels.len()
    );

    let ratio = if oracle.throughput > 0.0 { adaptive.throughput / oracle.throughput } else { 0.0 };
    let mut table = Table::new(
        format!(
            "ADAPTIVE: {} items, hot set {hot_items}x{:.0}% rotating every {:.1}s, {} cores, \
             {:.1}s runs — adaptive reaches {:.0}% of oracle",
            config.keys,
            hot * 100.0,
            rotate.as_secs_f64(),
            config.cores,
            config.seconds,
            ratio * 100.0
        ),
        &["engine", "throughput", "tuner epochs", "decisions", "split labels"],
    );
    table.push_row(vec![
        Cell::Text("Doppel (adaptive)".into()),
        Cell::Mtps(adaptive.throughput),
        Cell::Int(status.epochs as i64),
        Cell::Int(status.decisions.len() as i64),
        Cell::Int(adaptive_splits as i64),
    ]);
    table.push_row(vec![
        Cell::Text("Doppel (oracle)".into()),
        Cell::Mtps(oracle.throughput),
        Cell::Int(0),
        Cell::Int(0),
        Cell::Int(oracle_labels.len() as i64),
    ]);
    emit(&table, "adaptive", &args);
    println!("adaptive/oracle throughput ratio: {:.2}", ratio);
}
