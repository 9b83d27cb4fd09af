//! `doppel-server`: serve a Doppel (or baseline) engine over TCP, with
//! registered stored-procedure packs.
//!
//! ```text
//! doppel-server --engine doppel --port 7777 --workers 4 --procs kv,rubis
//! ```
//!
//! Prints one `listening on <addr>` line to stdout once ready, then serves
//! until killed (or until `--seconds N` elapses, for scripted runs). Clients
//! either ship raw statement lists (`Submit`) or invoke registered
//! procedures by name (`InvokeProc`); `--procs` selects which packs are
//! registered. See the README's "Stored procedures" and "Architecture &
//! serving" sections for the wire protocol.

use doppel_common::ProcRegistry;
use doppel_rubis::{RubisData, RubisScale};
use doppel_service::{FrontEnd, ReactorConfig, Server, ServerEngine, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// The engines this server can front, with one-line descriptions for
/// `--help`.
const ENGINES: &[(&str, &str)] = &[
    ("doppel", "phase reconciliation (split contended records per core)"),
    ("occ", "Silo-style optimistic concurrency control"),
    ("2pl", "two-phase locking"),
    ("atomic", "atomic per-record operations, no transactions (baseline)"),
];

/// The registerable procedure packs, with one-line descriptions.
const PACKS: &[(&str, &str)] = &[
    ("kv", "typed key/value procedures over any table"),
    ("rubis", "the 17 RUBiS auction transactions"),
];

struct Flags {
    engine: String,
    host: String,
    port: u16,
    workers: usize,
    shards: usize,
    phase_ms: u64,
    queue_depth: usize,
    batch_max: usize,
    seconds: Option<f64>,
    durable_dir: Option<String>,
    procs: Vec<String>,
    rubis_scale: Option<String>,
    /// `None` means "default": adaptive on for the Doppel engine, off for
    /// baselines (which have no split sets or phases to tune).
    adaptive: Option<bool>,
    tuner_epoch_ms: Option<u64>,
    promote_hits: Option<u64>,
    write_queue_kb: usize,
    trace_out: Option<String>,
    stats_interval: Option<f64>,
}

impl Flags {
    /// The socket-side tuning the flags select.
    fn front_end(&self) -> FrontEnd {
        FrontEnd::Reactor(ReactorConfig { write_queue_bytes: self.write_queue_kb.max(1) * 1024 })
    }
}

fn pack_proc_names(pack: &str) -> Vec<&'static str> {
    match pack {
        "kv" => doppel_service::KV_PROCS.to_vec(),
        "rubis" => doppel_rubis::RUBIS_PROCS.to_vec(),
        _ => Vec::new(),
    }
}

fn usage() -> ! {
    println!(
        "doppel-server: serve a transactional engine over TCP\n\n\
         Usage: doppel-server [FLAGS]\n\n\
         Flags:\n\
           --engine NAME     which engine to serve (default doppel, see below)\n\
           --host ADDR       bind address (default 127.0.0.1)\n\
           --port N          TCP port; 0 picks an ephemeral port (default 7777)\n\
           --workers N       worker threads / cores (default 4)\n\
           --shards N        store shard count (default 1024)\n\
           --phase-ms MS     Doppel phase length in milliseconds (default 20)\n\
           --queue-depth N   per-core submission queue cap (default 1024)\n\
           --batch N         max procedures dequeued per batch (default 64)\n\
           --seconds S       exit after S seconds (default: run until killed)\n\
           --durable DIR     write-ahead log directory (recovers it first)\n\
           --write-queue-kb N  per-connection reply-queue cap in KiB before a\n\
                             slow client is shed (default 4096)\n\
           --procs LIST      comma-separated procedure packs (default kv)\n\
           --rubis-scale SZ  preload RUBiS data: small | paper\n\
           --adaptive        run the adaptive contention controller (the\n\
                             default for the doppel engine): learns split\n\
                             labels and phase length from live telemetry\n\
           --no-adaptive     disable the adaptive controller\n\
           --tuner-epoch-ms MS  adaptive control-loop period (default 50)\n\
           --promote-hits N  conflict-heat delta per epoch at which the\n\
                             tuner promotes a key to split (default 48;\n\
                             lower it on small hosts with low conflict\n\
                             rates)\n\
           --trace-out PATH  enable event tracing and write a Chrome\n\
                             trace-event JSON (Perfetto-loadable) on exit\n\
           --stats-interval S  print a one-line telemetry ticker to stderr\n\
                             every S seconds\n\
           --help            print this message"
    );
    println!("\nEngines:");
    for (name, desc) in ENGINES {
        println!("  {name:<8} {desc}");
    }
    println!("\nProcedure packs:");
    for (name, desc) in PACKS {
        println!("  {name:<8} {desc}");
        println!("           {}", pack_proc_names(name).join(", "));
    }
    std::process::exit(0);
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        engine: "doppel".into(),
        host: "127.0.0.1".into(),
        port: 7777,
        workers: 4,
        shards: 1024,
        phase_ms: 20,
        queue_depth: 1024,
        batch_max: 64,
        seconds: None,
        durable_dir: None,
        procs: vec!["kv".into()],
        rubis_scale: None,
        adaptive: None,
        tuner_epoch_ms: None,
        promote_hits: None,
        write_queue_kb: 4096,
        trace_out: None,
        stats_interval: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("--{name} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--engine" => flags.engine = value("engine"),
            "--host" => flags.host = value("host"),
            "--port" => flags.port = value("port").parse().expect("--port expects a port number"),
            "--workers" => {
                flags.workers = value("workers").parse().expect("--workers expects an integer")
            }
            "--shards" => flags.shards = value("shards").parse().expect("--shards expects an integer"),
            "--phase-ms" => {
                flags.phase_ms = value("phase-ms").parse().expect("--phase-ms expects an integer")
            }
            "--queue-depth" => {
                flags.queue_depth =
                    value("queue-depth").parse().expect("--queue-depth expects an integer")
            }
            "--batch" => flags.batch_max = value("batch").parse().expect("--batch expects an integer"),
            "--seconds" => {
                flags.seconds = Some(value("seconds").parse().expect("--seconds expects a number"))
            }
            "--durable" => flags.durable_dir = Some(value("durable")),
            "--write-queue-kb" => {
                flags.write_queue_kb = value("write-queue-kb")
                    .parse()
                    .expect("--write-queue-kb expects an integer")
            }
            "--procs" => {
                flags.procs = value("procs")
                    .split(',')
                    .map(|p| p.trim().to_ascii_lowercase())
                    .filter(|p| !p.is_empty())
                    .collect()
            }
            "--rubis-scale" => flags.rubis_scale = Some(value("rubis-scale")),
            "--trace-out" => flags.trace_out = Some(value("trace-out")),
            "--stats-interval" => {
                flags.stats_interval = Some(
                    value("stats-interval").parse().expect("--stats-interval expects a number"),
                )
            }
            "--adaptive" => flags.adaptive = Some(true),
            "--no-adaptive" => flags.adaptive = Some(false),
            "--tuner-epoch-ms" => {
                flags.tuner_epoch_ms = Some(
                    value("tuner-epoch-ms").parse().expect("--tuner-epoch-ms expects an integer"),
                )
            }
            "--promote-hits" => {
                flags.promote_hits =
                    Some(value("promote-hits").parse().expect("--promote-hits expects an integer"))
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    flags
}

/// Builds the registry named by `--procs`, rejecting unknown pack names with
/// the list of known ones.
fn build_registry(flags: &Flags) -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    let mut registered: Vec<&str> = Vec::new();
    for pack in &flags.procs {
        // `--procs kv,kv` means kv once; registering a pack twice would
        // trip the registry's duplicate-name assertion.
        if registered.contains(&pack.as_str()) {
            continue;
        }
        registered.push(pack);
        match pack.as_str() {
            "kv" => doppel_service::register_kv(&mut reg),
            "rubis" => doppel_rubis::register_rubis(&mut reg),
            unknown => {
                let known: Vec<&str> = PACKS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "unknown procedure pack {unknown:?} in --procs (available: {})",
                    known.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    Arc::new(reg)
}

fn rubis_scale(name: &str) -> RubisScale {
    match name {
        "small" => RubisScale::small(),
        "paper" => RubisScale::paper(),
        other => {
            eprintln!("unknown --rubis-scale {other:?} (small | paper)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let flags = parse_flags();
    // Tracing goes live before the engine starts so phase transitions from
    // the very first phase land in the export.
    if flags.trace_out.is_some() {
        doppel_telemetry::trace::set_enabled(true);
    }
    let registry = build_registry(&flags);
    let mut tuner = doppel_common::TunerConfig::default();
    if let Some(ms) = flags.tuner_epoch_ms {
        tuner.epoch = Duration::from_millis(ms);
    }
    if let Some(hits) = flags.promote_hits {
        tuner.promote_min_hits = hits;
    }
    if let Err(e) = tuner.validate() {
        eprintln!("invalid tuner configuration: {e}");
        std::process::exit(2);
    }
    let mut engine = ServerEngine::build_with_tuner(
        &flags.engine,
        flags.workers,
        flags.phase_ms,
        flags.shards,
        tuner,
    )
        .unwrap_or_else(|| {
            let known: Vec<&str> = ENGINES.iter().map(|(n, _)| *n).collect();
            eprintln!("unknown engine {:?} (available: {})", flags.engine, known.join(" | "));
            std::process::exit(2);
        })
        .with_procs(Arc::clone(&registry));

    // Adaptive contention management defaults on for Doppel: the tuner
    // learns split labels with an online control loop.
    let adaptive = flags.adaptive.unwrap_or(true) && engine.doppel.is_some();
    engine = engine.with_adaptive(adaptive);

    // Durability: recover the directory into the fresh store, then attach
    // the log so every commit (and Doppel merged delta) is logged. The same
    // log is the two-phase-commit vote log: prepared-but-undecided
    // transactions surface as in-doubt and keep their keys locked until the
    // shard router re-delivers the decision.
    if let Some(dir) = &flags.durable_dir {
        let recovered = doppel_wal::recover(dir).unwrap_or_else(|e| {
            eprintln!("recovery of {dir} failed: {e}");
            std::process::exit(1);
        });
        let in_doubt = recovered.in_doubt();
        let report = doppel_wal::replay_recovered(engine.engine.as_ref(), &recovered)
            .unwrap_or_else(|e| {
                eprintln!("replay of {dir} failed: {e}");
                std::process::exit(1);
            });
        if report.log_records() > 0 || report.checkpoint_records > 0 {
            eprintln!(
                "recovered {} checkpoint records + {} log records from {dir}",
                report.checkpoint_records,
                report.log_records()
            );
        }
        if !in_doubt.is_empty() {
            eprintln!(
                "{} in-doubt prepared transaction(s): their keys stay locked until the \
                 coordinator re-delivers the decision",
                in_doubt.len()
            );
        }
        let wal = Arc::new(
            doppel_wal::Wal::open(dir, doppel_common::DurabilityConfig::default().from_env())
                .unwrap_or_else(|e| {
                    eprintln!("cannot open WAL in {dir}: {e}");
                    std::process::exit(1);
                }),
        );
        engine.engine.attach_commit_sink(Arc::clone(&wal) as _);
        engine = engine.with_vote_log(wal).with_in_doubt(in_doubt);
    }

    // Preload RUBiS data when asked (a networked client cannot call
    // `Engine::load`; the bulk pre-population of §8.1 belongs to the server).
    if let Some(scale) = &flags.rubis_scale {
        let scale = rubis_scale(scale);
        RubisData::new(scale).load(engine.engine.as_ref());
        eprintln!(
            "preloaded RUBiS data: {} users, {} items, {} categories, {} regions",
            scale.users, scale.items, scale.categories, scale.regions
        );
    }

    let config = ServiceConfig {
        queue_depth: flags.queue_depth,
        batch_max: flags.batch_max,
        ..ServiceConfig::default()
    };
    let engine_name = engine.engine.name();
    let front_end = flags.front_end();
    let server = Server::start_with(engine, config, (flags.host.as_str(), flags.port), front_end)
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {}:{}: {e}", flags.host, flags.port);
            std::process::exit(1);
        });

    // The one line scripts parse; flush so a piped parent sees it promptly.
    println!(
        "listening on {} (engine={engine_name}, workers={}, front-end=reactor, \
         adaptive={}, procs=[{}])",
        server.local_addr(),
        flags.workers,
        if adaptive { "on" } else { "off" },
        flags.procs.join(",")
    );
    use std::io::Write;
    std::io::stdout().flush().ok();

    let server = Arc::new(server);
    let ticker_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ticker = flags.stats_interval.map(|secs| {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&ticker_stop);
        std::thread::Builder::new()
            .name("doppel-stat-ticker".into())
            .spawn(move || stats_ticker(&server, Duration::from_secs_f64(secs.max(0.05)), &stop))
            .expect("failed to spawn stats ticker")
    });

    match flags.seconds {
        Some(s) => std::thread::sleep(Duration::from_secs_f64(s)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    ticker_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(handle) = ticker {
        let _ = handle.join();
    }
    server.shutdown();
    if let Some(path) = &flags.trace_out {
        let json = doppel_telemetry::trace::export_chrome_json();
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!(
                "wrote {} bytes of trace events to {path} (load in Perfetto or chrome://tracing)",
                json.len()
            ),
            Err(e) => eprintln!("cannot write trace to {path}: {e}"),
        }
    }
    let stats = server.service().stats();
    eprintln!(
        "served {} commits, {} conflicts, {} enqueued, {} busy rejections",
        stats.commits, stats.conflicts, stats.queue_enqueued, stats.queue_busy_rejections
    );
    let net = server.net_stats();
    eprintln!(
        "front-end: {} conns accepted, {} accept errors, {} shed, {} protocol errors",
        net.conns_accepted, net.accept_errors, net.conns_shed, net.decode_errors
    );
    // Per-procedure accounting: one line per invoked procedure.
    for proc in server.procs().stats() {
        if proc.invocations > 0 {
            eprintln!(
                "proc {}: {} invocations, {} commits, {} aborts, {} deferrals",
                proc.name, proc.invocations, proc.commits, proc.aborts, proc.deferrals
            );
        }
    }
}

/// The `--stats-interval` loop: one line per interval with the rates and
/// latencies an operator watches first. Interval rates come from
/// counter deltas; the p99 from the bucket-wise histogram delta, so it
/// reflects only this interval's executions.
fn stats_ticker(
    server: &Server,
    interval: Duration,
    stop: &std::sync::atomic::AtomicBool,
) {
    let mut prev = server.telemetry_snapshot();
    let mut prev_at = std::time::Instant::now();
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(interval);
        let cur = server.telemetry_snapshot();
        let now = std::time::Instant::now();
        let secs = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        let rate = |name: &str| {
            let delta = cur.scalar(name).unwrap_or(0).saturating_sub(prev.scalar(name).unwrap_or(0));
            delta as f64 / secs
        };
        let aborts = rate("conflicts") + rate("user_aborts");
        // Transactions stashed but not yet replayed (approximate: replay
        // aborts also leave the stash, so this is an upper bound).
        let backlog = cur
            .scalar("stashes")
            .unwrap_or(0)
            .saturating_sub(cur.scalar("stash_commits").unwrap_or(0));
        let p99_us = match (cur.hist("exec"), prev.hist("exec")) {
            (Some(c), Some(p)) => c.delta(p).quantile_us(0.99),
            (Some(c), None) => c.quantile_us(0.99),
            _ => 0,
        };
        eprintln!(
            "stat: {:.0} commits/s, {:.0} aborts/s, phase={}, stash backlog={}, exec p99={}us",
            rate("commits"),
            aborts,
            cur.phase,
            backlog,
            p99_us,
        );
        prev = cur;
        prev_at = now;
    }
}
