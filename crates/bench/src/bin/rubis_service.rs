//! Networked RUBiS: the bidding mix over TCP via `InvokeProc`.
//!
//! For each engine the binary starts a real `Server` (the `doppel-server`
//! guts) with the RUBiS procedure pack registered and the dataset preloaded,
//! then drives it from per-core client threads over actual sockets. Clients
//! pipeline `--pipeline` invocations per batch (`RemoteClient::submit_batch`
//! writes every frame before the first wait), so the wire round trip is
//! amortised across a window instead of paid per transaction. Latency is
//! measured from each batch's submission instant to each completion.
//!
//! Next to throughput and the p50/p95/p99 tail, the run prints the
//! per-procedure statistics table (invocations / commits / aborts /
//! stash-deferrals per registered RUBiS transaction) — the accounting the
//! procedure registry provides for free.
//!
//! Run with `--help` (`cargo run --release --bin rubis_service -- --help`)
//! for the full flag list.

use doppel_bench::{emit, Args, EngineKind, ExperimentConfig};
use doppel_rubis::{rubis_registry, RubisData, RubisScale, RubisWorkload, TxnStyle};
use doppel_service::{RemoteClient, RemoteOutcome, Server, ServerEngine, ServiceConfig};
use doppel_workloads::hist::Histogram;
use doppel_workloads::report::{
    alloc_stat_cells, latency_cells, proc_stats_table, service_stat_cells, Cell, Table,
    ALLOC_STAT_COLUMNS, LATENCY_COLUMNS, SERVICE_STAT_COLUMNS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct ClientTally {
    committed: u64,
    aborted: u64,
    rejected: u64,
    latency: Histogram,
}

fn main() {
    let args = Args::from_env_or_usage_excluding(
        "Networked RUBiS: the bidding mix over TCP via InvokeProc, pipelined batches",
        &["keys"],
        &[
            "  --engines LIST   comma-separated engines (default doppel,occ)",
            "  --pipeline N     invocations pipelined per batch (default 32)",
            "  --classic        use the classic read-modify-write transaction style",
        ],
    );
    let config = ExperimentConfig::from_args(&args);
    let pipeline = args.get_usize("pipeline", 32).max(1);
    let style = if args.flag("classic") { TxnStyle::Classic } else { TxnStyle::Doppel };
    let scale = if args.flag("full") {
        RubisScale::paper()
    } else {
        RubisScale { users: 2_000, items: 200, categories: 5, regions: 4 }
    };
    let engines: Vec<EngineKind> = args
        .get("engines")
        .unwrap_or("doppel,occ")
        .split(',')
        .map(|name| {
            EngineKind::from_name(name.trim())
                .unwrap_or_else(|| panic!("unknown engine {name:?} in --engines"))
        })
        .collect();
    let workload = RubisWorkload::bidding(scale, style);

    let mut table = Table::new(
        format!(
            "Networked RUBiS-B[{style:?}] via InvokeProc ({} clients, pipeline {}, {} users, \
             {} items, {:.1}s per engine)",
            config.cores, pipeline, scale.users, scale.items, config.seconds
        ),
        &[
            &["engine", "done/s", "aborts", "rejected"][..],
            LATENCY_COLUMNS,
            SERVICE_STAT_COLUMNS,
            ALLOC_STAT_COLUMNS,
        ]
        .concat(),
    );

    for kind in &engines {
        // The server side: a fresh engine with the RUBiS pack registered and
        // the dataset preloaded (a remote client cannot call Engine::load).
        let registry = rubis_registry();
        let engine = ServerEngine::build(
            &kind.label().to_ascii_lowercase(),
            config.cores,
            config.phase_len.as_millis() as u64,
            config.shards,
        )
        .expect("known engine")
        .with_procs(Arc::clone(&registry));
        RubisData::new(scale).load(engine.engine.as_ref());
        let server =
            Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind server");
        let addr = server.local_addr();

        let duration = Duration::from_secs_f64(config.seconds);
        // Snapshot before the measured window so the reported counters are a
        // delta over it — the dataset load above commits transactions too,
        // and those must not pollute the service columns.
        let stats_before = server.service().stats();
        // Allocation window covers this engine's measured run: clients,
        // server threads and engine workers all count into the process total.
        let alloc_cp = doppel_common::AllocCheckpoint::now();
        let started = Instant::now();
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(config.cores);
            for core in 0..config.cores {
                let mut gen = workload.call_generator(core, 0xD0_99E1 + core as u64);
                let join = scope.spawn(move || {
                    let mut client = RemoteClient::connect(addr).expect("connect to server");
                    let mut tally = ClientTally::default();
                    let deadline = started + duration;
                    let mut batch: Vec<(&str, doppel_common::Args)> =
                        Vec::with_capacity(pipeline);
                    while Instant::now() < deadline {
                        batch.clear();
                        for _ in 0..pipeline {
                            let call = gen.next_call();
                            batch.push((call.name, call.args));
                        }
                        let submitted = Instant::now();
                        let ids = client.submit_batch(&batch).expect("submit batch");
                        for id in ids.iter() {
                            match client.wait(*id).expect("completion") {
                                RemoteOutcome::Committed { .. } => {
                                    tally.committed += 1;
                                    tally.latency.record(submitted.elapsed());
                                }
                                RemoteOutcome::Aborted { .. } => tally.aborted += 1,
                                RemoteOutcome::Rejected { .. } => tally.rejected += 1,
                            }
                        }
                    }
                    tally
                });
                joins.push(join);
            }
            joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let (alloc_count, alloc_bytes) = alloc_cp.delta();

        let mut totals = ClientTally::default();
        for t in &tallies {
            totals.committed += t.committed;
            totals.aborted += t.aborted;
            totals.rejected += t.rejected;
            totals.latency.merge(&t.latency);
        }
        let stats = server
            .service()
            .stats()
            .delta(&stats_before)
            .with_alloc_counters(alloc_count, alloc_bytes);
        server.shutdown();

        let mut row = vec![
            Cell::Text(kind.label().to_string()),
            Cell::Mtps(totals.committed as f64 / elapsed),
            Cell::Int(totals.aborted as i64),
            Cell::Int(totals.rejected as i64),
        ];
        row.extend(latency_cells(&totals.latency.summary()));
        row.extend(service_stat_cells(&stats));
        row.extend(alloc_stat_cells(&stats));
        table.push_row(row);

        // The per-procedure accounting the registry keeps for free.
        println!(
            "{}",
            proc_stats_table(format!("{} per-procedure statistics", kind.label()), &registry.stats())
        );
    }

    emit(&table, "rubis_service", &args);
}
