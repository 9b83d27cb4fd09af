//! Connection scaling: many open connections on the per-core serving loops.
//!
//! Every connection is owned by one engine core's loop, which reads its
//! frames, executes them and writes the replies. This experiment scales the
//! open-connection count and reports throughput and tail latency at each
//! point, plus the front-end health counters (shed connections, accept
//! errors) so a degraded run is visible as such.
//!
//! Each client thread owns a slice of the connections and drives them in
//! pipelined windows: it submits `--pipeline` transactions on *every* owned
//! connection before waiting on any, so all connections have bytes in flight
//! simultaneously — the shape that exposes a front-end's multiplexing cost,
//! not the engine's (a tiny add/get transaction keeps the engine out of the
//! way).
//!
//! Run with `--help` (`cargo run --release --bin connections -- --help`)
//! for the full flag list.

use doppel_bench::{emit, Args, ExperimentConfig};
use doppel_service::{
    RemoteClient, RemoteOutcome, RemoteTxn, Server, ServerEngine, ServiceConfig,
};
use doppel_workloads::hist::Histogram;
use doppel_workloads::report::{
    alloc_stat_cells, latency_cells, Cell, Table, ALLOC_STAT_COLUMNS, LATENCY_COLUMNS,
};
use std::time::{Duration, Instant};

#[derive(Default)]
struct ClientTally {
    committed: u64,
    aborted: u64,
    rejected: u64,
    dead_conns: u64,
    latency: Histogram,
}

/// One pipelined window on one connection: submit every transaction, then
/// wait for every completion. Any I/O error means the server hung up on this
/// connection (e.g. shed); the caller retires it.
fn drive_window(
    client: &mut RemoteClient,
    txn: &RemoteTxn,
    pipeline: usize,
    tally: &mut ClientTally,
) -> bool {
    let submitted = Instant::now();
    let mut ids = Vec::with_capacity(pipeline);
    for _ in 0..pipeline {
        match client.submit(txn) {
            Ok(id) => ids.push(id),
            Err(_) => {
                tally.dead_conns += 1;
                return false;
            }
        }
    }
    for id in ids {
        match client.wait(id) {
            Ok(RemoteOutcome::Committed { .. }) => {
                tally.committed += 1;
                tally.latency.record(submitted.elapsed());
            }
            Ok(RemoteOutcome::Aborted { .. }) => tally.aborted += 1,
            Ok(RemoteOutcome::Rejected { .. }) => tally.rejected += 1,
            Err(_) => {
                tally.dead_conns += 1;
                return false;
            }
        }
    }
    true
}

fn main() {
    let args = Args::from_env_or_usage_excluding(
        "Connection scaling: open connections on the per-core serving loops",
        &["keys"],
        &[
            "  --conns LIST     comma-separated connection counts (default 4,16,64)",
            "  --pipeline N     transactions pipelined per window (default 16)",
            "  --engine NAME    engine behind the service (default occ)",
        ],
    );
    let config = ExperimentConfig::from_args(&args);
    let pipeline = args.get_usize("pipeline", 16).max(1);
    let engine_name = args.get("engine").unwrap_or("occ").to_string();
    let conn_counts: Vec<usize> = args
        .get("conns")
        .unwrap_or("4,16,64")
        .split(',')
        .map(|n| n.trim().parse().expect("--conns expects a comma-separated list of integers"))
        .filter(|&n| n > 0)
        .collect();

    let mut table = Table::new(
        format!(
            "Connection scaling ({engine_name}, pipeline {}, {} client threads, {:.1}s per cell)",
            pipeline, config.cores, config.seconds
        ),
        &[
            &["conns", "done/s", "rejected", "dead"][..],
            LATENCY_COLUMNS,
            &["shed", "acc-err"][..],
            ALLOC_STAT_COLUMNS,
        ]
        .concat(),
    );

    for &conns in &conn_counts {
        let engine = ServerEngine::build(
            &engine_name,
            config.cores,
            config.phase_len.as_millis() as u64,
            config.shards,
        )
        .unwrap_or_else(|| panic!("unknown engine {engine_name:?}"));
        let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0")
            .expect("bind server");
        let addr = server.local_addr();

        // Client threads each own a slice of the connections.
        let threads = config.cores.min(conns).max(1);
        let stats_before = server.service().stats();
        let duration = Duration::from_secs_f64(config.seconds);
        // Allocation window per cell: covers clients, front-end and
        // engine workers together.
        let alloc_cp = doppel_common::AllocCheckpoint::now();
        let started = Instant::now();
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(threads);
            for t in 0..threads {
                let owned = (conns + threads - 1 - t) / threads;
                let join = scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut clients: Vec<RemoteClient> = (0..owned)
                        .filter_map(|_| RemoteClient::connect(addr).ok())
                        .collect();
                    tally.dead_conns += (owned - clients.len()) as u64;
                    // Spread each connection over its own key to keep
                    // engine-side conflicts out of the measurement.
                    let txns: Vec<RemoteTxn> = (0..clients.len())
                        .map(|i| {
                            let key = doppel_common::Key::from((t * conns + i) as u64);
                            RemoteTxn::new().add(key, 1).get(key)
                        })
                        .collect();
                    let deadline = started + duration;
                    while Instant::now() < deadline && !clients.is_empty() {
                        let mut alive = Vec::with_capacity(clients.len());
                        for (mut client, txn) in clients.into_iter().zip(&txns) {
                            if drive_window(&mut client, txn, pipeline, &mut tally) {
                                alive.push(client);
                            }
                        }
                        clients = alive;
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
            totals.dead_conns += t.dead_conns;
            totals.latency.merge(&t.latency);
        }
        let net = server.net_stats();
        // The measured window's engine-side counters: the same
        // before/after delta the in-process drivers report, so the alloc
        // cells (including allocs-per-committed-txn) render uniformly.
        let stats = server
            .service()
            .stats()
            .delta(&stats_before)
            .with_alloc_counters(alloc_count, alloc_bytes);
        server.shutdown();

        let mut row = vec![
            Cell::Int(conns as i64),
            Cell::Mtps(totals.committed as f64 / elapsed),
            Cell::Int(totals.rejected as i64),
            Cell::Int(totals.dead_conns as i64),
        ];
        row.extend(latency_cells(&totals.latency.summary()));
        row.push(Cell::Int(net.conns_shed as i64));
        row.push(Cell::Int(net.accept_errors as i64));
        row.extend(alloc_stat_cells(&stats));
        table.push_row(row);
    }

    emit(&table, "connections", &args);
}
