//! `shard_durable`: one `ShardRouter` on one client thread over two
//! in-process shard servers, each wired as `doppel-server --durable` wires
//! it (the WAL is both commit sink and 2PC vote log). Batches of 32 through
//! `execute_many`: 30 % single-shard adds (direct), 50 % two-shard add+add
//! (commutative fast path), 20 % two-shard put+add (two-phase commit).
//! I/O-bound: group commit for the first two, a forced fsync per vote and
//! decision for the third.

use crate::layers::{self, hist_delta, Layers};
use crate::measure::{AllocWindow, ClientReport, SliceClock, Span, STOP};
use crate::run::{Generated, Workload};
use crate::sys::{self, InputHash, Rng};
use doppel_common::{DoppelConfig, DurabilityConfig, Engine, Key, Op, ShardMap, Value};
use doppel_db::DoppelDb;
use doppel_service::wire::{ClientMsg, ServerMsg, WireDone, WireStmt};
use doppel_service::{
    FrontEnd, ReactorConfig, RemoteClient, RemoteTxn, Server, ServerEngine, ServiceConfig,
    ShardRouter, TelemetrySnapshot,
};
use doppel_wal::Wal;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Sized so that a set-up takes 0.3 s like the other workloads' (at 200,000
/// it took 0.09 s, most of it thread spawns and page-cache state).
pub const KEYS_PER_SHARD: usize = 500_000;
/// The first keys of each shard only ever receive `put`s, the rest `add`s.
pub const PUT_KEYS_PER_SHARD: usize = 20_000;
pub const BATCH: usize = 32;
/// Transactions are generated in blocks of five batches holding exactly
/// 48 direct, 80 fast-path and 32 two-phase transactions, shuffled; the
/// client stops only between blocks, so route shares are exact.
pub const BLOCK: usize = 5 * BATCH;
pub const BLOCK_MIX: (usize, usize, usize) = (48, 80, 32);
pub const POOL_BLOCKS: usize = 1_000;
/// Manual prepare/decide rounds for the `twopc.*` spans.
pub const TWOPC_ROUNDS: u64 = 100;

const DIRECT: u8 = 0;
const FAST: u8 = 1;
const TWO_PHASE: u8 = 2;

pub struct Input {
    txns: Vec<RemoteTxn>,
    route: Vec<u8>,
    /// Every preloaded key, by owning shard.
    keys: Vec<Vec<Key>>,
}

pub struct Fixture {
    servers: Vec<Server>,
    engines: Vec<Arc<dyn Engine>>,
    dirs: Vec<PathBuf>,
    addrs: Vec<String>,
    router: Option<ShardRouter>,
    /// Routes taken by routers other than the load's (set-up call, probes).
    other_routes: [u64; 3],
    /// What the manual 2PC probe rounds added to their own keys.
    probe_adds: i64,
}

pub struct ShardDurable;

fn engine_config() -> DoppelConfig {
    DoppelConfig {
        workers: 1,
        store_shards: 1024,
        phase_len: Duration::from_millis(20),
        ..DoppelConfig::default()
    }
}

/// Keys outside every pool (whose ids stay far below 2^40), one per shard,
/// for the manual 2PC rounds.
fn probe_keys() -> Vec<Key> {
    let map = ShardMap::new(SHARDS);
    (0..SHARDS)
        .map(|s| {
            (1u64 << 40..)
                .map(Key::raw)
                .find(|k| map.shard_of(*k) == s)
                .expect("a key on every shard")
        })
        .collect()
}

fn merged_stats(servers: &[Server]) -> TelemetrySnapshot {
    let mut merged = TelemetrySnapshot::default();
    for server in servers {
        merged.merge(&server.telemetry_snapshot());
    }
    merged
}

fn client_loop(
    mut router: ShardRouter,
    input: &Input,
    clock: &SliceClock,
    slices: usize,
) -> Result<ClientReport, String> {
    let mut report = ClientReport::new(slices, 1 << 16);
    let origin = Instant::now();
    let before = router.routes();
    let mut allocs = AllocWindow::default();
    let mut cursor = 0usize;
    let mut batch_id = 0u32;
    loop {
        if clock.now() == STOP {
            break;
        }
        for _ in 0..BLOCK / BATCH {
            let slice = clock.now();
            let traced = clock.traced();
            allocs.observe(slice, traced, &mut report);
            let batch = &input.txns[cursor..cursor + BATCH];
            let t0 = Instant::now();
            let outcomes = router
                .execute_many(batch)
                .map_err(|e| format!("router I/O: {e}"))?;
            let ns = t0.elapsed().as_nanos() as u64;
            let done_slice = clock.now();
            for (j, outcome) in outcomes.iter().enumerate() {
                report.attempted += 1;
                if outcome.is_committed() {
                    report.commit(done_slice, Some(ns));
                } else {
                    report.failed += 1;
                    report.never_committed.push(report.issued + j as u64);
                }
            }
            report.issued += BATCH as u64;
            cursor = (cursor + BATCH) % input.txns.len();
            if traced {
                report.batch_s += ns as f64 / 1e9;
                report.submit_s += ns as f64 / 1e9;
                report.traced_txns += BATCH as u64;
                batch_id += 1;
                let start_ns = t0.duration_since(origin).as_nanos() as u64;
                report.span(Span {
                    name: "execute_many",
                    parent: 0,
                    id: batch_id,
                    start_ns,
                    end_ns: start_ns + ns,
                });
            }
        }
    }
    allocs.finish(&mut report);
    let after = router.routes();
    report.extra = vec![
        after.direct - before.direct,
        after.fast_path - before.fast_path,
        after.two_phase - before.two_phase,
    ];
    Ok(report)
}

impl Workload for ShardDurable {
    const NAME: &'static str = "shard_durable";
    type Input = Input;
    type Fixture = Fixture;

    fn config() -> Vec<(&'static str, String)> {
        vec![
            ("shards", format!("{SHARDS} in-process servers, ServerEngine::build(\"doppel\", 1, 20, 1024).with_adaptive(true)")),
            ("durability", format!("Wal::open(dir, {:?}) as commit sink and vote log", DurabilityConfig::default())),
            ("service", format!("{:?}, FrontEnd::Reactor({:?}), 127.0.0.1:0", ServiceConfig::default(), ReactorConfig::default())),
            ("client", format!("one ShardRouter on one thread, execute_many batches of {BATCH}")),
            ("keys_per_shard", format!("{KEYS_PER_SHARD} preloaded Int(0), the first {PUT_KEYS_PER_SHARD} put-only")),
            ("mix_direct/fast/2pc_per_block", format!("{}/{}/{} of {BLOCK}", BLOCK_MIX.0, BLOCK_MIX.1, BLOCK_MIX.2)),
            ("pool_txns", (POOL_BLOCKS * BLOCK).to_string()),
        ]
    }

    fn generate(seed: u64) -> Generated<Input> {
        let map = ShardMap::new(SHARDS);
        let mut keys: Vec<Vec<Key>> = (0..SHARDS)
            .map(|_| Vec::with_capacity(KEYS_PER_SHARD))
            .collect();
        for id in 0u64.. {
            let k = Key::raw(id);
            let s = map.shard_of(k);
            if keys[s].len() < KEYS_PER_SHARD {
                keys[s].push(k);
            } else if keys.iter().all(|ks| ks.len() == KEYS_PER_SHARD) {
                break;
            }
        }
        let mut rng = Rng::new(seed);
        let mut hash = InputHash::default();
        let add_key = |rng: &mut Rng, s: usize| {
            keys[s][PUT_KEYS_PER_SHARD
                + rng.below((KEYS_PER_SHARD - PUT_KEYS_PER_SHARD) as u64) as usize]
        };
        let mut txns = Vec::with_capacity(POOL_BLOCKS * BLOCK);
        let mut route = Vec::with_capacity(POOL_BLOCKS * BLOCK);
        let mut kinds: Vec<u8> = Vec::with_capacity(BLOCK);
        for _ in 0..POOL_BLOCKS {
            kinds.clear();
            kinds.extend(std::iter::repeat_n(DIRECT, BLOCK_MIX.0));
            kinds.extend(std::iter::repeat_n(FAST, BLOCK_MIX.1));
            kinds.extend(std::iter::repeat_n(TWO_PHASE, BLOCK_MIX.2));
            rng.shuffle(&mut kinds);
            for kind in &kinds {
                let s = rng.below(SHARDS as u64) as usize;
                let (d1, d2) = (1 + rng.below(9) as i64, 1 + rng.below(9) as i64);
                let txn = match *kind {
                    DIRECT => RemoteTxn::new().add(add_key(&mut rng, s), d1),
                    FAST => RemoteTxn::new()
                        .add(add_key(&mut rng, s), d1)
                        .add(add_key(&mut rng, 1 - s), d2),
                    _ => {
                        let put = keys[s][rng.below(PUT_KEYS_PER_SHARD as u64) as usize];
                        RemoteTxn::new()
                            .put(put, Value::Int(1 + rng.below(1_000_000) as i64))
                            .add(add_key(&mut rng, 1 - s), d2)
                    }
                };
                for stmt in txn.stmts() {
                    if let WireStmt::Write(k, op) = stmt {
                        hash.feed(k.id());
                        hash.feed(match op {
                            Op::Add(n) => *n as u64,
                            Op::Put(Value::Int(n)) => *n as u64 | 1 << 63,
                            _ => 0,
                        });
                    }
                }
                txns.push(txn);
                route.push(*kind);
            }
        }
        let calls = txns.len() as u64;
        Generated {
            input: Input { txns, route, keys },
            hash: hash.low32(),
            calls,
        }
    }

    fn setup(input: &Arc<Input>, scratch: &Path, nth: usize) -> Result<Fixture, String> {
        let (mut servers, mut engines, mut dirs, mut addrs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for s in 0..SHARDS {
            let dir = scratch
                .join(format!("setup-{nth}"))
                .join(format!("shard-{s}"));
            let mut built = ServerEngine::build("doppel", 1, 20, 1024)
                .expect("doppel is a known engine")
                .with_adaptive(true);
            // As `doppel-server --durable DIR`: recover, replay, then open
            // the log as commit sink and vote log.
            let recovered =
                doppel_wal::recover(&dir).map_err(|e| format!("recover {}: {e}", dir.display()))?;
            let in_doubt = recovered.in_doubt();
            doppel_wal::replay_recovered(built.engine.as_ref(), &recovered)
                .map_err(|e| format!("replay: {e}"))?;
            let wal = Arc::new(
                Wal::open(&dir, DurabilityConfig::default())
                    .map_err(|e| format!("open WAL in {}: {e}", dir.display()))?,
            );
            built.engine.attach_commit_sink(Arc::clone(&wal) as _);
            built = built.with_vote_log(wal).with_in_doubt(in_doubt);
            for k in &input.keys[s] {
                built.engine.load(*k, Value::Int(0));
            }
            engines.push(Arc::clone(&built.engine));
            let server = Server::start_with(
                built,
                ServiceConfig::default(),
                "127.0.0.1:0",
                FrontEnd::Reactor(ReactorConfig::default()),
            )
            .map_err(|e| format!("cannot start shard {s}: {e}"))?;
            addrs.push(server.local_addr().to_string());
            servers.push(server);
            dirs.push(dir);
        }
        let mut router =
            ShardRouter::connect(&addrs).map_err(|e| format!("cannot connect the router: {e}"))?;
        let first = router
            .execute(&RemoteTxn::new().add(input.keys[0][PUT_KEYS_PER_SHARD], 0))
            .map_err(|e| format!("first call: {e}"))?;
        if !first.is_committed() {
            return Err(format!("the first call did not commit: {first:?}"));
        }
        Ok(Fixture {
            servers,
            engines,
            dirs,
            addrs,
            router: Some(router),
            other_routes: [1, 0, 0],
            probe_adds: 0,
        })
    }

    fn discard(fixture: Fixture) {
        drop(fixture.router);
        for server in &fixture.servers {
            server.shutdown();
        }
    }

    fn spawn_clients(
        fixture: &mut Fixture,
        input: &Arc<Input>,
        clock: &Arc<SliceClock>,
        slices: usize,
    ) -> Vec<JoinHandle<Result<ClientReport, String>>> {
        let router = fixture.router.take().expect("the set-up's router");
        let (input, clock) = (Arc::clone(input), Arc::clone(clock));
        vec![std::thread::Builder::new()
            .name("bench-client-0".into())
            .spawn(move || client_loop(router, &input, &clock, slices))
            .expect("spawn client thread")]
    }

    fn stats(fixture: &Fixture) -> TelemetrySnapshot {
        merged_stats(&fixture.servers)
    }

    fn split_count(fixture: &Fixture) -> u64 {
        fixture
            .servers
            .iter()
            .filter_map(|s| s.doppel())
            .map(|db| db.split_count() as u64)
            .sum()
    }

    /// Serial probes: the next two blocks of the pool, one transaction in
    /// flight, grouped by route (two-phase transactions keep their order, so
    /// "the last put wins" still describes the expected state); then manual
    /// prepare/decide rounds on connections of their own.
    fn probes(
        fixture: &mut Fixture,
        input: &Input,
        reports: &mut [ClientReport],
        layers: &mut Layers,
    ) -> Result<(), String> {
        let io = |e: std::io::Error| format!("probe I/O: {e}");
        let report = &mut reports[0];
        let committed_under_load: u64 = report.extra.iter().sum();
        if let [direct, fast, two_phase] = report.extra[..] {
            let total = committed_under_load.max(1) as f64;
            layers.set("shard.direct_share", direct as f64 / total);
            layers.set("shard.fast_share", fast as f64 / total);
            layers.set("shard.twopc_share", two_phase as f64 / total);
        }
        layers.set(
            "shard.allocs_per_txn",
            layers.get("client.allocs_per_txn").unwrap_or(0.0),
        );

        let mut client = RemoteClient::connect(fixture.addrs[0].as_str()).map_err(io)?;
        let mut samples = Vec::new();
        for _ in 0..2_000 {
            let t = Instant::now();
            client.ping().map_err(io)?;
            samples.push(t.elapsed().as_nanos() as u32);
        }
        layers.set("reactor.ping_rtt_p50_us", sys::p50_us(&mut samples));

        let mut router = ShardRouter::connect(&fixture.addrs).map_err(io)?;
        let start = (report.issued % input.txns.len() as u64) as usize;
        let span = 2 * BLOCK;
        let names = [
            "shard.direct_p50_us",
            "shard.fast_p50_us",
            "shard.twopc_p50_us",
        ];
        for kind in [DIRECT, FAST, TWO_PHASE] {
            let before = merged_stats(&fixture.servers);
            samples.clear();
            for off in 0..span {
                let ix = (start + off) % input.txns.len();
                if input.route[ix] != kind {
                    continue;
                }
                let t = Instant::now();
                let outcome = router.execute(&input.txns[ix]).map_err(io)?;
                samples.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                report.attempted += 1;
                if !outcome.is_committed() {
                    return Err(format!(
                        "serial probe transaction did not commit: {outcome:?}"
                    ));
                }
            }
            let p50 = sys::p50_us(&mut samples);
            layers.set(names[kind as usize], p50);
            if kind == DIRECT {
                // The single-round-trip route is the one the sum check is
                // meaningful for.
                layers.set("rtt.p50_us", p50);
                let after = merged_stats(&fixture.servers);
                let part = |name: &str| {
                    hist_delta(&before, &after, name)
                        .map_or(0.0, |h| h.quantile_ns(0.5) as f64 / 1e3)
                };
                layers.set_probe_parts(part("queue_wait"), part("exec"));
            }
        }
        report.issued += span as u64;
        let routes = router.routes();
        fixture.other_routes[0] += routes.direct;
        fixture.other_routes[1] += routes.fast_path;
        fixture.other_routes[2] += routes.two_phase;

        // Manual two-phase rounds: prepare on both shards (vote = forced
        // fsync), then decide (decision record = forced fsync).
        let keys = probe_keys();
        let mut shards = Vec::new();
        for addr in &fixture.addrs {
            shards.push(RemoteClient::connect(addr.as_str()).map_err(io)?);
        }
        let (mut prepare, mut decide) = (Vec::new(), Vec::new());
        for round in 0..TWOPC_ROUNDS {
            let txid = 0xbe9c_0000_0000 + round;
            let t = Instant::now();
            let mut ids = Vec::new();
            for (s, c) in shards.iter_mut().enumerate() {
                ids.push(
                    c.send_prepare(txid, vec![WireStmt::Write(keys[s], Op::Add(1))])
                        .map_err(io)?,
                );
            }
            for (c, id) in shards.iter_mut().zip(&ids) {
                if !c.wait_vote(*id).map_err(io)?.0 {
                    return Err("a shard voted no on an uncontended probe key".into());
                }
            }
            prepare.push(t.elapsed().as_nanos() as u32);
            let t = Instant::now();
            ids.clear();
            for c in shards.iter_mut() {
                ids.push(c.send_decide(txid, true).map_err(io)?);
            }
            for (c, id) in shards.iter_mut().zip(&ids) {
                if !c.wait(*id).map_err(io)?.is_committed() {
                    return Err("a shard did not apply a commit decision".into());
                }
            }
            decide.push(t.elapsed().as_nanos() as u32);
        }
        fixture.probe_adds += TWOPC_ROUNDS as i64;
        layers.set("twopc.prepare_p50_us", sys::p50_us(&mut prepare));
        layers.set("twopc.decide_p50_us", sys::p50_us(&mut decide));
        Ok(())
    }

    fn walks(
        input: &Arc<Input>,
        scratch: &Path,
        _seconds: f64,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let calls: Vec<ClientMsg> = input
            .txns
            .iter()
            .take(4096)
            .enumerate()
            .map(|(i, t)| ClientMsg::Submit {
                id: i as u64 + 1,
                stmts: t.stmts().to_vec(),
            })
            .collect();
        let replies: Vec<ServerMsg> = (0..calls.len() as u64)
            .map(|i| {
                ServerMsg::Done(WireDone {
                    id: i + 1,
                    result: Ok(i + 1),
                    deferred: false,
                    values: Vec::new(),
                    proc_result: None,
                })
            })
            .collect();
        layers::walk_wire(layers, &calls, &replies);
        layers::walk_queue(layers);
        layers::walk_doppel(layers);
        layers::walk_floors(layers, &input.keys[0]);
        layers::walk_wal(layers, scratch)
    }

    fn finish(
        fixture: Fixture,
        input: &Input,
        reports: &[ClientReport],
        _stats_end: &TelemetrySnapshot,
        falsify: bool,
        layers: &mut Layers,
    ) -> Result<Vec<String>, String> {
        let report = &reports[0];
        let fs = sys::fs_type(&fixture.dirs[0]);
        let wal_note = format!(
            "WAL under {} ({fs}); latencies are this sandbox's disk, not a device claim",
            fixture.dirs[0].display()
        );

        // Route counts: exactly the generated mix.
        let mut expected_routes = [0u64; 3];
        for seq in 0..report.issued {
            expected_routes[input.route[(seq % input.txns.len() as u64) as usize] as usize] += 1;
        }
        expected_routes[0] += 1; // the set-up's first call
        let routed: Vec<u64> = (0..3)
            .map(|i| report.extra.get(i).copied().unwrap_or(0) + fixture.other_routes[i])
            .collect();
        if routed != expected_routes {
            return Err(format!(
                "routes taken {routed:?} differ from the generated mix {expected_routes:?}"
            ));
        }
        let under_load: u64 = report.extra.iter().sum();
        if report
            .extra
            .first()
            .is_some_and(|d| d * 10 != under_load * 3)
            || report
                .extra
                .get(2)
                .is_some_and(|t| t * 10 != under_load * 2)
        {
            return Err(format!(
                "route shares under load {:?} are not 30/50/20",
                report.extra
            ));
        }

        let end = merged_stats(&fixture.servers);
        let in_doubt = end.scalar("twopc_in_doubt");
        layers.set_opt("twopc.in_doubt_end", in_doubt.map(|v| v as f64));
        if in_doubt.unwrap_or(0) != 0 {
            return Err(format!(
                "{} transactions are still in doubt",
                in_doubt.unwrap_or(0)
            ));
        }

        // Expected state: adds sum, the last put wins.
        let mut expected: HashMap<Key, i64> = HashMap::new();
        for seq in 0..report.issued {
            if report.never_committed.contains(&seq) {
                continue;
            }
            for stmt in input.txns[(seq % input.txns.len() as u64) as usize].stmts() {
                match stmt {
                    WireStmt::Write(k, Op::Add(n)) => *expected.entry(*k).or_insert(0) += n,
                    WireStmt::Write(k, Op::Put(Value::Int(v))) => {
                        expected.insert(*k, *v);
                    }
                    _ => {}
                }
            }
        }
        for k in probe_keys() {
            if fixture.probe_adds > 0 {
                expected.insert(k, fixture.probe_adds);
            }
        }
        if falsify {
            *expected
                .entry(input.keys[0][PUT_KEYS_PER_SHARD])
                .or_insert(0) += 1;
        }

        // Shut down as an operator would, then read the acknowledged state.
        let Fixture {
            servers,
            engines,
            dirs,
            router,
            ..
        } = fixture;
        drop(router);
        for server in &servers {
            server.shutdown();
        }
        drop(servers);
        let mut acknowledged: Vec<HashMap<Key, Value>> = Vec::new();
        for engine in &engines {
            let mut state = HashMap::new();
            engine.for_each_record(&mut |k, v| {
                state.insert(k, v.clone());
            });
            acknowledged.push(state);
        }
        drop(engines);
        let map = ShardMap::new(SHARDS);
        let mut wrong = 0u64;
        for (state, keys) in acknowledged.iter().zip(&input.keys) {
            for k in keys {
                let want = expected.get(k).copied().unwrap_or(0);
                if state.get(k) != Some(&Value::Int(want)) {
                    wrong += 1;
                }
            }
        }
        for (k, want) in &expected {
            if acknowledged[map.shard_of(*k)].get(k) != Some(&Value::Int(*want)) {
                wrong += 1;
            }
        }
        if wrong > 0 {
            return Err(format!(
                "{wrong} counters differ from the sum of their committed writes"
            ));
        }

        // Recovery: fresh engines from the logs alone must reproduce the
        // acknowledged state (preloaded zeros are not logged, so a record
        // that recovery does not know reads as Int(0)).
        let (mut records, mut recover_ns) = (0u64, 0u128);
        for (s, dir) in dirs.iter().enumerate() {
            let fresh = DoppelDb::new(engine_config());
            let t = Instant::now();
            let recovery = doppel_wal::recover_into(&fresh, dir)
                .map_err(|e| format!("recovery of shard {s}: {e}"))?;
            recover_ns += t.elapsed().as_nanos();
            records += recovery.log_records();
            let mut recovered: HashMap<Key, Value> = HashMap::new();
            fresh.for_each_record(&mut |k, v| {
                recovered.insert(k, v.clone());
            });
            let zero = Value::Int(0);
            let differs = acknowledged[s]
                .iter()
                .filter(|(k, v)| recovered.get(*k).unwrap_or(&zero) != *v)
                .count()
                + recovered
                    .iter()
                    .filter(|(k, v)| acknowledged[s].get(*k).unwrap_or(&zero) != *v)
                    .count();
            if differs > 0 {
                return Err(format!("shard {s}: {differs} records differ between the acknowledged and the recovered state"));
            }
        }
        layers.set(
            "wal.recover_us_per_txn",
            recover_ns as f64 / 1e3 / records.max(1) as f64,
        );
        Ok(vec![
            wal_note,
            format!("routes {routed:?} equal the generated mix; under load {:?} = 30/50/20 %", report.extra),
            format!("all {} counters equal their committed writes; 0 in doubt", SHARDS * KEYS_PER_SHARD),
            format!("recovery replayed {records} log records into fresh engines: recovered state = acknowledged state"),
        ])
    }
}
