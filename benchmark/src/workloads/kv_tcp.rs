//! `kv_tcp`: the smallest transaction over TCP. One `kv.add` or `kv.get`
//! per call, 128 calls in flight per connection, keys uniform over a million
//! records: the client library, the wire, the reactor, the queue hand-off
//! and the service dispatch do the work; the engine is uncontended.

use super::tcp::{self, Pool};
use crate::layers::Layers;
use crate::measure::{ClientReport, SliceClock};
use crate::run::{Generated, Workload};
use crate::sys::{InputHash, Rng};
use doppel_common::{Args, Engine, Key, ProcResult, Table, Value};
use doppel_service::{kv_registry, TelemetrySnapshot};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

pub const KEYS: u64 = 1_000_000;
/// Calls in flight per connection: deep enough that both cores stay busy
/// (at 32 the run measures futex and epoll wake-ups; README "Load shape").
pub const DEPTH: usize = 128;
/// Calls per client; the pool wraps (adds commute, gets change nothing).
pub const POOL: usize = DEPTH * 4096;

pub struct Input {
    pools: Vec<Arc<Pool>>,
    /// The `kv.add` delta of each pool entry (0 for a `kv.get`).
    deltas: Vec<Vec<i8>>,
}

pub struct KvTcp;

fn preload(engine: &dyn Engine) {
    for k in 0..KEYS {
        engine.load(Key::raw(k), Value::Int(0));
    }
}

/// Every `kv.get` must return the record's value.
fn validate(name: &str, result: Option<&ProcResult>) -> bool {
    name != "kv.get" || result.is_some_and(|r| r.len() == 1)
}

impl Workload for KvTcp {
    const NAME: &'static str = "kv_tcp";
    type Input = Input;
    type Fixture = tcp::Fixture;

    fn config() -> Vec<(&'static str, String)> {
        vec![
            ("server", tcp::server_config()),
            ("procs", "kv".into()),
            ("clients=connections", tcp::CLIENTS.to_string()),
            ("in_flight_per_connection", DEPTH.to_string()),
            ("keys", format!("{KEYS} preloaded Int(0), chosen uniformly")),
            ("mix", "50% kv.add / 50% kv.get".into()),
            ("pool_calls_per_client", POOL.to_string()),
        ]
    }

    fn generate(seed: u64) -> Generated<Input> {
        let mut hash = InputHash::default();
        let (mut pools, mut deltas) = (Vec::new(), Vec::new());
        for t in 0..tcp::CLIENTS {
            let mut rng = Rng::new(seed ^ ((t as u64 + 1) << 40));
            let mut pool: Pool = Vec::with_capacity(POOL);
            let mut delta = Vec::with_capacity(POOL);
            for _ in 0..POOL {
                let key = rng.below(KEYS);
                let d = if rng.below(2) == 0 {
                    1 + rng.below(9) as i8
                } else {
                    0
                };
                hash.feed(key << 8 | d as u64);
                pool.push(if d == 0 {
                    ("kv.get", Args::new().key(Key::raw(key)))
                } else {
                    ("kv.add", Args::new().key(Key::raw(key)).int(d as i64))
                });
                delta.push(d);
            }
            pools.push(Arc::new(pool));
            deltas.push(delta);
        }
        Generated {
            input: Input { pools, deltas },
            hash: hash.low32(),
            calls: (tcp::CLIENTS * POOL) as u64,
        }
    }

    fn setup(_input: &Arc<Input>, _scratch: &Path, _nth: usize) -> Result<tcp::Fixture, String> {
        // First committed call: an add of 0, so the expected sums stay those
        // of the generated calls.
        tcp::setup(
            kv_registry(),
            preload,
            &("kv.add", Args::new().key(Key::raw(0)).int(0)),
        )
    }

    fn discard(fixture: tcp::Fixture) {
        tcp::discard(fixture)
    }

    fn spawn_clients(
        fixture: &mut tcp::Fixture,
        input: &Arc<Input>,
        clock: &Arc<SliceClock>,
        slices: usize,
    ) -> Vec<JoinHandle<Result<ClientReport, String>>> {
        tcp::spawn_clients(
            fixture,
            |t| Arc::clone(&input.pools[t]),
            DEPTH,
            clock,
            slices,
            validate,
        )
    }

    fn stats(fixture: &tcp::Fixture) -> TelemetrySnapshot {
        tcp::stats(fixture)
    }

    fn split_count(fixture: &tcp::Fixture) -> u64 {
        fixture.doppel.split_count() as u64
    }

    fn probes(
        fixture: &mut tcp::Fixture,
        input: &Input,
        reports: &mut [ClientReport],
        layers: &mut Layers,
    ) -> Result<(), String> {
        tcp::probes(fixture, &input.pools[0], &mut reports[0], layers)
    }

    fn walks(
        input: &Arc<Input>,
        _scratch: &Path,
        _seconds: f64,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let pool = &input.pools[0];
        // Only the records the walked calls touch: the walk measures the
        // call path, not a second million-record load.
        let walked = &pool[..pool.len().min(crate::layers::WALK_ITERS)];
        let keys: Vec<Key> = walked
            .iter()
            .map(|(_, args)| args.get_key(0).expect("kv calls carry a key"))
            .collect();
        let load = |engine: &dyn Engine| keys.iter().for_each(|k| engine.load(*k, Value::Int(0)));
        tcp::walks(
            layers,
            pool,
            &kv_registry(),
            load,
            "procs.kv_call_ns",
            "procs.kv_allocs_per_call",
        );
        crate::layers::walk_floors(layers, &keys);
        Ok(())
    }

    fn finish(
        fixture: tcp::Fixture,
        input: &Input,
        reports: &[ClientReport],
        stats_end: &TelemetrySnapshot,
        falsify: bool,
        _layers: &mut Layers,
    ) -> Result<Vec<String>, String> {
        let split_keys = fixture.doppel.split_count();
        let engine = Arc::clone(&fixture.engine);
        tcp::discard(fixture);

        let mut expected: i64 = i64::from(falsify);
        for (deltas, report) in input.deltas.iter().zip(reports) {
            let len = deltas.len() as u64;
            for (i, d) in deltas.iter().enumerate() {
                let times = report.issued / len + u64::from((i as u64) < report.issued % len);
                expected += *d as i64 * times as i64;
            }
            for seq in &report.never_committed {
                expected -= deltas[(seq % len) as usize] as i64;
            }
        }
        let mut stored = 0i64;
        engine.for_each_record(&mut |k, v| {
            if k.table() == Table::Raw {
                stored += v.as_int().unwrap_or(0);
            }
        });
        if stored != expected {
            return Err(format!(
                "the stored values sum to {stored}, the committed deltas to {expected}"
            ));
        }
        let missed: u64 = reports.iter().map(|r| r.check_failures).sum();
        if missed > 0 {
            return Err(format!("{missed} kv.get replies carried no value"));
        }
        if split_keys != 0 || stats_end.scalar("split_records").unwrap_or(0) != 0 {
            return Err(format!(
                "regime check failed: {split_keys} records are split on an uncontended workload"
            ));
        }
        Ok(vec![format!("stored values sum to the {expected} committed deltas; every kv.get returned a value; split set empty")])
    }
}
