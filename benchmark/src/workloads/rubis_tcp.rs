//! `rubis_tcp`: what users actually run. The RUBiS bidding mix (RUBiS-B,
//! commutative transaction style) through `InvokeProc`, 32 calls in flight
//! per connection, no contention hints, the tuner on. Multi-key procedures
//! and the `Args`/`ProcResult` codec share the work with the engine.

use super::tcp::{self, Pool};
use crate::layers::Layers;
use crate::measure::{ClientReport, SliceClock};
use crate::run::{Generated, Workload};
use crate::sys::InputHash;
use doppel_common::{Engine, OrderKey, ProcResult, Table, TopKSet, Value};
use doppel_rubis::procs::rubis_registry;
use doppel_rubis::rows::{decode, BidRow, ItemRow};
use doppel_rubis::schema::{keys, INDEX_TOP_K};
use doppel_rubis::{RubisData, RubisScale, RubisWorkload, TxnStyle};
use doppel_service::TelemetrySnapshot;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

pub const SCALE: RubisScale = RubisScale {
    users: 200_000,
    items: 6_600,
    categories: 20,
    regions: 62,
};
pub const DEPTH: usize = 32;
/// Calls per client: enough for 26 s at twice today's rate, so the window
/// sees every call once (a second pass runs a fifth slower: its writes find
/// their rows already there). Should the pool wrap all the same, the second
/// pass re-puts identical rows under the same ids and re-adds to the
/// aggregates, which the check counts (see `finish`).
pub const POOL: usize = DEPTH * 25_000;

pub struct Input {
    pools: Vec<Arc<Pool>>,
}

pub struct RubisTcp;

/// The standard data set, plus the category and region browse indexes filled
/// with the newest preloaded items, exactly as `StoreItem` would have left
/// them. `RubisData::load` leaves them empty, and at 0.7 % `store_item` they
/// take about 8 s of load to reach their 25 entries while every search reads
/// one item row per entry: throughput fell by a fifth across the first slices
/// of every run (README "What was tried").
fn preload(engine: &dyn Engine) {
    RubisData::new(SCALE).load(engine);
    let mut by_category = vec![TopKSet::new(INDEX_TOP_K); SCALE.categories as usize];
    let mut by_region = vec![TopKSet::new(INDEX_TOP_K); SCALE.regions as usize];
    for item in 0..SCALE.items {
        // As `RubisData::load` places them: category by item id, region by
        // the seller's.
        let (category, region) = (item % SCALE.categories, item % SCALE.users % SCALE.regions);
        let (order, payload) = (OrderKey::from(item as i64), item.to_le_bytes().to_vec());
        by_category[category as usize].insert(order.clone(), 0, payload.clone());
        by_region[region as usize].insert(order, 0, payload);
    }
    for (category, set) in by_category.into_iter().enumerate() {
        engine.load(keys::items_by_category(category as u64), Value::TopK(set));
    }
    for (region, set) in by_region.into_iter().enumerate() {
        engine.load(keys::items_by_region(region as u64), Value::TopK(set));
    }
}

fn validate(_name: &str, _result: Option<&ProcResult>) -> bool {
    true // the output check is the recount in `finish`
}

impl Workload for RubisTcp {
    const NAME: &'static str = "rubis_tcp";
    type Input = Input;
    type Fixture = tcp::Fixture;

    fn config() -> Vec<(&'static str, String)> {
        vec![
            ("server", tcp::server_config()),
            ("procs", "rubis (no contention hints)".into()),
            (
                "workload",
                "RubisWorkload::bidding(scale, TxnStyle::Doppel).call_generator(client, seed)"
                    .into(),
            ),
            ("scale", format!("{SCALE:?}")),
            (
                "preload",
                format!("RubisData::load + category and region indexes filled with the {INDEX_TOP_K} newest items"),
            ),
            ("clients=connections", tcp::CLIENTS.to_string()),
            ("in_flight_per_connection", DEPTH.to_string()),
            ("pool_calls_per_client", POOL.to_string()),
        ]
    }

    fn generate(seed: u64) -> Generated<Input> {
        let workload = RubisWorkload::bidding(SCALE, TxnStyle::Doppel);
        let mut hash = InputHash::default();
        let mut encoded = Vec::new();
        let pools = (0..tcp::CLIENTS)
            .map(|t| {
                let mut generator = workload.call_generator(t, seed);
                let pool: Pool = (0..POOL)
                    .map(|_| {
                        let call = generator.next_call();
                        hash.feed_bytes(call.name.as_bytes());
                        encoded.clear();
                        doppel_wal::codec::encode_args(&mut encoded, &call.args);
                        hash.feed_bytes(&encoded);
                        (call.name, call.args)
                    })
                    .collect();
                Arc::new(pool)
            })
            .collect();
        Generated {
            input: Input { pools },
            hash: hash.low32(),
            calls: (tcp::CLIENTS * POOL) as u64,
        }
    }

    fn setup(_input: &Arc<Input>, _scratch: &Path, _nth: usize) -> Result<tcp::Fixture, String> {
        // First committed call: a read, which leaves the recount untouched.
        tcp::setup(
            rubis_registry(),
            preload,
            &("rubis.view_item", doppel_rubis::procs::args::view_item(0)),
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
        tcp::walks(
            layers,
            &input.pools[0],
            &rubis_registry(),
            preload,
            "procs.rubis_call_ns",
            "procs.rubis_allocs_per_call",
        );
        let item_keys: Vec<_> = (0..SCALE.items).map(keys::num_bids).collect();
        crate::layers::walk_floors(layers, &item_keys);
        Ok(())
    }

    /// Per item, `num_bids` and `max_bid` must equal a recount of the bid
    /// rows in the store. A pool entry that committed `n` times left one row
    /// (same id, same content) and `n` increments, so each row counts `n`
    /// times; `n` follows from how far each client got through its pool.
    fn finish(
        fixture: tcp::Fixture,
        input: &Input,
        reports: &[ClientReport],
        _stats_end: &TelemetrySnapshot,
        falsify: bool,
        _layers: &mut Layers,
    ) -> Result<Vec<String>, String> {
        let engine = Arc::clone(&fixture.engine);
        tcp::discard(fixture);

        // How often each generated bid id committed.
        let mut times_by_bid: HashMap<u64, u64> = HashMap::new();
        for (pool, report) in input.pools.iter().zip(reports) {
            let len = pool.len() as u64;
            for (i, (name, args)) in pool.iter().enumerate() {
                if *name != "rubis.store_bid" {
                    continue;
                }
                let mut times = report.issued / len + u64::from((i as u64) < report.issued % len);
                times -= report
                    .never_committed
                    .iter()
                    .filter(|s| *s % len == i as u64)
                    .count() as u64;
                if times > 0 {
                    times_by_bid.insert(
                        args.get_u64(0).expect("store_bid carries its bid id"),
                        times,
                    );
                }
            }
        }

        let mut count = vec![0u64; SCALE.items as usize];
        let mut highest = vec![i64::MIN; SCALE.items as usize];
        let mut rows = 0u64;
        let mut unknown_rows = 0u64;
        engine.for_each_record(&mut |k, v| {
            if k.table() != Table::RubisBid {
                return;
            }
            let Some(bid) = decode::<BidRow>(Some(v)) else {
                return;
            };
            rows += 1;
            match times_by_bid.get(&bid.id) {
                Some(times) => {
                    count[bid.item as usize] += times;
                    highest[bid.item as usize] = highest[bid.item as usize].max(bid.amount);
                }
                None => unknown_rows += 1,
            }
        });
        if falsify {
            count[0] += 1;
        }
        if unknown_rows > 0 || rows != times_by_bid.len() as u64 {
            return Err(format!(
                "{rows} bid rows stored ({unknown_rows} unknown), {} distinct bids committed",
                times_by_bid.len()
            ));
        }
        let mut wrong = 0u64;
        for item in 0..SCALE.items {
            let initial = decode::<ItemRow>(engine.global_get(keys::item(item)).as_ref())
                .map_or(0, |row| row.initial_price);
            let num_bids = engine
                .global_get(keys::num_bids(item))
                .and_then(|v| v.as_int());
            let max_bid = engine
                .global_get(keys::max_bid(item))
                .and_then(|v| v.as_int());
            if num_bids != Some(count[item as usize] as i64)
                || max_bid != Some(initial.max(highest[item as usize]))
            {
                wrong += 1;
            }
        }
        if wrong > 0 {
            return Err(format!(
                "{wrong} of {} items disagree with a recount of their bid rows",
                SCALE.items
            ));
        }
        Ok(vec![format!(
            "num_bids and max_bid of all {} items equal a recount of the {rows} bid rows",
            SCALE.items
        )])
    }
}
