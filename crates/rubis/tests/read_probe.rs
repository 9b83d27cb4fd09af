//! The read probe: what one in-place read costs, alone and with a second
//! core reading the same rows — the figure the store's "a read writes no
//! shared memory" contract is held to.
//!
//! ```sh
//! cargo test --release -p doppel_rubis --test read_probe -- --ignored --nocapture
//! ```
//!
//! A 26-read page (`SearchItemsByCategory`: the index, then its 25 item rows)
//! through `TxHandle::execute_with` on a `DoppelDb` holding the `rubis_tcp`
//! data set. Prints ns per read on one thread and on two; a read that writes
//! nothing shared costs the same on both (within ~15 %, and ≈ 50–130 ns on
//! the 2-vCPU reference host).

use doppel_common::{DoppelConfig, Engine, OrderKey, TopKSet, Value};
use doppel_db::DoppelDb;
use doppel_rubis::schema::{keys, INDEX_TOP_K};
use doppel_rubis::txns::SearchItemsByCategory;
use doppel_rubis::{RubisData, RubisScale};
use std::sync::Barrier;
use std::time::Instant;

/// `benchmark/src/workloads/rubis_tcp.rs`: its scale, and its category
/// indexes filled with the newest preloaded items.
const SCALE: RubisScale = RubisScale { users: 200_000, items: 6_600, categories: 20, regions: 62 };
const PAGES: u64 = 200_000;
const READS_PER_PAGE: u64 = 1 + INDEX_TOP_K as u64;

fn rubis_tcp_data(engine: &dyn Engine) {
    RubisData::new(SCALE).load(engine);
    let mut by_category = vec![TopKSet::new(INDEX_TOP_K); SCALE.categories as usize];
    for item in 0..SCALE.items {
        let set = &mut by_category[(item % SCALE.categories) as usize];
        set.insert(OrderKey::from(item as i64), 0, item.to_le_bytes().to_vec());
    }
    for (category, set) in by_category.into_iter().enumerate() {
        engine.load(keys::items_by_category(category as u64), Value::TopK(set));
    }
}

/// ns per read with `threads` cores each running `PAGES` pages.
fn ns_per_read(db: &DoppelDb, threads: usize) -> f64 {
    let start = Barrier::new(threads);
    let slowest = std::thread::scope(|scope| {
        let cores: Vec<_> = (0..threads)
            .map(|core| {
                let start = &start;
                scope.spawn(move || {
                    let mut handle = db.handle(core);
                    start.wait();
                    let began = Instant::now();
                    for page in 0..PAGES {
                        let category = (page + core as u64) % SCALE.categories;
                        let mut listed = 0;
                        let outcome = handle.execute_with(
                            &mut |tx| {
                                listed = SearchItemsByCategory { category }.view(tx)?;
                                Ok(())
                            },
                            &mut || unreachable!("nothing is split"),
                        );
                        assert!(outcome.is_committed() && listed == INDEX_TOP_K as i64);
                    }
                    began.elapsed()
                })
            })
            .collect();
        cores.into_iter().map(|core| core.join().unwrap()).max().unwrap()
    });
    slowest.as_nanos() as f64 / (PAGES * READS_PER_PAGE) as f64
}

#[test]
#[ignore = "a measurement: run it in release, by itself"]
fn ns_per_lent_read_on_one_and_two_threads() {
    // Manual phases: no coordinator or tuner thread competes for the cores.
    let db = DoppelDb::new(DoppelConfig { workers: 2, store_shards: 1024, ..Default::default() });
    rubis_tcp_data(&db);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (one, two) = (ns_per_read(&db, 1), ns_per_read(&db, 2));
    println!("read probe ({cores} cores available): {one:.0} ns per read on 1 thread, {two:.0} on 2");
}
