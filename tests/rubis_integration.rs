//! Cross-crate integration tests running the full RUBiS application on the
//! different engines and checking application-level invariants.

use doppel_common::{DoppelConfig, Engine, Table};
use doppel_db::DoppelDb;
use doppel_occ::OccEngine;
use doppel_rubis::schema::keys;
use doppel_rubis::{RubisScale, RubisWorkload, TxnStyle};
use doppel_twopl::TwoplEngine;
use doppel_workloads::driver::{BenchOptions, Driver};
use std::time::Duration;

fn small_scale() -> RubisScale {
    RubisScale { users: 200, items: 20, categories: 4, regions: 3 }
}

/// Application invariants that must hold after any run, on any engine:
///
/// 1. every item's `numBids` counter equals the number of bid rows for that
///    item;
/// 2. every item's `maxBid` equals the maximum bid amount among its bid rows
///    (or its initial price if it never received a higher bid);
/// 3. every user rating equals the sum of the ratings of the comments about
///    that user.
fn check_invariants(engine: &dyn Engine) {
    use std::collections::HashMap;
    let mut bids_per_item: HashMap<u64, (i64, i64)> = HashMap::new(); // item -> (count, max amount)
    let mut rating_per_user: HashMap<u64, i64> = HashMap::new();
    engine.for_each_record(&mut |key, value| match key.table() {
        Table::RubisBid => {
            if let Some(bid) = doppel_rubis::rows::decode::<doppel_rubis::BidRow>(Some(value)) {
                let entry = bids_per_item.entry(bid.item).or_insert((0, i64::MIN));
                entry.0 += 1;
                entry.1 = entry.1.max(bid.amount);
            }
        }
        Table::RubisComment => {
            if let Some(c) = doppel_rubis::rows::decode::<doppel_rubis::CommentRow>(Some(value)) {
                *rating_per_user.entry(c.about_user).or_insert(0) += c.rating;
            }
        }
        _ => {}
    });

    for (item, (count, max_amount)) in &bids_per_item {
        let num_bids = engine
            .global_get(keys::num_bids(*item))
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        assert_eq!(num_bids, *count, "item {item}: numBids vs bid rows");
        let max_bid = engine
            .global_get(keys::max_bid(*item))
            .and_then(|v| v.as_int())
            .unwrap_or(i64::MIN);
        assert!(
            max_bid >= *max_amount,
            "item {item}: maxBid {max_bid} is below the largest bid row {max_amount}"
        );
    }
    for (user, rating) in &rating_per_user {
        let stored = engine
            .global_get(keys::user_rating(*user))
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        assert_eq!(stored, *rating, "user {user}: rating vs sum of comment ratings");
    }
}

#[test]
fn rubis_c_invariants_hold_on_occ() {
    let engine = OccEngine::new(2, 256);
    let workload = RubisWorkload::contended(small_scale(), 1.6, TxnStyle::Doppel);
    let result = Driver::run(&engine, &workload, &BenchOptions::new(2, Duration::from_millis(250)));
    assert!(result.committed > 0);
    check_invariants(&engine);
}

#[test]
fn rubis_c_invariants_hold_on_2pl() {
    let engine = TwoplEngine::new(2, 256);
    let workload = RubisWorkload::contended(small_scale(), 1.6, TxnStyle::Doppel);
    let result = Driver::run(&engine, &workload, &BenchOptions::new(2, Duration::from_millis(250)));
    assert!(result.committed > 0);
    check_invariants(&engine);
}

#[test]
fn rubis_c_invariants_hold_on_doppel_with_splitting() {
    let cfg = DoppelConfig {
        workers: 2,
        phase_len: Duration::from_millis(4),
        split_min_conflicts: 2,
        split_conflict_fraction: 0.0,
        unsplit_write_fraction: 0.0,
        ..DoppelConfig::default()
    };
    let engine = DoppelDb::start(cfg);
    // Very skewed contended mix so auction metadata definitely gets split.
    let workload = RubisWorkload::contended(small_scale(), 1.9, TxnStyle::Doppel);
    let result = Driver::run(&engine, &workload, &BenchOptions::new(2, Duration::from_millis(400)));
    assert!(result.committed > 0);
    check_invariants(&engine);
}

#[test]
fn rubis_b_read_heavy_mix_commits_reads_and_writes() {
    let engine = OccEngine::new(2, 256);
    let workload = RubisWorkload::bidding(small_scale(), TxnStyle::Doppel);
    let result = Driver::run(&engine, &workload, &BenchOptions::new(2, Duration::from_millis(250)));
    assert!(result.committed > 0);
    assert!(
        result.read_latency.count > result.write_latency.count,
        "RUBiS-B is read-dominated"
    );
}

#[test]
fn classic_and_doppel_styles_produce_equivalent_aggregates_single_worker() {
    // With a single worker the two transaction styles must produce identical
    // auction aggregates for the same deterministic bid stream.
    let mut finals = Vec::new();
    for style in [TxnStyle::Classic, TxnStyle::Doppel] {
        let engine = OccEngine::new(1, 128);
        doppel_rubis::RubisData::new(small_scale()).load(&engine);
        let mut handle = engine.handle(0);
        for i in 0..500u64 {
            let bid = std::sync::Arc::new(doppel_rubis::txns::StoreBid {
                bid_id: 10_000 + i,
                bidder: i % 200,
                item: i % 20,
                amount: 1_000 + ((i * 7919) % 5_000) as i64,
                now: i as i64,
                style,
            });
            assert!(handle.execute(bid).is_committed());
        }
        let aggregates: Vec<(i64, i64)> = (0..20u64)
            .map(|item| {
                (
                    engine.global_get(keys::max_bid(item)).unwrap().as_int().unwrap(),
                    engine.global_get(keys::num_bids(item)).unwrap().as_int().unwrap(),
                )
            })
            .collect();
        finals.push(aggregates);
    }
    assert_eq!(finals[0], finals[1], "classic and Doppel StoreBid disagree on aggregates");
}
