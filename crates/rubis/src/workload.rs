//! RUBiS transaction mixes and the [`Workload`] implementation driving them.
//!
//! Two mixes reproduce §8.8:
//!
//! * **RUBiS-B** — "the Bidding workload specified in the RUBiS benchmark,
//!   which consists of 15% read-write transactions and 85% read-only
//!   transactions; this ends up producing 7% total writes and 93% total
//!   reads. … There are 1M users bidding on 33K auctions, and access is
//!   uniform."
//! * **RUBiS-C** — "a higher-contention workload … 50% of its transactions
//!   are bids on items chosen with a Zipfian distribution and varying α. This
//!   approximates very popular auctions nearing their close. The workload
//!   executes non-bid transactions in correspondingly reduced proportions."

use crate::data::{RubisData, RubisScale};
use crate::procs::{args as proc_args, rubis_registry, RubisProcs};
use crate::txns::TxnStyle;
use doppel_common::{Args, Engine, ProcId, ProcRegistry};
use doppel_workloads::driver::{GeneratedTxn, TxnGenerator, Workload};
use doppel_workloads::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The transaction mix to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RubisMix {
    /// The standard bidding mix (≈7% writes, uniform item popularity).
    Bidding,
    /// The contended mix: 50% `StoreBid` on Zipfian-popular items.
    Contended {
        /// Zipf α for item popularity.
        alpha: f64,
    },
}

/// Relative weights of the individual transactions in the RUBiS-B mix,
/// chosen to produce roughly the paper's 7% write / 93% read split across the
/// 17 transactions.
const BIDDING_WRITE_WEIGHTS: &[(Txn, f64)] = &[
    (Txn::StoreBid, 3.7),
    (Txn::StoreComment, 1.3),
    (Txn::RegisterUser, 1.0),
    (Txn::StoreItem, 0.7),
    (Txn::StoreBuyNow, 0.3),
];

const BIDDING_READ_WEIGHTS: &[(Txn, f64)] = &[
    (Txn::SearchItemsByCategory, 22.0),
    (Txn::SearchItemsByRegion, 12.0),
    (Txn::ViewItem, 22.0),
    (Txn::ViewUserInfo, 8.0),
    (Txn::ViewBidHistory, 6.0),
    (Txn::BrowseCategories, 5.0),
    (Txn::BrowseRegions, 3.0),
    (Txn::AboutMe, 4.0),
    (Txn::PutBidView, 5.0),
    (Txn::PutCommentView, 2.0),
    (Txn::BuyNowView, 2.0),
    (Txn::ViewUserComments, 2.0),
];

/// The 17 transaction kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Txn {
    RegisterUser,
    StoreItem,
    StoreBid,
    StoreBuyNow,
    StoreComment,
    ViewItem,
    ViewUserInfo,
    ViewBidHistory,
    SearchItemsByCategory,
    SearchItemsByRegion,
    BrowseCategories,
    BrowseRegions,
    AboutMe,
    PutBidView,
    PutCommentView,
    BuyNowView,
    ViewUserComments,
}

impl Txn {
    fn is_write(&self) -> bool {
        matches!(
            self,
            Txn::RegisterUser | Txn::StoreItem | Txn::StoreBid | Txn::StoreBuyNow | Txn::StoreComment
        )
    }
}

/// The RUBiS workload, pluggable into [`doppel_workloads::Driver`].
///
/// Every generated transaction is an invocation of the RUBiS *procedure
/// pack* ([`crate::procs`]) — the registry-backed path a networked client
/// uses — so per-procedure statistics accumulate in
/// [`RubisWorkload::registry`] during a driver run, and the same generator
/// ([`RubisWorkload::call_generator`]) can feed wire-level `InvokeProc`
/// clients.
pub struct RubisWorkload {
    /// Table sizes.
    pub scale: RubisScale,
    /// Transaction mix.
    pub mix: RubisMix,
    /// Whether contended writes use the classic or the Doppel (commutative)
    /// transaction style.
    pub style: TxnStyle,
    registry: Arc<ProcRegistry>,
    procs: RubisProcs,
    item_sampler: Arc<ZipfSampler>,
    /// Pre-normalised cumulative (weight, txn) list for mix sampling.
    mix_cdf: Vec<(f64, Txn)>,
}

impl RubisWorkload {
    /// Creates the RUBiS-B bidding workload.
    pub fn bidding(scale: RubisScale, style: TxnStyle) -> Self {
        Self::build(scale, RubisMix::Bidding, style)
    }

    /// Creates the RUBiS-C contended workload with Zipf parameter `alpha`.
    pub fn contended(scale: RubisScale, alpha: f64, style: TxnStyle) -> Self {
        Self::build(scale, RubisMix::Contended { alpha }, style)
    }

    fn build(scale: RubisScale, mix: RubisMix, style: TxnStyle) -> Self {
        scale.validate().expect("invalid RUBiS scale");
        let alpha = match mix {
            RubisMix::Bidding => 0.0,
            RubisMix::Contended { alpha } => alpha,
        };
        let item_sampler = Arc::new(ZipfSampler::new(scale.items, alpha));
        let mix_cdf = Self::mix_cdf(mix);
        let registry = rubis_registry();
        let procs = RubisProcs::resolve(&registry);
        RubisWorkload { scale, mix, style, registry, procs, item_sampler, mix_cdf }
    }

    /// The procedure registry the generated transactions invoke
    /// (per-procedure statistics accumulate here during a run).
    pub fn registry(&self) -> &Arc<ProcRegistry> {
        &self.registry
    }

    /// A generator producing wire-level `(name, Args)` invocations of the
    /// same mix — what a remote `InvokeProc` client submits.
    pub fn call_generator(&self, core: usize, seed: u64) -> RubisCallGenerator {
        RubisCallGenerator {
            scale: self.scale,
            style: self.style,
            registry: Arc::clone(&self.registry),
            procs: self.procs,
            mix_cdf: self.mix_cdf.clone(),
            item_sampler: Arc::clone(&self.item_sampler),
            rng: SmallRng::seed_from_u64(seed ^ ((core as u64 + 1) << 32)),
            core: core as u64,
            next_id: 0,
            clock: 0,
        }
    }

    /// Builds the cumulative mix distribution.
    fn mix_cdf(mix: RubisMix) -> Vec<(f64, Txn)> {
        let mut weights: Vec<(Txn, f64)> = Vec::new();
        match mix {
            RubisMix::Bidding => {
                weights.extend_from_slice(BIDDING_WRITE_WEIGHTS);
                weights.extend_from_slice(BIDDING_READ_WEIGHTS);
            }
            RubisMix::Contended { .. } => {
                // 50% StoreBid; every other transaction keeps its relative
                // share of the remaining 50%.
                let others: Vec<(Txn, f64)> = BIDDING_WRITE_WEIGHTS
                    .iter()
                    .chain(BIDDING_READ_WEIGHTS.iter())
                    .filter(|(t, _)| *t != Txn::StoreBid)
                    .copied()
                    .collect();
                let other_total: f64 = others.iter().map(|(_, w)| w).sum();
                weights.push((Txn::StoreBid, 50.0));
                for (t, w) in others {
                    weights.push((t, 50.0 * w / other_total));
                }
            }
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        weights
            .into_iter()
            .map(|(t, w)| {
                acc += w / total;
                (acc, t)
            })
            .collect()
    }

    /// Fraction of transactions in the mix that write (for reporting and
    /// tests).
    pub fn write_fraction(&self) -> f64 {
        let mut prev = 0.0;
        let mut writes = 0.0;
        for (cum, txn) in &self.mix_cdf {
            if txn.is_write() {
                writes += cum - prev;
            }
            prev = *cum;
        }
        writes
    }
}

impl Workload for RubisWorkload {
    fn name(&self) -> String {
        let mix = match self.mix {
            RubisMix::Bidding => "RUBiS-B".to_string(),
            RubisMix::Contended { alpha } => format!("RUBiS-C(alpha={alpha:.2})"),
        };
        format!("{mix}[{:?}]", self.style)
    }

    fn load(&self, engine: &dyn Engine) {
        RubisData::new(self.scale).load(engine);
    }

    fn generator(&self, core: usize, seed: u64) -> Box<dyn TxnGenerator> {
        Box::new(RubisGenerator { inner: self.call_generator(core, seed) })
    }

    fn proc_registry(&self) -> Option<Arc<ProcRegistry>> {
        Some(Arc::clone(&self.registry))
    }
}

/// One sampled invocation of the RUBiS procedure pack.
pub struct RubisCall {
    /// Registry id of the procedure.
    pub proc: ProcId,
    /// Registered procedure name (what goes on the wire).
    pub name: &'static str,
    /// The argument vector.
    pub args: Args,
    /// True for the write transactions of the mix.
    pub is_write: bool,
}

/// Samples the configured RUBiS mix as `(procedure, args)` invocations —
/// shared by the in-process driver path and wire-level clients.
pub struct RubisCallGenerator {
    scale: RubisScale,
    style: TxnStyle,
    registry: Arc<ProcRegistry>,
    procs: RubisProcs,
    mix_cdf: Vec<(f64, Txn)>,
    item_sampler: Arc<ZipfSampler>,
    rng: SmallRng,
    core: u64,
    /// Per-worker id allocator for freshly inserted rows.
    next_id: u64,
    /// Logical clock used for timestamps.
    clock: i64,
}

impl RubisCallGenerator {
    /// The registry the sampled calls belong to.
    pub fn registry(&self) -> &Arc<ProcRegistry> {
        &self.registry
    }

    /// Allocates an id that cannot collide with pre-loaded rows (which use
    /// ids below 2^40) or with other workers' allocations.
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        (1 << 40) | (self.core << 32) | self.next_id
    }

    fn pick_txn(&mut self) -> Txn {
        let u: f64 = self.rng.gen();
        for (cum, txn) in &self.mix_cdf {
            if u <= *cum {
                return *txn;
            }
        }
        self.mix_cdf.last().expect("mix is never empty").1
    }

    fn pick_item(&mut self) -> u64 {
        self.item_sampler.sample(&mut self.rng)
    }

    fn pick_user(&mut self) -> u64 {
        self.rng.gen_range(0..self.scale.users)
    }

    /// Samples the next invocation of the mix.
    pub fn next_call(&mut self) -> RubisCall {
        self.clock += 1;
        let kind = self.pick_txn();
        let style = self.style;
        let p = self.procs;
        let (proc, name, args) = match kind {
            Txn::StoreBid => {
                let item = self.pick_item();
                let bidder = self.pick_user();
                // Bid above the initial price so max-bid keeps advancing.
                let amount = 1_000 + self.rng.gen_range(0..1_000_000i64);
                let id = self.fresh_id();
                (
                    p.store_bid,
                    "rubis.store_bid",
                    proc_args::store_bid(id, bidder, item, amount, self.clock, style),
                )
            }
            Txn::StoreComment => {
                let about_user = self.pick_user();
                let author = self.pick_user();
                let item = self.pick_item();
                let rating = self.rng.gen_range(-1..=5);
                let id = self.fresh_id();
                (
                    p.store_comment,
                    "rubis.store_comment",
                    proc_args::store_comment(
                        id,
                        author,
                        about_user,
                        item,
                        rating,
                        "nice transaction",
                        style,
                    ),
                )
            }
            Txn::RegisterUser => {
                let region = self.rng.gen_range(0..self.scale.regions);
                let id = self.fresh_id();
                let nickname = format!("user-{}-{}", self.core, self.next_id);
                (
                    p.register_user,
                    "rubis.register_user",
                    proc_args::register_user(id, &nickname, region, self.clock),
                )
            }
            Txn::StoreItem => {
                let seller = self.pick_user();
                let category = self.rng.gen_range(0..self.scale.categories);
                let region = self.rng.gen_range(0..self.scale.regions);
                let price = self.rng.gen_range(100..10_000);
                let id = self.fresh_id();
                (
                    p.store_item,
                    "rubis.store_item",
                    proc_args::store_item(
                        id,
                        seller,
                        category,
                        region,
                        "freshly listed item",
                        price,
                        self.clock + 1_000_000,
                        style,
                    ),
                )
            }
            Txn::StoreBuyNow => {
                let item = self.pick_item();
                let buyer = self.pick_user();
                let id = self.fresh_id();
                (
                    p.store_buy_now,
                    "rubis.store_buy_now",
                    proc_args::store_buy_now(id, item, buyer, 1, self.clock),
                )
            }
            Txn::ViewItem => {
                (p.view_item, "rubis.view_item", proc_args::view_item(self.pick_item()))
            }
            Txn::ViewUserInfo => (
                p.view_user_info,
                "rubis.view_user_info",
                proc_args::view_user_info(self.pick_user()),
            ),
            Txn::ViewBidHistory => (
                p.view_bid_history,
                "rubis.view_bid_history",
                proc_args::view_bid_history(self.pick_item()),
            ),
            Txn::SearchItemsByCategory => (
                p.search_items_by_category,
                "rubis.search_items_by_category",
                proc_args::search_items_by_category(self.rng.gen_range(0..self.scale.categories)),
            ),
            Txn::SearchItemsByRegion => (
                p.search_items_by_region,
                "rubis.search_items_by_region",
                proc_args::search_items_by_region(self.rng.gen_range(0..self.scale.regions)),
            ),
            Txn::BrowseCategories => (
                p.browse_categories,
                "rubis.browse_categories",
                proc_args::browse_categories(self.scale.categories),
            ),
            Txn::BrowseRegions => (
                p.browse_regions,
                "rubis.browse_regions",
                proc_args::browse_regions(self.scale.regions),
            ),
            Txn::AboutMe => (p.about_me, "rubis.about_me", proc_args::about_me(self.pick_user())),
            Txn::PutBidView => {
                (p.put_bid_view, "rubis.put_bid_view", proc_args::put_bid_view(self.pick_item()))
            }
            Txn::PutCommentView => {
                let about = self.pick_user();
                let item = self.pick_item();
                (
                    p.put_comment_view,
                    "rubis.put_comment_view",
                    proc_args::put_comment_view(about, item),
                )
            }
            Txn::BuyNowView => {
                (p.buy_now_view, "rubis.buy_now_view", proc_args::buy_now_view(self.pick_item()))
            }
            Txn::ViewUserComments => (
                p.view_user_comments,
                "rubis.view_user_comments",
                proc_args::view_user_comments(self.pick_user()),
            ),
        };
        RubisCall { proc, name, args, is_write: kind.is_write() }
    }
}

/// [`TxnGenerator`] adapter: binds each sampled call in the registry.
struct RubisGenerator {
    inner: RubisCallGenerator,
}

impl TxnGenerator for RubisGenerator {
    fn next_txn(&mut self) -> GeneratedTxn {
        let call = self.inner.next_call();
        let registry = Arc::clone(&self.inner.registry);
        GeneratedTxn { proc: registry.call(call.proc, call.args), is_write: call.is_write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::keys;
    use doppel_workloads::driver::{BenchOptions, Driver};
    use std::time::Duration;

    #[test]
    fn bidding_mix_write_fraction_matches_paper() {
        let w = RubisWorkload::bidding(RubisScale::small(), TxnStyle::Doppel);
        let f = w.write_fraction();
        assert!((0.05..=0.09).contains(&f), "RUBiS-B write fraction {f} should be ≈7%");
    }

    #[test]
    fn contended_mix_is_half_bids() {
        let w = RubisWorkload::contended(RubisScale::small(), 1.8, TxnStyle::Doppel);
        assert!(w.write_fraction() > 0.5, "RUBiS-C is at least 50% writes (bids)");
        // Statistically verify ~50% of generated transactions are bids.
        let mut gen = w.generator(0, 7);
        let n = 5_000;
        let bids = (0..n)
            .filter(|_| {
                let t = gen.next_txn();
                t.is_write && t.proc.name() == "rubis.store_bid"
            })
            .count();
        let frac = bids as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "StoreBid fraction {frac}");
    }

    #[test]
    fn generated_ids_do_not_collide_across_workers() {
        let w = RubisWorkload::bidding(RubisScale::small(), TxnStyle::Doppel);
        let mut a = w.call_generator(0, 1);
        let mut b = w.call_generator(1, 2);
        let ids_a: Vec<u64> = (0..100).map(|_| a.fresh_id()).collect();
        let ids_b: Vec<u64> = (0..100).map(|_| b.fresh_id()).collect();
        for id in &ids_a {
            assert!(!ids_b.contains(id));
            assert!(*id >= 1 << 40, "fresh ids must not collide with preloaded rows");
        }
    }

    #[test]
    fn call_generator_names_resolve_in_the_registry() {
        let w = RubisWorkload::bidding(RubisScale::small(), TxnStyle::Doppel);
        let mut gen = w.call_generator(0, 3);
        for _ in 0..200 {
            let call = gen.next_call();
            assert_eq!(
                w.registry().lookup(call.name),
                Some(call.proc),
                "{} must resolve to its own id",
                call.name
            );
            assert_eq!(w.registry().is_read_only(call.proc), !call.is_write);
        }
    }

    #[test]
    fn rubis_b_runs_on_occ_and_preserves_bid_counts() {
        let engine = doppel_occ::OccEngine::new(2, 256);
        let w = RubisWorkload::bidding(RubisScale::small(), TxnStyle::Doppel);
        let result = Driver::run(&engine, &w, &BenchOptions::new(2, Duration::from_millis(150)));
        assert!(result.committed > 0);
        // Sum of per-item bid counters equals the number of bid rows created.
        let mut num_bids_total = 0i64;
        for item in 0..w.scale.items {
            num_bids_total += engine
                .global_get(keys::num_bids(item))
                .and_then(|v| v.as_int())
                .unwrap_or(0);
        }
        let mut bid_rows = 0i64;
        // Bid rows use fresh ids ≥ 2^40; count them via the store.
        engine.store().for_each(|k, _| {
            if k.table() == doppel_common::Table::RubisBid {
                bid_rows += 1;
            }
        });
        assert_eq!(num_bids_total, bid_rows);
    }

    #[test]
    fn rubis_c_on_doppel_splits_hot_auction_metadata() {
        let cfg = doppel_common::DoppelConfig {
            workers: 2,
            phase_len: Duration::from_millis(5),
            split_min_conflicts: 2,
            split_conflict_fraction: 0.0,
            unsplit_write_fraction: 0.0,
            ..Default::default()
        };
        let engine = doppel_db::DoppelDb::start(cfg);
        let scale = RubisScale { users: 100, items: 10, categories: 3, regions: 2 };
        let w = RubisWorkload::contended(scale, 1.8, TxnStyle::Doppel);
        let result = Driver::run(&engine, &w, &BenchOptions::new(2, Duration::from_millis(250)));
        assert!(result.committed > 0);
        // Consistency: per-item bid counters equal bid rows, even though the
        // counters were maintained through split per-core slices.
        let mut num_bids_total = 0i64;
        for item in 0..scale.items {
            num_bids_total += engine
                .global_get(keys::num_bids(item))
                .and_then(|v| v.as_int())
                .unwrap_or(0);
        }
        let shared = engine.shared();
        let mut bid_rows = 0i64;
        shared.store.for_each(|k, _| {
            if k.table() == doppel_common::Table::RubisBid {
                bid_rows += 1;
            }
        });
        assert_eq!(num_bids_total, bid_rows);
    }

    #[test]
    fn workload_names() {
        assert!(RubisWorkload::bidding(RubisScale::small(), TxnStyle::Doppel)
            .name()
            .contains("RUBiS-B"));
        assert!(RubisWorkload::contended(RubisScale::small(), 1.4, TxnStyle::Classic)
            .name()
            .contains("RUBiS-C"));
    }
}
