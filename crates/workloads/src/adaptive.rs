//! The ADAPTIVE benchmark: a migrating hot set of auction items.
//!
//! Every transaction increments the bid-count aggregate of one auction item
//! (the `kv.add` procedure against [`Table::RubisNumBids`]). A small **hot
//! set** of items absorbs most of the traffic, and the identity of the hot
//! set rotates on a fixed period — popular auctions close and new ones heat
//! up. A static split labelling is correct for at most one rotation epoch;
//! the workload exists to measure how quickly the
//! adaptive contention controller promotes the new hot items and demotes the
//! cooled ones, against the **oracle** run where every epoch's hot set is
//! labelled split up front.
//!
//! Rotation is deterministic ([`AdaptiveWorkload::hot_item`]): the oracle
//! labels and the generator's traffic are derived from the same function, so
//! the two runs of the experiment are exactly comparable.

use crate::driver::{GeneratedTxn, TxnGenerator, Workload};
use doppel_common::{Args, Engine, Key, OpKind, ProcId, ProcRegistry, Table, Value};
use doppel_service::procs::kv_registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The migrating-hot-set auction workload.
pub struct AdaptiveWorkload {
    /// Total number of auction items.
    pub items: u64,
    /// How many items are simultaneously hot.
    pub hot_items: usize,
    /// Fraction of transactions hitting the hot set, in `[0, 1]`.
    pub hot_fraction: f64,
    /// How often the hot set rotates (`None` = stationary).
    pub rotation: Option<Duration>,
    registry: Arc<ProcRegistry>,
    kv_add: ProcId,
}

impl AdaptiveWorkload {
    /// Builds the workload: `hot_items` of `items` absorb `hot_fraction` of
    /// the increments.
    pub fn new(items: u64, hot_items: usize, hot_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&hot_fraction), "hot_fraction must be in [0,1]");
        assert!(
            (hot_items as u64) < items,
            "hot set must leave room for cold items"
        );
        let registry = kv_registry();
        let kv_add = registry.lookup("kv.add").expect("kv pack registers kv.add");
        AdaptiveWorkload { items, hot_items, hot_fraction, rotation: None, registry, kv_add }
    }

    /// Enables hot-set rotation every `period`.
    pub fn with_rotation(mut self, period: Duration) -> Self {
        self.rotation = Some(period);
        self
    }

    /// The bid-count aggregate key of auction item `item`.
    pub fn item_key(item: u64) -> Key {
        Key::new(Table::RubisNumBids, item, 0)
    }

    /// The item filling hot-set slot `slot` during rotation epoch `epoch`.
    /// Deterministic, so the oracle labelling and the generated traffic agree
    /// exactly; the primes spread successive epochs' hot sets far apart.
    pub fn hot_item(&self, epoch: u64, slot: usize) -> u64 {
        (epoch.wrapping_mul(7_919).wrapping_add(slot as u64 * 104_729)) % self.items
    }

    /// The full hot set of rotation epoch `epoch`, as engine keys.
    pub fn hot_set(&self, epoch: u64) -> Vec<Key> {
        (0..self.hot_items).map(|slot| Self::item_key(self.hot_item(epoch, slot))).collect()
    }

    /// The oracle split labelling for a run spanning rotation epochs
    /// `0..epochs`: every item that will ever be hot, labelled for the
    /// splittable increment up front. This is what the adaptive run has to
    /// match without being told anything.
    pub fn oracle_labels(&self, epochs: u64) -> Vec<(Key, OpKind)> {
        let mut labels: Vec<(Key, OpKind)> = Vec::new();
        for epoch in 0..epochs.max(1) {
            for key in self.hot_set(epoch) {
                if !labels.iter().any(|(k, _)| *k == key) {
                    labels.push((key, OpKind::Add));
                }
            }
        }
        labels
    }

    /// How many rotation epochs a run of `duration` spans.
    pub fn epochs_in(&self, duration: Duration) -> u64 {
        match self.rotation {
            Some(period) => (duration.as_nanos() / period.as_nanos().max(1)) as u64 + 1,
            None => 1,
        }
    }
}

impl Workload for AdaptiveWorkload {
    fn name(&self) -> String {
        match self.rotation {
            Some(period) => format!(
                "ADAPTIVE(hot={}x{:.0}%, rotate={:.1}s)",
                self.hot_items,
                self.hot_fraction * 100.0,
                period.as_secs_f64()
            ),
            None => format!("ADAPTIVE(hot={}x{:.0}%)", self.hot_items, self.hot_fraction * 100.0),
        }
    }

    fn load(&self, engine: &dyn Engine) {
        for item in 0..self.items {
            engine.load(Self::item_key(item), Value::Int(0));
        }
    }

    fn generator(&self, core: usize, seed: u64) -> Box<dyn TxnGenerator> {
        Box::new(AdaptiveGenerator {
            items: self.items,
            hot_items: self.hot_items,
            hot_fraction: self.hot_fraction,
            rotation: self.rotation,
            started: Instant::now(),
            rng: SmallRng::seed_from_u64(seed.wrapping_add(core as u64)),
            registry: Arc::clone(&self.registry),
            kv_add: self.kv_add,
        })
    }

    fn proc_registry(&self) -> Option<Arc<ProcRegistry>> {
        Some(Arc::clone(&self.registry))
    }
}

struct AdaptiveGenerator {
    items: u64,
    hot_items: usize,
    hot_fraction: f64,
    rotation: Option<Duration>,
    started: Instant,
    rng: SmallRng,
    registry: Arc<ProcRegistry>,
    kv_add: ProcId,
}

impl AdaptiveGenerator {
    fn epoch(&self) -> u64 {
        match self.rotation {
            None => 0,
            Some(period) => (self.started.elapsed().as_nanos() / period.as_nanos().max(1)) as u64,
        }
    }

    fn hot_item(&self, epoch: u64, slot: usize) -> u64 {
        (epoch.wrapping_mul(7_919).wrapping_add(slot as u64 * 104_729)) % self.items
    }
}

impl TxnGenerator for AdaptiveGenerator {
    fn next_txn(&mut self) -> GeneratedTxn {
        let epoch = self.epoch();
        let item = if self.rng.gen::<f64>() < self.hot_fraction {
            let slot = self.rng.gen_range(0..self.hot_items.max(1));
            self.hot_item(epoch, slot)
        } else {
            // A uniformly chosen item outside the current hot set.
            loop {
                let item = self.rng.gen_range(0..self.items);
                if !(0..self.hot_items).any(|slot| self.hot_item(epoch, slot) == item) {
                    break item;
                }
            }
        };
        GeneratedTxn {
            proc: self.registry.call(
                self.kv_add,
                Args::new().key(AdaptiveWorkload::item_key(item)).int(1),
            ),
            is_write: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_labels_cover_every_epoch_without_duplicates() {
        let w = AdaptiveWorkload::new(1_000, 4, 0.9).with_rotation(Duration::from_millis(100));
        let labels = w.oracle_labels(5);
        for epoch in 0..5 {
            for key in w.hot_set(epoch) {
                assert!(labels.iter().any(|(k, _)| *k == key), "epoch {epoch} key missing");
            }
        }
        let mut keys: Vec<Key> = labels.iter().map(|(k, _)| *k).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), labels.len(), "labels must be duplicate-free");
        assert_eq!(w.epochs_in(Duration::from_millis(450)), 5);
    }

    #[test]
    fn traffic_concentrates_on_the_current_hot_set() {
        let w = AdaptiveWorkload::new(256, 2, 0.8);
        let engine = doppel_occ::OccEngine::new(1, 64);
        w.load(&engine);
        let mut gen = w.generator(0, 7);
        let mut handle = engine.handle(0);
        let n = 10_000;
        for _ in 0..n {
            assert!(handle.execute(gen.next_txn().proc).is_committed());
        }
        let hot: i64 = w
            .hot_set(0)
            .iter()
            .map(|k| engine.global_get(*k).unwrap().as_int().unwrap())
            .sum();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.03, "hot share was {frac}");
    }

    #[test]
    fn rotation_migrates_the_hot_set() {
        let w = AdaptiveWorkload::new(10_000, 4, 1.0).with_rotation(Duration::from_millis(50));
        let first = w.hot_set(0);
        let second = w.hot_set(1);
        assert!(first.iter().all(|k| !second.contains(k)), "epochs must not overlap here");
        assert!(w.name().contains("rotate"));
    }
}
