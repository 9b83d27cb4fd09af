//! Contention sampling and split classification (§5.5).
//!
//! "During joined execution, Doppel samples transactions' conflicting record
//! accesses, and keeps a count of which records are most conflicted (are
//! causing the most aborts) and by which operations. During the transition to
//! the split phase, a coordinator thread examines these counts and marks the
//! most conflicted records as split data for the next phase. … Doppel also
//! samples which transactions are stashed due to incompatible operations on
//! split data during the split phase, and uses this to consider whether to
//! move a split record back to reconciled or change its assigned operation.
//! Since split records in the split phase will not cause conflicts, Doppel
//! uses write sampling to estimate if a split record might still be
//! contended."
//!
//! Each worker owns a [`WorkerSample`] outright and writes it without any
//! synchronisation. Once per transition, before acknowledging, it drains the
//! sample into its hand-off slot (`DoppelShared::samplers`); the last
//! acknowledging worker drains all slots into the [`Classifier`], which
//! maintains the persistent per-key split decisions. Draining clears the maps
//! but keeps their tables, so a steady phase cycle allocates nothing here.

use crate::split_registry::SplitSet;
use doppel_common::{split_ops, DoppelConfig, Key, OpKind, TuneThresholds};
use std::collections::HashMap;

/// Contention sample of one phase: one worker's, or (as [`PhaseSample`]) the
/// sum over all workers.
#[derive(Clone, Debug, Default)]
pub struct WorkerSample {
    /// Joined phase: number of aborts attributed to `(key, operation kind)`.
    pub conflicts: HashMap<(Key, OpKind), u64>,
    /// Split phase: operations applied to each split key's slice (write
    /// sampling — split keys no longer conflict, so writes are the contention
    /// signal). A worker fills this in from its slices' operation counts when
    /// it reconciles, not per write.
    pub split_writes: HashMap<Key, u64>,
    /// Split phase: stashes attributed to `(key, attempted operation kind)`.
    pub stashes: HashMap<(Key, OpKind), u64>,
    /// Transactions committed during the phase.
    pub committed: u64,
}

/// Aggregate of all workers' samples for one phase.
pub type PhaseSample = WorkerSample;

impl WorkerSample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a joined-phase conflict on `key` caused by an `op` access.
    pub fn record_conflict(&mut self, key: Key, op: OpKind) {
        *self.conflicts.entry((key, op)).or_insert(0) += 1;
    }

    /// Records `n` split-phase slice writes to `key`.
    pub fn record_split_writes(&mut self, key: Key, n: u64) {
        *self.split_writes.entry(key).or_insert(0) += n;
    }

    /// Records a split-phase stash caused by attempting `op` on split `key`.
    pub fn record_stash(&mut self, key: Key, op: OpKind) {
        *self.stashes.entry((key, op)).or_insert(0) += 1;
    }

    /// Records a committed transaction.
    pub fn record_commit(&mut self) {
        self.committed += 1;
    }

    /// Adds `other` into this sample and empties it (its maps keep their
    /// capacity for the next phase).
    pub fn absorb(&mut self, other: &mut WorkerSample) {
        for (k, v) in other.conflicts.drain() {
            *self.conflicts.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.split_writes.drain() {
            *self.split_writes.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.stashes.drain() {
            *self.stashes.entry(k).or_insert(0) += v;
        }
        self.committed += std::mem::take(&mut other.committed);
    }

    /// Empties the sample, keeping its maps' capacity.
    pub fn clear(&mut self) {
        self.conflicts.clear();
        self.split_writes.clear();
        self.stashes.clear();
        self.committed = 0;
    }

    /// Total stashes across all keys.
    pub fn total_stashes(&self) -> u64 {
        self.stashes.values().sum()
    }
}

/// Outcome of a classification pass, for statistics and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifyOutcome {
    /// Keys newly marked split.
    pub newly_split: Vec<Key>,
    /// Keys moved back to reconciled state.
    pub unsplit: Vec<Key>,
    /// Number of keys currently split after the pass.
    pub currently_split: usize,
}

/// Persistent split decisions plus the logic that updates them at phase
/// transitions.
#[derive(Debug)]
pub struct Classifier {
    config: DoppelConfig,
    /// Current decisions: key → selected operation. Persists across phases
    /// until the key is explicitly un-split.
    current: HashMap<Key, OpKind>,
    /// Decayed per-key conflict memory for *splittable* operations, kept
    /// beyond the per-phase thresholds so the adaptive tuner can resolve a
    /// heat-sketch token (a lossy [`Key::heat_token`] packing) back to the
    /// full key and its dominant splittable operation. Counts halve at every
    /// joined-phase end, so stale entries age out.
    hot_ops: HashMap<Key, (OpKind, u64)>,
    /// Cumulative split-phase writes per currently-split key — the write
    /// sampling signal the tuner uses for demotion (split keys stop
    /// conflicting, so conflict heat alone cannot tell hot from cold).
    /// Entries are dropped when the key is un-split.
    activity: HashMap<Key, u64>,
    /// Bumped whenever `current` changes, so the transition completer only
    /// rebuilds the [`SplitSet`] when it would differ and the coordinator can
    /// tell a settled split set from one still moving.
    version: u64,
}

impl Classifier {
    /// Creates a classifier with no split records. Decisions are validated
    /// against the process-wide [`split_ops`] registry — the same registry
    /// the slices and every engine's apply path resolve semantics from, so
    /// classification and execution can never disagree about an operation.
    pub fn new(config: DoppelConfig) -> Self {
        Classifier {
            config,
            current: HashMap::new(),
            hot_ops: HashMap::new(),
            activity: HashMap::new(),
            version: 0,
        }
    }

    /// A counter that moves whenever the split decisions do (a key is split,
    /// un-split or switches operation, by classification or by label).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current `(key, selected operation)` decisions.
    pub fn split_keys(&self) -> Vec<(Key, OpKind)> {
        self.current.iter().map(|(k, op)| (*k, *op)).collect()
    }

    /// Current number of split records.
    pub fn split_count(&self) -> usize {
        self.current.len()
    }

    /// True if `key` is currently marked split.
    pub fn is_split(&self, key: &Key) -> bool {
        self.current.contains_key(key)
    }

    /// Builds the split set for the next split phase.
    pub fn split_set(&self) -> SplitSet {
        SplitSet::from_decisions(self.current.iter().map(|(k, op)| (*k, *op)))
    }

    /// Processes the sample of a finished *joined* phase: marks the most
    /// conflicted records (for splittable operations) as split.
    ///
    /// A `(key, op)` pair is split when `op` is splittable and the pair
    /// accumulated at least `split_min_conflicts` conflicts **and** at least
    /// `split_conflict_fraction` of the phase's committed transactions.
    pub fn end_joined_phase(&mut self, sample: &PhaseSample) -> ClassifyOutcome {
        let mut outcome = ClassifyOutcome::default();
        // Age the conflict memory, then absorb this phase's splittable
        // conflicts (sub-threshold ones too — the tuner promotes from heat
        // accumulated across phases, which a per-phase threshold misses).
        self.hot_ops.retain(|_, (_, count)| {
            *count /= 2;
            *count > 0
        });
        for ((key, op), count) in &sample.conflicts {
            if !split_ops().is_splittable(*op) {
                continue;
            }
            let entry = self.hot_ops.entry(*key).or_insert((*op, 0));
            if *op == entry.0 {
                entry.1 += count;
            } else if *count > entry.1 {
                *entry = (*op, *count);
            }
        }
        if !self.config.enable_splitting {
            outcome.currently_split = self.current.len();
            return outcome;
        }
        let committed = sample.committed.max(1);
        let fraction_floor =
            (self.config.split_conflict_fraction * committed as f64).ceil() as u64;
        let threshold = self.config.split_min_conflicts.max(fraction_floor);

        // Rank candidate (key, op) pairs by conflict count, most conflicted
        // first, so the max_split_records cap keeps the hottest keys.
        let mut candidates: Vec<(&(Key, OpKind), &u64)> = sample
            .conflicts
            .iter()
            .filter(|((_, op), count)| split_ops().is_splittable(*op) && **count >= threshold)
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(a.1));

        for ((key, op), _count) in candidates {
            if self.current.len() >= self.config.max_split_records {
                break;
            }
            if !self.current.contains_key(key) {
                self.current.insert(*key, *op);
                self.version += 1;
                outcome.newly_split.push(*key);
            }
        }
        outcome.currently_split = self.current.len();
        outcome
    }

    /// Processes the sample of a finished *split* phase: moves records back
    /// to reconciled state when they are no longer worth splitting, and
    /// switches a record's selected operation when stashes show a different
    /// splittable operation dominating.
    pub fn end_split_phase(&mut self, sample: &PhaseSample) -> ClassifyOutcome {
        let mut outcome = ClassifyOutcome::default();
        let committed = sample.committed.max(1);
        let keep_floor = (self.config.unsplit_write_fraction * committed as f64).ceil() as u64;

        // Accumulate the write-sampling signal for the tuner before any
        // unsplit decision drops the key.
        for (key, writes) in &sample.split_writes {
            *self.activity.entry(*key).or_insert(0) += writes;
        }

        let unsplit_stash_ratio = self.config.unsplit_stash_ratio;
        let mut changed = false;
        self.current.retain(|key, selected| {
            let writes = sample.split_writes.get(key).copied().unwrap_or(0);
            let stashes_on_key = || sample.stashes.iter().filter(|((k, _), _)| k == key);
            let stashes: u64 = stashes_on_key().map(|(_, v)| *v).sum();

            // Rule 1: not enough split-phase writes — splitting no longer
            // pays for its reconciliation cost.
            let too_cold = writes < keep_floor;
            // Rule 2: stashes dominate writes — reads (or incompatible
            // operations) outnumber the split operation so heavily that
            // forcing them to wait for joined phases hurts more than the
            // parallel writes help.
            let too_many_stashes = stashes as f64 > unsplit_stash_ratio * (writes.max(1)) as f64;

            if too_cold || too_many_stashes {
                outcome.unsplit.push(*key);
                return false;
            }

            // Rule 3: a different *splittable* operation dominates the
            // stashes for this key — switch the selected operation for the
            // next phase ("the operation for key k might be Min in one split
            // phase, and Max in the next", §4).
            if let Some((&(_, dominant_op), &dominant_count)) = stashes_on_key()
                .filter(|((_, op), _)| split_ops().is_splittable(*op))
                .max_by_key(|(_, v)| **v)
            {
                if dominant_count > writes && dominant_op != *selected {
                    *selected = dominant_op;
                    changed = true;
                }
            }
            true
        });
        for key in &outcome.unsplit {
            self.activity.remove(key);
        }
        if changed || !outcome.unsplit.is_empty() {
            self.version += 1;
        }
        outcome.currently_split = self.current.len();
        outcome
    }

    /// Forces a manual split decision ("Doppel also supports manual data
    /// labeling", §5.5).
    pub fn label_split(&mut self, key: Key, op: OpKind) {
        assert!(
            split_ops().is_splittable(op),
            "cannot label {key} split for unsplittable {op}"
        );
        if self.current.insert(key, op) != Some(op) {
            self.version += 1;
        }
    }

    /// Removes a manual or automatic split decision.
    pub fn label_reconciled(&mut self, key: &Key) {
        if self.current.remove(key).is_some() {
            self.version += 1;
        }
        self.activity.remove(key);
    }

    // ---- Adaptive-tuner hooks -------------------------------------------

    /// Resolves a heat-sketch token back to the full key and its dominant
    /// splittable operation, from the decayed conflict memory. Returns
    /// `None` when no remembered key packs to `token` (e.g. the conflicts
    /// aged out, or the token came from an unsplittable-only key).
    pub fn resolve_token(&self, token: u64) -> Option<(Key, OpKind)> {
        self.hot_ops
            .iter()
            .filter(|(key, _)| key.heat_token() == token)
            .max_by_key(|(_, (_, count))| *count)
            .map(|(key, (op, _))| (*key, *op))
    }

    /// Cumulative split-phase writes for every currently-split key (0 for a
    /// key split so recently that no split phase has sampled it yet).
    pub fn split_activity(&self) -> Vec<(Key, u64)> {
        self.current
            .keys()
            .map(|k| (*k, self.activity.get(k).copied().unwrap_or(0)))
            .collect()
    }

    /// The thresholds currently in effect.
    pub fn thresholds(&self) -> TuneThresholds {
        TuneThresholds {
            split_min_conflicts: self.config.split_min_conflicts,
            unsplit_stash_ratio: self.config.unsplit_stash_ratio,
        }
    }

    /// Installs tuned thresholds (the classifier owns a private config
    /// clone, so this does not affect other engine components).
    pub fn set_thresholds(&mut self, t: TuneThresholds) {
        self.config.split_min_conflicts = t.split_min_conflicts;
        self.config.unsplit_stash_ratio = t.unsplit_stash_ratio;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DoppelConfig {
        DoppelConfig {
            split_min_conflicts: 10,
            split_conflict_fraction: 0.01,
            unsplit_write_fraction: 0.01,
            unsplit_stash_ratio: 4.0,
            ..DoppelConfig::default()
        }
    }

    fn joined_sample(conflicts: &[(u64, OpKind, u64)], committed: u64) -> PhaseSample {
        let mut s = PhaseSample { committed, ..Default::default() };
        for (key, op, count) in conflicts {
            s.conflicts.insert((Key::raw(*key), *op), *count);
        }
        s
    }

    #[test]
    fn hot_splittable_key_gets_split() {
        let mut c = Classifier::new(config());
        let sample = joined_sample(&[(1, OpKind::Add, 500), (2, OpKind::Add, 2)], 10_000);
        let outcome = c.end_joined_phase(&sample);
        assert_eq!(outcome.newly_split, vec![Key::raw(1)]);
        assert!(c.is_split(&Key::raw(1)));
        assert!(!c.is_split(&Key::raw(2)), "2 conflicts is below both thresholds");
        assert_eq!(c.split_set().selected_op(&Key::raw(1)), Some(OpKind::Add));
    }

    #[test]
    fn unsplittable_conflicts_are_ignored() {
        let mut c = Classifier::new(config());
        let sample = joined_sample(&[(1, OpKind::Put, 5_000), (1, OpKind::Get, 5_000)], 10_000);
        let outcome = c.end_joined_phase(&sample);
        assert!(outcome.newly_split.is_empty());
        assert_eq!(c.split_count(), 0);
    }

    #[test]
    fn fraction_threshold_scales_with_commit_volume() {
        let mut c = Classifier::new(config());
        // 100 conflicts out of 100k commits = 0.1% < 1% → not split.
        let sample = joined_sample(&[(1, OpKind::Add, 100)], 100_000);
        c.end_joined_phase(&sample);
        assert_eq!(c.split_count(), 0);
        // 2000 conflicts out of 100k commits = 2% ≥ 1% → split.
        let sample = joined_sample(&[(1, OpKind::Add, 2_000)], 100_000);
        c.end_joined_phase(&sample);
        assert_eq!(c.split_count(), 1);
    }

    #[test]
    fn splitting_disabled_never_splits() {
        let mut cfg = config();
        cfg.enable_splitting = false;
        let mut c = Classifier::new(cfg);
        let sample = joined_sample(&[(1, OpKind::Add, 10_000)], 10_000);
        let outcome = c.end_joined_phase(&sample);
        assert!(outcome.newly_split.is_empty());
        assert_eq!(c.split_count(), 0);
    }

    #[test]
    fn max_split_records_cap_keeps_hottest() {
        let mut cfg = config();
        cfg.max_split_records = 2;
        let mut c = Classifier::new(cfg);
        let sample = joined_sample(
            &[(1, OpKind::Add, 100), (2, OpKind::Add, 300), (3, OpKind::Add, 200)],
            1_000,
        );
        c.end_joined_phase(&sample);
        assert_eq!(c.split_count(), 2);
        assert!(c.is_split(&Key::raw(2)));
        assert!(c.is_split(&Key::raw(3)));
        assert!(!c.is_split(&Key::raw(1)));
    }

    #[test]
    fn cold_split_key_is_unsplit() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(1), OpKind::Add);
        // Split phase with plenty of commits but almost no writes to key 1.
        let sample = PhaseSample {
            committed: 10_000,
            split_writes: [(Key::raw(1), 3)].into_iter().collect(),
            ..Default::default()
        };
        let outcome = c.end_split_phase(&sample);
        assert_eq!(outcome.unsplit, vec![Key::raw(1)]);
        assert_eq!(c.split_count(), 0);
    }

    #[test]
    fn hot_split_key_stays_split() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(1), OpKind::Add);
        let sample = PhaseSample {
            committed: 10_000,
            split_writes: [(Key::raw(1), 4_000)].into_iter().collect(),
            ..Default::default()
        };
        let outcome = c.end_split_phase(&sample);
        assert!(outcome.unsplit.is_empty());
        assert!(c.is_split(&Key::raw(1)));
    }

    #[test]
    fn read_dominated_key_is_unsplit() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(1), OpKind::Add);
        let sample = PhaseSample {
            committed: 10_000,
            split_writes: [(Key::raw(1), 200)].into_iter().collect(),
            stashes: [((Key::raw(1), OpKind::Get), 5_000)].into_iter().collect(),
            ..Default::default()
        };
        let outcome = c.end_split_phase(&sample);
        assert_eq!(outcome.unsplit, vec![Key::raw(1)]);
    }

    #[test]
    fn dominant_splittable_stash_switches_selected_op() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(1), OpKind::Max);
        let sample = PhaseSample {
            committed: 10_000,
            split_writes: [(Key::raw(1), 500)].into_iter().collect(),
            // More Add attempts were stashed than Max writes happened, but
            // not so many that the key gets unsplit (ratio 4x).
            stashes: [((Key::raw(1), OpKind::Add), 900)].into_iter().collect(),
            ..Default::default()
        };
        c.end_split_phase(&sample);
        assert_eq!(c.split_set().selected_op(&Key::raw(1)), Some(OpKind::Add));
    }

    #[test]
    fn manual_labels() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(9), OpKind::TopKInsert);
        assert!(c.is_split(&Key::raw(9)));
        c.label_reconciled(&Key::raw(9));
        assert!(!c.is_split(&Key::raw(9)));
    }

    #[test]
    #[should_panic(expected = "unsplittable")]
    fn manual_label_rejects_unsplittable() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(9), OpKind::Get);
    }

    #[test]
    fn conflict_memory_resolves_tokens_and_decays() {
        let mut c = Classifier::new(config());
        let key = Key::raw(77);
        // 4 conflicts: splittable but below the split threshold of 10.
        let sample = joined_sample(&[(77, OpKind::Add, 4)], 1_000);
        c.end_joined_phase(&sample);
        assert_eq!(c.split_count(), 0, "below threshold, not split");
        // The memory still resolves the heat token for the tuner.
        assert_eq!(c.resolve_token(key.heat_token()), Some((key, OpKind::Add)));
        assert_eq!(c.resolve_token(Key::raw(99).heat_token()), None);
        // Unsplittable conflicts never enter the memory.
        let sample = joined_sample(&[(88, OpKind::Put, 1_000)], 1_000);
        c.end_joined_phase(&sample);
        assert_eq!(c.resolve_token(Key::raw(88).heat_token()), None);
        // Quiet phases halve the count each time; the entry ages out.
        for _ in 0..4 {
            c.end_joined_phase(&joined_sample(&[], 1_000));
        }
        assert_eq!(c.resolve_token(key.heat_token()), None, "memory decayed");
    }

    #[test]
    fn split_activity_accumulates_and_clears_on_unsplit() {
        let mut c = Classifier::new(config());
        c.label_split(Key::raw(1), OpKind::Add);
        assert_eq!(c.split_activity(), vec![(Key::raw(1), 0)]);
        let sample = PhaseSample {
            committed: 1_000,
            split_writes: [(Key::raw(1), 400)].into_iter().collect(),
            ..Default::default()
        };
        c.end_split_phase(&sample);
        c.end_split_phase(&sample);
        assert_eq!(c.split_activity(), vec![(Key::raw(1), 800)]);
        c.label_reconciled(&Key::raw(1));
        assert!(c.split_activity().is_empty());
        // Re-splitting starts the cumulative count over.
        c.label_split(Key::raw(1), OpKind::Add);
        assert_eq!(c.split_activity(), vec![(Key::raw(1), 0)]);
    }

    #[test]
    fn tuned_thresholds_take_effect() {
        let mut c = Classifier::new(config());
        assert_eq!(c.thresholds().split_min_conflicts, 10);
        // 5 conflicts: below the default threshold.
        c.end_joined_phase(&joined_sample(&[(1, OpKind::Add, 5)], 100));
        assert_eq!(c.split_count(), 0);
        c.set_thresholds(TuneThresholds { split_min_conflicts: 3, unsplit_stash_ratio: 2.0 });
        assert_eq!(c.thresholds().split_min_conflicts, 3);
        assert_eq!(c.thresholds().unsplit_stash_ratio, 2.0);
        c.end_joined_phase(&joined_sample(&[(1, OpKind::Add, 5)], 100));
        assert_eq!(c.split_count(), 1, "lowered threshold admits the key");
    }

    #[test]
    fn phase_sample_absorbs_worker_samples() {
        let mut w1 = WorkerSample::new();
        w1.record_conflict(Key::raw(1), OpKind::Add);
        w1.record_conflict(Key::raw(1), OpKind::Add);
        w1.record_commit();
        let mut w2 = WorkerSample::new();
        w2.record_conflict(Key::raw(1), OpKind::Add);
        w2.record_split_writes(Key::raw(2), 1);
        w2.record_stash(Key::raw(2), OpKind::Get);
        w2.record_commit();
        w2.record_commit();

        let mut agg = PhaseSample::default();
        agg.absorb(&mut w1);
        agg.absorb(&mut w2);
        assert_eq!(agg.conflicts[&(Key::raw(1), OpKind::Add)], 3);
        assert_eq!(agg.split_writes[&Key::raw(2)], 1);
        assert_eq!(agg.total_stashes(), 1);
        assert_eq!(agg.committed, 3);
        // absorb() emptied the worker samples.
        assert_eq!(w1.committed, 0);
        assert!(w2.conflicts.is_empty());
    }
}
