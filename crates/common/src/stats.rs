//! Engine statistics counters.
//!
//! All counters are relaxed atomics: they are monitoring data, not part of
//! any correctness protocol. The counters a worker moves on every
//! transaction — commits, aborts, stashes, slice operations — are further
//! partitioned per core ([`CoreStats`]): each cell has exactly one writer,
//! so a bump is a plain load and store on a cache line no other core
//! writes, and [`EngineStats::snapshot`] sums the cells. Everything else
//! (phase counts, WAL and queue counters) moves at most once per phase,
//! fsync or batch and stays a shared `fetch_add`.

use crate::CoreId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A counter with a single writer: `add` is a relaxed load followed by a
/// relaxed store (no `lock` prefix), which is exact as long as only one
/// thread at a time calls it. Readers on other threads see a value that is
/// at most a few stores behind; the writer itself always reads its own last
/// store.
#[derive(Debug, Default)]
pub struct LocalCounter(AtomicU64);

impl LocalCounter {
    /// Adds `n`. Must only be called by the counter's owning thread.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(self.0.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Adds one. Must only be called by the counter's owning thread.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The per-transaction counters of one core, alone on their cache lines
/// (128 bytes covers the adjacent-line prefetcher, as `CachePadded` does).
/// Written only by the handle that owns the core — engines hand out one
/// handle per core, which the TID generator and Doppel's phase barrier
/// already require.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CoreStats {
    /// Transactions that committed.
    pub commits: LocalCounter,
    /// Transactions that aborted due to a conflict (and were handed back to
    /// the caller for retry).
    pub conflicts: LocalCounter,
    /// User-initiated aborts.
    pub user_aborts: LocalCounter,
    /// Transactions stashed by Doppel workers during split phases.
    pub stashes: LocalCounter,
    /// Stashed transactions that eventually committed in a joined phase.
    pub stash_commits: LocalCounter,
    /// Operations applied to per-core slices (split-phase fast path).
    pub slice_ops: LocalCounter,
}

/// Counters updated by workers and read by coordinators, benchmarks and
/// tests.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// One cell per core for the counters that move on every transaction.
    cores: Box<[CoreStats]>,
    /// Per-core slices merged into the global store during reconciliations.
    pub slices_merged: AtomicU64,
    /// Completed joined phases.
    pub joined_phases: AtomicU64,
    /// Completed split phases.
    pub split_phases: AtomicU64,
    /// Records currently marked as split (gauge).
    pub split_records: AtomicU64,
    /// Records that have ever been marked split.
    pub total_splits: AtomicU64,
    /// Records moved back from split to reconciled state.
    pub total_unsplits: AtomicU64,
    /// Records appended to the write-ahead log (commit records plus merged
    /// split-key delta records).
    pub log_records: AtomicU64,
    /// Bytes appended to the write-ahead log.
    pub log_bytes: AtomicU64,
    /// `fsync` calls issued by the log.
    pub fsyncs: AtomicU64,
    /// Group-commit batches flushed (each batch is one fsync covering one or
    /// more commit records).
    pub group_commit_batches: AtomicU64,
    /// Log records replayed into this engine during crash recovery.
    pub recovered_txns: AtomicU64,
    /// Procedures currently sitting in submission queues (gauge, maintained
    /// by the transaction service).
    pub queue_depth: AtomicU64,
    /// Procedures accepted into submission queues.
    pub queue_enqueued: AtomicU64,
    /// Submissions rejected with `Busy` because a queue was at its depth cap
    /// (the service's backpressure signal).
    pub queue_busy_rejections: AtomicU64,
    /// Batched dequeues performed by service workers. The mean batch size is
    /// `queue_enqueued / queue_batches`.
    pub queue_batches: AtomicU64,
}

impl EngineStats {
    /// Creates a zeroed statistics block with one [`CoreStats`] cell for each
    /// of `cores` cores (0 for a block that only uses the shared counters).
    pub fn new(cores: usize) -> Self {
        EngineStats {
            cores: (0..cores).map(|_| CoreStats::default()).collect(),
            ..Default::default()
        }
    }

    /// The per-transaction counters of `core`, for that core's handle.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not below the count given to [`EngineStats::new`].
    #[inline]
    pub fn core(&self, core: CoreId) -> &CoreStats {
        &self.cores[core]
    }

    /// Increments a shared counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a shared counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of every counter, summing the per-core
    /// cells.
    pub fn snapshot(&self) -> StatsSnapshot {
        let sum = |counter: fn(&CoreStats) -> &LocalCounter| -> u64 {
            self.cores.iter().map(|cell| counter(cell).get()).sum()
        };
        StatsSnapshot {
            commits: sum(|c| &c.commits),
            conflicts: sum(|c| &c.conflicts),
            stashes: sum(|c| &c.stashes),
            stash_commits: sum(|c| &c.stash_commits),
            user_aborts: sum(|c| &c.user_aborts),
            slice_ops: sum(|c| &c.slice_ops),
            slices_merged: self.slices_merged.load(Ordering::Relaxed),
            joined_phases: self.joined_phases.load(Ordering::Relaxed),
            split_phases: self.split_phases.load(Ordering::Relaxed),
            split_records: self.split_records.load(Ordering::Relaxed),
            total_splits: self.total_splits.load(Ordering::Relaxed),
            total_unsplits: self.total_unsplits.load(Ordering::Relaxed),
            log_records: self.log_records.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            recovered_txns: self.recovered_txns.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_enqueued: self.queue_enqueued.load(Ordering::Relaxed),
            queue_busy_rejections: self.queue_busy_rejections.load(Ordering::Relaxed),
            queue_batches: self.queue_batches.load(Ordering::Relaxed),
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    /// Folds a [`crate::engine::LogReceipt`] returned by a
    /// [`crate::engine::CommitSink`] into the WAL counters.
    pub fn absorb_log(&self, receipt: &crate::engine::LogReceipt) {
        if receipt.records != 0 {
            Self::add(&self.log_records, receipt.records);
        }
        if receipt.bytes != 0 {
            Self::add(&self.log_bytes, receipt.bytes);
        }
        if receipt.fsyncs != 0 {
            Self::add(&self.fsyncs, receipt.fsyncs);
        }
        if receipt.batches != 0 {
            Self::add(&self.group_commit_batches, receipt.batches);
        }
    }
}

/// A point-in-time copy of [`EngineStats`], safe to serialize and diff.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// See [`CoreStats::commits`], summed over cores.
    pub commits: u64,
    /// See [`CoreStats::conflicts`], summed over cores.
    pub conflicts: u64,
    /// See [`CoreStats::stashes`], summed over cores.
    pub stashes: u64,
    /// See [`CoreStats::stash_commits`], summed over cores.
    pub stash_commits: u64,
    /// See [`CoreStats::user_aborts`], summed over cores.
    pub user_aborts: u64,
    /// See [`CoreStats::slice_ops`], summed over cores.
    pub slice_ops: u64,
    /// See [`EngineStats::slices_merged`].
    pub slices_merged: u64,
    /// See [`EngineStats::joined_phases`].
    pub joined_phases: u64,
    /// See [`EngineStats::split_phases`].
    pub split_phases: u64,
    /// See [`EngineStats::split_records`].
    pub split_records: u64,
    /// See [`EngineStats::total_splits`].
    pub total_splits: u64,
    /// See [`EngineStats::total_unsplits`].
    pub total_unsplits: u64,
    /// See [`EngineStats::log_records`].
    pub log_records: u64,
    /// See [`EngineStats::log_bytes`].
    pub log_bytes: u64,
    /// See [`EngineStats::fsyncs`].
    pub fsyncs: u64,
    /// See [`EngineStats::group_commit_batches`].
    pub group_commit_batches: u64,
    /// See [`EngineStats::recovered_txns`].
    pub recovered_txns: u64,
    /// See [`EngineStats::queue_depth`] (gauge).
    pub queue_depth: u64,
    /// See [`EngineStats::queue_enqueued`].
    pub queue_enqueued: u64,
    /// See [`EngineStats::queue_busy_rejections`].
    pub queue_busy_rejections: u64,
    /// See [`EngineStats::queue_batches`].
    pub queue_batches: u64,
    /// Heap allocations performed during the measured interval, overlaid by
    /// [`StatsSnapshot::with_alloc_counters`]. Zero when the counting
    /// allocator is not installed (see [`crate::alloc`]).
    pub alloc_count: u64,
    /// Heap bytes requested during the measured interval (same caveat as
    /// [`StatsSnapshot::alloc_count`]).
    pub alloc_bytes: u64,
}

impl StatsSnapshot {
    /// Total transactions that finished (committed or aborted for the caller).
    pub fn attempts(&self) -> u64 {
        self.commits + self.conflicts + self.user_aborts
    }

    /// Abort rate among finished transactions, in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }

    /// Overlays the submission-queue counters from `queues` onto this
    /// snapshot. The service layer owns the queues (and therefore those
    /// counters) while the engine owns everything else; this combines both
    /// into the single snapshot benchmarks and reports consume.
    pub fn with_queue_counters(mut self, queues: &StatsSnapshot) -> StatsSnapshot {
        self.queue_depth = queues.queue_depth;
        self.queue_enqueued = queues.queue_enqueued;
        self.queue_busy_rejections = queues.queue_busy_rejections;
        self.queue_batches = queues.queue_batches;
        self
    }

    /// Overlays allocation counters measured by [`crate::alloc`] onto this
    /// snapshot. The global allocator owns these counts (they are not
    /// per-engine atomics), so drivers stamp them on after computing the
    /// engine-side delta.
    pub fn with_alloc_counters(mut self, count: u64, bytes: u64) -> StatsSnapshot {
        self.alloc_count = count;
        self.alloc_bytes = bytes;
        self
    }

    /// Mean allocations per committed transaction, `None` when idle.
    pub fn allocs_per_commit(&self) -> Option<f64> {
        if self.commits == 0 {
            None
        } else {
            Some(self.alloc_count as f64 / self.commits as f64)
        }
    }

    /// Every counter as a `(name, value)` pair, for self-describing exports
    /// (the wire telemetry snapshot, generic renderers). Keep in sync with
    /// the field list — [`StatsSnapshot::delta`] already forces that
    /// discipline on any new counter.
    pub fn named_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("commits", self.commits),
            ("conflicts", self.conflicts),
            ("stashes", self.stashes),
            ("stash_commits", self.stash_commits),
            ("user_aborts", self.user_aborts),
            ("slice_ops", self.slice_ops),
            ("slices_merged", self.slices_merged),
            ("joined_phases", self.joined_phases),
            ("split_phases", self.split_phases),
            ("split_records", self.split_records),
            ("total_splits", self.total_splits),
            ("total_unsplits", self.total_unsplits),
            ("log_records", self.log_records),
            ("log_bytes", self.log_bytes),
            ("fsyncs", self.fsyncs),
            ("group_commit_batches", self.group_commit_batches),
            ("recovered_txns", self.recovered_txns),
            ("queue_depth", self.queue_depth),
            ("queue_enqueued", self.queue_enqueued),
            ("queue_busy_rejections", self.queue_busy_rejections),
            ("queue_batches", self.queue_batches),
            ("alloc_count", self.alloc_count),
            ("alloc_bytes", self.alloc_bytes),
        ]
    }

    /// Counter-wise sum, for pooling snapshots across independent runs
    /// (e.g. one benchmark row covering several engines). The two gauges —
    /// `split_records` and `queue_depth` — take the maximum instead: adding
    /// instantaneous levels from different runs means nothing.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits + other.commits,
            conflicts: self.conflicts + other.conflicts,
            stashes: self.stashes + other.stashes,
            stash_commits: self.stash_commits + other.stash_commits,
            user_aborts: self.user_aborts + other.user_aborts,
            slice_ops: self.slice_ops + other.slice_ops,
            slices_merged: self.slices_merged + other.slices_merged,
            joined_phases: self.joined_phases + other.joined_phases,
            split_phases: self.split_phases + other.split_phases,
            split_records: self.split_records.max(other.split_records),
            total_splits: self.total_splits + other.total_splits,
            total_unsplits: self.total_unsplits + other.total_unsplits,
            log_records: self.log_records + other.log_records,
            log_bytes: self.log_bytes + other.log_bytes,
            fsyncs: self.fsyncs + other.fsyncs,
            group_commit_batches: self.group_commit_batches + other.group_commit_batches,
            recovered_txns: self.recovered_txns + other.recovered_txns,
            queue_depth: self.queue_depth.max(other.queue_depth),
            queue_enqueued: self.queue_enqueued + other.queue_enqueued,
            queue_busy_rejections: self.queue_busy_rejections + other.queue_busy_rejections,
            queue_batches: self.queue_batches + other.queue_batches,
            alloc_count: self.alloc_count + other.alloc_count,
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
        }
    }

    /// Counter-wise difference `self - earlier` (for per-interval rates).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            conflicts: self.conflicts - earlier.conflicts,
            stashes: self.stashes - earlier.stashes,
            stash_commits: self.stash_commits - earlier.stash_commits,
            user_aborts: self.user_aborts - earlier.user_aborts,
            slice_ops: self.slice_ops - earlier.slice_ops,
            slices_merged: self.slices_merged - earlier.slices_merged,
            joined_phases: self.joined_phases - earlier.joined_phases,
            split_phases: self.split_phases - earlier.split_phases,
            split_records: self.split_records,
            total_splits: self.total_splits - earlier.total_splits,
            total_unsplits: self.total_unsplits - earlier.total_unsplits,
            log_records: self.log_records - earlier.log_records,
            log_bytes: self.log_bytes - earlier.log_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
            recovered_txns: self.recovered_txns - earlier.recovered_txns,
            queue_depth: self.queue_depth,
            queue_enqueued: self.queue_enqueued - earlier.queue_enqueued,
            queue_busy_rejections: self.queue_busy_rejections - earlier.queue_busy_rejections,
            queue_batches: self.queue_batches - earlier.queue_batches,
            alloc_count: self.alloc_count - earlier.alloc_count,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = EngineStats::new(2);
        s.core(0).commits.bump();
        s.core(1).commits.bump();
        s.core(1).conflicts.add(3);
        // The owning thread reads its own bump back at once.
        assert_eq!(s.core(1).commits.get(), 1);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.conflicts, 3);
        assert_eq!(snap.attempts(), 5);
        assert!((snap.abort_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn per_core_cells_sum_exactly_across_threads() {
        const BUMPS: u64 = 200_000;
        let s = EngineStats::new(2);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for core in 0..2 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    let cell = s.core(core);
                    start.wait();
                    for i in 0..BUMPS {
                        cell.commits.bump();
                        cell.slice_ops.add(2);
                        assert_eq!(cell.commits.get(), i + 1, "a writer sees its own bump");
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2 * BUMPS);
        assert_eq!(snap.slice_ops, 4 * BUMPS);
    }

    #[test]
    fn per_core_cells_do_not_share_cache_lines() {
        assert!(std::mem::align_of::<CoreStats>() >= 64);
        assert_eq!(std::mem::size_of::<CoreStats>() % std::mem::align_of::<CoreStats>(), 0);
        let s = EngineStats::new(2);
        let (a, b) = (s.core(0) as *const CoreStats as usize, s.core(1) as *const CoreStats as usize);
        assert!(a.abs_diff(b) >= 64);
        // Nor with the shared counters, which live in the block itself.
        let lines = |start: usize, len: usize| start / 64..=(start + len - 1) / 64;
        let cells = lines(a.min(b), 2 * std::mem::size_of::<CoreStats>());
        let block = lines(&s as *const EngineStats as usize, std::mem::size_of::<EngineStats>());
        assert!(cells.end() < block.start() || block.end() < cells.start());
    }

    #[test]
    fn abort_rate_zero_when_idle() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }

    #[test]
    fn absorb_log_folds_receipts() {
        let s = EngineStats::new(0);
        s.absorb_log(&crate::engine::LogReceipt { records: 3, bytes: 120, fsyncs: 1, batches: 1 });
        s.absorb_log(&crate::engine::LogReceipt { records: 1, bytes: 40, fsyncs: 0, batches: 0 });
        let snap = s.snapshot();
        assert_eq!(snap.log_records, 4);
        assert_eq!(snap.log_bytes, 160);
        assert_eq!(snap.fsyncs, 1);
        assert_eq!(snap.group_commit_batches, 1);
        assert_eq!(snap.recovered_txns, 0);
    }

    #[test]
    fn delta_covers_log_counters() {
        let a = StatsSnapshot { log_records: 5, log_bytes: 100, fsyncs: 2, ..Default::default() };
        let b = StatsSnapshot { log_records: 9, log_bytes: 260, fsyncs: 3, ..Default::default() };
        let d = b.delta(&a);
        assert_eq!(d.log_records, 4);
        assert_eq!(d.log_bytes, 160);
        assert_eq!(d.fsyncs, 1);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let a = StatsSnapshot {
            commits: 10,
            alloc_count: 100,
            queue_depth: 3,
            split_records: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            commits: 5,
            alloc_count: 40,
            queue_depth: 7,
            split_records: 1,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.commits, 15);
        assert_eq!(m.alloc_count, 140);
        assert_eq!(m.queue_depth, 7, "gauge takes the max");
        assert_eq!(m.split_records, 2, "gauge takes the max");
        assert_eq!(m.allocs_per_commit(), Some(140.0 / 15.0));
    }

    #[test]
    fn queue_counters_snapshot_and_delta() {
        let s = EngineStats::new(0);
        EngineStats::add(&s.queue_enqueued, 10);
        EngineStats::bump(&s.queue_busy_rejections);
        EngineStats::add(&s.queue_batches, 4);
        s.queue_depth.store(3, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.queue_enqueued, 10);
        assert_eq!(snap.queue_busy_rejections, 1);
        assert_eq!(snap.queue_batches, 4);
        assert_eq!(snap.queue_depth, 3);
        // The depth gauge passes through a delta unchanged; the counters
        // difference.
        let d = snap.delta(&StatsSnapshot { queue_enqueued: 4, ..Default::default() });
        assert_eq!(d.queue_enqueued, 6);
        assert_eq!(d.queue_depth, 3);
        // Overlaying queue counters replaces only the queue fields.
        let engine_side = StatsSnapshot { commits: 9, ..Default::default() };
        let merged = engine_side.with_queue_counters(&snap);
        assert_eq!(merged.commits, 9);
        assert_eq!(merged.queue_enqueued, 10);
    }

    #[test]
    fn alloc_counters_overlay_and_delta() {
        let snap = StatsSnapshot { commits: 4, ..Default::default() }
            .with_alloc_counters(20, 4096);
        assert_eq!(snap.alloc_count, 20);
        assert_eq!(snap.alloc_bytes, 4096);
        assert_eq!(snap.allocs_per_commit(), Some(5.0));
        assert_eq!(StatsSnapshot::default().allocs_per_commit(), None);
        let earlier = StatsSnapshot::default().with_alloc_counters(5, 1024);
        let d = snap.delta(&earlier);
        assert_eq!(d.alloc_count, 15);
        assert_eq!(d.alloc_bytes, 3072);
    }

    #[test]
    fn delta() {
        let a = StatsSnapshot { commits: 10, conflicts: 2, ..Default::default() };
        let b = StatsSnapshot { commits: 25, conflicts: 5, ..Default::default() };
        let d = b.delta(&a);
        assert_eq!(d.commits, 15);
        assert_eq!(d.conflicts, 3);
    }
}
