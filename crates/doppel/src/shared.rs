//! State shared between workers, the coordinator and the database facade.

use crate::classify::{Classifier, PhaseSample, WorkerSample};
use crate::phase::{Phase, PhaseState};
use crate::split_registry::SplitRegistry;
use crossbeam::utils::CachePadded;
use doppel_common::{CommitSink, DoppelConfig, EngineStats};
use doppel_store::Store;
use doppel_telemetry::trace::{self, EventKind};
use doppel_telemetry::{Registry, SharedHistogram};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a Doppel worker or coordinator needs to reach through one
/// `Arc`.
pub struct DoppelShared {
    /// Engine configuration (immutable after construction).
    pub config: DoppelConfig,
    /// The global store (reconciled data).
    pub store: Store,
    /// Monitoring counters.
    pub stats: EngineStats,
    /// Phase transition state (target / acks / release).
    pub phase: PhaseState,
    /// The split set used by the current or next split phase.
    pub registry: SplitRegistry,
    /// Persistent split decisions and the classification logic.
    pub classifier: Mutex<Classifier>,
    /// Per-worker hand-off slots for contention samples: a worker owns its
    /// sample while a phase runs and drains it into its slot once, before
    /// acknowledging a transition; the completer drains the slots.
    pub samplers: Vec<Mutex<WorkerSample>>,
    /// Serialises transition completion (exactly one completer per seq) and
    /// holds what the completer reuses from one transition to the next.
    completion: Mutex<Completion>,
    /// Sampled joined-phase conflicts on splittable operations, on keys
    /// outside the split set, since the last transition — the coordinator's
    /// "is anything newly contended?" signal. On a line of its own: workers
    /// write it per sampled conflict, and its neighbours are read per
    /// transaction.
    pub splittable_conflicts: CachePadded<AtomicU64>,
    /// Set once at shutdown; all wait loops observe it.
    pub shutdown: AtomicBool,
    /// The durability sink, when attached: joined-phase commits log their
    /// write sets through it, and reconciling workers log one merged delta
    /// per split key. `None` keeps the engine volatile (the default).
    pub wal: RwLock<Option<Arc<dyn CommitSink>>>,
    /// The engine's telemetry registry (always on; recording never
    /// allocates). Exposed through [`doppel_common::Engine::telemetry`].
    pub telemetry: Arc<Registry>,
    /// Joined-phase durations, recorded at each joined→split transition.
    pub hist_phase_joined: Arc<SharedHistogram>,
    /// Split-phase durations, recorded at each split→joined transition.
    pub hist_phase_split: Arc<SharedHistogram>,
    /// Per-worker reconciliation (slice-merge) durations.
    pub hist_reconcile: Arc<SharedHistogram>,
    /// Stash-to-replay-completion latency of stashed transactions.
    pub hist_stash_replay: Arc<SharedHistogram>,
    /// When the current phase began (updated by the transition completer).
    phase_started: Mutex<Instant>,
    /// The phase length currently in effect, in nanoseconds. Starts at
    /// `config.phase_len`; the adaptive tuner may steer it between its
    /// configured bounds. The coordinator reads it every cycle.
    phase_len_ns: AtomicU64,
    /// The live value of `split_min_conflicts` the coordinator gates split
    /// phases on (the classifier keeps its own copy; both are updated
    /// together through [`crate::DoppelDb`]'s tuning hook).
    pub split_gate_conflicts: AtomicU64,
}

/// The transition completer's state across transitions.
#[derive(Default)]
struct Completion {
    /// The phase aggregate, cleared and refilled at every transition so its
    /// tables are allocated once.
    aggregate: PhaseSample,
    /// The classifier version the installed split set was built from.
    installed_version: u64,
}

impl DoppelShared {
    /// Creates shared state for a database with `config`.
    pub fn new(config: DoppelConfig) -> Self {
        let workers = config.workers;
        let telemetry = Arc::new(Registry::new());
        let hist_phase_joined = telemetry.histogram("phase_joined");
        let hist_phase_split = telemetry.histogram("phase_split");
        let hist_reconcile = telemetry.histogram("reconcile");
        let hist_stash_replay = telemetry.histogram("stash_replay");
        DoppelShared {
            store: Store::new(config.store_shards),
            stats: EngineStats::new(workers),
            phase: PhaseState::new(workers),
            registry: SplitRegistry::new(),
            classifier: Mutex::new(Classifier::new(config.clone())),
            samplers: (0..workers).map(|_| Mutex::new(WorkerSample::new())).collect(),
            completion: Mutex::new(Completion::default()),
            splittable_conflicts: CachePadded::new(AtomicU64::new(0)),
            shutdown: AtomicBool::new(false),
            wal: RwLock::new(None),
            telemetry,
            hist_phase_joined,
            hist_phase_split,
            hist_reconcile,
            hist_stash_replay,
            phase_started: Mutex::new(Instant::now()),
            phase_len_ns: AtomicU64::new(config.phase_len.as_nanos().min(u64::MAX as u128) as u64),
            split_gate_conflicts: AtomicU64::new(config.split_min_conflicts),
            config,
        }
    }

    /// The phase length currently in effect (the configured value until the
    /// tuner adjusts it).
    pub fn phase_len(&self) -> Duration {
        Duration::from_nanos(self.phase_len_ns.load(Ordering::Relaxed))
    }

    /// Sets the phase length for subsequent phases. Zero is ignored (a
    /// zero-length phase would spin the coordinator).
    pub fn set_phase_len(&self, len: Duration) {
        let ns = len.as_nanos().min(u64::MAX as u128) as u64;
        if ns > 0 {
            self.phase_len_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// The attached durability sink, if any (a cheap read-lock + Arc clone;
    /// workers call this once per transaction / reconciliation).
    pub fn commit_sink(&self) -> Option<Arc<dyn CommitSink>> {
        self.wal.read().clone()
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown: wait loops unblock and workers stop accepting
    /// transactions.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Attempts to complete the pending phase transition: if every registered
    /// worker has acknowledged it, runs the transition work (classification,
    /// split-set installation, statistics) and publishes the release.
    ///
    /// Any thread may call this; the completion runs exactly once per
    /// transition. Returns `true` if this call performed the completion.
    pub fn try_complete_transition(&self) -> bool {
        let target = self.phase.target();
        if target.seq == 0 || self.phase.released_seq() >= target.seq {
            return false;
        }
        if !self.phase.all_acked(target.seq) {
            return false;
        }
        let mut completion = self.completion.lock();
        // Re-check under the lock: another thread may have completed it.
        if self.phase.released_seq() >= target.seq {
            return false;
        }

        // Aggregate and reset every worker's sample for the finished phase.
        let Completion { aggregate, installed_version } = &mut *completion;
        aggregate.clear();
        for sampler in &self.samplers {
            aggregate.absorb(&mut sampler.lock());
        }

        // The phase that just ended: its duration goes to the matching
        // histogram, and (when tracing) onto the timeline as one span.
        let now = Instant::now();
        let started = std::mem::replace(&mut *self.phase_started.lock(), now);
        let phase_len = now.saturating_duration_since(started);

        let mut classifier = self.classifier.lock();
        let split_records = match target.phase {
            Phase::Split => {
                // A joined phase just ended: decide what to split and install
                // the split set the workers will pick up after the release.
                self.hist_phase_joined.record(0, phase_len);
                trace::span_since(EventKind::PhaseJoined, target.seq, started);
                let outcome = classifier.end_joined_phase(aggregate);
                EngineStats::bump(&self.stats.joined_phases);
                EngineStats::add(&self.stats.total_splits, outcome.newly_split.len() as u64);
                outcome.currently_split
            }
            Phase::Joined => {
                // A split phase just ended (workers merged their slices
                // before acknowledging): reconsider the split decisions.
                self.hist_phase_split.record(0, phase_len);
                trace::span_since(EventKind::PhaseSplit, target.seq, started);
                let outcome = classifier.end_split_phase(aggregate);
                EngineStats::bump(&self.stats.split_phases);
                EngineStats::add(&self.stats.total_unsplits, outcome.unsplit.len() as u64);
                outcome.currently_split
            }
        };
        self.stats.split_records.store(split_records as u64, Ordering::Relaxed);
        // Workers pick the split set up after the release, at either
        // transition; a set that did not change is not rebuilt.
        if classifier.version() != *installed_version {
            self.registry.install(classifier.split_set());
            *installed_version = classifier.version();
        }
        drop(classifier);

        // Reset the feedback counter for the phase that is about to start.
        self.splittable_conflicts.store(0, Ordering::Relaxed);

        self.phase.release(target.seq);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{Key, OpKind};

    fn shared(workers: usize) -> DoppelShared {
        DoppelShared::new(DoppelConfig {
            workers,
            split_min_conflicts: 5,
            split_conflict_fraction: 0.0,
            ..DoppelConfig::default()
        })
    }

    #[test]
    fn completion_requires_all_acks() {
        let s = shared(2);
        s.phase.register_worker(0);
        s.phase.register_worker(1);
        let seq = s.phase.request(Phase::Split);
        assert!(!s.try_complete_transition());
        s.phase.ack(0, seq);
        assert!(!s.try_complete_transition());
        s.phase.ack(1, seq);
        assert!(s.try_complete_transition());
        assert!(!s.try_complete_transition(), "completion runs once");
        assert_eq!(s.phase.current_phase(), Phase::Split);
    }

    #[test]
    fn joined_end_runs_classification_and_installs_split_set() {
        let s = shared(1);
        s.phase.register_worker(0);
        // Simulate a contended joined phase.
        {
            let mut sample = s.samplers[0].lock();
            for _ in 0..100 {
                sample.record_conflict(Key::raw(42), OpKind::Add);
            }
            for _ in 0..100 {
                sample.record_commit();
            }
        }
        let seq = s.phase.request(Phase::Split);
        s.phase.ack(0, seq);
        assert!(s.try_complete_transition());
        let set = s.registry.current();
        assert!(set.is_split(&Key::raw(42)));
        assert_eq!(set.selected_op(&Key::raw(42)), Some(OpKind::Add));
        assert_eq!(s.stats.snapshot().joined_phases, 1);
        assert_eq!(s.stats.snapshot().split_records, 1);
        // The sampler was drained.
        assert!(s.samplers[0].lock().conflicts.is_empty());
    }

    #[test]
    fn split_end_unsplits_cold_keys() {
        let s = shared(1);
        s.phase.register_worker(0);
        s.classifier.lock().label_split(Key::raw(7), OpKind::Add);

        // Enter the split phase.
        let seq = s.phase.request(Phase::Split);
        s.phase.ack(0, seq);
        s.try_complete_transition();
        assert!(s.registry.current().is_split(&Key::raw(7)));

        // Split phase sees lots of commits but no writes to key 7.
        {
            let mut sample = s.samplers[0].lock();
            for _ in 0..1_000 {
                sample.record_commit();
            }
        }
        let seq = s.phase.request(Phase::Joined);
        s.phase.ack(0, seq);
        assert!(s.try_complete_transition());
        assert_eq!(s.stats.snapshot().split_phases, 1);
        assert_eq!(s.stats.snapshot().total_unsplits, 1);
        assert!(!s.classifier.lock().is_split(&Key::raw(7)));
    }

    #[test]
    fn per_execute_reads_share_no_line_with_worker_writes() {
        let s = shared(2);
        let lines = |start: usize, len: usize| start / 64..=(start + len - 1) / 64;
        fn addr<T>(t: &T) -> usize {
            t as *const T as usize
        }
        // Read by every `execute`: the phase words and the shutdown flag.
        let reads = [
            lines(addr(&s.phase), std::mem::size_of_val(&s.phase)),
            lines(addr(&s.shutdown), std::mem::size_of_val(&s.shutdown)),
        ];
        // Written by workers as they run: their counter cells per
        // transaction, the conflict signal per sampled conflict.
        let mut writes = vec![lines(addr(&*s.splittable_conflicts), 8)];
        for core in 0..2 {
            let cell = s.stats.core(core);
            writes.push(lines(addr(cell), std::mem::size_of_val(cell)));
        }
        for read in &reads {
            for write in &writes {
                assert!(
                    read.end() < write.start() || write.end() < read.start(),
                    "cache lines {read:?} (read per execute) and {write:?} (written by workers) overlap"
                );
            }
        }
    }

    #[test]
    fn unchanged_split_set_is_not_rebuilt() {
        let s = shared(1);
        s.phase.register_worker(0);
        s.classifier.lock().label_split(Key::raw(7), OpKind::Add);
        let cycle = |phase: Phase, writes: u64| {
            s.samplers[0].lock().record_split_writes(Key::raw(7), writes);
            let seq = s.phase.request(phase);
            s.phase.ack(0, seq);
            assert!(s.try_complete_transition());
            s.registry.current()
        };
        let first = cycle(Phase::Split, 0);
        assert!(first.is_split(&Key::raw(7)));
        // A split phase that keeps the key, then the next joined phase: the
        // very same snapshot stays installed.
        assert!(Arc::ptr_eq(&first, &cycle(Phase::Joined, 100)));
        assert!(Arc::ptr_eq(&first, &cycle(Phase::Split, 0)));
        // A label change shows up at the next transition.
        s.classifier.lock().label_reconciled(&Key::raw(7));
        assert!(cycle(Phase::Joined, 100).is_empty());
    }

    #[test]
    fn shutdown_flag() {
        let s = shared(1);
        assert!(!s.is_shutdown());
        s.request_shutdown();
        assert!(s.is_shutdown());
    }
}
