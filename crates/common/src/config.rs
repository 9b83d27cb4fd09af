//! Configuration of the Doppel engine.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Feedback-loop parameters for the phase coordinator (§5.4).
///
/// The coordinator "usually starts a phase change every 20 milliseconds, but
/// feedback mechanisms allow it to flexibly adjust to the workload":
/// it delays split phases when nothing is contended and hurries the next
/// joined phase when split-phase workers stash too many transactions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseFeedback {
    /// If during a joined phase no record accumulates enough conflicts to be
    /// split, the coordinator delays the next split phase and re-examines the
    /// counters after another phase length.
    pub delay_split_when_uncontended: bool,
    /// If the fraction of split-phase transactions that had to be stashed
    /// exceeds this threshold, the coordinator ends the split phase early
    /// ("hurries the next joined phase").
    pub hurry_joined_stash_fraction: f64,
    /// Minimum time the coordinator lets a split phase run before the
    /// stash-fraction feedback may cut it short.
    pub min_split_fraction: f64,
}

impl Default for PhaseFeedback {
    fn default() -> Self {
        PhaseFeedback {
            delay_split_when_uncontended: true,
            hurry_joined_stash_fraction: 0.5,
            min_split_fraction: 0.25,
        }
    }
}

/// Durability (write-ahead-log) tuning, shared by every engine.
///
/// The mechanics live in the `doppel_wal` crate; the knobs live here so that
/// engine constructors, benchmark binaries and tests can all speak the same
/// configuration language without depending on the log implementation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Group commit closes a batch (flush + fsync) once this many commit
    /// records have accumulated… (1 = synchronous commit: every record is
    /// fsynced individually).
    pub group_commit_batch: usize,
    /// …or once this much time has passed since the last fsync, whichever
    /// comes first. The deadline is checked on every append, so an idle log
    /// may exceed it; callers that need a hard bound call `sync` themselves.
    pub group_commit_interval: Duration,
    /// Crash-point injection: the log stops writing at exactly this byte
    /// offset, leaving a torn record, and drops everything after it — as if
    /// the machine died mid-write. Used by the crash-recovery test suites.
    pub crash_at_byte: Option<u64>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit_batch: 32,
            group_commit_interval: Duration::from_micros(200),
            crash_at_byte: None,
        }
    }
}

impl DurabilityConfig {
    /// Synchronous commit: every record is fsynced before the append returns.
    pub fn synchronous() -> Self {
        DurabilityConfig { group_commit_batch: 1, ..Default::default() }
    }

    /// Applies environment overrides: `DOPPEL_WAL_CRASH_AT=<byte offset>`
    /// arms crash-point injection (the knob the crash-injection CI suite
    /// uses), and `DOPPEL_WAL_BATCH=<n>` overrides the group-commit batch.
    pub fn from_env(mut self) -> Self {
        if let Some(at) = std::env::var("DOPPEL_WAL_CRASH_AT").ok().and_then(|v| v.parse().ok()) {
            self.crash_at_byte = Some(at);
        }
        if let Some(n) = std::env::var("DOPPEL_WAL_BATCH").ok().and_then(|v| v.parse().ok()) {
            self.group_commit_batch = n;
        }
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.group_commit_batch == 0 {
            return Err("group_commit_batch must be at least 1".into());
        }
        Ok(())
    }
}

/// Bounds and targets for the adaptive contention controller (the
/// `doppel_tuner` crate).
///
/// The tuner runs as a closed loop beside the coordinator: each `epoch` it
/// samples conflict heat, split-phase write activity and stash-replay
/// latency, then promotes/demotes split labels and steers the phase length
/// within `[min_phase_len, max_phase_len]` toward `stash_replay_target`.
/// These knobs bound how far it may steer; the decisions themselves are
/// taken from live signals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Control-loop period: how often the tuner samples and decides.
    pub epoch: Duration,
    /// Lower bound for the tuned phase length.
    pub min_phase_len: Duration,
    /// Upper bound for the tuned phase length.
    pub max_phase_len: Duration,
    /// Target p95 stash-to-replay latency. Above it the tuner shortens
    /// phases (stashed transactions wait out the split phase they met, and
    /// `phase_len` is that phase's length, so shorter phases bound their
    /// wait); far below it the tuner lengthens phases to amortise transition
    /// barriers.
    pub stash_replay_target: Duration,
    /// Conflict-heat delta (sampled conflicts per epoch on one key) at which
    /// the tuner promotes the key to split.
    pub promote_min_hits: u64,
    /// Consecutive epochs a split key must stay idle — cold conflict heat
    /// *and* cold split-write activity — before the tuner demotes it. This
    /// is the hysteresis that prevents promote/demote oscillation.
    pub demote_idle_epochs: u32,
    /// How many recent decisions are kept for `GetStats` / `doppel-stat`.
    pub decision_history: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            epoch: Duration::from_millis(50),
            min_phase_len: Duration::from_millis(5),
            max_phase_len: Duration::from_millis(80),
            stash_replay_target: Duration::from_millis(30),
            promote_min_hits: 48,
            demote_idle_epochs: 3,
            decision_history: 16,
        }
    }
}

impl TunerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch.is_zero() {
            return Err("tuner.epoch must be non-zero".into());
        }
        if self.min_phase_len.is_zero() {
            return Err("tuner.min_phase_len must be non-zero".into());
        }
        if self.min_phase_len > self.max_phase_len {
            return Err("tuner phase_len bounds are empty (min > max)".into());
        }
        if self.promote_min_hits == 0 {
            return Err("tuner.promote_min_hits must be at least 1".into());
        }
        if self.demote_idle_epochs == 0 {
            return Err("tuner.demote_idle_epochs must be at least 1".into());
        }
        if self.decision_history == 0 {
            return Err("tuner.decision_history must be at least 1".into());
        }
        Ok(())
    }
}

/// Tunable parameters of a Doppel database instance.
///
/// The defaults reproduce the values used throughout the paper's evaluation:
/// a 20 ms phase length (§5.4, §8.1) and automatic contention-based
/// classification (§5.5).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DoppelConfig {
    /// Number of worker threads ("cores"). Each worker owns a set of
    /// per-core slices for split records.
    pub workers: usize,
    /// Nominal phase length. The coordinator starts a joined→split transition
    /// this long after the previous joined phase began, and a split→joined
    /// transition this long after the split phase began (subject to
    /// feedback).
    pub phase_len: Duration,
    /// Number of store shards (power of two recommended).
    pub store_shards: usize,
    /// A record is marked split for an operation kind when, during one joined
    /// phase, it causes at least this many sampled conflicts…
    pub split_min_conflicts: u64,
    /// …and those conflicts amount to at least this fraction of the phase's
    /// committed transactions. Both conditions must hold.
    pub split_conflict_fraction: f64,
    /// A split record whose split-phase write count falls below this fraction
    /// of the phase's committed transactions is moved back to reconciled
    /// state at the next transition.
    pub unsplit_write_fraction: f64,
    /// A split record is also moved back when stashes attributable to it
    /// exceed its split-phase writes by this factor (reads dominate writes,
    /// so splitting no longer pays off).
    pub unsplit_stash_ratio: f64,
    /// Sampling probability for conflict accounting in joined phases
    /// (1.0 = count every conflict; the paper samples to keep overhead low).
    pub conflict_sample_rate: f64,
    /// Maximum number of records split simultaneously (a safety valve; the
    /// paper's workloads split at most a few tens of records).
    pub max_split_records: usize,
    /// When `false`, the engine never splits anything and degenerates to
    /// plain OCC — used as an ablation and in tests.
    pub enable_splitting: bool,
    /// Coordinator feedback parameters.
    pub feedback: PhaseFeedback,
    /// Bounds for the adaptive contention controller, when one is attached.
    pub tuner: TunerConfig,
}

impl Default for DoppelConfig {
    fn default() -> Self {
        DoppelConfig {
            workers: 4,
            phase_len: Duration::from_millis(20),
            store_shards: 256,
            split_min_conflicts: 12,
            split_conflict_fraction: 0.02,
            unsplit_write_fraction: 0.005,
            unsplit_stash_ratio: 8.0,
            conflict_sample_rate: 1.0,
            max_split_records: 1024,
            enable_splitting: true,
            feedback: PhaseFeedback::default(),
            tuner: TunerConfig::default(),
        }
    }
}

impl DoppelConfig {
    /// Convenience constructor: default configuration with `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        DoppelConfig { workers, ..Default::default() }
    }

    /// Sets the phase length, returning `self` for chaining.
    pub fn phase_len(mut self, d: Duration) -> Self {
        self.phase_len = d;
        self
    }

    /// Disables splitting (ablation: Doppel degenerates to OCC).
    pub fn without_splitting(mut self) -> Self {
        self.enable_splitting = false;
        self
    }

    /// Validates the configuration, returning a human-readable error when a
    /// parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.workers >= crate::tid::MAX_CORES {
            return Err(format!("workers must be < {}", crate::tid::MAX_CORES));
        }
        if self.store_shards == 0 {
            return Err("store_shards must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.conflict_sample_rate) {
            return Err("conflict_sample_rate must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.split_conflict_fraction) {
            return Err("split_conflict_fraction must be in [0, 1]".into());
        }
        if self.phase_len.is_zero() {
            return Err("phase_len must be non-zero".into());
        }
        self.tuner.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DoppelConfig::default();
        assert_eq!(c.phase_len, Duration::from_millis(20));
        assert!(c.enable_splitting);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_helpers() {
        let c = DoppelConfig::with_workers(8)
            .phase_len(Duration::from_millis(5))
            .without_splitting();
        assert_eq!(c.workers, 8);
        assert_eq!(c.phase_len, Duration::from_millis(5));
        assert!(!c.enable_splitting);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(DoppelConfig { workers: 0, ..Default::default() }.validate().is_err());
        assert!(DoppelConfig { store_shards: 0, ..Default::default() }.validate().is_err());
        assert!(
            DoppelConfig { conflict_sample_rate: 1.5, ..Default::default() }.validate().is_err()
        );
        assert!(DoppelConfig { split_conflict_fraction: -0.1, ..Default::default() }
            .validate()
            .is_err());
        assert!(DoppelConfig { phase_len: Duration::ZERO, ..Default::default() }
            .validate()
            .is_err());
        assert!(DoppelConfig { workers: 5000, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn tuner_validation_catches_bad_knobs() {
        let ok = TunerConfig::default();
        assert!(ok.validate().is_ok());
        assert!(TunerConfig { epoch: Duration::ZERO, ..ok.clone() }.validate().is_err());
        assert!(TunerConfig { min_phase_len: Duration::ZERO, ..ok.clone() }.validate().is_err());
        // Empty bounds: min > max.
        assert!(TunerConfig {
            min_phase_len: Duration::from_millis(50),
            max_phase_len: Duration::from_millis(10),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(TunerConfig { promote_min_hits: 0, ..ok.clone() }.validate().is_err());
        assert!(TunerConfig { demote_idle_epochs: 0, ..ok.clone() }.validate().is_err());
        assert!(TunerConfig { decision_history: 0, ..ok.clone() }.validate().is_err());
        // DoppelConfig::validate covers the nested tuner knobs.
        let mut cfg = DoppelConfig::default();
        cfg.tuner.epoch = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn durability_defaults_and_validation() {
        let d = DurabilityConfig::default();
        assert!(d.group_commit_batch > 1);
        assert_eq!(d.crash_at_byte, None);
        assert!(d.validate().is_ok());
        assert_eq!(DurabilityConfig::synchronous().group_commit_batch, 1);
        assert!(DurabilityConfig { group_commit_batch: 0, ..Default::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let c = DoppelConfig::with_workers(3);
        let s = serde_json::to_string(&c).unwrap();
        let back: DoppelConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }
}
