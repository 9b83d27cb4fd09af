//! The background coordinator thread (§5.4).
//!
//! "The Doppel coordinator usually starts a phase change every 20
//! milliseconds, but feedback mechanisms allow it to flexibly adjust to the
//! workload. If, in a joined phase, no records appear contended — or they
//! contend on unsplittable operations — the coordinator delays the next
//! split phase. … Finally, if, in a split phase, workers have to abort and
//! stash too many transactions, the coordinator hurries the next joined
//! phase."
//!
//! # Asymmetric phases
//!
//! Joined and split phases are not mirror images. A split phase is where
//! contended writes run in parallel, so it lasts a full `phase_len`. A joined
//! phase exists for two things: replaying the transactions stashed during
//! the split phase, and giving the classifier a conflict sample to split new
//! keys from. Once the split set has **settled** — it is non-empty, no
//! classification or label moved it since the previous joined phase, and no
//! sampled conflict hit a splittable operation on a key outside it — the
//! second purpose needs only a glance, so the joined phase ends after
//! `phase_len / `[`SETTLED_JOINED_DIVISOR`] plus the stash-replay barrier
//! (workers do not acknowledge a split request until their stash is
//! drained). Otherwise it runs the full `phase_len`, as the paper's does.
//!
//! The cost is the paper's own trade, made steeper: a transaction that reads
//! split data waits for the split phase to end, about one `phase_len` at
//! worst and half of it on average, and that wait now takes up ten elevenths
//! of the time line instead of half of it. Throughput of the split
//! operations rises by the same ratio.
//!
//! The coordinator only *initiates* transitions; the release itself is
//! performed by the last worker to acknowledge (see [`crate::phase`]).

use crate::phase::Phase;
use crate::shared::DoppelShared;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity at which the coordinator polls for shutdown and feedback.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// A joined phase over a settled split set lasts `phase_len` divided by this:
/// long enough at the default 20 ms for each worker to run a few thousand
/// transactions past the conflict sampler, short enough that split phases
/// cover nine tenths of the time line.
pub const SETTLED_JOINED_DIVISOR: u32 = 10;

/// Runs the coordinator loop until shutdown is requested. Intended to be the
/// body of a dedicated thread spawned by [`crate::DoppelDb::spawn_coordinator`].
pub fn run(shared: Arc<DoppelShared>) {
    // The classifier version the previous joined phase ended on.
    let mut seen_version = None;
    while !shared.is_shutdown() {
        // Re-read every cycle: the adaptive tuner may steer the phase length
        // between its configured bounds while the engine runs.
        let phase_len = shared.phase_len();
        // ---- Joined phase ----
        let joined = Instant::now();
        sleep_observing_shutdown(&shared, phase_len / SETTLED_JOINED_DIVISOR);
        if !split_set_settled(&shared, &mut seen_version) {
            sleep_observing_shutdown(&shared, phase_len.saturating_sub(joined.elapsed()));
        }
        if shared.is_shutdown() {
            break;
        }
        if !should_start_split(&shared) {
            // Delay the split phase; re-examine after another phase length.
            continue;
        }

        // ---- Transition joined → split ----
        let seq = shared.phase.request(Phase::Split);
        if !wait_for_release(&shared, seq) {
            break;
        }

        // If classification produced an empty split set there is nothing to
        // do in a split phase; go straight back to joined.
        if !shared.registry.current().is_empty() {
            run_split_phase(&shared, phase_len);
            if shared.is_shutdown() {
                break;
            }
        }

        // ---- Transition split → joined ----
        let seq = shared.phase.request(Phase::Joined);
        if !wait_for_release(&shared, seq) {
            break;
        }
    }
}

/// True when the running joined phase may end early (module docs): records
/// are split, the decisions are the ones the previous joined phase ended on
/// (`seen_version`, updated here), and nothing outside them showed contention
/// on a splittable operation.
fn split_set_settled(shared: &DoppelShared, seen_version: &mut Option<u64>) -> bool {
    let (version, split) = {
        let classifier = shared.classifier.lock();
        (classifier.version(), classifier.split_count())
    };
    let unmoved = seen_version.replace(version) == Some(version);
    unmoved && split > 0 && shared.splittable_conflicts.load(Ordering::Relaxed) == 0
}

/// Decides whether contention justifies a split phase. Splitting is worth it
/// when records are already split (they need split phases to keep absorbing
/// writes) or when the joined phase accumulated conflicts on splittable
/// operations.
fn should_start_split(shared: &DoppelShared) -> bool {
    if !shared.config.enable_splitting {
        return false;
    }
    if !shared.config.feedback.delay_split_when_uncontended {
        return true;
    }
    if shared.classifier.lock().split_count() > 0 {
        return true;
    }
    // The live (possibly tuned) threshold, not the configured one.
    shared.splittable_conflicts.load(Ordering::Relaxed)
        >= shared.split_gate_conflicts.load(Ordering::Relaxed)
}

/// Lets the split phase run for `phase_len`, ending it early when the stash
/// fraction exceeds the configured threshold ("hurry the next joined phase").
fn run_split_phase(shared: &DoppelShared, phase_len: Duration) {
    let start = Instant::now();
    let at_start = shared.stats.snapshot();
    let min_split = phase_len.mul_f64(shared.config.feedback.min_split_fraction);
    loop {
        std::thread::sleep(POLL_INTERVAL);
        if shared.is_shutdown() {
            return;
        }
        let elapsed = start.elapsed();
        if elapsed >= phase_len {
            return;
        }
        if elapsed >= min_split {
            // Sums of the workers' own counters; the phase's share is what
            // they gained since it began.
            let now = shared.stats.snapshot();
            let stashed = now.stashes - at_start.stashes;
            let total = now.commits - at_start.commits + stashed;
            if total > 128
                && stashed as f64
                    > shared.config.feedback.hurry_joined_stash_fraction * total as f64
            {
                return;
            }
        }
    }
}

/// Sleeps for `duration`, waking early on shutdown.
fn sleep_observing_shutdown(shared: &DoppelShared, duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        if shared.is_shutdown() {
            return;
        }
        std::thread::sleep(POLL_INTERVAL.min(duration));
    }
}

/// Waits until transition `seq` has been released (by the last acknowledging
/// worker). Returns `false` if shutdown was requested while waiting.
fn wait_for_release(shared: &DoppelShared, seq: u64) -> bool {
    loop {
        if shared.phase.released_seq() >= seq {
            return true;
        }
        if shared.is_shutdown() {
            return false;
        }
        // The coordinator cannot complete the transition itself (workers must
        // acknowledge first), but calling this is harmless and covers the
        // case where the last acknowledgement raced with our check.
        shared.try_complete_transition();
        std::thread::sleep(POLL_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::DoppelConfig;

    #[test]
    fn split_decision_follows_feedback_rules() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.split_min_conflicts = 10;
        let shared = DoppelShared::new(cfg);
        // Nothing contended, nothing split → delay.
        assert!(!should_start_split(&shared));
        // Contention on splittable operations → go.
        shared.splittable_conflicts.store(50, Ordering::Relaxed);
        assert!(should_start_split(&shared));
        // Already-split records keep split phases coming even without fresh
        // conflicts.
        shared.splittable_conflicts.store(0, Ordering::Relaxed);
        shared
            .classifier
            .lock()
            .label_split(doppel_common::Key::raw(1), doppel_common::OpKind::Add);
        assert!(should_start_split(&shared));
    }

    #[test]
    fn joined_phase_is_short_only_over_a_settled_split_set() {
        let shared = DoppelShared::new(DoppelConfig::with_workers(1));
        let key = doppel_common::Key::raw(1);
        let mut seen = None;
        // Nothing split: full length, however often it is asked.
        assert!(!split_set_settled(&shared, &mut seen));
        assert!(!split_set_settled(&shared, &mut seen));
        // A label moves the decisions: the phase that sees it runs in full,
        // the next one may be short.
        shared.classifier.lock().label_split(key, doppel_common::OpKind::Add);
        assert!(!split_set_settled(&shared, &mut seen));
        assert!(split_set_settled(&shared, &mut seen));
        // Contention outside the split set: full length again.
        shared.splittable_conflicts.store(1, Ordering::Relaxed);
        assert!(!split_set_settled(&shared, &mut seen));
        shared.splittable_conflicts.store(0, Ordering::Relaxed);
        assert!(split_set_settled(&shared, &mut seen));
        // Removing the label moves them again, and leaves nothing split.
        shared.classifier.lock().label_reconciled(&key);
        assert!(!split_set_settled(&shared, &mut seen));
        assert!(!split_set_settled(&shared, &mut seen));
    }

    #[test]
    fn splitting_disabled_never_starts_split() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.enable_splitting = false;
        let shared = DoppelShared::new(cfg);
        shared.splittable_conflicts.store(1_000_000, Ordering::Relaxed);
        assert!(!should_start_split(&shared));
    }

    #[test]
    fn delay_feedback_can_be_disabled() {
        let mut cfg = DoppelConfig::with_workers(1);
        cfg.feedback.delay_split_when_uncontended = false;
        let shared = DoppelShared::new(cfg);
        assert!(should_start_split(&shared), "without the delay rule, split phases always run");
    }

    #[test]
    fn sleep_observes_shutdown_quickly() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        shared.request_shutdown();
        let start = Instant::now();
        sleep_observing_shutdown(&shared, Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn wait_for_release_bails_on_shutdown() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        shared.phase.register_worker(0);
        let seq = shared.phase.request(Phase::Split);
        shared.request_shutdown();
        assert!(!wait_for_release(&shared, seq));
    }
}
