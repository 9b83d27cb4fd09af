//! Adaptive contention controller: a closed control loop that learns split
//! labels, phase length and classifier thresholds from live telemetry.
//!
//! The paper's mechanisms — splitting contended records, reconciling them
//! every phase — are driven by knobs that its evaluation hand-tunes: a 20 ms
//! phase length (§5.4), fixed split/unsplit thresholds (§5.5), and manual
//! labels for workloads the sampler reacts to too slowly. This crate closes
//! the loop. A [`Tuner`] samples, once per configured epoch:
//!
//! * the **conflict heat sketch** (per-key sampled joined-phase conflicts,
//!   from the engine's telemetry registry) — the promotion signal;
//! * the **split-phase write activity** per split key (from the engine via
//!   [`TuneSink::observe`]) — the demotion signal. Heat alone cannot demote:
//!   a split key stops conflicting *by design*, so its heat always goes
//!   cold. Demotion requires both signals idle for several consecutive
//!   epochs (hysteresis), which is what prevents promote/demote oscillation;
//! * the **stash-replay latency histogram** — the phase-length signal.
//!   Stashed transactions wait for the next joined phase, so replay latency
//!   tracks phase length directly: above target, shorten phases; far below,
//!   lengthen them to amortise transition barriers. Over a settled split
//!   set the coordinator keeps joined phases to a tenth of `phase_len`
//!   (`doppel_db::coordinator`), so the length steered here is in effect
//!   the split-phase length, and the p95 target bounds how long a read of
//!   split data waits;
//! * the engine's **counters** — the threshold signal: persistent conflicts
//!   with an empty split set mean the classifier's threshold is too high for
//!   this workload's absolute throughput, so lower it (and raise it back
//!   when labels churn).
//!
//! Decisions are applied through the engine's [`TuneSink`] hook, recorded in
//! a bounded history (surfaced over the wire in `GetStats` and rendered by
//! `doppel-stat`), counted in the engine's own metrics registry
//! (`tuner_epochs`, `tuner_promotions`, …) and mirrored onto the trace
//! timeline as [`EventKind::TunerDecision`] instants.
//!
//! The control logic is synchronous and side-effect-free apart from the sink
//! ([`Tuner::tick`]), so tests drive it directly against a mock sink;
//! production wraps it in a [`TunerHandle`] thread.

use doppel_common::{Key, StatsSnapshot, TuneDecision, TuneSink, TunerConfig};
use doppel_telemetry::trace::{self, EventKind};
use doppel_telemetry::{Histogram, Registry};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point-in-time view of the tuner, cheap to clone over the wire.
#[derive(Clone, Debug, Default)]
pub struct TunerStatus {
    /// Control epochs completed.
    pub epochs: u64,
    /// The phase length currently in effect.
    pub phase_len: Duration,
    /// Heat tokens ([`Key::heat_token`]) of the currently-split keys.
    pub split_keys: Vec<u64>,
    /// The most recent decisions, oldest first (bounded by
    /// [`TunerConfig::decision_history`]).
    pub decisions: Vec<TuneDecision>,
}

/// Shared between the [`Tuner`] (writer) and any number of status readers.
struct Inner {
    status: Mutex<TunerStatus>,
    stop: AtomicBool,
}

/// A cloneable read handle on a tuner's live status (for the server's
/// `GetStats` path).
#[derive(Clone)]
pub struct TunerWatch {
    inner: Arc<Inner>,
}

impl TunerWatch {
    /// The latest published status.
    pub fn status(&self) -> TunerStatus {
        self.inner.status.lock().clone()
    }
}

/// The control loop. Owns all controller state; every [`Tuner::tick`] is one
/// epoch: sample, decide, apply, publish.
pub struct Tuner {
    cfg: TunerConfig,
    sink: Arc<dyn TuneSink>,
    registry: Arc<Registry>,
    inner: Arc<Inner>,
    epoch: u64,
    /// Cumulative heat-sketch hits per token at the previous epoch.
    prev_hits: HashMap<u64, u64>,
    /// Cumulative split-write activity per split key at the previous epoch.
    prev_activity: HashMap<Key, u64>,
    /// Consecutive idle epochs per split key (the demote hysteresis).
    idle_epochs: HashMap<Key, u32>,
    /// Epoch at which each split key entered the split set (grace period:
    /// no demotion until the key has had a chance to show activity).
    entered_at: HashMap<Key, u64>,
    /// The split set as of the end of the previous tick, to attribute
    /// changes made by the classifier itself (adopt/retire decisions).
    prev_split: HashSet<Key>,
    /// Cumulative stash-replay histogram at the previous epoch.
    prev_stash: Option<Histogram>,
    /// Engine counters at the previous epoch.
    prev_stats: Option<StatsSnapshot>,
    /// Keys demoted soon after entering the split set since the last
    /// threshold correction — the signal that thresholds are too eager.
    churn: u32,
    decisions: VecDeque<TuneDecision>,
}

impl Tuner {
    /// Creates a tuner steering `sink`, sampling conflict heat and latency
    /// from `registry` (the engine's own telemetry registry, so the tuner's
    /// counters land next to the engine's).
    pub fn new(cfg: TunerConfig, sink: Arc<dyn TuneSink>, registry: Arc<Registry>) -> Tuner {
        Tuner {
            cfg,
            sink,
            registry,
            inner: Arc::new(Inner {
                status: Mutex::new(TunerStatus::default()),
                stop: AtomicBool::new(false),
            }),
            epoch: 0,
            prev_hits: HashMap::new(),
            prev_activity: HashMap::new(),
            idle_epochs: HashMap::new(),
            entered_at: HashMap::new(),
            prev_split: HashSet::new(),
            prev_stash: None,
            prev_stats: None,
            churn: 0,
            decisions: VecDeque::new(),
        }
    }

    /// A cloneable status reader.
    pub fn watch(&self) -> TunerWatch {
        TunerWatch { inner: Arc::clone(&self.inner) }
    }

    /// The latest published status.
    pub fn status(&self) -> TunerStatus {
        self.inner.status.lock().clone()
    }

    /// Runs one control epoch. Returns the decisions taken this epoch (also
    /// appended to the bounded history).
    pub fn tick(&mut self) -> Vec<TuneDecision> {
        self.epoch += 1;
        let epoch = self.epoch;
        let obs = self.sink.observe();
        let metrics = self.registry.snapshot();
        let mut taken: Vec<TuneDecision> = Vec::new();
        let mut decide = |action: String, reason: String| {
            taken.push(TuneDecision { epoch, action, reason });
        };

        let mut split_now: HashSet<Key> = obs.split_keys.iter().map(|(k, _)| *k).collect();

        // ---- Attribute external split-set changes (classifier, manual) ----
        // The tuner's history is the authoritative label-migration record,
        // so labels the classifier learned on its own are logged too.
        for (key, op) in &obs.split_keys {
            if !self.prev_split.contains(key) && !self.entered_at.contains_key(key) {
                self.entered_at.insert(*key, epoch);
                decide(format!("adopt {key}"), format!("classifier split it for {op:?}"));
            }
        }
        for key in self.prev_split.clone() {
            if !split_now.contains(&key) {
                self.idle_epochs.remove(&key);
                self.entered_at.remove(&key);
                self.prev_activity.remove(&key);
                decide(format!("retire {key}"), "classifier moved it back".into());
            }
        }

        // ---- Promotion: per-epoch conflict-heat deltas ----
        let mut heat_delta: HashMap<u64, u64> = HashMap::new();
        for hk in &metrics.hot_keys {
            let prev = self.prev_hits.get(&hk.key).copied().unwrap_or(0);
            heat_delta.insert(hk.key, hk.hits.saturating_sub(prev));
            self.prev_hits.insert(hk.key, hk.hits);
        }
        let mut promotions = 0u64;
        for (token, delta) in &heat_delta {
            if *delta < self.cfg.promote_min_hits {
                continue;
            }
            if let Some((key, op)) = self.sink.promote(*token) {
                split_now.insert(key);
                self.entered_at.insert(key, epoch);
                promotions += 1;
                decide(
                    format!("promote {key} ({op:?})"),
                    format!("{delta} sampled conflicts this epoch"),
                );
            }
        }

        // ---- Demotion: both signals idle for several epochs ----
        // `split_activity` reflects the pre-promotion split set, which is
        // exactly what demotion should consider.
        let idle_floor = (self.cfg.promote_min_hits / 4).max(1);
        let mut demotions = 0u64;
        for (key, activity) in &obs.split_activity {
            let act_delta =
                activity.saturating_sub(self.prev_activity.get(key).copied().unwrap_or(0));
            self.prev_activity.insert(*key, *activity);
            let heat = heat_delta.get(&key.heat_token()).copied().unwrap_or(0);
            let idle = if act_delta < idle_floor && heat < idle_floor {
                let e = self.idle_epochs.entry(*key).or_insert(0);
                *e += 1;
                *e
            } else {
                self.idle_epochs.insert(*key, 0);
                0
            };
            let entered = self.entered_at.get(key).copied().unwrap_or(0);
            let in_grace = epoch.saturating_sub(entered) < u64::from(self.cfg.demote_idle_epochs);
            if idle >= self.cfg.demote_idle_epochs && !in_grace && self.sink.demote(*key) {
                split_now.remove(key);
                self.idle_epochs.remove(key);
                self.prev_activity.remove(key);
                demotions += 1;
                // A label that lived barely past its grace period is churn:
                // the promote threshold admitted a key that did not pay off.
                if epoch.saturating_sub(entered) < 4 * u64::from(self.cfg.demote_idle_epochs) {
                    self.churn += 1;
                }
                self.entered_at.remove(key);
                decide(
                    format!("demote {key}"),
                    format!("idle {idle} epochs (writes {act_delta}, heat {heat})"),
                );
            }
        }

        // ---- Phase length: steer stash-replay p95 toward the target ----
        let mut phase_len = obs.phase_len;
        if let Some(h) = metrics.hist("stash_replay") {
            let delta = match &self.prev_stash {
                Some(prev) => h.delta(prev),
                None => h.clone(),
            };
            self.prev_stash = Some(h.clone());
            // Too few replays and the percentile is noise; leave the knob.
            if delta.count() >= 8 {
                let p95 = delta.quantile_ns(0.95);
                let target = self.cfg.stash_replay_target.as_nanos().min(u64::MAX as u128) as u64;
                let reason = |p95: u64| format!("stash replay p95 {:.1}ms", p95 as f64 / 1e6);
                if p95 > target && phase_len > self.cfg.min_phase_len {
                    phase_len = phase_len.mul_f64(0.8).max(self.cfg.min_phase_len);
                    decide(format!("phase_len {phase_len:?}"), reason(p95) + " above target");
                } else if p95.saturating_mul(4) < target && phase_len < self.cfg.max_phase_len {
                    // Deadband between the two bounds: only lengthen when
                    // replays are comfortably fast, so the knob settles.
                    phase_len = phase_len.mul_f64(1.25).min(self.cfg.max_phase_len);
                    decide(format!("phase_len {phase_len:?}"), reason(p95) + " well under target");
                }
                if phase_len != obs.phase_len {
                    self.sink.set_phase_len(phase_len);
                }
            }
        }

        // ---- Thresholds: adapt the classifier's gate to the workload ----
        if let Some(prev) = &self.prev_stats {
            let conflicts = obs.stats.conflicts.saturating_sub(prev.conflicts);
            let commits = obs.stats.commits.saturating_sub(prev.commits).max(1);
            let mut th = obs.thresholds;
            if self.churn >= 3 {
                // Labels keep getting demoted right after they enter: the
                // gate is too permissive for this workload.
                th.split_min_conflicts = (th.split_min_conflicts * 2).min(1 << 16);
                self.churn = 0;
                self.sink.set_thresholds(th);
                decide(
                    format!("threshold split_min_conflicts={}", th.split_min_conflicts),
                    "split labels churning".into(),
                );
            } else if split_now.is_empty()
                && promotions == 0
                && conflicts >= 8
                && conflicts * 20 >= commits
                && th.split_min_conflicts > 4
            {
                // Persistent conflicts but nothing ever crosses the gate:
                // absolute throughput is too low for the configured count.
                th.split_min_conflicts = (th.split_min_conflicts / 2).max(4);
                self.sink.set_thresholds(th);
                decide(
                    format!("threshold split_min_conflicts={}", th.split_min_conflicts),
                    format!("{conflicts} conflicts/epoch with an empty split set"),
                );
            }
        }
        self.prev_stats = Some(obs.stats);
        self.prev_split = split_now.clone();

        // ---- Publish: metrics, trace, history, status ----
        self.registry.counter("tuner_epochs").bump();
        self.registry.counter("tuner_promotions").add(promotions);
        self.registry.counter("tuner_demotions").add(demotions);
        self.registry
            .gauge("tuner_phase_len_us")
            .set(phase_len.as_micros().min(u64::MAX as u128) as u64);
        for d in &taken {
            trace::instant(EventKind::TunerDecision, d.epoch);
            self.decisions.push_back(d.clone());
            while self.decisions.len() > self.cfg.decision_history {
                self.decisions.pop_front();
            }
        }
        *self.inner.status.lock() = TunerStatus {
            epochs: epoch,
            phase_len,
            split_keys: split_now.iter().map(|k| k.heat_token()).collect(),
            decisions: self.decisions.iter().cloned().collect(),
        };
        taken
    }
}

/// A tuner running on its own thread, ticking every
/// [`TunerConfig::epoch`]. Stops on [`TunerHandle::stop`] or drop.
pub struct TunerHandle {
    inner: Arc<Inner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TunerHandle {
    /// Spawns the control loop.
    pub fn spawn(cfg: TunerConfig, sink: Arc<dyn TuneSink>, registry: Arc<Registry>) -> TunerHandle {
        let epoch_len = cfg.epoch;
        let mut tuner = Tuner::new(cfg, sink, registry);
        let inner = Arc::clone(&tuner.inner);
        let thread = std::thread::Builder::new()
            .name("doppel-tuner".into())
            .spawn(move || {
                let poll = Duration::from_millis(5).min(epoch_len);
                'outer: loop {
                    // Sleep one epoch in small steps so stop is prompt.
                    let mut slept = Duration::ZERO;
                    while slept < epoch_len {
                        if tuner.inner.stop.load(Ordering::Acquire) {
                            break 'outer;
                        }
                        std::thread::sleep(poll);
                        slept += poll;
                    }
                    tuner.tick();
                }
            })
            .expect("failed to spawn tuner thread");
        TunerHandle { inner, thread: Some(thread) }
    }

    /// A cloneable status reader (outlives the handle).
    pub fn watch(&self) -> TunerWatch {
        TunerWatch { inner: Arc::clone(&self.inner) }
    }

    /// The latest published status.
    pub fn status(&self) -> TunerStatus {
        self.inner.status.lock().clone()
    }

    /// Stops the control loop and joins its thread. Idempotent.
    pub fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TunerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{OpKind, TuneObservation, TuneThresholds};

    /// A scriptable engine stand-in: the test sets the observation; the
    /// sink records what the tuner did to it.
    #[derive(Default)]
    struct MockSink {
        state: Mutex<MockState>,
    }

    #[derive(Default)]
    struct MockState {
        split: Vec<(Key, OpKind)>,
        activity: HashMap<Key, u64>,
        stats: StatsSnapshot,
        phase_len_us: u64,
        thresholds: Option<TuneThresholds>,
        /// Tokens the sink resolves (token → key), mimicking the
        /// classifier's conflict memory.
        resolvable: HashMap<u64, Key>,
    }

    impl TuneSink for MockSink {
        fn observe(&self) -> TuneObservation {
            let s = self.state.lock();
            TuneObservation {
                stats: s.stats,
                split_keys: s.split.clone(),
                split_activity: s
                    .split
                    .iter()
                    .map(|(k, _)| (*k, s.activity.get(k).copied().unwrap_or(0)))
                    .collect(),
                phase_len: Duration::from_micros(s.phase_len_us),
                thresholds: s
                    .thresholds
                    .unwrap_or(TuneThresholds { split_min_conflicts: 12, unsplit_stash_ratio: 8.0 }),
            }
        }

        fn promote(&self, token: u64) -> Option<(Key, OpKind)> {
            let mut s = self.state.lock();
            let key = *s.resolvable.get(&token)?;
            if s.split.iter().any(|(k, _)| *k == key) {
                return None;
            }
            s.split.push((key, OpKind::Add));
            Some((key, OpKind::Add))
        }

        fn demote(&self, key: Key) -> bool {
            let mut s = self.state.lock();
            let before = s.split.len();
            s.split.retain(|(k, _)| *k != key);
            s.split.len() < before
        }

        fn set_phase_len(&self, len: Duration) {
            self.state.lock().phase_len_us = len.as_micros() as u64;
        }

        fn set_thresholds(&self, t: TuneThresholds) {
            self.state.lock().thresholds = Some(t);
        }
    }

    fn cfg() -> TunerConfig {
        TunerConfig { promote_min_hits: 10, demote_idle_epochs: 2, ..TunerConfig::default() }
    }

    #[test]
    fn hot_key_is_promoted_from_heat_delta() {
        let sink = Arc::new(MockSink::default());
        let key = Key::raw(5);
        sink.state.lock().resolvable.insert(key.heat_token(), key);
        sink.state.lock().phase_len_us = 20_000;
        let registry = Arc::new(Registry::new());
        let mut tuner = Tuner::new(cfg(), Arc::clone(&sink) as Arc<dyn TuneSink>, Arc::clone(&registry));

        // Epoch 1: 4 hits — under the promote threshold.
        for _ in 0..4 {
            registry.heat().record(key.heat_token());
        }
        assert!(tuner.tick().is_empty());
        // Epoch 2: 15 more hits — promoted.
        for _ in 0..15 {
            registry.heat().record(key.heat_token());
        }
        let decisions = tuner.tick();
        assert_eq!(decisions.len(), 1, "{decisions:?}");
        assert!(decisions[0].action.starts_with("promote"), "{decisions:?}");
        assert_eq!(sink.state.lock().split.len(), 1);
        assert_eq!(tuner.status().split_keys, vec![key.heat_token()]);
        assert_eq!(registry.snapshot().scalar("tuner_promotions"), Some(1));
    }

    #[test]
    fn idle_split_key_is_demoted_after_hysteresis() {
        let sink = Arc::new(MockSink::default());
        let key = Key::raw(5);
        {
            let mut s = sink.state.lock();
            s.split.push((key, OpKind::Add));
            s.phase_len_us = 20_000;
        }
        let registry = Arc::new(Registry::new());
        let mut tuner = Tuner::new(cfg(), Arc::clone(&sink) as Arc<dyn TuneSink>, registry);

        // Epoch 1 adopts the externally-split key (and starts its grace).
        let d = tuner.tick();
        assert!(d.iter().any(|d| d.action.starts_with("adopt")), "{d:?}");
        // Busy epochs: activity grows, no demotion ever.
        for i in 1..=3u64 {
            sink.state.lock().activity.insert(key, 100 * i);
            assert!(tuner.tick().is_empty());
        }
        // Idle epochs: activity frozen, heat cold. Two consecutive idle
        // epochs (demote_idle_epochs) are needed — no early demotion.
        assert!(tuner.tick().is_empty(), "first idle epoch is not enough");
        let d = tuner.tick();
        assert!(d.iter().any(|d| d.action.starts_with("demote")), "{d:?}");
        assert!(sink.state.lock().split.is_empty());
    }

    #[test]
    fn stash_latency_steers_phase_len_within_bounds() {
        let sink = Arc::new(MockSink::default());
        sink.state.lock().phase_len_us = 20_000;
        let registry = Arc::new(Registry::new());
        let mut tuner = Tuner::new(cfg(), Arc::clone(&sink) as Arc<dyn TuneSink>, Arc::clone(&registry));

        // Slow replays (100ms ≫ the 30ms target) → phases shrink.
        let hist = registry.histogram("stash_replay");
        for _ in 0..32 {
            hist.record(0, Duration::from_millis(100));
        }
        let d = tuner.tick();
        assert!(d.iter().any(|d| d.action.starts_with("phase_len")), "{d:?}");
        let shrunk = sink.state.lock().phase_len_us;
        assert!(shrunk < 20_000, "phase_len shrank: {shrunk}");

        // Very fast replays → phases grow again, but never past the bound.
        for epoch in 0..64 {
            for _ in 0..32 {
                hist.record(0, Duration::from_micros(100));
            }
            tuner.tick();
            let now = sink.state.lock().phase_len_us;
            assert!(
                now <= cfg().max_phase_len.as_micros() as u64,
                "epoch {epoch}: {now} within bounds"
            );
        }
        let grown = sink.state.lock().phase_len_us;
        assert!(grown > shrunk, "phase_len recovered: {grown} > {shrunk}");
    }

    #[test]
    fn persistent_conflicts_with_empty_split_set_lower_the_gate() {
        let sink = Arc::new(MockSink::default());
        sink.state.lock().phase_len_us = 20_000;
        let registry = Arc::new(Registry::new());
        let mut tuner = Tuner::new(cfg(), Arc::clone(&sink) as Arc<dyn TuneSink>, registry);

        tuner.tick(); // establish the stats baseline
        {
            let mut s = sink.state.lock();
            s.stats.commits = 100;
            s.stats.conflicts = 50; // 50% conflict rate, nothing split
        }
        let d = tuner.tick();
        assert!(d.iter().any(|d| d.action.starts_with("threshold")), "{d:?}");
        assert_eq!(sink.state.lock().thresholds.unwrap().split_min_conflicts, 6);
    }

    #[test]
    fn handle_spawns_ticks_and_stops() {
        let sink = Arc::new(MockSink::default());
        sink.state.lock().phase_len_us = 20_000;
        let registry = Arc::new(Registry::new());
        let cfg = TunerConfig { epoch: Duration::from_millis(5), ..cfg() };
        let mut handle =
            TunerHandle::spawn(cfg, Arc::clone(&sink) as Arc<dyn TuneSink>, registry);
        let watch = handle.watch();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while watch.status().epochs < 3 {
            assert!(std::time::Instant::now() < deadline, "tuner never ticked");
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        let frozen = watch.status().epochs;
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(watch.status().epochs, frozen, "stopped tuner must not tick");
    }
}
