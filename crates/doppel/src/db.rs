//! The Doppel database facade.

use crate::coordinator;
use crate::phase::Phase;
use crate::shared::DoppelShared;
use crate::worker::DoppelWorker;
use doppel_common::{
    CommitSink, CoreId, DoppelConfig, Engine, EngineStats, Key, OpKind, StatsSnapshot,
    TuneObservation, TuneSink, TuneThresholds, TxHandle, Value,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// An in-memory transactional database using phase reconciliation.
///
/// # Phase control
///
/// A `DoppelDb` can run its phase coordinator in two ways:
///
/// * **automatic** — [`DoppelDb::start`] (or [`DoppelDb::spawn_coordinator`])
///   runs the paper's coordinator thread, switching phases every
///   [`DoppelConfig::phase_len`] subject to the feedback rules of §5.4;
/// * **manual** — tests and examples can call [`DoppelDb::request_phase`] and
///   drive workers themselves; the transition is released as soon as every
///   worker has passed a safepoint ([`TxHandle::execute`] or
///   [`TxHandle::safepoint`]).
///
/// # Examples
///
/// ```
/// use doppel_common::{DoppelConfig, Engine, Key, ProcedureFn, Value};
/// use doppel_db::DoppelDb;
/// use std::sync::Arc;
///
/// let db = DoppelDb::new(DoppelConfig::with_workers(1));
/// db.load(Key::raw(1), Value::Int(0));
/// let mut worker = db.handle(0);
/// let incr = Arc::new(ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1)));
/// for _ in 0..10 {
///     assert!(worker.execute(incr.clone()).is_committed());
/// }
/// assert_eq!(db.global_get(Key::raw(1)), Some(Value::Int(10)));
/// ```
pub struct DoppelDb {
    shared: Arc<DoppelShared>,
    coordinator: Mutex<Option<JoinHandle<()>>>,
}

impl DoppelDb {
    /// Creates a database with manual phase control (no coordinator thread).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DoppelConfig::validate`].
    pub fn new(config: DoppelConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid DoppelConfig: {msg}");
        }
        DoppelDb { shared: Arc::new(DoppelShared::new(config)), coordinator: Mutex::new(None) }
    }

    /// Creates a database and immediately starts the background coordinator.
    pub fn start(config: DoppelConfig) -> Self {
        let db = DoppelDb::new(config);
        db.spawn_coordinator();
        db
    }

    /// Spawns the coordinator thread if it is not already running.
    pub fn spawn_coordinator(&self) {
        let mut guard = self.coordinator.lock();
        if guard.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        *guard = Some(
            std::thread::Builder::new()
                .name("doppel-coordinator".into())
                .spawn(move || coordinator::run(shared))
                .expect("failed to spawn coordinator thread"),
        );
    }

    /// Requests a manual phase transition and returns its sequence number.
    /// The transition is released once every worker has acknowledged it at a
    /// safepoint.
    ///
    /// Note that a worker blocks inside [`TxHandle::safepoint`] /
    /// [`TxHandle::execute`] after acknowledging until *all* workers have
    /// acknowledged (that is the paper's barrier, §5.4). With a single worker
    /// the release happens inside the same call, so tests can drive phases
    /// from one thread; with several workers each handle must be driven from
    /// its own thread.
    ///
    /// # Panics
    ///
    /// Panics if a transition is already pending or if the requested phase is
    /// the current phase.
    pub fn request_phase(&self, phase: Phase) -> u64 {
        assert!(
            !self.shared.phase.transition_pending(),
            "a phase transition is already pending"
        );
        assert_ne!(
            self.shared.phase.current_phase(),
            phase,
            "database is already in {phase:?}"
        );
        self.shared.phase.request(phase)
    }

    /// The phase the database is currently in (of the last released
    /// transition).
    pub fn current_phase(&self) -> Phase {
        self.shared.phase.current_phase()
    }

    /// True while a requested transition has not yet been released.
    pub fn transition_pending(&self) -> bool {
        self.shared.phase.transition_pending()
    }

    /// Manually labels `key` as split for `op` ("Doppel also supports manual
    /// data labeling", §5.5). Takes effect at the next joined→split
    /// transition.
    pub fn label_split(&self, key: Key, op: OpKind) {
        self.shared.classifier.lock().label_split(key, op);
    }

    /// Removes a split label so the key returns to reconciled state at the
    /// next transition.
    pub fn label_reconciled(&self, key: Key) {
        self.shared.classifier.lock().label_reconciled(&key);
    }

    /// Number of records currently marked split by the classifier.
    pub fn split_count(&self) -> usize {
        self.shared.classifier.lock().split_count()
    }

    /// The keys currently marked split, with their selected operations.
    pub fn split_keys(&self) -> Vec<(Key, OpKind)> {
        self.shared.classifier.lock().split_keys()
    }

    /// The engine configuration.
    pub fn config(&self) -> &DoppelConfig {
        &self.shared.config
    }

    /// Shared internal state. Exposed for the benchmark harness and tests
    /// that need to inject contention samples or inspect feedback counters;
    /// not part of the stable API.
    #[doc(hidden)]
    pub fn shared(&self) -> &Arc<DoppelShared> {
        &self.shared
    }
}

/// The adaptive tuner's view of a Doppel database: sampling and the apply
/// path for its decisions. Split-label changes go through the classifier
/// (same path as manual labels, §5.5) and take effect at the next
/// transition; phase length and thresholds take effect immediately.
impl TuneSink for DoppelDb {
    fn observe(&self) -> TuneObservation {
        let classifier = self.shared.classifier.lock();
        TuneObservation {
            stats: self.shared.stats.snapshot(),
            split_keys: classifier.split_keys(),
            split_activity: classifier.split_activity(),
            phase_len: self.shared.phase_len(),
            thresholds: classifier.thresholds(),
        }
    }

    fn promote(&self, token: u64) -> Option<(Key, OpKind)> {
        let mut classifier = self.shared.classifier.lock();
        if classifier.split_count() >= self.shared.config.max_split_records {
            return None;
        }
        let (key, op) = classifier.resolve_token(token)?;
        if classifier.is_split(&key) {
            return None;
        }
        classifier.label_split(key, op);
        Some((key, op))
    }

    fn demote(&self, key: Key) -> bool {
        let mut classifier = self.shared.classifier.lock();
        if !classifier.is_split(&key) {
            return false;
        }
        classifier.label_reconciled(&key);
        true
    }

    fn set_phase_len(&self, len: std::time::Duration) {
        self.shared.set_phase_len(len);
    }

    fn set_thresholds(&self, thresholds: TuneThresholds) {
        self.shared.classifier.lock().set_thresholds(thresholds);
        self.shared
            .split_gate_conflicts
            .store(thresholds.split_min_conflicts, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Engine for DoppelDb {
    fn name(&self) -> &'static str {
        "Doppel"
    }

    fn workers(&self) -> usize {
        self.shared.config.workers
    }

    fn handle(&self, core: CoreId) -> Box<dyn TxHandle> {
        assert!(
            core < self.shared.config.workers,
            "core {core} out of range (workers = {})",
            self.shared.config.workers
        );
        Box::new(DoppelWorker::new(Arc::clone(&self.shared), core))
    }

    fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    fn global_get(&self, k: Key) -> Option<Value> {
        self.shared.store.read_unlocked(&k)
    }

    fn load(&self, k: Key, v: Value) {
        self.shared.store.load(k, v);
    }

    fn begin_drain(&self) {
        // With the coordinator running, phase transitions keep coming and a
        // drain makes progress on its own. Under manual phase control a drain
        // that starts mid-split-phase would wait forever for the joined phase
        // that replays stashes — request that transition here. (The service
        // owns every handle during a drain, so no other thread is requesting
        // phases concurrently.)
        if self.coordinator.lock().is_some() {
            return;
        }
        if self.shared.phase.current_phase() == Phase::Split
            && !self.shared.phase.transition_pending()
        {
            self.shared.phase.request(Phase::Joined);
        }
    }

    fn shutdown(&self) {
        self.shared.request_shutdown();
        if let Some(handle) = self.coordinator.lock().take() {
            let _ = handle.join();
        }
        // Make everything logged so far durable. Note that split-phase
        // acknowledgements whose merged deltas have not been reconciled yet
        // are *not* on disk; workers reconcile in their `Drop`, so dropping
        // the handles before the database makes the final state durable.
        if let Some(sink) = self.shared.commit_sink() {
            self.shared.stats.absorb_log(&sink.sync());
        }
    }

    fn attach_commit_sink(&self, sink: std::sync::Arc<dyn CommitSink>) {
        *self.shared.wal.write() = Some(sink);
    }

    fn for_each_record(&self, f: &mut dyn FnMut(Key, &Value)) {
        self.shared.store.for_each(|k, v| f(*k, v));
    }

    fn note_recovered(&self, records: u64) {
        EngineStats::add(&self.shared.stats.recovered_txns, records);
    }

    fn telemetry(&self) -> Option<Arc<doppel_telemetry::Registry>> {
        Some(Arc::clone(&self.shared.telemetry))
    }
}

impl Drop for DoppelDb {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{Outcome, ProcedureFn, TxError};
    use std::sync::Arc;
    use std::time::Duration;

    #[allow(clippy::type_complexity)] // spelled out once; the tests only name the Arc
    fn incr(key: u64, n: i64) -> Arc<ProcedureFn<impl Fn(&mut dyn doppel_common::Tx) -> Result<(), TxError> + Send + Sync>> {
        Arc::new(ProcedureFn::new("incr", move |tx| tx.add(Key::raw(key), n)))
    }

    fn read(key: u64) -> Arc<dyn doppel_common::Procedure> {
        Arc::new(ProcedureFn::read_only("read", move |tx| tx.get(Key::raw(key)).map(|_| ())))
    }

    fn manual_config() -> DoppelConfig {
        DoppelConfig {
            workers: 1,
            split_min_conflicts: 1,
            split_conflict_fraction: 0.0,
            unsplit_write_fraction: 0.0,
            ..DoppelConfig::default()
        }
    }

    #[test]
    fn joined_phase_executes_like_occ() {
        let db = DoppelDb::new(manual_config());
        db.load(Key::raw(1), Value::Int(0));
        let mut w = db.handle(0);
        for _ in 0..20 {
            assert!(w.execute(incr(1, 1)).is_committed());
        }
        assert_eq!(db.global_get(Key::raw(1)), Some(Value::Int(20)));
        assert_eq!(db.stats().commits, 20);
        assert_eq!(db.current_phase(), Phase::Joined);
        assert_eq!(db.name(), "Doppel");
    }

    #[test]
    fn manual_split_phase_cycle_preserves_counter() {
        let db = DoppelDb::new(manual_config());
        db.load(Key::raw(5), Value::Int(100));
        db.label_split(Key::raw(5), OpKind::Add);
        let mut w = db.handle(0);

        // Move to the split phase (released at the worker's next safepoint).
        db.request_phase(Phase::Split);
        w.safepoint();
        assert_eq!(db.current_phase(), Phase::Split);

        // Split-phase increments go to the per-core slice, not the store.
        for _ in 0..50 {
            assert!(w.execute(incr(5, 2)).is_committed());
        }
        assert_eq!(db.global_get(Key::raw(5)), Some(Value::Int(100)), "global value untouched");
        assert_eq!(db.stats().slice_ops, 50);

        // Back to joined: the worker reconciles before acknowledging.
        db.request_phase(Phase::Joined);
        w.safepoint();
        assert_eq!(db.current_phase(), Phase::Joined);
        assert_eq!(db.global_get(Key::raw(5)), Some(Value::Int(200)));
        assert_eq!(db.stats().slices_merged, 1);
        assert_eq!(db.stats().split_phases, 1);
    }

    #[test]
    fn split_phase_stashes_reads_and_replays_them() {
        let db = DoppelDb::new(manual_config());
        db.load(Key::raw(5), Value::Int(7));
        db.label_split(Key::raw(5), OpKind::Add);
        let mut w = db.handle(0);

        db.request_phase(Phase::Split);
        w.safepoint();

        // A read of split data is stashed.
        let out = w.execute(read(5));
        let ticket = match out {
            Outcome::Stashed(t) => t,
            other => panic!("expected stash, got {other:?}"),
        };
        assert_eq!(w.stash_len(), 1);
        assert_eq!(db.stats().stashes, 1);

        // Writes with the selected op still commit.
        assert!(w.execute(incr(5, 3)).is_committed());

        // Returning to the joined phase replays the stashed read.
        db.request_phase(Phase::Joined);
        w.safepoint();
        let completions = w.take_completions();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].ticket, ticket);
        assert!(completions[0].result.is_ok());
        assert_eq!(w.stash_len(), 0);
        assert_eq!(db.stats().stash_commits, 1);
        // The replay ran after reconciliation, so it saw the merged value.
        assert_eq!(db.global_get(Key::raw(5)), Some(Value::Int(10)));
    }

    #[test]
    fn automatic_classification_splits_contended_key() {
        // Single worker: conflicts cannot actually happen, so inject the
        // contention signal through the classifier the same way multiple
        // workers would, then check the phase machinery picks it up.
        let db = DoppelDb::new(manual_config());
        db.load(Key::raw(9), Value::Int(0));
        let mut w = db.handle(0);
        // Simulate sampled conflicts as a contended multi-core run would.
        {
            let shared = db.shared();
            let mut sample = shared.samplers[0].lock();
            for _ in 0..100 {
                sample.record_conflict(Key::raw(9), OpKind::Add);
            }
        }
        db.request_phase(Phase::Split);
        w.safepoint();
        assert_eq!(db.current_phase(), Phase::Split);
        assert_eq!(db.split_count(), 1);
        assert_eq!(db.split_keys(), vec![(Key::raw(9), OpKind::Add)]);
        // Increments now go to slices.
        assert!(w.execute(incr(9, 1)).is_committed());
        assert_eq!(db.stats().slice_ops, 1);
        db.request_phase(Phase::Joined);
        w.safepoint();
        assert_eq!(db.global_get(Key::raw(9)), Some(Value::Int(1)));
    }

    #[test]
    fn unsplit_when_cold() {
        let mut cfg = manual_config();
        cfg.unsplit_write_fraction = 0.5; // aggressive: unsplit unless ≥50% of txns write it
        let db = DoppelDb::new(cfg);
        db.load(Key::raw(3), Value::Int(0));
        db.load(Key::raw(4), Value::Int(0));
        db.label_split(Key::raw(3), OpKind::Add);
        let mut w = db.handle(0);

        db.request_phase(Phase::Split);
        w.safepoint();
        // Lots of commits, but none touch the split key.
        for _ in 0..100 {
            assert!(w.execute(incr(4, 1)).is_committed());
        }
        db.request_phase(Phase::Joined);
        w.safepoint();
        assert_eq!(db.split_count(), 0, "cold key moved back to reconciled");
        assert_eq!(db.stats().total_unsplits, 1);
    }

    #[test]
    fn ablation_without_splitting_still_correct() {
        let mut cfg = manual_config();
        cfg.enable_splitting = false;
        let db = DoppelDb::new(cfg);
        db.load(Key::raw(1), Value::Int(0));
        let mut w = db.handle(0);
        for _ in 0..10 {
            assert!(w.execute(incr(1, 1)).is_committed());
        }
        // Even with a manual label, end_joined_phase refuses to split.
        db.label_split(Key::raw(1), OpKind::Add);
        db.request_phase(Phase::Split);
        w.safepoint();
        // The label was installed manually so the registry still carries it;
        // what matters is correctness of the data.
        for _ in 0..10 {
            assert!(w.execute(incr(1, 1)).is_committed());
        }
        db.request_phase(Phase::Joined);
        w.safepoint();
        assert_eq!(db.global_get(Key::raw(1)), Some(Value::Int(20)));
    }

    type LoggedCommit = (doppel_common::Tid, Vec<(Key, doppel_common::Op)>);

    /// In-memory [`CommitSink`] recording what the engine would have logged.
    #[derive(Default)]
    struct RecordingSink {
        commits: parking_lot::Mutex<Vec<LoggedCommit>>,
        deltas: parking_lot::Mutex<Vec<(Key, Vec<doppel_common::Op>)>>,
    }

    impl CommitSink for RecordingSink {
        fn log_commit(
            &self,
            tid: doppel_common::Tid,
            writes: &mut dyn ExactSizeIterator<Item = (Key, &doppel_common::Op)>,
        ) -> doppel_common::LogReceipt {
            if writes.len() == 0 {
                return doppel_common::LogReceipt::default();
            }
            self.commits.lock().push((tid, writes.map(|(k, op)| (k, op.clone())).collect()));
            doppel_common::LogReceipt { records: 1, bytes: 1, ..Default::default() }
        }

        fn log_merged_delta(
            &self,
            _tid: doppel_common::Tid,
            key: Key,
            ops: &[doppel_common::Op],
        ) -> doppel_common::LogReceipt {
            self.deltas.lock().push((key, ops.to_vec()));
            doppel_common::LogReceipt { records: 1, bytes: 1, ..Default::default() }
        }

        fn sync(&self) -> doppel_common::LogReceipt {
            doppel_common::LogReceipt::default()
        }
    }

    #[test]
    fn split_phase_logs_one_merged_delta_per_key_not_per_op() {
        let db = DoppelDb::new(manual_config());
        let sink = Arc::new(RecordingSink::default());
        db.attach_commit_sink(sink.clone());
        db.load(Key::raw(5), Value::Int(0));
        db.load(Key::raw(6), Value::Int(0));
        db.label_split(Key::raw(5), OpKind::Add);
        db.label_split(Key::raw(6), OpKind::Add);
        let mut w = db.handle(0);

        db.request_phase(Phase::Split);
        w.safepoint();
        // 100 split-phase increments across the two split keys: none are
        // logged individually.
        for i in 0..100u64 {
            assert!(w.execute(incr(5 + (i % 2), 1)).is_committed());
        }
        assert_eq!(sink.commits.lock().len(), 0, "slice ops must not log per-operation");
        assert_eq!(db.stats().slice_ops, 100);

        // Reconciliation emits exactly one merged-delta record per split key.
        db.request_phase(Phase::Joined);
        w.safepoint();
        let deltas = sink.deltas.lock();
        assert_eq!(deltas.len(), 2, "one record per split key per reconciliation");
        for (key, ops) in deltas.iter() {
            assert_eq!(ops, &vec![doppel_common::Op::Add(50)], "merged delta for {key}");
        }
        drop(deltas);
        assert_eq!(db.stats().log_records, 2);

        // Joined-phase commits log conventionally.
        assert!(w.execute(incr(5, 1)).is_committed());
        assert_eq!(sink.commits.lock().len(), 1);
        assert_eq!(db.global_get(Key::raw(5)), Some(Value::Int(51)));
    }

    #[test]
    fn tune_sink_hooks_drive_the_engine() {
        let db = DoppelDb::new(manual_config());
        let sink: &dyn TuneSink = &db;

        // Phase length: applied immediately, zero ignored.
        sink.set_phase_len(Duration::from_millis(7));
        assert_eq!(sink.observe().phase_len, Duration::from_millis(7));
        sink.set_phase_len(Duration::ZERO);
        assert_eq!(sink.observe().phase_len, Duration::from_millis(7));

        // Thresholds: classifier and coordinator gate move together.
        sink.set_thresholds(TuneThresholds { split_min_conflicts: 3, unsplit_stash_ratio: 2.0 });
        let obs = sink.observe();
        assert_eq!(obs.thresholds.split_min_conflicts, 3);
        assert_eq!(
            db.shared().split_gate_conflicts.load(std::sync::atomic::Ordering::Relaxed),
            3
        );

        // Promotion resolves a heat token through the conflict memory.
        let key = Key::raw(42);
        {
            let shared = db.shared();
            let mut sample = shared.samplers[0].lock();
            sample.record_conflict(key, OpKind::Add);
        }
        let mut w = db.handle(0);
        db.request_phase(Phase::Split);
        w.safepoint();
        db.request_phase(Phase::Joined);
        w.safepoint();
        // One conflict was below even the tuned threshold, so the classifier
        // did not split it — but the memory resolves it for the tuner.
        assert_eq!(sink.promote(key.heat_token()), Some((key, OpKind::Add)));
        assert!(sink.promote(key.heat_token()).is_none(), "already split");
        assert_eq!(sink.observe().split_keys, vec![(key, OpKind::Add)]);
        assert_eq!(sink.observe().split_activity, vec![(key, 0)]);

        // Unknown tokens cannot be promoted; demotion round-trips.
        assert!(sink.promote(Key::raw(9_999).heat_token()).is_none());
        assert!(sink.demote(key));
        assert!(!sink.demote(key), "already reconciled");
        assert!(sink.observe().split_keys.is_empty());
    }

    #[test]
    fn automatic_coordinator_cycles_phases() {
        let cfg = DoppelConfig {
            workers: 2,
            phase_len: Duration::from_millis(5),
            split_min_conflicts: 1,
            split_conflict_fraction: 0.0,
            unsplit_write_fraction: 0.0,
            ..DoppelConfig::default()
        };
        let db = Arc::new(DoppelDb::start(cfg));
        db.load(Key::raw(0), Value::Int(0));
        // Label the counter split up front so the coordinator has a reason to
        // cycle phases even if the two time-sliced workers happen not to
        // conflict during the short run (conflicts would trigger the same
        // classification automatically, just not deterministically).
        db.label_split(Key::raw(0), OpKind::Add);
        let per_worker: i64 = 20_000;
        let total: i64 = 2 * per_worker;
        let mut joins = Vec::new();
        for core in 0..2usize {
            let db = Arc::clone(&db);
            joins.push(std::thread::spawn(move || {
                let mut w = db.handle(core);
                let proc = incr(0, 1);
                let mut committed = 0;
                while committed < per_worker {
                    match w.execute(proc.clone()) {
                        Outcome::Committed(_) => committed += 1,
                        Outcome::Aborted(TxError::Shutdown) => break,
                        Outcome::Aborted(_) => {}
                        Outcome::Stashed(_) => {
                            unreachable!("increments never stash")
                        }
                    }
                }
                committed
            }));
        }
        let committed: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        db.shutdown();
        assert_eq!(committed, total);
        // Every committed increment is reflected exactly once after shutdown
        // (slices were reconciled when leaving the last split phase; if the
        // run ended mid-split-phase the workers reconciled at the final
        // transition driven by shutdown... drive one more safepoint to be
        // sure).
        let stats = db.stats();
        assert!(stats.joined_phases > 0, "coordinator should have cycled phases");
        assert!(stats.slice_ops > 0, "split-phase increments should have used slices");
        assert_eq!(db.global_get(Key::raw(0)), Some(Value::Int(committed)));
    }
}
