//! Doppel worker: the per-core execution handle.
//!
//! "Doppel runs one worker thread per core" (§6). A worker:
//!
//! * executes transactions in the current phase (joined = OCC, split =
//!   OCC + per-core slices);
//! * checks the global phase variable between transactions, acknowledges
//!   pending transitions, merges its slices when leaving a split phase
//!   (reconciliation, Figure 4) and drains its stash when entering a joined
//!   phase;
//! * samples conflicts, slice writes and stashes for the classifier;
//! * stashes transactions that touch split data incompatibly and replays
//!   them in the next joined phase.

use crate::classify::WorkerSample;
use crate::phase::Phase;
use crate::shared::DoppelShared;
use crate::slices::Slice;
use crate::split_registry::SplitSet;
use crate::txn::{DoppelTx, TxBuffers};
use doppel_common::{
    CommitSink, Completion, CoreId, Key, Op, OpKind, Outcome, Procedure, Ticket, TidGenerator, Tx,
    TxError, TxHandle,
};
use doppel_store::Session;
use doppel_telemetry::trace::{self, EventKind};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Maximum inline retries for a stashed transaction replayed during a joined
/// phase before its failure is reported back to the caller.
const STASH_REPLAY_RETRIES: u32 = 64;

struct StashedTxn {
    ticket: Ticket,
    proc: Arc<dyn Procedure>,
    /// When the transaction was stashed: its replay completion reports the
    /// full stash-to-resolution latency (the cost a deferred client paid).
    stashed_at: Instant,
}

/// Per-core execution handle of a [`crate::DoppelDb`].
///
/// Nothing shared between workers is written per transaction: the counters
/// are this core's [`doppel_common::CoreStats`] cell, the contention sample,
/// slices, stash and transaction buffers live in the worker, and the shared
/// state is only borrowed (no reference count moves).
pub struct DoppelWorker {
    shared: Arc<DoppelShared>,
    /// Everything the worker owns, kept apart from the `Arc` so its methods
    /// can mutate it while a transaction borrows the shared store.
    state: WorkerState,
}

struct WorkerState {
    core: CoreId,
    tid_gen: TidGenerator,
    local_phase: Phase,
    acked_seq: u64,
    /// The split decisions installed by the last transition: what the
    /// running split phase restricts, or what the next one will.
    split_set: Arc<SplitSet>,
    /// Per-core slices for split records, indexed by `split_set` slot.
    slices: Vec<Slice>,
    /// Reconciliation scratch: one slice's merge operations at a time.
    merge_buf: Vec<Op>,
    /// This phase's contention sample, handed to the shared slot at the next
    /// acknowledgement.
    sample: WorkerSample,
    stash: VecDeque<StashedTxn>,
    completions: Vec<Completion>,
    next_ticket: u64,
    /// xorshift state for conflict sampling.
    rng_state: u64,
    /// Durability sink, captured at worker creation so neither the commit
    /// path nor reconciliation reads the shared sink cell (attach the sink
    /// before creating handles).
    sink: Option<Arc<dyn CommitSink>>,
    /// Transaction buffers (OCC sets, split write set, intent list) reused
    /// across transactions so steady-state execution allocates no
    /// per-transaction bookkeeping.
    tx_bufs: TxBuffers,
    /// This worker's registration with the store: its transactions read
    /// records in place, and what its commits and merges replace waits here
    /// until every worker has passed a safepoint.
    session: Session,
}

impl DoppelWorker {
    /// Creates the worker for `core` and registers it with the phase
    /// barrier.
    pub fn new(shared: Arc<DoppelShared>, core: CoreId) -> Self {
        shared.phase.register_worker(core);
        DoppelWorker {
            state: WorkerState {
                core,
                tid_gen: TidGenerator::new(core),
                local_phase: Phase::Joined,
                acked_seq: 0,
                split_set: SplitSet::empty(),
                slices: Vec::new(),
                merge_buf: Vec::new(),
                sample: WorkerSample::new(),
                stash: VecDeque::new(),
                completions: Vec::new(),
                next_ticket: 0,
                rng_state: 0x9E37_79B9_7F4A_7C15 ^ ((core as u64 + 1) << 17),
                sink: shared.commit_sink(),
                tx_bufs: TxBuffers::default(),
                session: shared.store.register(),
            },
            shared,
        }
    }

    /// The phase this worker is currently executing in.
    pub fn phase(&self) -> Phase {
        self.state.local_phase
    }

    /// Number of records with a non-empty slice on this worker.
    pub fn slice_count(&self) -> usize {
        self.state.slices.iter().filter(|s| s.op_count() > 0).count()
    }

    /// The one execution path: safepoint, run in the current phase, and —
    /// only if the split phase cannot run the transaction now — take
    /// ownership of it through `own` and stash it.
    fn execute_body(
        &mut self,
        body: impl FnOnce(&mut dyn Tx) -> Result<(), TxError>,
        own: impl FnOnce() -> Arc<dyn Procedure>,
    ) -> Outcome {
        let (shared, state) = (&*self.shared, &mut self.state);
        state.safepoint(shared);
        if shared.is_shutdown() {
            return Outcome::Aborted(TxError::Shutdown);
        }
        match state.run(shared, body) {
            Outcome::Aborted(TxError::Stash { key, attempted }) => {
                state.stash(shared, own(), key, attempted)
            }
            outcome => outcome,
        }
    }
}

impl WorkerState {
    fn fresh_ticket(&mut self) -> Ticket {
        self.next_ticket += 1;
        Ticket(((self.core as u64) << 48) | self.next_ticket)
    }

    fn should_sample(&mut self, rate: f64) -> bool {
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        // xorshift64* — cheap, deterministic per worker.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        r < rate
    }

    /// Runs one transaction in the worker's phase: plain OCC in a joined
    /// phase; OCC for reconciled data plus per-core slices for split data in
    /// a split phase. A transaction that must wait for the next joined phase
    /// comes back as `Aborted(TxError::Stash { .. })` for the caller to stash.
    ///
    /// Generic over the body so each entry — an owned procedure, a borrowed
    /// closure, a stash replay — reaches the transaction through the one
    /// dynamic call it already has, not a second one added here.
    fn run(
        &mut self,
        shared: &DoppelShared,
        body: impl FnOnce(&mut dyn Tx) -> Result<(), TxError>,
    ) -> Outcome {
        // Between transactions the worker holds nothing of the store: the
        // safepoint the store's reclamation waits for.
        self.session.quiesce(false);
        let split_set = (self.local_phase == Phase::Split).then_some(&*self.split_set);
        let bufs = std::mem::take(&mut self.tx_bufs);
        let mut tx = DoppelTx::new(&shared.store, &mut self.session, self.core, split_set, bufs);
        // The OCC (reconciled) part of the write set logs conventionally;
        // split writes are not logged per-operation — each worker emits one
        // merged-delta record per split key at reconciliation instead. A
        // mixed transaction therefore becomes durable in two pieces: its
        // reconciled writes at commit, its split writes when the next
        // reconciliation's delta records reach disk (see the "Durability"
        // section of the README for the contract).
        let committed = body(&mut tx)
            .and_then(|()| tx.commit_occ_durable(&mut self.tid_gen, self.sink.as_deref()));
        let result = match committed {
            Ok((tid, receipt)) => {
                shared.stats.absorb_log(&receipt);
                let cell = shared.stats.core(self.core);
                // Apply the split write set to the per-core slices (Figure 3,
                // part 3). Slices are invisible to other cores, so no locks
                // or version checks are needed.
                for (slot, op) in tx.drain_split_writes() {
                    self.slices[slot]
                        .apply(&op)
                        .expect("selected operation always matches its slice kind");
                    cell.slice_ops.bump();
                }
                cell.commits.bump();
                self.sample.record_commit();
                Ok(tid)
            }
            Err(e) => {
                let blamed = match &e {
                    TxError::Conflict { key } | TxError::LockBusy { key } => {
                        Some((*key, tx.intent_for(key)))
                    }
                    _ => None,
                };
                Err((e, blamed))
            }
        };
        self.tx_bufs = tx.into_buffers();
        match result {
            Ok(tid) => Outcome::Committed(tid),
            Err((e, blamed)) => {
                let cell = shared.stats.core(self.core);
                match (&e, blamed) {
                    (TxError::Stash { .. }, _) => {}
                    (_, Some((key, op))) => {
                        self.sample_conflict(shared, key, op);
                        cell.conflicts.bump();
                    }
                    _ => cell.user_aborts.bump(),
                }
                Outcome::Aborted(e)
            }
        }
    }

    /// Attributes a conflict abort to `(key, op)` for the classifier.
    fn sample_conflict(&mut self, shared: &DoppelShared, key: Key, op: OpKind) {
        // The heat sketch is unsampled (a few relaxed atomics): the hot-key
        // table should reflect every conflict, not the classifier's sample.
        shared.telemetry.heat().record(key.heat_token());
        if self.should_sample(shared.config.conflict_sample_rate) {
            self.sample.record_conflict(key, op);
            // Split keys keep conflicting in joined phases by design; only a
            // conflict on a key outside the split set is news to the
            // coordinator.
            if op.splittable() && !self.split_set.is_split(&key) {
                shared.splittable_conflicts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stashes a transaction for the next joined phase (§5.2).
    fn stash(
        &mut self,
        shared: &DoppelShared,
        proc: Arc<dyn Procedure>,
        key: Key,
        attempted: OpKind,
    ) -> Outcome {
        self.sample.record_stash(key, attempted);
        shared.stats.core(self.core).stashes.bump();
        let ticket = self.fresh_ticket();
        trace::instant(EventKind::TxnStash, self.core as u64);
        self.stash.push_back(StashedTxn { ticket, proc, stashed_at: Instant::now() });
        Outcome::Stashed(ticket)
    }

    /// Merges this worker's slices into the global store (Figure 4): for
    /// every slice, lock the global record, merge-apply, bump the TID and
    /// unlock. Called while acknowledging a split→joined transition.
    ///
    /// Durability rides on this step: with a commit sink attached, the worker
    /// appends **one merged-delta record per split key** — not one record per
    /// split-phase operation — while still holding the record lock. This is
    /// the paper's durability dividend: split-phase logging costs O(split
    /// keys) records per phase instead of O(operations), and split-phase
    /// commit acknowledgements become durable when their reconciliation
    /// deltas reach disk.
    ///
    /// The slices' operation counts are this phase's write sample (§5.5), so
    /// they move into the contention sample here, once per key per phase.
    fn reconcile(&mut self, shared: &DoppelShared) {
        let started = Instant::now();
        let mut any = false;
        for (slice, (key, _)) in self.slices.iter_mut().zip(self.split_set.decisions()) {
            if slice.op_count() == 0 {
                continue;
            }
            any = true;
            self.sample.record_split_writes(*key, slice.op_count());
            self.merge_buf.clear();
            slice.drain_merge_ops(&mut self.merge_buf);
            if self.merge_buf.is_empty() {
                continue;
            }
            let mut locked = shared.store.get_or_create(&self.session, *key).lock_spin();
            for op in &self.merge_buf {
                // A type mismatch can only happen if the application wrote a
                // value of a different type to this key outside the split
                // phase; the merge skips such records rather than corrupting
                // them.
                let _ = locked.apply(op, &mut self.session);
            }
            let tid = self.tid_gen.next_after([locked.tid()]);
            if let Some(sink) = &self.sink {
                let receipt = sink.log_merged_delta(tid, *key, &self.merge_buf);
                shared.stats.absorb_log(&receipt);
            }
            locked.publish(tid);
            doppel_common::EngineStats::bump(&shared.stats.slices_merged);
        }
        if any {
            shared.hist_reconcile.record(self.core, started.elapsed());
            trace::span_since(EventKind::Reconcile, self.core as u64, started);
        }
    }

    /// Replays stashed transactions in joined mode ("each worker restarts any
    /// transactions it stashed in the split phase", §5.4). Conflicting
    /// replays are retried a bounded number of times; persistent failures are
    /// reported as completions so the caller can resubmit.
    fn drain_stash(&mut self, shared: &DoppelShared) {
        // Replay directly off the deque: joined-phase execution never pushes
        // to the stash, so popping while replaying is safe and avoids
        // collecting into a temporary list.
        while let Some(entry) = self.stash.pop_front() {
            let mut attempts = 0u32;
            let result = loop {
                match self.run(shared, |tx| entry.proc.run(tx)) {
                    Outcome::Committed(tid) => {
                        shared.stats.core(self.core).stash_commits.bump();
                        break Ok(tid);
                    }
                    Outcome::Aborted(e) if e.is_retryable() && attempts < STASH_REPLAY_RETRIES => {
                        attempts += 1;
                        for _ in 0..(1u32 << attempts.min(6)) {
                            std::hint::spin_loop();
                        }
                    }
                    Outcome::Aborted(e) => break Err(e),
                    Outcome::Stashed(_) => unreachable!("run never stashes by itself"),
                }
            };
            shared.hist_stash_replay.record(self.core, entry.stashed_at.elapsed());
            trace::span_since(EventKind::StashReplay, result.is_ok() as u64, entry.stashed_at);
            self.completions.push(Completion { ticket: entry.ticket, result });
        }
    }

    /// The safepoint: observe pending phase transitions, do the pre-ack work
    /// (reconcile / drain), acknowledge, wait for the release and switch the
    /// local phase.
    fn safepoint(&mut self, shared: &DoppelShared) {
        loop {
            let target = shared.phase.target();
            if target.seq <= self.acked_seq {
                return;
            }
            // Pre-acknowledgement work (§5.4):
            match self.local_phase {
                // Leaving the split phase: merge per-core slices into the
                // global store before acknowledging.
                Phase::Split => self.reconcile(shared),
                // Entering a split phase: finish previously stashed
                // transactions first ("our workers delay acknowledging a
                // split phase until they have committed or aborted all
                // previously-stashed transactions").
                Phase::Joined => self.drain_stash(shared),
            }
            // Hand this phase's sample to the completer: the one time per
            // phase the worker takes its slot's lock.
            shared.samplers[self.core].lock().absorb(&mut self.sample);
            shared.phase.ack(self.core, target.seq);
            self.acked_seq = target.seq;
            // The last worker to acknowledge completes the transition.
            shared.try_complete_transition();

            // Wait for permission to proceed.
            while shared.phase.released_seq() < target.seq {
                if shared.is_shutdown() {
                    return;
                }
                shared.try_complete_transition();
                std::thread::yield_now();
            }

            // Enter the new phase on the split set the completer installed.
            // Every slice is at its identity here: reconciled if the split
            // phase just ended, never written if a joined phase did.
            self.local_phase = target.phase;
            self.split_set = shared.registry.current();
            self.slices.clear();
            self.slices.extend(self.split_set.decisions().iter().map(|(_, op)| Slice::new(*op)));
            if target.phase == Phase::Joined {
                // Restart stashed transactions now that the joined phase has
                // begun.
                self.drain_stash(shared);
            }
            // Loop: another transition may already be pending.
        }
    }
}

impl Drop for DoppelWorker {
    fn drop(&mut self) {
        // A worker that goes away mid-split-phase must not lose the updates
        // buffered in its slices: merge them (merging early is safe — split
        // records cannot be read by anyone until the next joined phase) and
        // stop blocking phase transitions.
        self.state.reconcile(&self.shared);
        self.shared.samplers[self.state.core].lock().absorb(&mut self.state.sample);
        self.shared.phase.unregister_worker(self.state.core);
        self.shared.try_complete_transition();
    }
}

impl TxHandle for DoppelWorker {
    fn core(&self) -> CoreId {
        self.state.core
    }

    fn execute_with(
        &mut self,
        body: &mut dyn FnMut(&mut dyn Tx) -> Result<(), TxError>,
        own: &mut dyn FnMut() -> Arc<dyn Procedure>,
    ) -> Outcome {
        self.execute_body(body, own)
    }

    /// The provided wrapper, spelled out so that the body is `proc.run`
    /// itself rather than a closure behind a second dynamic call.
    fn execute(&mut self, proc: Arc<dyn Procedure>) -> Outcome {
        self.execute_body(|tx| proc.run(tx), || Arc::clone(&proc))
    }

    fn prefetch(&mut self, keys: &[Key]) {
        // The global store only: a split key's slice is this core's own.
        self.shared.store.prefetch(&self.state.session, keys);
    }

    fn safepoint(&mut self) {
        // An idle worker also keeps the store's reclamation moving.
        self.state.session.quiesce(true);
        self.state.safepoint(&self.shared);
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        let completions = &mut self.state.completions;
        if completions.is_empty() {
            return Vec::new();
        }
        // The caller keeps this vector, so the next joined phase's replays
        // need another: sized for as many as this one, it is one allocation
        // per phase instead of a doubling sequence.
        let next = Vec::with_capacity(completions.len());
        std::mem::replace(completions, next)
    }

    fn stash_len(&self) -> usize {
        self.state.stash.len()
    }
}

/// Tests for the worker live in the crate-level tests of `db.rs`, which can
/// drive full phase cycles; the unit tests here cover the pieces that do not
/// need a running database.
#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::DoppelConfig;

    #[test]
    fn tickets_are_unique_and_encode_core() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(2)));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 1);
        let a = w.state.fresh_ticket();
        let b = w.state.fresh_ticket();
        assert_ne!(a, b);
        assert_eq!(a.0 >> 48, 1);
    }

    #[test]
    fn sampling_rate_extremes() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        assert!(w.state.should_sample(1.0));
        assert!(!w.state.should_sample(0.0));
    }

    #[test]
    fn fractional_sampling_is_roughly_proportional() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        let hits = (0..10_000).filter(|_| w.state.should_sample(0.25)).count();
        assert!((1_500..3_500).contains(&hits), "got {hits} samples out of 10000");
    }

    #[test]
    fn only_conflicts_outside_the_split_set_reach_the_coordinator() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        let mut w = DoppelWorker::new(Arc::clone(&shared), 0);
        w.state.split_set = Arc::new(SplitSet::from_decisions([(Key::raw(1), OpKind::Add)]));
        let signal = || shared.splittable_conflicts.load(Ordering::Relaxed);
        // A split key conflicts in every joined phase; that is not news.
        w.state.sample_conflict(&shared, Key::raw(1), OpKind::Add);
        assert_eq!(signal(), 0);
        // Nor is a conflict no split could cure.
        w.state.sample_conflict(&shared, Key::raw(2), OpKind::Put);
        assert_eq!(signal(), 0);
        w.state.sample_conflict(&shared, Key::raw(2), OpKind::Add);
        assert_eq!(signal(), 1);
        // All three are in the classifier's sample all the same.
        assert_eq!(w.state.sample.conflicts.len(), 3);
    }

    #[test]
    fn new_worker_starts_joined_with_empty_state() {
        let shared = Arc::new(DoppelShared::new(DoppelConfig::with_workers(1)));
        let w = DoppelWorker::new(Arc::clone(&shared), 0);
        assert_eq!(w.phase(), Phase::Joined);
        assert_eq!(w.slice_count(), 0);
        assert_eq!(w.stash_len(), 0);
        assert_eq!(w.core(), 0);
    }
}
