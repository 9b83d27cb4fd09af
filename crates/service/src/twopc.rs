//! The shard-side half of cross-shard two-phase commit.
//!
//! A [`Participant`] lives inside every `doppel-server` and answers the
//! `Prepare`/`Decide` wire messages the shard router sends for transactions
//! whose statements are *not* all commutative (those take the coordination-
//! free fast path instead; see [`crate::shard`]).
//!
//! **Prepare** locks every key the shard-local slice touches in a
//! participant-level lock table, validates that the writes will apply
//! cleanly (type checks against the live store), reads the slice's `Get`
//! statements under those locks, force-logs the write set as a durable
//! prepare record in the shard's WAL, and only then votes yes. A lock
//! conflict or validation failure votes no with nothing acquired.
//!
//! **Decide(commit)** applies the prepared writes as one ordinary engine
//! transaction that *also* writes a marker key
//! (`Key::new(Table::TxnMarker, txid, 0)`), so the data writes and the
//! applied-indicator land atomically and durably inside the engine's own
//! commit record. Only after the engine commit does the participant log the
//! decide record and release the locks. A re-delivered commit checks the
//! marker first: present means the writes already landed, so the decision is
//! (re-)acknowledged without re-applying — exactly-once effects under
//! arbitrary re-delivery, including across a crash between prepare and
//! decide (the prepare record surfaces the transaction as *in-doubt* on
//! restart, the recovered write set re-locks its keys, and the coordinator's
//! retried decide completes it).
//!
//! **Decide(abort)** logs the decision, drops the prepared writes and
//! releases the locks; nothing ever touched the store.

use crate::service::{ReplySink, ServiceState};
use crate::wire::{ServerMsg, WireAbort, WireDone, WireStmt};
use doppel_common::{Engine, Key, Op, RequestId, ServiceReply, SubmitError, Table, Value};
use doppel_wal::{InDoubtTxn, Wal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The marker key a committed distributed transaction writes on each
/// participating shard (atomically with its data writes).
pub fn marker_key(txid: u64) -> Key {
    Key::new(Table::TxnMarker, txid, 0)
}

struct Prepared {
    /// The shard-local write set, in statement order.
    writes: Vec<(Key, Op)>,
    /// Every key the prepare locked (writes and reads).
    locked: Vec<Key>,
}

#[derive(Default)]
struct Inner {
    /// Key → owning txid. Prepared transactions hold their keys until the
    /// decision arrives, which is what isolates the slow path from itself.
    locks: HashMap<Key, u64>,
    prepared: HashMap<u64, Prepared>,
}

/// Per-shard two-phase-commit state: the lock table, the prepared (and
/// recovered in-doubt) transactions, and the durable vote log.
pub struct Participant {
    engine: Arc<dyn Engine>,
    /// The shard's WAL, shared with the engine's commit sink so prepare and
    /// decide records interleave with ordinary commits in one log. `None`
    /// on a volatile server: 2PC still works, it just cannot survive a
    /// restart.
    vote_log: Option<Arc<Wal>>,
    inner: Mutex<Inner>,
    prepares: AtomicU64,
    votes_no: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    recovered: AtomicU64,
    /// Crash hook for the 2PC recovery tests: when the environment variable
    /// `DOPPEL_TWOPC_CRASH=before-decide` is set at construction, the
    /// process exits the moment a `Decide` arrives — after voting, before
    /// the decision is logged or applied. That is precisely the in-doubt
    /// window recovery must close.
    crash_before_decide: bool,
}

impl Participant {
    /// A participant over `engine`, logging votes to `vote_log` and holding
    /// the locks of `in_doubt` transactions recovered from that log.
    pub fn new(
        engine: Arc<dyn Engine>,
        vote_log: Option<Arc<Wal>>,
        in_doubt: Vec<InDoubtTxn>,
    ) -> Participant {
        let p = Participant {
            engine,
            vote_log,
            inner: Mutex::default(),
            prepares: AtomicU64::new(0),
            votes_no: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            recovered: AtomicU64::new(in_doubt.len() as u64),
            crash_before_decide: std::env::var("DOPPEL_TWOPC_CRASH")
                .is_ok_and(|v| v == "before-decide"),
        };
        let mut inner = p.inner.lock();
        for txn in in_doubt {
            let locked: Vec<Key> = txn.writes.iter().map(|(k, _)| *k).collect();
            for k in &locked {
                inner.locks.insert(*k, txn.txid);
            }
            inner.prepared.insert(txn.txid, Prepared { writes: txn.writes, locked });
        }
        drop(inner);
        p
    }

    /// Phase one: lock, validate, read, force-log, vote. Returns the `Get`
    /// results (slice order) on a yes-vote, `None` on a no-vote.
    pub fn prepare(&self, txid: u64, stmts: &[WireStmt]) -> Option<Vec<Option<Value>>> {
        let mut inner = self.inner.lock();
        if inner.prepared.contains_key(&txid) {
            // Re-delivered prepare (the router timed out on the vote): the
            // locks and the logged write set are already in place — just
            // re-read and re-vote.
            drop(inner);
            self.prepares.fetch_add(1, Ordering::Relaxed);
            return self.run_slice(stmts).map(|(_, values)| values);
        }
        // Try-lock every touched key; back out completely on conflict.
        let mut acquired = Vec::new();
        for stmt in stmts {
            let k = match stmt {
                WireStmt::Get(k) | WireStmt::Write(k, _) => *k,
            };
            match inner.locks.get(&k) {
                Some(&owner) if owner != txid => {
                    for a in acquired {
                        inner.locks.remove(&a);
                    }
                    self.votes_no.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Some(_) => {}
                None => {
                    inner.locks.insert(k, txid);
                    acquired.push(k);
                }
            }
        }
        // Dry-run the slice so the decide-time apply cannot fail on a type
        // mismatch (a participant must not vote yes for writes it may be
        // unable to perform), and so `Get`s observe statement order.
        let Some((writes, values)) = self.run_slice(stmts) else {
            for a in acquired {
                inner.locks.remove(&a);
            }
            self.votes_no.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        inner.prepared.insert(txid, Prepared { writes: writes.clone(), locked: acquired });
        drop(inner);

        // Durable vote: the prepare record must hit the disk before the
        // yes-vote can reach the coordinator.
        if let Some(wal) = &self.vote_log {
            wal.log_prepare(txid, &writes);
        }
        self.prepares.fetch_add(1, Ordering::Relaxed);
        Some(values)
    }

    /// Dry-runs a slice in statement order over an overlay of the live
    /// store: validates that every write applies cleanly and computes the
    /// `Get` results with the slice's *own preceding writes* visible —
    /// the semantics a direct execution of the statement list would have.
    /// `None` when some write cannot apply (type mismatch).
    #[allow(clippy::type_complexity)]
    fn run_slice(&self, stmts: &[WireStmt]) -> Option<(Vec<(Key, Op)>, Vec<Option<Value>>)> {
        let mut overlay: HashMap<Key, Option<Value>> = HashMap::new();
        let mut writes = Vec::new();
        let mut values = Vec::new();
        for stmt in stmts {
            match stmt {
                WireStmt::Get(k) => {
                    let cur = overlay
                        .entry(*k)
                        .or_insert_with(|| self.engine.global_get(*k));
                    values.push(cur.clone());
                }
                WireStmt::Write(k, op) => {
                    let cur = overlay
                        .entry(*k)
                        .or_insert_with(|| self.engine.global_get(*k));
                    match op.apply_to(cur.as_ref()) {
                        Ok(next) => *cur = Some(next),
                        Err(_) => return None,
                    }
                    writes.push((*k, op.clone()));
                }
            }
        }
        Some((writes, values))
    }

    /// True when the decide-crash hook is armed (test instrumentation).
    pub fn crash_before_decide(&self) -> bool {
        self.crash_before_decide
    }

    /// Phase two, abort: log the decision, release the locks, forget the
    /// writes. Idempotent — an unknown txid is a re-delivery and simply
    /// re-acknowledged.
    pub fn decide_abort(&self, txid: u64) {
        let mut inner = self.inner.lock();
        let Some(p) = inner.prepared.remove(&txid) else { return };
        for k in p.locked {
            inner.locks.remove(&k);
        }
        drop(inner);
        if let Some(wal) = &self.vote_log {
            wal.log_decide(txid, false);
        }
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Phase two, commit. Drives the apply through `core`'s submission queue
    /// (the one path on which a completion sink can finish the bookkeeping)
    /// and replies via `sender_send` when it completes:
    ///
    /// * prepared and not yet applied → submit `{writes + marker}` as one
    ///   transaction; on commit, log the decide, release the locks and send
    ///   `Done(Ok(tid))`; on a (retryable) abort, keep everything and report
    ///   the abort so the coordinator re-delivers.
    /// * marker already in the store (crash after apply, or re-delivery) →
    ///   log the decide if an entry is still open, release, `Done(Ok(0))`.
    /// * unknown txid, no marker → this shard never voted yes (or lost a
    ///   volatile prepare): report a non-retryable abort.
    pub fn decide_commit(
        self: &Arc<Self>,
        service: &ServiceState,
        core: usize,
        id: u64,
        txid: u64,
        sender_send: impl Fn(&ServerMsg) + Send + Sync + Clone + 'static,
    ) {
        let applied = self.engine.global_get(marker_key(txid)).is_some();
        let prepared = {
            let inner = self.inner.lock();
            inner.prepared.get(&txid).map(|p| p.writes.clone())
        };
        match (prepared, applied) {
            (_, true) => {
                // Effects are already in the store; close the bookkeeping.
                self.finish_commit(txid);
                sender_send(&ServerMsg::Done(WireDone {
                    id,
                    result: Ok(0),
                    deferred: false,
                    values: Vec::new(),
                    proc_result: None,
                }));
            }
            (Some(writes), false) => {
                let mut stmts: Vec<WireStmt> =
                    writes.into_iter().map(|(k, op)| WireStmt::Write(k, op)).collect();
                stmts.push(WireStmt::Write(marker_key(txid), Op::Put(Value::Int(1))));
                let proc = Arc::new(crate::server::RemoteProcedure::new(stmts));
                let me = Arc::clone(self);
                let send = sender_send.clone();
                let sink: ReplySink = Arc::new(move |reply| match reply {
                    ServiceReply::Deferred(rid) => send(&ServerMsg::Deferred { id: rid.0 }),
                    ServiceReply::Done(c) => {
                        let result = match c.result {
                            Ok(tid) => {
                                me.finish_commit(txid);
                                Ok(tid.0)
                            }
                            // Keep the prepared entry: the coordinator
                            // re-delivers the decide until the apply lands.
                            Err(e) => Err(WireAbort::from_error(&e)),
                        };
                        send(&ServerMsg::Done(WireDone {
                            id: c.request.0,
                            result,
                            deferred: c.deferred,
                            values: Vec::new(),
                            proc_result: None,
                        }));
                    }
                });
                match service.submit_to(core, RequestId(id), proc, sink) {
                    Ok(()) => {}
                    Err(SubmitError::Busy) => {
                        sender_send(&ServerMsg::Rejected { id, busy: true })
                    }
                    Err(SubmitError::Shutdown) => {
                        sender_send(&ServerMsg::Rejected { id, busy: false })
                    }
                }
            }
            (None, false) => {
                // Never prepared here (or the prepare was volatile and lost):
                // committing blind would not be exactly-once, so refuse.
                sender_send(&ServerMsg::Done(WireDone {
                    id,
                    result: Err(WireAbort::UserAbort),
                    deferred: false,
                    values: Vec::new(),
                    proc_result: None,
                }));
            }
        }
    }

    /// Closes a committed transaction's bookkeeping: decide record, lock
    /// release, entry removal. Safe to call when the entry is already gone.
    fn finish_commit(&self, txid: u64) {
        let mut inner = self.inner.lock();
        let Some(p) = inner.prepared.remove(&txid) else { return };
        for k in p.locked {
            inner.locks.remove(&k);
        }
        drop(inner);
        if let Some(wal) = &self.vote_log {
            wal.log_decide(txid, true);
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Telemetry scalars for the `GetStats` bundle.
    pub fn scalars(&self) -> Vec<(String, u64)> {
        let pending = self.inner.lock().prepared.len() as u64;
        vec![
            ("twopc_prepares".into(), self.prepares.load(Ordering::Relaxed)),
            ("twopc_vote_no".into(), self.votes_no.load(Ordering::Relaxed)),
            ("twopc_commits".into(), self.commits.load(Ordering::Relaxed)),
            ("twopc_aborts".into(), self.aborts.load(Ordering::Relaxed)),
            ("twopc_in_doubt".into(), pending),
            ("twopc_recovered".into(), self.recovered.load(Ordering::Relaxed)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::Op;

    fn occ() -> Arc<dyn Engine> {
        Arc::new(doppel_occ::OccEngine::new(1, 16))
    }

    #[test]
    fn prepare_locks_conflicting_prepares_vote_no() {
        let p = Participant::new(occ(), None, Vec::new());
        let stmts = vec![WireStmt::Write(Key::raw(1), Op::Add(5))];
        assert!(p.prepare(10, &stmts).is_some(), "first prepare votes yes");
        assert!(p.prepare(11, &stmts).is_none(), "conflicting prepare votes no");
        // A disjoint prepare is fine.
        assert!(p.prepare(12, &[WireStmt::Write(Key::raw(2), Op::Add(1))]).is_some());
        // Abort releases the lock.
        p.decide_abort(10);
        assert!(p.prepare(11, &stmts).is_some(), "lock released on abort");
    }

    #[test]
    fn prepare_validates_writes_and_reads_under_locks() {
        let engine = occ();
        engine.load(Key::raw(1), Value::from("text"));
        engine.load(Key::raw(2), Value::Int(7));
        let p = Participant::new(engine, None, Vec::new());
        // Add on a string record cannot apply: the shard must vote no, not
        // vote yes and fail at decide time.
        assert!(p.prepare(1, &[WireStmt::Write(Key::raw(1), Op::Add(5))]).is_none());
        // No lock may survive the failed prepare.
        assert!(p.prepare(2, &[WireStmt::Get(Key::raw(1))]).is_some());
        p.decide_abort(2);
        // Gets come back in slice order.
        let vals = p
            .prepare(3, &[WireStmt::Get(Key::raw(2)), WireStmt::Get(Key::raw(99))])
            .expect("read-only prepare");
        assert_eq!(vals, vec![Some(Value::Int(7)), None]);
    }

    #[test]
    fn in_doubt_seeding_holds_locks_until_decided() {
        let p = Participant::new(
            occ(),
            None,
            vec![InDoubtTxn { txid: 42, writes: vec![(Key::raw(5), Op::Add(9))] }],
        );
        assert_eq!(p.scalars().iter().find(|(n, _)| n == "twopc_in_doubt").unwrap().1, 1);
        // The recovered transaction's key is locked against new prepares.
        assert!(p.prepare(50, &[WireStmt::Write(Key::raw(5), Op::Add(1))]).is_none());
        p.decide_abort(42);
        assert!(p.prepare(50, &[WireStmt::Write(Key::raw(5), Op::Add(1))]).is_some());
    }
}
