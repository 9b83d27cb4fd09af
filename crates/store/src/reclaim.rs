//! Reclamation at the safepoint: the mechanism behind the crate's contract.
//!
//! A replaced value or bucket array is *retired*, tagged with the retirer's
//! epoch, and dropped once the store's epoch is [`GRACE`] ahead of the tag.
//! The epoch moves from `e` to `e + 1` only when every registered [`Session`]
//! has announced `e`, and a session announces only at a safepoint
//! ([`Session::quiesce`]), where it holds nothing.
//!
//! Why 3 epochs: while the retirer's slot says `t` the epoch is `t` or
//! `t + 1`, so a session that saw the old object had announced at most
//! `t + 1`; the epoch reaches `t + 3` only after that session announced
//! `t + 2`, at a safepoint after it let go. A session that announces `t + 2`
//! or more *before* reading cannot see the old object: the epoch got to
//! `t + 2` through the retirer's announcement of `t + 1`, which follows the
//! overwrite, and every link of that chain is a release store read by an
//! acquire load (or a lock handed over). No fence is needed on either side.

use crate::store::Table;
use doppel_common::Value;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Epochs between an object's retirement and its drop.
const GRACE: u64 = 3;

/// A busy session tries to move the epoch once per this many retirements.
const ADVANCE_EVERY: u32 = 64;

/// A retired object: kept only to be dropped later.
#[allow(dead_code)]
pub(crate) enum Garbage {
    Value(Value),
    Table(Arc<Table>),
}

/// An epoch on a cache line of its own: a session's is written by that
/// session where the store's epoch moved and read by advances; the store's is
/// read at every safepoint and must not share a line with the lock beside it.
#[derive(Default)]
#[repr(align(128))]
struct Epoch(AtomicU64);

/// What the domain's lock protects. A reader without a session holds the
/// lock while it reads: nothing retired is dropped without it.
#[derive(Default)]
pub(crate) struct Registry {
    sessions: Vec<Arc<Epoch>>,
    /// Retired objects with no session to keep them: bucket arrays, values a
    /// load replaced, what a dropped session left behind.
    orphans: Vec<(u64, Garbage)>,
}

/// The reclamation state of one store.
#[derive(Default)]
pub(crate) struct Domain {
    /// Written only under `registry`'s lock, so exact when read under it.
    epoch: Epoch,
    registry: Mutex<Registry>,
}

impl Domain {
    /// What records and their store remember their domain by.
    pub(crate) fn addr(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Registers a session at the current epoch: everything dropped so far
    /// was dropped (under the lock) before the session reads anything.
    pub(crate) fn register(self: &Arc<Self>) -> Session {
        let mut registry = self.registry.lock();
        let announced = self.epoch.0.load(Ordering::Relaxed);
        let slot = Arc::new(Epoch(announced.into()));
        registry.sessions.push(Arc::clone(&slot));
        let garbage = VecDeque::new();
        Session { domain: Arc::clone(self), slot, announced, garbage, unadvanced: 0 }
    }

    /// Keeps every retired object alive until the guard drops.
    pub(crate) fn hold(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock()
    }

    /// Retires an object on behalf of no session.
    pub(crate) fn orphan(&self, garbage: Garbage) {
        let mut registry = self.registry.lock();
        let epoch = self.epoch.0.load(Ordering::Relaxed);
        registry.orphans.push((epoch, garbage));
        registry.sweep(epoch);
    }
}

impl Registry {

    /// Drops the orphans whose grace period is over — all of them when no
    /// session is left, since readers without one hold the lock the caller
    /// holds.
    fn sweep(&mut self, epoch: u64) {
        let held = !self.sessions.is_empty();
        self.orphans.retain(|(tag, _)| held && tag + GRACE > epoch);
    }
}

/// One registered user of a store: what an engine's per-core handle holds.
///
/// Between two calls of [`Session::quiesce`] the session may read its store's
/// records in place; it must call `quiesce` between transactions (and when
/// idle), or it holds back the reclamation of everything retired since — at
/// the cost of memory, never of safety. Dropping the session unregisters it.
pub struct Session {
    domain: Arc<Domain>,
    slot: Arc<Epoch>,
    /// The epoch in `slot`, which only this session writes.
    announced: u64,
    /// Values this session replaced, oldest first, tagged with `announced` at
    /// the time. A reused buffer: retiring allocates only while it grows.
    garbage: VecDeque<(u64, Value)>,
    /// Retirements since the last attempt to move the epoch.
    unadvanced: u32,
}

impl Session {
    /// True if this session is registered with the domain at `owner`
    /// ([`Domain::addr`]). A session keeps its domain alive, so no two live
    /// domains share an address.
    pub(crate) fn protects(&self, owner: usize) -> bool {
        self.domain.addr() == owner
    }

    /// The safepoint: the session holds no reference into the store. On the
    /// fast path — the epoch has not moved, nothing retired is due — one
    /// shared load and two compares. A session that is `idle` (nothing else
    /// to do) also tries to move the epoch on whenever it has anything
    /// retired; a busy one only once per [`ADVANCE_EVERY`] retirements.
    #[inline]
    pub fn quiesce(&mut self, idle: bool) {
        // Acquire: pairs with the advance's release store, which follows its
        // acquire loads of every slot. What the other sessions did before
        // they announced happens before anything dropped on the strength of
        // this load.
        let epoch = self.domain.epoch.0.load(Ordering::Acquire);
        if epoch != self.announced {
            // Release: what this session read happens before an advance that
            // reads this slot.
            self.slot.0.store(epoch, Ordering::Release);
            self.announced = epoch;
        }
        if let Some(&(tag, _)) = self.garbage.front() {
            let advance = idle || self.unadvanced >= ADVANCE_EVERY;
            if advance || tag + GRACE <= epoch {
                self.reclaim(advance);
            }
        }
    }

    /// Retires a value this session replaced in a record.
    pub(crate) fn retire(&mut self, value: Value) {
        self.garbage.push_back((self.announced, value));
        self.unadvanced += 1;
    }

    /// Drops what is past its grace period and, if `advance`, first moves the
    /// epoch on when every session has announced it — unless another session
    /// or a reader without one has the lock (the next safepoint tries again).
    #[cold]
    fn reclaim(&mut self, advance: bool) {
        let Some(mut registry) = self.domain.registry.try_lock() else { return };
        let mut epoch = self.domain.epoch.0.load(Ordering::Relaxed);
        if advance {
            self.unadvanced = 0;
            if registry.sessions.iter().all(|s| s.0.load(Ordering::Acquire) == epoch) {
                epoch += 1;
                self.domain.epoch.0.store(epoch, Ordering::Release);
            }
            registry.sweep(epoch);
        }
        while self.garbage.front().is_some_and(|(tag, _)| tag + GRACE <= epoch) {
            self.garbage.pop_front();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let mut registry = self.domain.registry.lock();
        registry.sessions.retain(|slot| !Arc::ptr_eq(slot, &self.slot));
        let left = self.garbage.drain(..).map(|(tag, value)| (tag, Garbage::Value(value)));
        registry.orphans.extend(left);
        registry.sweep(self.domain.epoch.0.load(Ordering::Relaxed));
    }
}
