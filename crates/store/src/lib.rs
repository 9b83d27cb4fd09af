//! Concurrent in-memory key/value store substrate.
//!
//! The paper's implementation section (§6) describes the shared store as "a
//! set of key/value maps, using per-key locks. The maps are implemented as
//! hash tables." This crate is that substrate: [`Record`], a Silo-style
//! version word (lock bit + TID) beside the typed value; [`Store`], a sharded
//! grow-only hash table from [`Key`]s to records; [`Session`], one registered
//! user of a store (an engine's per-core handle). Every engine in the
//! workspace (OCC, 2PL, Doppel's phases and reconciliation) is built on them.
//!
//! # The contract
//!
//! **Executing and validating a read writes nothing another core can see.**
//! A lookup ([`Store::get`]) is acquire loads over a bucket array; a read
//! ([`Record::read`]) is two loads of the version word around a bitwise copy
//! of the value, lent to a closure only if the loads agree and are unlocked;
//! validation ([`Record::validate`]) is one load. The paper's cost model is
//! cache-line ownership (§2): this keeps a read-mostly record in every
//! core's cache.
//!
//! **A prefetch is less than a read.** [`Store::prefetch`] walks the same
//! bucket arrays under the same session, for the lookups that are about to
//! come, and only asks the cache for lines: the home slot of each key, then
//! the entry its probe ends at. It reads no value, creates no record, takes
//! no reference that outlives the call and so has no effect on any grace
//! period; a line it fetched from memory that is retired before the lookup
//! arrives is wasted, nothing else. The instruction itself is one `cfg`-gated
//! helper in [`store`].
//!
//! **Who may write a record, and when.** Only the holder of its lock bit — a
//! [`Locked`] guard, of which at most one exists per record — and only
//! through the guard. A write ends in a version the record never carried
//! before (the commit TID, or the next sequence number if the guard is
//! dropped unpublished), so a reader's two loads never agree across a write.
//! Records are created by their store, under the shard's mutex, and never
//! removed: a record's address is stable for the life of the store.
//!
//! **What a reader may hold, and until when.** A [`Session`] may hold
//! `&Record`s for as long as it borrows the store, and a value (or bucket
//! array) it is reading until its next [`Session::quiesce`] — which the
//! borrow checker turns into "until the read's closure returns", because
//! quiescing needs the session mutably. A reader with no session
//! ([`Store::read_unlocked`], [`Store::for_each`]) registers for the duration
//! of the call by holding the reclamation lock.
//!
//! **Why retire-not-drop plus "every session passed a safepoint" suffices.**
//! A writer never drops what it replaces: it *retires* it on its session's
//! list. A reader can reach a replaced object only if it read the record
//! before the replacement was published, hence before its own next safepoint;
//! once every session registered at the time has passed one, no reference is
//! left and the object is dropped. [`reclaim`] decides "has passed" with
//! epochs — no per-read work, no fence, no thread, no timer — at the
//! safepoint engines already keep for the phase barrier: between
//! transactions, from the serving loop's idle poll, and on `Drop`.
//!
//! **What an idle session costs: memory, never safety.** A registered session
//! that stops quiescing stops the epoch: retired objects pile up on the
//! sessions that retire them until it quiesces or is dropped, and nothing is
//! dropped early.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod reclaim;
pub mod record;
pub mod store;

pub use reclaim::Session;
pub use record::{Locked, Record, RecordReadError};
pub use store::Store;

pub use doppel_common::{Key, Tid, Value};
