//! Silo-style optimistic concurrency control.
//!
//! This crate implements the joined-phase commit protocol of the paper
//! (Figure 2), which is "based on that of Silo":
//!
//! 1. lock the records in the write set, in a global key order, aborting if
//!    any is already locked;
//! 2. generate a commit TID locally from per-core state and the TIDs in the
//!    read set;
//! 3. validate the read set, aborting if any record's TID changed or is
//!    locked by another transaction;
//! 4. apply the buffered writes, publishing the commit TID and releasing the
//!    locks.
//!
//! The crate exposes three layers:
//!
//! * [`ReadSet`] / [`WriteSet`] — the per-transaction bookkeeping;
//! * [`protocol::commit`] — the commit protocol itself, reused verbatim by
//!   Doppel's joined and split phases;
//! * [`OccEngine`] / [`OccTx`] — a complete engine implementing the
//!   [`doppel_common::Engine`] interface, used directly as the paper's "OCC"
//!   baseline.
//!
//! Faithful to the paper's baseline, read-modify-write operations such as
//! `Add` or `Max` are executed optimistically as *read + computed write*:
//! "Doppel without split keys and OCC read the value of a key, compute the
//! new value, and try to lock the key and validate that it hasn't changed
//! since it was first read" (§8.2). This is exactly what makes contended
//! counters collapse under OCC — the behaviour phase reconciliation fixes.

pub mod engine;
pub mod protocol;
pub mod rwsets;
pub mod tx;

pub use engine::{OccEngine, OccHandle};
pub use protocol::commit;
pub use rwsets::{ReadSet, SetPool, WriteSet};
pub use tx::OccTx;
