//! Common types shared by every crate in the Doppel workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *Phase Reconciliation for Contended In-Memory Transactions* (OSDI 2014):
//!
//! * [`Key`] — fixed-size record identifiers (16 bytes, as in the paper's
//!   microbenchmarks).
//! * [`Value`] — typed record values. Doppel records have typed values and
//!   each type supports one or more operations (§3 of the paper).
//! * [`Op`] / [`OpKind`] — the operations transactions may issue, including
//!   the splittable commutative operations `Max`, `Min`, `Add`, `Mult`,
//!   `OPut` and `TopKInsert` (§4).
//! * [`Tid`] — Silo-style transaction identifiers.
//! * [`TxError`] / [`Outcome`] — abort reasons and execution outcomes,
//!   including the Doppel-specific *stash* outcome for transactions that
//!   touch split data in an incompatible way during a split phase.
//! * [`Tx`], [`TxHandle`], [`Engine`], [`Procedure`] — the engine-agnostic
//!   execution interface. The same workload code drives Doppel, OCC, 2PL and
//!   the Atomic baseline through these traits, mirroring the paper's setup
//!   where "both OCC and 2PL are implemented in the same framework as
//!   Doppel" (§8.1).

pub mod alloc;
pub mod codec;
pub mod config;
pub mod engine;
pub mod error;
pub mod key;
pub mod ops;
pub mod proc;
pub mod service;
pub mod shard;
pub mod split_op;
pub mod stats;
pub mod tid;
pub mod tune;
pub mod value;

pub use alloc::{AllocCheckpoint, CountingAlloc, ThreadAllocCheckpoint};
pub use config::{DoppelConfig, DurabilityConfig, PhaseFeedback, TunerConfig};
pub use engine::{
    Completion, CommitSink, CommitSinkExt, Engine, LogReceipt, Outcome, Procedure, ProcedureFn,
    Ticket, Tx,
    TxHandle,
};
pub use error::TxError;
pub use key::{Key, Table};
pub use ops::{EmptyOrderKey, Op, OpKind, OrderKey};
pub use proc::{
    ArgValue, Args, ArgsRef, ProcId, ProcRegistry, ProcResult, ProcStats, ProcStatsSnapshot,
    RegisteredCall, TxCtx,
};
pub use service::{RequestId, ServiceCompletion, ServiceReply, SubmitError};
pub use shard::{fast_path_op, ShardMap};
pub use split_op::{split_ops, SplitOp, SplitOpRegistry};
pub use stats::{CoreStats, EngineStats, LocalCounter, StatsSnapshot};
pub use tid::{Tid, TidGenerator};
pub use tune::{TuneDecision, TuneObservation, TuneSink, TuneThresholds};
pub use value::{IntSet, OrderedTuple, TopKSet, Value, ValueKind};

/// Identifier of the logical core / worker a transaction executes on.
///
/// Doppel splits contended records into *per-core slices*; the core id is
/// part of the [`OrderedTuple`] representation so that `OPut` and
/// `TopKInsert` commute (§4 of the paper).
pub type CoreId = usize;
