//! The transaction service and its networked front-end.
//!
//! The paper's deployment model (§3, §6) separates *clients* from *workers*:
//! "clients submit transactions in the form of procedures" to one worker
//! thread per core. This crate is that separation:
//!
//! * [`service`] — one run-to-completion loop per engine core:
//!   [`TransactionService`] owns one thread per core, and that thread owns
//!   the core's [`doppel_common::TxHandle`], an epoll set and the
//!   connections assigned to it. It executes submitted
//!   [`doppel_common::Procedure`]s and delivers typed completions — commit
//!   TID, abort, or stash-deferred (Doppel split-phase stashes surface as a
//!   `Deferred` notice followed by the replayed completion). Graceful
//!   shutdown drains the queues, replays stashes and flushes pending WAL
//!   group-commit batches.
//! * [`reactor`] — the I/O half of that loop: per-connection state machines
//!   with a bounded write buffer (slow clients are shed, not buffered
//!   without limit) and the hand-over for the few replies made on another
//!   core.
//! * [`queue`] — bounded per-core MPSC submission queues for work that
//!   crosses cores (in-process clients, 2PC decides); a full queue is a
//!   [`doppel_common::SubmitError::Busy`] rejection (backpressure).
//! * [`wire`] / [`server`] / [`client`] — a length-prefixed framed protocol
//!   over TCP (framing in the style of, and sharing the record codec with,
//!   [`doppel_wal::codec`]), the `doppel-server` binary's guts including the
//!   serving step (the frames of one read, decoded and prefetched as a group,
//!   executed in order), and the [`RemoteClient`] library, so the system can
//!   be driven by external processes.

pub mod client;
pub mod procs;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod twopc;
pub mod wire;

pub use client::{BatchIds, RemoteClient, RemoteOutcome, RemoteTxn};
pub use procs::{kv_registry, register_kv, KV_PROCS};
pub use queue::{PushError, SubmissionQueue};
pub use reactor::{CloseReason, FrameReply, ReactorConfig};
pub use server::{FrontEnd, NetStatsSnapshot, RemoteProcedure, ServeCtx, Server, ServerEngine};
pub use service::{
    CoreCtx, ReplySink, ServiceClient, ServiceConfig, ServiceState, TransactionService,
};
pub use shard::{ShardOutcome, ShardRouter};
pub use snapshot::{TelemetrySnapshot, TunerSnapshot};
pub use twopc::Participant;
pub use wire::{ClientMsg, ServerMsg, WireAbort, WireDone, WireStmt};
