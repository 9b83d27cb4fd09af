//! The length-prefixed wire protocol spoken between `doppel-server` and its
//! clients.
//!
//! Framing follows the WAL's style (and reuses [`doppel_wal::codec`] for
//! keys, operations and values): every message is
//!
//! ```text
//! [len: u32 LE] [payload]          payload = [kind: u8] [body…]
//! ```
//!
//! Client → server:
//!
//! | kind | message      | body                                                  |
//! |------|--------------|-------------------------------------------------------|
//! | 0x01 | `Submit`     | `id u64`, `n u32`, then `n` statements                |
//! | 0x02 | `LabelSplit` | `id u64`, `key`, `op` (split label, Doppel only)      |
//! | 0x03 | `Ping`       | `id u64`                                              |
//! | 0x04 | `InvokeProc` | `id u64`, `name` (length-prefixed UTF-8), `args`      |
//! | 0x05 | `GetStats`   | `id u64` (telemetry poll; answered with `Stats`)      |
//! | 0x06 | `Prepare`    | `id u64`, `txid u64`, `n u32`, then `n` statements    |
//! | 0x07 | `Decide`     | `id u64`, `txid u64`, `commit u8`                     |
//!
//! A statement is `0x00 Get key` or `0x01 Write key op`. Submitted
//! statements form one transaction (one [`doppel_common::Procedure`]);
//! `Get` results are returned in the completion, in statement order.
//! `InvokeProc` instead *names* a procedure registered on the server
//! ([`doppel_common::ProcRegistry`]) and ships a typed argument vector
//! ([`doppel_common::Args`]); the matching `Done` carries the procedure's
//! typed result. Raw statement lists remain fully supported as the
//! compatibility path.
//!
//! Server → client:
//!
//! | kind | message    | body                                                |
//! |------|------------|-----------------------------------------------------|
//! | 0x81 | `Done`     | `id u64`, commit/abort body (see [`WireDone`])      |
//! | 0x82 | `Deferred` | `id u64` (stash-deferred; a `Done` follows)         |
//! | 0x83 | `Rejected` | `id u64`, `reason u8` (0 = busy, 1 = shutdown)      |
//! | 0x84 | `Ack`      | `id u64` (answers `LabelSplit` and `Ping`)          |
//! | 0x85 | `Stats`    | `id u64`, a [`TelemetrySnapshot`] (answers `GetStats`) |
//! | 0x86 | `Vote`     | `id u64`, `txid u64`, `ok u8`, `n u32` values (answers `Prepare`) |
//!
//! `Prepare`/`Vote`/`Decide` are the two-phase-commit half of cross-shard
//! transactions (see [`crate::shard`]): `Prepare` ships a shard's slice of
//! the transaction, the shard locks the touched keys, force-logs the write
//! set as its durable vote, and answers `Vote` (with the `Get` results, read
//! under the locks). `Decide` delivers the coordinator's verdict and is
//! answered with `Done` (commit applied / already applied) or `Ack` (abort
//! recorded); it is idempotent, so a coordinator may re-deliver it across
//! shard restarts until acknowledged.

use crate::snapshot::{decode_snapshot, encode_snapshot, TelemetrySnapshot};
use doppel_common::{Args, ArgsRef, Key, Op, ProcResult, TxError, Value};
use doppel_wal::codec::{
    decode_key, decode_op, decode_value, encode_key, encode_op, encode_value, put_slice, put_u32,
    put_u64, put_u8, Dec,
};
use doppel_wal::CodecError;
use std::io::{self, Read, Write};

/// Upper bound on a frame's payload: a corrupted length prefix must not
/// trigger a giant allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

const MSG_SUBMIT: u8 = 0x01;
const MSG_LABEL_SPLIT: u8 = 0x02;
const MSG_PING: u8 = 0x03;
const MSG_INVOKE_PROC: u8 = 0x04;
const MSG_GET_STATS: u8 = 0x05;
const MSG_PREPARE: u8 = 0x06;
const MSG_DECIDE: u8 = 0x07;
const MSG_DONE: u8 = 0x81;
const MSG_DEFERRED: u8 = 0x82;
const MSG_REJECTED: u8 = 0x83;
const MSG_ACK: u8 = 0x84;
const MSG_STATS_REPLY: u8 = 0x85;
const MSG_VOTE: u8 = 0x86;

const STMT_GET: u8 = 0x00;
const STMT_WRITE: u8 = 0x01;

/// One statement of a wire transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum WireStmt {
    /// Read a record; the result is shipped back in the completion.
    Get(Key),
    /// Apply a write operation (any registered [`Op`]).
    Write(Key, Op),
}

/// Abort reasons on the wire. Key-level detail is deliberately dropped: a
/// remote client retries on the code, it does not introspect server keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireAbort {
    /// OCC validation failure.
    Conflict = 1,
    /// A lock was busy.
    LockBusy = 2,
    /// Operation/value type mismatch.
    TypeMismatch = 3,
    /// The transaction aborted itself.
    UserAbort = 4,
    /// The server is shutting down.
    Shutdown = 5,
    /// An `InvokeProc` named a procedure the server has not registered.
    UnknownProc = 6,
}

impl WireAbort {
    /// Maps a [`TxError`] onto its wire code.
    pub fn from_error(e: &TxError) -> WireAbort {
        match e {
            TxError::Conflict { .. } => WireAbort::Conflict,
            TxError::LockBusy { .. } => WireAbort::LockBusy,
            // A `Stash` abort never reaches a completion (it becomes a
            // Deferred notice), but map it defensively.
            TxError::Stash { .. } => WireAbort::Conflict,
            TxError::TypeMismatch { .. } => WireAbort::TypeMismatch,
            TxError::UserAbort { .. } => WireAbort::UserAbort,
            TxError::Shutdown => WireAbort::Shutdown,
        }
    }

    fn from_code(code: u8) -> Result<WireAbort, CodecError> {
        Ok(match code {
            1 => WireAbort::Conflict,
            2 => WireAbort::LockBusy,
            3 => WireAbort::TypeMismatch,
            4 => WireAbort::UserAbort,
            5 => WireAbort::Shutdown,
            6 => WireAbort::UnknownProc,
            _ => return Err(CodecError("unknown abort code")),
        })
    }

    /// True when resubmitting later can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, WireAbort::Conflict | WireAbort::LockBusy)
    }
}

/// Body of a `Done` message.
#[derive(Clone, Debug, PartialEq)]
pub struct WireDone {
    /// The client-chosen request id.
    pub id: u64,
    /// Commit TID, or the abort code.
    pub result: Result<u64, WireAbort>,
    /// True when the transaction was stash-deferred before completing.
    pub deferred: bool,
    /// Results of the transaction's `Get` statements, in statement order
    /// (empty on abort).
    pub values: Vec<Option<Value>>,
    /// Typed result of a registered-procedure invocation (`Some` only for a
    /// committed `InvokeProc`; `Submit` completions leave it `None`).
    pub proc_result: Option<ProcResult>,
}

/// Any client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Submit one transaction.
    Submit {
        /// Client-chosen id echoed in every reply.
        id: u64,
        /// The transaction body.
        stmts: Vec<WireStmt>,
    },
    /// Manually label `key` split for `op.kind()` (paper §5.5). A no-op on
    /// engines without phase reconciliation; answered with `Ack`.
    LabelSplit {
        /// Client-chosen id echoed in the `Ack`.
        id: u64,
        /// The record to label.
        key: Key,
        /// An operation of the kind to split on.
        op: Op,
    },
    /// Liveness probe; answered with `Ack`.
    Ping {
        /// Client-chosen id echoed in the `Ack`.
        id: u64,
    },
    /// Invoke a procedure registered on the server by name, with a typed
    /// argument vector. Answered with `Done` (carrying the procedure's
    /// [`ProcResult`] on commit) or, for an unregistered name, a `Done` with
    /// [`WireAbort::UnknownProc`].
    InvokeProc {
        /// Client-chosen id echoed in every reply.
        id: u64,
        /// The registered procedure name (e.g. `"rubis.store_bid"`).
        proc: String,
        /// The argument vector.
        args: Args,
    },
    /// Ask the server for a [`TelemetrySnapshot`]; answered with `Stats`.
    GetStats {
        /// Client-chosen id echoed in the `Stats` reply.
        id: u64,
    },
    /// Two-phase commit, phase one: this shard's slice of a cross-shard
    /// transaction. The shard locks every touched key, force-logs the write
    /// set as its durable yes-vote, and answers `Vote`.
    Prepare {
        /// Client-chosen id echoed in the `Vote`.
        id: u64,
        /// Coordinator-assigned distributed transaction id.
        txid: u64,
        /// This shard's statements, in the original transaction's order.
        stmts: Vec<WireStmt>,
    },
    /// Two-phase commit, phase two: the coordinator's verdict for a
    /// previously prepared `txid`. Idempotent; answered with `Done` (commit)
    /// or `Ack` (abort).
    Decide {
        /// Client-chosen id echoed in the reply.
        id: u64,
        /// The distributed transaction this decision concerns.
        txid: u64,
        /// True to commit the prepared writes, false to discard them.
        commit: bool,
    },
}

/// Any server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// A transaction finished.
    Done(WireDone),
    /// The transaction was stashed by a split phase; `Done` follows later.
    Deferred {
        /// The request this notice concerns.
        id: u64,
    },
    /// The submission was rejected before reaching a worker.
    Rejected {
        /// The request this rejection concerns.
        id: u64,
        /// True for backpressure (`Busy`, retry later), false for shutdown.
        busy: bool,
    },
    /// Answer to `LabelSplit` / `Ping`.
    Ack {
        /// The request this acknowledgment concerns.
        id: u64,
    },
    /// Answer to `GetStats`: the server's telemetry bundle.
    Stats {
        /// The request this reply concerns.
        id: u64,
        /// The snapshot, taken at dispatch time.
        snapshot: Box<TelemetrySnapshot>,
    },
    /// Answer to `Prepare`: this shard's two-phase-commit vote.
    Vote {
        /// The request this vote concerns.
        id: u64,
        /// The distributed transaction voted on.
        txid: u64,
        /// True for a yes-vote (writes locked and force-logged), false when
        /// the shard could not prepare (lock conflict, type mismatch).
        ok: bool,
        /// Results of the prepared slice's `Get` statements in slice order,
        /// read under the prepare locks (empty on a no-vote).
        values: Vec<Option<Value>>,
    },
}

// ------------------------------------------------------------------ encoding

/// Encodes a client message payload (no frame header).
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_client_into(msg, &mut buf);
    buf
}

/// [`encode_client`] into a caller-supplied buffer (cleared first), so a
/// connection can reuse one encode buffer across messages instead of
/// allocating a fresh `Vec` per message.
pub fn encode_client_into(msg: &ClientMsg, buf: &mut Vec<u8>) {
    buf.clear();
    match msg {
        ClientMsg::Submit { id, stmts } => {
            put_u8(buf, MSG_SUBMIT);
            put_u64(buf, *id);
            encode_stmts(buf, stmts);
        }
        ClientMsg::LabelSplit { id, key, op } => {
            put_u8(buf, MSG_LABEL_SPLIT);
            put_u64(buf, *id);
            encode_key(buf, *key);
            encode_op(buf, op);
        }
        ClientMsg::Ping { id } => {
            put_u8(buf, MSG_PING);
            put_u64(buf, *id);
        }
        ClientMsg::InvokeProc { id, proc, args } => encode_invoke_into(*id, proc, args, buf),
        ClientMsg::GetStats { id } => {
            put_u8(buf, MSG_GET_STATS);
            put_u64(buf, *id);
        }
        ClientMsg::Prepare { id, txid, stmts } => {
            put_u8(buf, MSG_PREPARE);
            put_u64(buf, *id);
            put_u64(buf, *txid);
            encode_stmts(buf, stmts);
        }
        ClientMsg::Decide { id, txid, commit } => {
            put_u8(buf, MSG_DECIDE);
            put_u64(buf, *id);
            put_u64(buf, *txid);
            put_u8(buf, *commit as u8);
        }
    }
}

/// Encodes an `InvokeProc` payload into `buf` (cleared first) from borrowed
/// parts — byte-identical to [`encode_client_into`] on the owned message, but
/// a client that already holds `(&str, &Args)` need not build one.
pub fn encode_invoke_into(id: u64, proc: &str, args: &Args, buf: &mut Vec<u8>) {
    buf.clear();
    put_u8(buf, MSG_INVOKE_PROC);
    put_u64(buf, id);
    put_slice(buf, proc.as_bytes());
    args.encode(buf);
}

fn encode_stmts(buf: &mut Vec<u8>, stmts: &[WireStmt]) {
    put_u32(buf, stmts.len() as u32);
    for stmt in stmts {
        match stmt {
            WireStmt::Get(k) => {
                put_u8(buf, STMT_GET);
                encode_key(buf, *k);
            }
            WireStmt::Write(k, op) => {
                put_u8(buf, STMT_WRITE);
                encode_key(buf, *k);
                encode_op(buf, op);
            }
        }
    }
}

/// Decodes a statement list with the hostile-count guards shared by `Submit`
/// and `Prepare`: the smallest statement (`Get`) encodes to 17 bytes, so a
/// count the payload cannot possibly hold is corrupt, and the speculative
/// reservation is capped so a hostile header cannot reserve gigabytes.
fn decode_stmts(d: &mut Dec<'_>, payload_len: usize) -> Result<Vec<WireStmt>, CodecError> {
    let n = d.u32()? as usize;
    if n > payload_len / 17 {
        return Err(CodecError("statement count longer than message"));
    }
    let mut stmts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        match d.u8()? {
            STMT_GET => stmts.push(WireStmt::Get(decode_key(d)?)),
            STMT_WRITE => {
                let k = decode_key(d)?;
                let op = decode_op(d)?;
                stmts.push(WireStmt::Write(k, op));
            }
            _ => return Err(CodecError("unknown statement tag")),
        }
    }
    Ok(stmts)
}

/// Decodes an `InvokeProc` payload with the procedure name and the argument
/// vector borrowed from it: `Ok(None)` when the payload is some other message
/// (decode it with [`decode_client`]), otherwise `(id, name, args)`. The
/// arguments are validated here, once ([`ArgsRef::decode`]); the serving loop
/// resolves the name against its registry and runs the procedure on the view
/// without owning either.
pub fn decode_invoke(payload: &[u8]) -> Result<Option<(u64, &str, ArgsRef<'_>)>, CodecError> {
    if payload.first() != Some(&MSG_INVOKE_PROC) {
        return Ok(None);
    }
    let mut d = Dec::new(&payload[1..]);
    let id = d.u64()?;
    let proc = std::str::from_utf8(d.slice()?)
        .map_err(|_| CodecError("procedure name is not utf-8"))?;
    let args = ArgsRef::decode(&mut d)?;
    if !d.is_done() {
        return Err(CodecError("trailing bytes in client message"));
    }
    Ok(Some((id, proc, args)))
}

/// Decodes a client message payload.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, CodecError> {
    if let Some((id, proc, args)) = decode_invoke(payload)? {
        return Ok(ClientMsg::InvokeProc { id, proc: proc.to_string(), args: args.to_owned() });
    }
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        MSG_SUBMIT => {
            let id = d.u64()?;
            let stmts = decode_stmts(&mut d, payload.len())?;
            ClientMsg::Submit { id, stmts }
        }
        MSG_LABEL_SPLIT => {
            let id = d.u64()?;
            let key = decode_key(&mut d)?;
            let op = decode_op(&mut d)?;
            ClientMsg::LabelSplit { id, key, op }
        }
        MSG_PING => ClientMsg::Ping { id: d.u64()? },
        MSG_GET_STATS => ClientMsg::GetStats { id: d.u64()? },
        MSG_PREPARE => {
            let id = d.u64()?;
            let txid = d.u64()?;
            let stmts = decode_stmts(&mut d, payload.len())?;
            ClientMsg::Prepare { id, txid, stmts }
        }
        MSG_DECIDE => {
            let id = d.u64()?;
            let txid = d.u64()?;
            let commit = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError("unknown decide flag")),
            };
            ClientMsg::Decide { id, txid, commit }
        }
        _ => return Err(CodecError("unknown client message kind")),
    };
    if !d.is_done() {
        return Err(CodecError("trailing bytes in client message"));
    }
    Ok(msg)
}

/// Encodes a server message payload (no frame header).
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    encode_server_into(msg, &mut buf);
    buf
}

/// [`encode_server`] into a caller-supplied buffer (cleared first), so a
/// connection can reuse one encode buffer across replies instead of
/// allocating a fresh `Vec` per reply.
pub fn encode_server_into(msg: &ServerMsg, buf: &mut Vec<u8>) {
    buf.clear();
    encode_server_body(msg, buf);
}

/// Appends a server message payload to `buf` without clearing it (the shared
/// core of [`encode_server_into`] and [`server_frame_into`], which encodes
/// behind a length placeholder).
fn encode_server_body(msg: &ServerMsg, buf: &mut Vec<u8>) {
    match msg {
        ServerMsg::Done(done) => {
            put_u8(buf, MSG_DONE);
            put_u64(buf, done.id);
            match &done.result {
                Ok(tid) => {
                    put_u8(buf, 0);
                    put_u64(buf, *tid);
                }
                Err(abort) => {
                    put_u8(buf, 1);
                    put_u8(buf, *abort as u8);
                }
            }
            put_u8(buf, done.deferred as u8);
            put_u32(buf, done.values.len() as u32);
            for v in &done.values {
                match v {
                    None => put_u8(buf, 0),
                    Some(v) => {
                        put_u8(buf, 1);
                        encode_value(buf, v);
                    }
                }
            }
            match &done.proc_result {
                None => put_u8(buf, 0),
                Some(result) => {
                    put_u8(buf, 1);
                    result.encode(buf);
                }
            }
        }
        ServerMsg::Deferred { id } => {
            put_u8(buf, MSG_DEFERRED);
            put_u64(buf, *id);
        }
        ServerMsg::Rejected { id, busy } => {
            put_u8(buf, MSG_REJECTED);
            put_u64(buf, *id);
            put_u8(buf, if *busy { 0 } else { 1 });
        }
        ServerMsg::Ack { id } => {
            put_u8(buf, MSG_ACK);
            put_u64(buf, *id);
        }
        ServerMsg::Stats { id, snapshot } => {
            put_u8(buf, MSG_STATS_REPLY);
            put_u64(buf, *id);
            encode_snapshot(buf, snapshot);
        }
        ServerMsg::Vote { id, txid, ok, values } => {
            put_u8(buf, MSG_VOTE);
            put_u64(buf, *id);
            put_u64(buf, *txid);
            put_u8(buf, *ok as u8);
            put_u32(buf, values.len() as u32);
            for v in values {
                match v {
                    None => put_u8(buf, 0),
                    Some(v) => {
                        put_u8(buf, 1);
                        encode_value(buf, v);
                    }
                }
            }
        }
    }
}

/// Encodes a server message directly as a finished frame — length prefix and
/// payload in **one** allocation. The reactor's write queues hold owned
/// framed replies, so this is the cheapest form a reply can be queued in
/// (previously the payload was encoded into one `Vec` and copied into a
/// second framed one).
pub fn server_frame(msg: &ServerMsg) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    server_frame_into(msg, &mut out)?;
    Ok(out)
}

/// [`server_frame`] into a caller-supplied buffer (cleared first).
pub fn server_frame_into(msg: &ServerMsg, out: &mut Vec<u8>) -> io::Result<()> {
    out.clear();
    server_frame_append(msg, out)
}

/// Appends `msg` to `out` as a finished frame: length placeholder, payload
/// encoded in place, prefix patched. This is how a core loop writes a reply
/// straight behind the ones already waiting in a connection's write buffer;
/// on error (payload over [`MAX_FRAME`]) `out` is left as it was.
pub fn server_frame_append(msg: &ServerMsg, out: &mut Vec<u8>) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_server_body(msg, out);
    match checked_frame_len(&out[start + 4..]) {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Decodes a server message payload.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, CodecError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        MSG_DONE => {
            let id = d.u64()?;
            let result = match d.u8()? {
                0 => Ok(d.u64()?),
                1 => Err(WireAbort::from_code(d.u8()?)?),
                _ => return Err(CodecError("unknown done status")),
            };
            let deferred = d.u8()? != 0;
            let n = d.u32()? as usize;
            // Each value entry is at least its 1-byte option tag; anything
            // larger than the remaining payload is corrupt, and the cap
            // bounds the speculative allocation.
            if n > payload.len() {
                return Err(CodecError("value count longer than message"));
            }
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(match d.u8()? {
                    0 => None,
                    1 => Some(decode_value(&mut d)?),
                    _ => return Err(CodecError("unknown option tag")),
                });
            }
            let proc_result = match d.u8()? {
                0 => None,
                1 => Some(ArgsRef::decode(&mut d)?.to_owned()),
                _ => return Err(CodecError("unknown option tag")),
            };
            ServerMsg::Done(WireDone { id, result, deferred, values, proc_result })
        }
        MSG_DEFERRED => ServerMsg::Deferred { id: d.u64()? },
        MSG_REJECTED => {
            let id = d.u64()?;
            let busy = match d.u8()? {
                0 => true,
                1 => false,
                _ => return Err(CodecError("unknown rejection reason")),
            };
            ServerMsg::Rejected { id, busy }
        }
        MSG_ACK => ServerMsg::Ack { id: d.u64()? },
        MSG_STATS_REPLY => {
            let id = d.u64()?;
            let snapshot = Box::new(decode_snapshot(&mut d)?);
            ServerMsg::Stats { id, snapshot }
        }
        MSG_VOTE => {
            let id = d.u64()?;
            let txid = d.u64()?;
            let ok = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError("unknown vote flag")),
            };
            let n = d.u32()? as usize;
            // Same hostile-count cap as the Done value list: each entry is
            // at least its 1-byte option tag.
            if n > payload.len() {
                return Err(CodecError("value count longer than message"));
            }
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(match d.u8()? {
                    0 => None,
                    1 => Some(decode_value(&mut d)?),
                    _ => return Err(CodecError("unknown option tag")),
                });
            }
            ServerMsg::Vote { id, txid, ok, values }
        }
        _ => return Err(CodecError("unknown server message kind")),
    };
    if !d.is_done() {
        return Err(CodecError("trailing bytes in server message"));
    }
    Ok(msg)
}

// -------------------------------------------------------------------- frames

/// Writes one frame: length prefix plus payload.
///
/// A payload over [`MAX_FRAME`] is an [`io::ErrorKind::InvalidData`] error —
/// the peer would reject the frame as corrupt, so emitting it (as a
/// `debug_assert!` previously allowed in release builds) only defers the
/// failure to the other side of the wire.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = checked_frame_len(payload)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Validates a payload length against [`MAX_FRAME`].
fn checked_frame_len(payload: &[u8]) -> io::Result<u32> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    Ok(payload.len() as u32)
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-supplied buffer, reused across frames so a
/// blocking connection loop performs no per-frame payload allocation.
/// Returns `Ok(false)` on a clean EOF at a frame boundary; on `Ok(true)`,
/// `payload` holds exactly one frame's payload.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn frame header"))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// A resumable frame decoder for nonblocking readers.
///
/// The blocking [`read_frame`] owns its stream until a whole frame arrives;
/// an epoll reactor instead gets bytes in arbitrary chunks and must park the
/// partial state between readiness events. [`FrameDecoder::feed`] absorbs
/// whatever just arrived; [`FrameDecoder::frames`] lends every completed
/// payload where it lies in the receive buffer and
/// [`FrameDecoder::consume`] lets go of those the caller is done with. The
/// [`MAX_FRAME`] bound applies to the length prefix alone — a hostile one
/// costs four bytes of buffer, not gigabytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `start` are already-consumed frames awaiting compaction.
    start: usize,
}

/// The payload of the frame `bytes` starts with and what follows it;
/// `Ok(None)` while the frame is incomplete.
fn split_frame(bytes: &[u8]) -> io::Result<Option<(&[u8], &[u8])>> {
    let Some((prefix, rest)) = bytes.split_first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    Ok(rest.split_at_checked(len as usize))
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Absorbs freshly-read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefixes would otherwise pin the
        // buffer at its high-water mark forever.
        if self.start > 0 && (self.start >= self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Lends the complete frames buffered, oldest first, each payload
    /// **borrowed from the receive buffer** — no copy, no allocation — and
    /// all of them valid together until the next [`FrameDecoder::feed`]. The
    /// iterator ends at the first incomplete frame; a hostile length prefix
    /// is its last item, an [`io::ErrorKind::InvalidData`] error (the
    /// connection should be dropped). Nothing is consumed by looking.
    pub fn frames(&self) -> impl Iterator<Item = io::Result<&[u8]>> {
        let mut rest = &self.buf[self.start..];
        // Nothing is left once a frame is incomplete or hostile.
        std::iter::from_fn(move || {
            let split = split_frame(std::mem::take(&mut rest)).transpose()?;
            Some(split.map(|(payload, after)| {
                rest = after;
                payload
            }))
        })
    }

    /// Lets go of the first `frames` frames [`FrameDecoder::frames`] lent.
    ///
    /// # Panics
    ///
    /// If fewer complete frames are buffered.
    pub fn consume(&mut self, frames: usize) {
        for _ in 0..frames {
            let lent = split_frame(&self.buf[self.start..]).ok().flatten();
            self.start += 4 + lent.expect("only frames that were lent are consumed").0.len();
        }
    }

    /// Lends and consumes the next complete frame: `Ok(None)` when more
    /// bytes are needed, an error on a hostile length prefix. The slice is
    /// valid until the next call to [`FrameDecoder::feed`].
    pub fn next_frame_ref(&mut self) -> io::Result<Option<&[u8]>> {
        let Some((payload, _)) = split_frame(&self.buf[self.start..])? else { return Ok(None) };
        self.start += 4 + payload.len();
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::OrderKey;

    fn roundtrip_client(msg: ClientMsg) {
        let encoded = encode_client(&msg);
        assert_eq!(decode_client(&encoded).unwrap(), msg);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let encoded = encode_server(&msg);
        assert_eq!(decode_server(&encoded).unwrap(), msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Ping { id: 9 });
        roundtrip_client(ClientMsg::LabelSplit { id: 1, key: Key::raw(5), op: Op::Add(0) });
        roundtrip_client(ClientMsg::Submit {
            id: 42,
            stmts: vec![
                WireStmt::Write(Key::raw(1), Op::Add(5)),
                WireStmt::Get(Key::raw(1)),
                WireStmt::Write(
                    Key::raw(2),
                    Op::OPut { order: OrderKey::pair(3, 1), core: 0, payload: "p".into() },
                ),
                WireStmt::Write(Key::raw(3), Op::SetUnion([4, 5].into_iter().collect())),
            ],
        });
    }

    #[test]
    fn invoke_proc_roundtrips() {
        roundtrip_client(ClientMsg::InvokeProc {
            id: 11,
            proc: "rubis.store_bid".into(),
            args: Args::new().uint(1).uint(2).int(-3).key(Key::raw(4)).str("x"),
        });
        roundtrip_client(ClientMsg::InvokeProc {
            id: 12,
            proc: "kv.get".into(),
            args: Args::new(),
        });
        // A non-utf-8 procedure name is a decode error, not a panic.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x04);
        put_u64(&mut buf, 1);
        put_slice(&mut buf, &[0xFF, 0xFE]);
        assert!(decode_client(&buf).is_err());
        assert!(decode_invoke(&buf).is_err());
    }

    #[test]
    fn borrowed_invoke_codec_matches_the_owned_message() {
        let args = Args::new().key(Key::raw(4)).int(-3).str("x");
        let owned = ClientMsg::InvokeProc { id: 11, proc: "kv.add".into(), args: args.clone() };
        let mut buf = vec![0xAA; 3];
        encode_invoke_into(11, "kv.add", &args, &mut buf);
        assert_eq!(buf, encode_client(&owned));
        assert_eq!(decode_invoke(&buf).unwrap(), Some((11, "kv.add", args.as_ref())));
        // Any other message is left for `decode_client`.
        assert_eq!(decode_invoke(&encode_client(&ClientMsg::Ping { id: 1 })).unwrap(), None);
        assert_eq!(decode_invoke(&[]).unwrap(), None);
        // Trailing bytes are corrupt on the borrowed path too.
        buf.push(0);
        assert!(decode_invoke(&buf).is_err());
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::Deferred { id: 3 });
        roundtrip_server(ServerMsg::Rejected { id: 4, busy: true });
        roundtrip_server(ServerMsg::Rejected { id: 4, busy: false });
        roundtrip_server(ServerMsg::Ack { id: 5 });
        roundtrip_server(ServerMsg::Done(WireDone {
            id: 6,
            result: Ok(77),
            deferred: true,
            values: vec![None, Some(Value::Int(12)), Some(Value::from("bytes"))],
            proc_result: None,
        }));
        roundtrip_server(ServerMsg::Done(WireDone {
            id: 8,
            result: Ok(42),
            deferred: false,
            values: vec![],
            proc_result: Some(Args::new().int(9).value(Value::Int(1)).bytes(b"r".as_ref())),
        }));
        for abort in [
            WireAbort::Conflict,
            WireAbort::LockBusy,
            WireAbort::TypeMismatch,
            WireAbort::UserAbort,
            WireAbort::Shutdown,
            WireAbort::UnknownProc,
        ] {
            roundtrip_server(ServerMsg::Done(WireDone {
                id: 7,
                result: Err(abort),
                deferred: false,
                values: vec![],
                proc_result: None,
            }));
        }
    }

    #[test]
    fn twopc_messages_roundtrip() {
        roundtrip_client(ClientMsg::Prepare {
            id: 21,
            txid: 0xDEAD_BEEF,
            stmts: vec![
                WireStmt::Write(Key::raw(1), Op::Put(Value::Int(7))),
                WireStmt::Get(Key::raw(2)),
                WireStmt::Write(Key::raw(3), Op::Add(-4)),
            ],
        });
        roundtrip_client(ClientMsg::Prepare { id: 22, txid: 0, stmts: vec![] });
        roundtrip_client(ClientMsg::Decide { id: 23, txid: 99, commit: true });
        roundtrip_client(ClientMsg::Decide { id: 24, txid: 99, commit: false });
        roundtrip_server(ServerMsg::Vote {
            id: 21,
            txid: 0xDEAD_BEEF,
            ok: true,
            values: vec![None, Some(Value::Int(12))],
        });
        roundtrip_server(ServerMsg::Vote { id: 25, txid: 1, ok: false, values: vec![] });
    }

    #[test]
    fn hostile_prepare_and_vote_counts_are_rejected() {
        // Prepare claiming u32::MAX statements without carrying them.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x06);
        put_u64(&mut buf, 1); // id
        put_u64(&mut buf, 2); // txid
        put_u32(&mut buf, u32::MAX);
        assert!(decode_client(&buf).is_err());
        // Vote claiming u32::MAX values.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x86);
        put_u64(&mut buf, 1); // id
        put_u64(&mut buf, 2); // txid
        put_u8(&mut buf, 1); // ok
        put_u32(&mut buf, u32::MAX);
        assert!(decode_server(&buf).is_err());
        // A decide flag outside {0, 1} is corrupt.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x07);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 2);
        put_u8(&mut buf, 9);
        assert!(decode_client(&buf).is_err());
    }

    #[test]
    fn stats_messages_roundtrip() {
        roundtrip_client(ClientMsg::GetStats { id: 13 });
        let mut hist = doppel_telemetry::Histogram::new();
        hist.record(std::time::Duration::from_micros(120));
        roundtrip_server(ServerMsg::Stats {
            id: 13,
            snapshot: Box::new(TelemetrySnapshot {
                scalars: vec![("commits".into(), 5)],
                hists: vec![("exec".into(), hist)],
                hot_keys: vec![doppel_telemetry::HotKey { key: 1, hits: 2 }],
                phase: "joined".into(),
                procs: vec![],
                tuner: Some(crate::TunerSnapshot {
                    epochs: 4,
                    phase_len_us: 20_000,
                    split_keys: vec![1],
                    decisions: vec![doppel_common::TuneDecision {
                        epoch: 3,
                        action: "promote key 1".into(),
                        reason: "hot".into(),
                    }],
                }),
            }),
        });
        roundtrip_server(ServerMsg::Stats {
            id: 0,
            snapshot: Box::new(TelemetrySnapshot::default()),
        });
    }

    #[test]
    fn abort_codes_map_and_retry() {
        assert_eq!(
            WireAbort::from_error(&TxError::Conflict { key: Key::raw(1) }),
            WireAbort::Conflict
        );
        assert!(WireAbort::Conflict.is_retryable());
        assert!(WireAbort::LockBusy.is_retryable());
        assert!(!WireAbort::Shutdown.is_retryable());
        assert!(!WireAbort::UnknownProc.is_retryable());
        assert!(WireAbort::from_code(99).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), Vec::<u8>::new());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_header_and_oversize_frames_error() {
        let mut cursor = std::io::Cursor::new(vec![1u8, 0]);
        assert!(read_frame(&mut cursor).is_err());
        let mut oversize = Vec::new();
        oversize.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversize);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversize_payloads_are_write_errors_not_debug_asserts() {
        // Regression: this used to be a debug_assert!, so release builds
        // silently emitted a frame the peer would reject as corrupt.
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may reach the wire");
        // The boundary itself is fine.
        let exact = vec![0u8; MAX_FRAME as usize];
        assert!(write_frame(&mut sink, &exact).is_ok());
    }

    #[test]
    fn hostile_submit_count_is_rejected_without_reserving() {
        // A Submit header claiming u32::MAX statements but carrying none:
        // must be a decode error (and must not reserve gigabytes first).
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x01);
        put_u64(&mut buf, 7);
        put_u32(&mut buf, u32::MAX);
        assert!(decode_client(&buf).is_err());
        // Same for a count that is large but plausible-looking.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x01);
        put_u64(&mut buf, 7);
        put_u32(&mut buf, 1 << 20);
        put_u8(&mut buf, STMT_GET);
        assert!(decode_client(&buf).is_err());
    }

    #[test]
    fn hostile_done_value_count_is_rejected() {
        // Server → client direction: a Done frame whose value count exceeds
        // what the payload could hold must fail fast on the client.
        let mut buf = Vec::new();
        put_u8(&mut buf, 0x81); // Done
        put_u64(&mut buf, 1); // id
        put_u8(&mut buf, 0); // committed
        put_u64(&mut buf, 9); // tid
        put_u8(&mut buf, 0); // not deferred
        put_u32(&mut buf, u32::MAX); // hostile value count
        assert!(decode_server(&buf).is_err());
    }

    #[test]
    fn frame_decoder_resumes_across_arbitrary_chunks() {
        let frames: Vec<Vec<u8>> = vec![b"hello".to_vec(), Vec::new(), vec![7u8; 300]];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        // Feed one byte at a time: every frame must still come out intact.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b));
            let lent: Vec<Vec<u8>> = dec.frames().map(|p| p.unwrap().to_vec()).collect();
            dec.consume(lent.len());
            out.extend(lent);
        }
        assert_eq!(out, frames);
        assert_eq!(dec.pending(), 0);

        // Feed everything at once: all of them are lent together, looking
        // consumes nothing, and they can be let go of a few at a time.
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let lent: Vec<&[u8]> = dec.frames().map(Result::unwrap).collect();
        assert_eq!(lent, frames);
        assert_eq!(dec.pending(), stream.len());
        dec.consume(1);
        assert_eq!(dec.frames().map(Result::unwrap).collect::<Vec<_>>(), frames[1..]);
        dec.consume(2);
        assert_eq!((dec.pending(), dec.frames().count()), (0, 0));
    }

    #[test]
    fn frame_decoder_rejects_hostile_length_prefix() {
        // The frames ahead of it are lent, then the error, then nothing.
        let mut dec = FrameDecoder::new();
        write_frame(&mut dec.buf, b"ok").unwrap();
        dec.feed(&(MAX_FRAME + 1).to_le_bytes());
        let mut lent = dec.frames();
        assert_eq!(lent.next().unwrap().unwrap(), b"ok");
        assert_eq!(lent.next().unwrap().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(lent.next().is_none());
        drop(lent);
        dec.consume(1);
        assert_eq!(dec.next_frame_ref().unwrap_err().kind(), io::ErrorKind::InvalidData);
        // Three bytes of header: not an error, just incomplete.
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xFF, 0xFF, 0xFF]);
        assert_eq!(dec.frames().count(), 0);
        assert!(dec.next_frame_ref().unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "only frames that were lent")]
    fn consuming_a_frame_that_was_not_lent_panics() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[5, 0, 0, 0, b'x']);
        dec.consume(1);
    }

    #[test]
    fn server_frame_matches_two_step_encoding() {
        let msg = ServerMsg::Done(WireDone {
            id: 1,
            result: Ok(5),
            deferred: false,
            values: vec![None, Some(Value::Int(3))],
            proc_result: Some(Args::new().int(9)),
        });
        let mut two_step = Vec::new();
        write_frame(&mut two_step, &encode_server(&msg)).unwrap();
        assert_eq!(server_frame(&msg).unwrap(), two_step);
        // The in-place variant clears whatever the scratch held before.
        let mut scratch = vec![0xAA; 7];
        server_frame_into(&msg, &mut scratch).unwrap();
        assert_eq!(scratch, two_step);
        // The appending variant leaves what is already waiting alone.
        server_frame_append(&ServerMsg::Ack { id: 2 }, &mut scratch).unwrap();
        let ack = server_frame(&ServerMsg::Ack { id: 2 }).unwrap();
        assert_eq!(scratch, [two_step, ack].concat());
    }

    #[test]
    fn encode_into_reuses_and_clears_buffers() {
        let c = ClientMsg::Ping { id: 3 };
        let s = ServerMsg::Ack { id: 4 };
        let mut buf = vec![1, 2, 3];
        encode_client_into(&c, &mut buf);
        assert_eq!(buf, encode_client(&c));
        encode_server_into(&s, &mut buf);
        assert_eq!(buf, encode_server(&s));
    }

    #[test]
    fn next_frame_ref_borrows_payloads_in_order() {
        let frames: Vec<Vec<u8>> = vec![b"abc".to_vec(), Vec::new(), vec![9u8; 100]];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut out: Vec<Vec<u8>> = Vec::new();
        while let Some(p) = dec.next_frame_ref().unwrap() {
            out.push(p.to_vec());
        }
        assert_eq!(out, frames);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn read_frame_into_reuses_buffer_and_signals_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first-longer").unwrap();
        write_frame(&mut stream, b"2nd").unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let mut buf = Vec::new();
        assert!(read_frame_into(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"first-longer");
        assert!(read_frame_into(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"2nd", "shorter frame fully replaces the longer one");
        assert!(!read_frame_into(&mut cursor, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn corrupt_payloads_error_not_panic() {
        assert!(decode_client(&[]).is_err());
        assert!(decode_client(&[0xFF]).is_err());
        assert!(decode_server(&[0x55]).is_err());
        let mut buf = encode_client(&ClientMsg::Ping { id: 1 });
        buf.push(0);
        assert!(decode_client(&buf).is_err(), "trailing bytes are rejected");
    }
}
