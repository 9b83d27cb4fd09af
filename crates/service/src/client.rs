//! Client library for `doppel-server`.
//!
//! [`RemoteClient`] is a synchronous, single-connection client: it frames
//! [`crate::wire::ClientMsg`]s onto a `TcpStream` and demultiplexes the
//! server's replies (completions arrive in completion order, which for
//! stash-deferred transactions is not submission order).

use crate::wire::{
    decode_server, encode_client_into, encode_invoke_into, read_frame_into, write_frame,
    ClientMsg, ServerMsg, WireAbort, WireStmt,
};
use doppel_common::{Args, Key, Op, OrderKey, ProcResult, Value};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The request ids of one [`RemoteClient::submit_batch`], in submission
/// order. Fresh ids are consecutive, so a batch of any size is its first id
/// and its length: pipelining it allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct BatchIds {
    first: u64,
    len: usize,
}

impl BatchIds {
    /// How many calls the batch submitted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch submitted nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids, each lent the way the `Vec<u64>` this replaced lent it:
    /// `*id` is the `u64` to [`RemoteClient::wait`] for.
    pub fn iter(&self) -> impl Iterator<Item = impl std::ops::Deref<Target = u64>> {
        (self.first..).take(self.len).map(std::borrow::Cow::<u64>::Owned)
    }
}

/// Builder for one wire transaction: a sequence of reads and write
/// operations executed as a single procedure on the server.
///
/// # Examples
///
/// ```
/// use doppel_common::Key;
/// use doppel_service::RemoteTxn;
///
/// let txn = RemoteTxn::new().add(Key::raw(1), 5).get(Key::raw(1));
/// assert_eq!(txn.stmts().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RemoteTxn {
    stmts: Vec<WireStmt>,
}

impl RemoteTxn {
    /// An empty transaction.
    pub fn new() -> Self {
        RemoteTxn::default()
    }

    /// The statements added so far.
    pub fn stmts(&self) -> &[WireStmt] {
        &self.stmts
    }

    /// Reads `k`; the result comes back with the completion, in statement
    /// order.
    pub fn get(mut self, k: Key) -> Self {
        self.stmts.push(WireStmt::Get(k));
        self
    }

    /// Applies an arbitrary write operation.
    pub fn write(mut self, k: Key, op: Op) -> Self {
        self.stmts.push(WireStmt::Write(k, op));
        self
    }

    /// `v[k] ← v[k] + n` (splittable).
    pub fn add(self, k: Key, n: i64) -> Self {
        self.write(k, Op::Add(n))
    }

    /// `v[k] ← max(v[k], n)` (splittable).
    pub fn max(self, k: Key, n: i64) -> Self {
        self.write(k, Op::Max(n))
    }

    /// Overwrites `k` with `v`.
    pub fn put(self, k: Key, v: Value) -> Self {
        self.write(k, Op::Put(v))
    }

    /// Inserts into the top-K set at `k` (splittable). The server fills in
    /// the executing core.
    pub fn topk_insert(self, k: Key, order: OrderKey, payload: bytes::Bytes, cap: usize) -> Self {
        self.write(k, Op::TopKInsert { order, core: 0, payload, k: cap })
    }
}

/// Final result of a remote submission.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteOutcome {
    /// The transaction committed.
    Committed {
        /// The commit TID (raw).
        tid: u64,
        /// Results of the transaction's `Get` statements, in order.
        values: Vec<Option<Value>>,
        /// Typed result of a registered-procedure invocation (`None` for raw
        /// statement-list submissions).
        proc_result: Option<ProcResult>,
        /// True when the transaction was stash-deferred before committing.
        deferred: bool,
    },
    /// The transaction aborted.
    Aborted {
        /// Why ([`WireAbort::is_retryable`] guides resubmission).
        code: WireAbort,
        /// True when the abort happened on a stash replay.
        deferred: bool,
    },
    /// The submission never reached a worker.
    Rejected {
        /// True for backpressure (retry later), false for server shutdown.
        busy: bool,
    },
}

impl RemoteOutcome {
    /// True when the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, RemoteOutcome::Committed { .. })
    }

    /// The committed `Get` results, when committed.
    pub fn values(&self) -> Option<&[Option<Value>]> {
        match self {
            RemoteOutcome::Committed { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The committed procedure result, when this was a committed
    /// [`RemoteClient::call`].
    pub fn proc_result(&self) -> Option<&ProcResult> {
        match self {
            RemoteOutcome::Committed { proc_result, .. } => proc_result.as_ref(),
            _ => None,
        }
    }
}

/// A synchronous client connection to a `doppel-server`.
pub struct RemoteClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Outcomes that arrived while waiting for a different request.
    buffered: HashMap<u64, RemoteOutcome>,
    /// Two-phase-commit votes that arrived while waiting for something else,
    /// keyed by request id: `(ok, prepare-read values)`.
    votes: HashMap<u64, (bool, Vec<Option<Value>>)>,
    deferred_seen: HashSet<u64>,
    /// Reused encode scratch: one buffer for every outgoing frame.
    wbuf: Vec<u8>,
    /// Reused receive buffer: frames decode in place, no per-reply allocation.
    rbuf: Vec<u8>,
}

impl RemoteClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<RemoteClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(RemoteClient {
            reader,
            writer,
            next_id: 0,
            buffered: HashMap::new(),
            votes: HashMap::new(),
            deferred_seen: HashSet::new(),
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        })
    }

    /// [`RemoteClient::connect`] with retries until `deadline` elapses,
    /// backing off 1 ms → 2 ms → … → 128 ms (capped) between attempts.
    ///
    /// Connecting to a cluster races server start-up (and, for a shard
    /// router re-delivering a commit decision, server *restart*), so refusal
    /// is expected and transient. Errors carry the address they were dialing:
    /// in a multi-shard deployment "connection refused" without the address
    /// is undebuggable.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + std::fmt::Display,
        deadline: Duration,
    ) -> io::Result<RemoteClient> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(1);
        loop {
            match RemoteClient::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if start.elapsed() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!(
                                "connect to {addr} failed after {:?}: {e}",
                                start.elapsed()
                            ),
                        ));
                    }
                    std::thread::sleep(backoff.min(deadline.saturating_sub(start.elapsed())));
                    backoff = (backoff * 2).min(Duration::from_millis(128));
                }
            }
        }
    }

    fn write_msg(&mut self, msg: &ClientMsg) -> io::Result<()> {
        encode_client_into(msg, &mut self.wbuf);
        write_frame(&mut self.writer, &self.wbuf)
    }

    fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        self.write_msg(msg)?;
        self.writer.flush()
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Submits a transaction without waiting; returns its request id.
    pub fn submit(&mut self, txn: &RemoteTxn) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&ClientMsg::Submit { id, stmts: txn.stmts.clone() })?;
        Ok(id)
    }

    /// Submits a raw statement list without waiting; returns its request id.
    pub fn submit_stmts(&mut self, stmts: Vec<WireStmt>) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&ClientMsg::Submit { id, stmts })?;
        Ok(id)
    }

    /// Writes a submission without flushing, for cross-connection
    /// pipelining (the shard router queues every shard's frames before any
    /// flush). Pair with [`RemoteClient::flush`].
    pub fn queue_stmts(&mut self, stmts: Vec<WireStmt>) -> io::Result<u64> {
        let id = self.fresh_id();
        self.write_msg(&ClientMsg::Submit { id, stmts })?;
        Ok(id)
    }

    /// Flushes every queued frame to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// True once a `Deferred` notice for `id` has been observed.
    pub fn was_deferred(&self, id: u64) -> bool {
        self.deferred_seen.contains(&id)
    }

    fn read_msg(&mut self) -> io::Result<ServerMsg> {
        if !read_frame_into(&mut self.reader, &mut self.rbuf)? {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        decode_server(&self.rbuf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn absorb(&mut self, msg: ServerMsg) -> Option<(u64, RemoteOutcome)> {
        match msg {
            ServerMsg::Deferred { id } => {
                self.deferred_seen.insert(id);
                None
            }
            ServerMsg::Done(done) => {
                let outcome = match done.result {
                    Ok(tid) => RemoteOutcome::Committed {
                        tid,
                        values: done.values,
                        proc_result: done.proc_result,
                        deferred: done.deferred,
                    },
                    Err(code) => RemoteOutcome::Aborted { code, deferred: done.deferred },
                };
                Some((done.id, outcome))
            }
            ServerMsg::Rejected { id, busy } => Some((id, RemoteOutcome::Rejected { busy })),
            ServerMsg::Ack { id } => Some((id, RemoteOutcome::Committed {
                tid: 0,
                values: Vec::new(),
                proc_result: None,
                deferred: false,
            })),
            ServerMsg::Vote { id, ok, values, .. } => {
                self.votes.insert(id, (ok, values));
                None
            }
            // A Stats reply is consumed synchronously by `stats()`; one
            // reaching the outcome demultiplexer is stale — drop it.
            ServerMsg::Stats { .. } => None,
        }
    }

    /// Blocks until the outcome for `id` arrives, buffering other replies.
    pub fn wait(&mut self, id: u64) -> io::Result<RemoteOutcome> {
        if let Some(done) = self.buffered.remove(&id) {
            return Ok(done);
        }
        loop {
            let msg = self.read_msg()?;
            if let Some((done_id, outcome)) = self.absorb(msg) {
                if done_id == id {
                    return Ok(outcome);
                }
                self.buffered.insert(done_id, outcome);
            }
        }
    }

    /// Submit-and-wait convenience.
    pub fn execute(&mut self, txn: &RemoteTxn) -> io::Result<RemoteOutcome> {
        let id = self.submit(txn)?;
        self.wait(id)
    }

    /// Pipelines a batch of transactions: every frame is written before the
    /// single flush, so the batch costs one network round trip. Returns the
    /// request ids in submission order; collect with [`RemoteClient::wait`].
    pub fn submit_many(&mut self, txns: &[RemoteTxn]) -> io::Result<Vec<u64>> {
        let mut ids = Vec::with_capacity(txns.len());
        for txn in txns {
            let id = self.fresh_id();
            self.write_msg(&ClientMsg::Submit { id, stmts: txn.stmts.clone() })?;
            ids.push(id);
        }
        self.writer.flush()?;
        Ok(ids)
    }

    /// Sends a two-phase-commit `Prepare` for this shard's slice of
    /// distributed transaction `txid`; returns the request id to pass to
    /// [`RemoteClient::wait_vote`].
    pub fn send_prepare(&mut self, txid: u64, stmts: Vec<WireStmt>) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&ClientMsg::Prepare { id, txid, stmts })?;
        Ok(id)
    }

    /// Blocks until the shard's vote for prepare-request `id` arrives:
    /// `(ok, values)` where `values` are the slice's `Get` results read
    /// under the prepare locks (yes-votes only). Other replies are buffered
    /// exactly as [`RemoteClient::wait`] would.
    pub fn wait_vote(&mut self, id: u64) -> io::Result<(bool, Vec<Option<Value>>)> {
        loop {
            if let Some(vote) = self.votes.remove(&id) {
                return Ok(vote);
            }
            let msg = self.read_msg()?;
            if let Some((done_id, outcome)) = self.absorb(msg) {
                self.buffered.insert(done_id, outcome);
            }
        }
    }

    /// Sends the coordinator's decision for `txid`; returns the request id.
    /// The shard acknowledges an abort immediately; a commit completes once
    /// the prepared writes are applied (wait with [`RemoteClient::wait`] —
    /// a retryable [`RemoteOutcome::Aborted`] or [`RemoteOutcome::Rejected`]
    /// means re-deliver the decision).
    pub fn send_decide(&mut self, txid: u64, commit: bool) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&ClientMsg::Decide { id, txid, commit })?;
        Ok(id)
    }

    /// Submits a registered-procedure invocation without waiting; returns
    /// its request id. The server resolves `name` in its
    /// [`doppel_common::ProcRegistry`]; an unregistered name completes as
    /// [`RemoteOutcome::Aborted`] with [`WireAbort::UnknownProc`].
    pub fn submit_call(&mut self, name: &str, args: Args) -> io::Result<u64> {
        let id = self.write_call(name, &args)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Frames one invocation from its borrowed parts: no owned message, so
    /// no copy of the name or the arguments.
    fn write_call(&mut self, name: &str, args: &Args) -> io::Result<u64> {
        let id = self.fresh_id();
        encode_invoke_into(id, name, args, &mut self.wbuf);
        write_frame(&mut self.writer, &self.wbuf)?;
        Ok(id)
    }

    /// Invoke-and-wait convenience: the typed remote call. On commit the
    /// outcome carries the procedure's [`ProcResult`]
    /// ([`RemoteOutcome::proc_result`]).
    pub fn call(&mut self, name: &str, args: Args) -> io::Result<RemoteOutcome> {
        let id = self.submit_call(name, args)?;
        self.wait(id)
    }

    /// Pipelines a batch of invocations: every frame is written (and flushed
    /// once) before the first reply is awaited, so a batch costs one network
    /// round trip instead of one per invocation. Returns the request ids in
    /// submission order; collect outcomes with [`RemoteClient::wait`].
    pub fn submit_batch(&mut self, calls: &[(&str, Args)]) -> io::Result<BatchIds> {
        let first = self.next_id + 1;
        for (name, args) in calls {
            self.write_call(name, args)?;
        }
        self.writer.flush()?;
        Ok(BatchIds { first, len: calls.len() })
    }

    /// Labels `key` split for `op`'s kind on the server (Doppel only; other
    /// engines acknowledge and ignore).
    pub fn label_split(&mut self, key: Key, op: Op) -> io::Result<()> {
        let id = self.fresh_id();
        self.send(&ClientMsg::LabelSplit { id, key, op })?;
        self.wait(id).map(|_| ())
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        self.send(&ClientMsg::Ping { id })?;
        self.wait(id).map(|_| ())
    }

    /// Polls the server's telemetry: engine counters, latency histograms,
    /// the current phase, hot keys and per-procedure statistics, as one
    /// [`crate::TelemetrySnapshot`].
    ///
    /// A `Stats` reply is not a transaction outcome, so this runs its own
    /// read loop: replies for other in-flight requests are buffered exactly
    /// as [`RemoteClient::wait`] would.
    pub fn stats(&mut self) -> io::Result<crate::TelemetrySnapshot> {
        let id = self.fresh_id();
        self.send(&ClientMsg::GetStats { id })?;
        loop {
            let msg = self.read_msg()?;
            if let ServerMsg::Stats { id: got, snapshot } = msg {
                if got == id {
                    return Ok(*snapshot);
                }
                // A stale Stats reply (ours is still in flight) has no home
                // in the outcome buffer; drop it.
                continue;
            }
            if let Some((done_id, outcome)) = self.absorb(msg) {
                self.buffered.insert(done_id, outcome);
            }
        }
    }
}
