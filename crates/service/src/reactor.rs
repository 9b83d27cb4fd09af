//! The I/O half of a core loop: the connections one engine core owns.
//!
//! There is no poller pool. The thread that owns core *i*'s `TxHandle`
//! ([`crate::service`]) also owns one epoll set and every connection the
//! accept thread assigned to it, and runs each request to completion:
//!
//! ```text
//!             ┌────────────────── core loop i ──────────────────┐
//!  readable ─►│ read → FrameDecoder → serve group on own handle │
//!             │                            │ replies appended   │
//!  writable ─►│ one write per turn ◄── connection write buffer  │
//!             └──────────────▲───────────────────────▲──────────┘
//!        stash replay (same core)        Outbox: replies made on another
//!                                        core (2PC decide) + waker
//! ```
//!
//! A reply is encoded straight behind the ones already waiting in its
//! connection's write buffer and the buffer is written once per readiness
//! turn, so a pipelined batch costs one `read` and one `write`. The buffer is
//! **bounded**: a connection whose unwritten replies exceed
//! [`ReactorConfig::write_queue_bytes`] after the socket refused them (its
//! client has stopped reading), or that is owed a single reply larger than
//! the budget, is *shed* — dropped and counted, never buffered without limit.
//!
//! Ordering is per connection and per request: replies go out in completion
//! order and `Deferred` precedes its `Done`.

use crate::server::NetStats;
use crate::wire::{server_frame, FrameDecoder, ServerMsg};
use mio::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-connection write budget (bytes). Generous enough that a
/// healthy pipelining client never notices it, small enough that a slow
/// client cannot take meaningful server memory hostage.
pub const DEFAULT_WRITE_QUEUE_BYTES: usize = 4 << 20;

/// Tuning for the socket side of the core loops. There is one loop per
/// engine worker; nothing about their number is configurable here.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Per-connection budget of replies encoded but not yet accepted by the
    /// socket, in bytes; a connection that overflows it (its client has
    /// stopped reading) is shed.
    pub write_queue_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { write_queue_bytes: DEFAULT_WRITE_QUEUE_BYTES }
    }
}

/// The epoll token of a loop's waker; connections start at 1.
pub(crate) const WAKER_TOKEN: Token = Token(0);
/// Budget of `read` calls per readiness event, so one firehose connection
/// cannot starve its loop-mates (level-triggered epoll re-signals).
const READS_PER_EVENT: usize = 8;
/// A partly written buffer is compacted once this much of it is dead prefix.
const COMPACT_AT: usize = 64 * 1024;

// ------------------------------------------------------------------- outbox

/// One reply made on a thread that does not own the target connection.
pub(crate) struct RemoteReply {
    pub(crate) token: usize,
    /// The finished frame; `None` when the reply could not be framed (over
    /// `MAX_FRAME`) and the connection is beyond repair.
    pub(crate) frame: Option<Vec<u8>>,
    /// False for a `Deferred` notice: the request's `Done` is still to come.
    pub(crate) last: bool,
}

/// Replies for one loop's connections produced on other threads — the sink
/// of a 2PC decide that ran through the submission queue. The producer
/// pushes an owned frame and wakes the loop; the loop drains the lot once
/// per turn into the write buffers, where the byte budget applies. Nothing a
/// socket request does on its own core passes through here.
#[derive(Default)]
pub(crate) struct Outbox {
    replies: Mutex<Vec<RemoteReply>>,
}

impl Outbox {
    pub(crate) fn push(&self, token: usize, msg: &ServerMsg) {
        let reply = RemoteReply {
            token,
            frame: server_frame(msg).ok(),
            last: !matches!(msg, ServerMsg::Deferred { .. }),
        };
        self.replies.lock().expect("outbox lock").push(reply);
    }

    /// Swaps the queued replies into `into` (which must be empty), so the
    /// two vectors trade places turn after turn and neither is reallocated.
    pub(crate) fn drain(&self, into: &mut Vec<RemoteReply>) {
        debug_assert!(into.is_empty());
        std::mem::swap(&mut *self.replies.lock().expect("outbox lock"), into);
    }
}

// -------------------------------------------------------------- connections

/// Why a connection leaves its loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Clean teardown (EOF + every reply written) or socket error.
    Done,
    /// Write budget overflow or an unframeable reply.
    Shed,
    /// The peer sent bytes that do not decode as the wire protocol.
    Protocol,
}

/// What serving one frame left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameReply {
    /// Every reply the frame will ever get is in the output buffer.
    Written,
    /// A final reply is still to come (stash replay, or a decide applied
    /// through the queue); the connection must outlive a half-close until
    /// it has been written.
    Owed,
}

/// What the serving step calls after each frame of a group: the output
/// buffer as the frame left it, where the frame's replies begin in it, and
/// whether a final reply is still to come. A reason means the connection must
/// be closed, now, with the rest of the group unserved.
pub type Replied<'a> = dyn FnMut(&mut Vec<u8>, usize, FrameReply) -> Option<CloseReason> + 'a;

enum FlushOutcome {
    /// Nothing pending.
    Idle,
    /// The socket would block with output still pending.
    Blocked,
    Close(CloseReason),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Replies encoded and not yet written (`wpos..` is still unwritten).
    wbuf: Vec<u8>,
    wpos: usize,
    /// What the epoll registration currently asks for (`None`: deregistered).
    interest: Option<Interest>,
    /// The socket refused output last time; wait for writable.
    blocked: bool,
    /// The peer half-closed (or closed) its sending side.
    read_closed: bool,
    /// Final replies still to come ([`FrameReply::Owed`]).
    owed: usize,
    /// Already in [`CoreIo::unflushed`].
    flush_queued: bool,
}

/// Writes as much of `wbuf[*wpos..]` as `stream` accepts. Over a connection's
/// parts: the budget is checked while its decoder still lends the frames.
fn write_out(mut stream: &TcpStream, wbuf: &mut Vec<u8>, wpos: &mut usize) -> FlushOutcome {
    while *wpos < wbuf.len() {
        match stream.write(&wbuf[*wpos..]) {
            Ok(0) => return FlushOutcome::Close(CloseReason::Done),
            Ok(n) => *wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if *wpos >= COMPACT_AT {
                    wbuf.drain(..*wpos);
                    *wpos = 0;
                }
                return FlushOutcome::Blocked;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Close(CloseReason::Done),
        }
    }
    wbuf.clear();
    *wpos = 0;
    FlushOutcome::Idle
}

/// Applies the write budget after a reply was appended at `before`: a single
/// reply over the budget sheds at once (deterministically, however fast the
/// client reads); an accumulated backlog over the budget sheds only if the
/// socket will not take it.
fn over_budget(
    stream: &TcpStream,
    wbuf: &mut Vec<u8>,
    wpos: &mut usize,
    before: usize,
    budget: usize,
) -> Option<CloseReason> {
    if wbuf.len() - before > budget {
        return Some(CloseReason::Shed);
    }
    if wbuf.len() - *wpos > budget {
        if let FlushOutcome::Close(reason) = write_out(stream, wbuf, wpos) {
            return Some(reason);
        }
        if wbuf.len() - *wpos > budget {
            return Some(CloseReason::Shed);
        }
    }
    None
}

/// The connections of one core loop and the epoll set they are registered
/// with. Owned by the loop's thread; nothing here is shared.
pub(crate) struct CoreIo {
    poll: Poll,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    scratch: Vec<u8>,
    write_budget: usize,
    net: Arc<NetStats>,
    /// Connections that gained output outside their own readable turn
    /// (stash replays, cross-core replies) and still need a flush.
    unflushed: Vec<usize>,
}

impl CoreIo {
    pub(crate) fn new(poll: Poll, write_budget: usize, net: Arc<NetStats>) -> CoreIo {
        CoreIo {
            poll,
            conns: HashMap::new(),
            next_token: WAKER_TOKEN.0 + 1,
            scratch: vec![0u8; 64 * 1024],
            write_budget: write_budget.max(1),
            net,
            unflushed: Vec::new(),
        }
    }

    /// Parks in `epoll_wait` for up to `timeout`.
    pub(crate) fn wait(&mut self, events: &mut Events, timeout: Duration) -> io::Result<()> {
        self.poll.poll(events, Some(timeout))
    }

    /// Takes over a connection the accept thread assigned to this loop.
    /// Tokens are never reused, so a late reply for a closed connection can
    /// never reach a newer one.
    pub(crate) fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        if stream.set_nonblocking(true).is_err()
            || self.poll.registry().register(&stream, Token(token), Interest::READABLE).is_err()
        {
            return;
        }
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                wbuf: Vec::new(),
                wpos: 0,
                interest: Some(Interest::READABLE),
                blocked: false,
                read_closed: false,
                owed: 0,
                flush_queued: false,
            },
        );
    }

    /// Drains the socket's readable bytes through the frame decoder and
    /// lends `serve` the complete frames, borrowed from the receive buffer,
    /// a group at a time: with the time their `read` returned, the
    /// connection's write buffer to append replies to, and what to call
    /// after each frame's replies ([`Replied`]: the write budget). Called while
    /// a frame is lent, `serve` answers how many it is done with — at least
    /// one — or why the connection must close. Follow with [`CoreIo::settle`].
    pub(crate) fn on_readable<F>(&mut self, token: usize, mut serve: F)
    where
        F: FnMut(
            Instant,
            &mut dyn Iterator<Item = io::Result<&[u8]>>,
            &mut Vec<u8>,
            &mut Replied<'_>,
        ) -> Result<usize, CloseReason>,
    {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.read_closed {
            return;
        }
        let budget = self.write_budget;
        let mut verdict = None;
        'reads: for _ in 0..READS_PER_EVENT {
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    verdict = Some(CloseReason::Done);
                    break;
                }
            };
            let read_at = Instant::now();
            let Conn { stream, decoder, wbuf, wpos, owed, .. } = &mut *conn;
            decoder.feed(&self.scratch[..n]);
            let mut replied = |wbuf: &mut Vec<u8>, before: usize, reply: FrameReply| {
                *owed += usize::from(reply == FrameReply::Owed);
                over_budget(stream, wbuf, wpos, before, budget)
            };
            while decoder.frames().next().is_some() {
                let served = serve(read_at, &mut decoder.frames(), wbuf, &mut replied);
                match served {
                    Ok(served) => decoder.consume(served),
                    Err(reason) => {
                        verdict = Some(reason);
                        break 'reads;
                    }
                }
            }
            if n < self.scratch.len() {
                // A short read emptied the socket; a further `read` would
                // only report `WouldBlock`.
                break;
            }
        }
        if let Some(reason) = verdict {
            self.close(token, reason);
        }
    }

    /// Appends a reply produced outside the connection's own readable turn.
    /// `last` settles one [`FrameReply::Owed`]. A connection that is gone is
    /// skipped: there is nobody left to tell.
    pub(crate) fn reply(
        &mut self,
        token: usize,
        last: bool,
        frame: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if last {
            conn.owed = conn.owed.saturating_sub(1);
        }
        let before = conn.wbuf.len();
        let verdict = match frame(&mut conn.wbuf) {
            Ok(()) => over_budget(&conn.stream, &mut conn.wbuf, &mut conn.wpos, before, self.write_budget),
            // A reply that cannot be framed can never reach the peer intact.
            Err(_) => Some(CloseReason::Shed),
        };
        if let Some(reason) = verdict {
            self.close(token, reason);
        } else if !conn.flush_queued {
            conn.flush_queued = true;
            self.unflushed.push(token);
        }
    }

    /// [`CoreIo::settle`] for every connection [`CoreIo::reply`] touched.
    pub(crate) fn flush_replies(&mut self) {
        while let Some(token) = self.unflushed.pop() {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.flush_queued = false;
            }
            self.settle(token);
        }
    }

    /// Flush, interest maintenance and close-condition evaluation; run after
    /// any I/O or appended output on the connection.
    pub(crate) fn settle(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        match write_out(&conn.stream, &mut conn.wbuf, &mut conn.wpos) {
            FlushOutcome::Idle => {
                conn.blocked = false;
                if conn.read_closed && conn.owed == 0 {
                    // All replies written and no more can arrive: clean end.
                    self.close(token, CloseReason::Done);
                    return;
                }
            }
            FlushOutcome::Blocked => conn.blocked = true,
            FlushOutcome::Close(reason) => {
                self.close(token, reason);
                return;
            }
        }
        // EPOLLOUT only while output is blocked; no read interest after a
        // half-close, or level-triggered EPOLLRDHUP would spin the loop
        // while the connection waits for the replies it is still owed.
        let want = match (conn.read_closed, conn.blocked) {
            (false, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, true) => Some(Interest::WRITABLE),
            (true, false) => None,
        };
        if want == conn.interest {
            return;
        }
        let registry = self.poll.registry();
        let changed = match (conn.interest, want) {
            (None, Some(i)) => registry.register(&conn.stream, Token(token), i),
            (Some(_), Some(i)) => registry.reregister(&conn.stream, Token(token), i),
            (_, None) => registry.deregister(&conn.stream),
        };
        conn.interest = want;
        if changed.is_err() {
            self.close(token, CloseReason::Done);
        }
    }

    pub(crate) fn close(&mut self, token: usize, reason: CloseReason) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        match reason {
            CloseReason::Shed => {
                self.net.note_conn_shed();
                doppel_telemetry::trace::instant(
                    doppel_telemetry::EventKind::ReactorShed,
                    token as u64,
                );
            }
            CloseReason::Protocol => {
                self.net.note_decode_error();
                // The frames ahead of the bad one were served and may have
                // committed: one attempt to let the client know, since
                // nothing will be retried on a connection that is going
                // (what the socket will not take at once is still lost).
                let _ = write_out(&conn.stream, &mut conn.wbuf, &mut conn.wpos);
            }
            CloseReason::Done => {}
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        // Dropping the stream closes the fd, which also deregisters it from
        // the epoll set.
    }

    /// Teardown: unblocks every client with a closed socket.
    pub(crate) fn close_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_server, read_frame, server_frame_append};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        (client, served)
    }

    fn io(budget: usize) -> (CoreIo, Arc<NetStats>) {
        let net: Arc<NetStats> = Arc::default();
        (CoreIo::new(Poll::new().unwrap(), budget, Arc::clone(&net)), net)
    }

    fn ack(id: u64) -> impl FnOnce(&mut Vec<u8>) -> io::Result<()> {
        move |out| server_frame_append(&ServerMsg::Ack { id }, out)
    }

    #[test]
    fn outbox_hands_frames_over_and_marks_deferred_as_not_last() {
        let outbox = Outbox::default();
        outbox.push(7, &ServerMsg::Deferred { id: 1 });
        outbox.push(7, &ServerMsg::Ack { id: 1 });
        let mut got = Vec::new();
        outbox.drain(&mut got);
        assert_eq!(got.len(), 2);
        assert!(!got[0].last && got[1].last);
        assert_eq!(got[1].frame.as_deref(), Some(&server_frame(&ServerMsg::Ack { id: 1 }).unwrap()[..]));
        got.clear();
        outbox.drain(&mut got);
        assert!(got.is_empty(), "drained once");
    }

    #[test]
    fn a_reply_larger_than_the_budget_sheds_once() {
        let (_client, served) = pair();
        let (mut io, net) = io(64);
        io.adopt(served);
        let token = WAKER_TOKEN.0 + 1;
        io.reply(token, false, |out| {
            out.extend_from_slice(&[0u8; 65]);
            Ok(())
        });
        assert!(io.conns.is_empty(), "the connection is gone");
        // Later replies for the dead token are skipped, not counted again.
        io.reply(token, true, ack(1));
        io.flush_replies();
        assert_eq!(net.snapshot().conns_shed, 1);
    }

    #[test]
    fn a_backlog_the_socket_refuses_sheds_but_a_reader_is_never_shed() {
        // The reader: replies worth many budgets in total, each written out
        // before the next turn, never shed.
        let (client, served) = pair();
        let (mut io, net) = io(256);
        io.adopt(served);
        let token = WAKER_TOKEN.0 + 1;
        let mut reader = std::io::BufReader::new(client);
        for id in 0..200 {
            io.reply(token, false, ack(id));
            io.flush_replies();
            let frame = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(decode_server(&frame).unwrap(), ServerMsg::Ack { id });
        }
        assert_eq!(net.snapshot().conns_shed, 0);

        // The client that never reads: once the kernel's buffers are full
        // the backlog grows past the budget and the connection is shed.
        let (_mute, served) = pair();
        io.adopt(served);
        let token = token + 1;
        let chunk = vec![0u8; 200];
        for _ in 0..1_000_000 {
            if !io.conns.contains_key(&token) {
                break;
            }
            io.reply(token, false, |out| {
                out.extend_from_slice(&chunk);
                Ok(())
            });
            io.flush_replies();
        }
        assert!(!io.conns.contains_key(&token), "a mute client must be shed");
        assert_eq!(net.snapshot().conns_shed, 1);
    }

    #[test]
    fn a_half_closed_connection_waits_for_the_reply_it_is_owed() {
        let (client, served) = pair();
        let (mut io, _net) = io(1024);
        io.adopt(served);
        let token = WAKER_TOKEN.0 + 1;
        // One frame, then the client closes its sending side.
        crate::wire::write_frame(&mut &client, b"x").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut events = Events::with_capacity(4);
        let mut frames = 0;
        for _ in 0..50 {
            io.wait(&mut events, Duration::from_millis(20)).unwrap();
            for ev in events.iter() {
                io.on_readable(ev.token().0, |_, lent, out, replied| {
                    assert_eq!(lent.next().expect("served while a frame is lent").unwrap(), b"x");
                    frames += 1;
                    assert_eq!(replied(out, 0, FrameReply::Owed), None);
                    Ok(1)
                });
                io.settle(ev.token().0);
            }
            if io.conns.get(&token).is_some_and(|c| c.read_closed) {
                break;
            }
        }
        assert_eq!(frames, 1);
        let conn = io.conns.get(&token).expect("kept open: a reply is owed");
        assert!(conn.interest.is_none(), "no read interest after the half-close");
        // The owed reply arrives, is written, and only then the connection ends.
        io.reply(token, true, ack(9));
        io.flush_replies();
        assert!(io.conns.is_empty());
        let mut reader = std::io::BufReader::new(client);
        let frame = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(decode_server(&frame).unwrap(), ServerMsg::Ack { id: 9 });
        assert!(read_frame(&mut reader).unwrap().is_none(), "then a clean EOF");
    }
}
