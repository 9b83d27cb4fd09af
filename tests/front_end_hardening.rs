//! Hardening tests for the TCP front-end: hostile frames, oversize payloads,
//! clients that stop reading their replies, and clients that half-close.

use doppel_service::wire::{
    decode_server, encode_client, encode_invoke_into, read_frame, write_frame, ClientMsg,
    ServerMsg, WireStmt,
};
use doppel_service::{
    kv_registry, FrontEnd, ReactorConfig, RemoteClient, RemoteTxn, Server, ServerEngine,
    ServiceConfig,
};
use doppel_common::{Args, Key, Value};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A one-core OCC server whose connections may hold `write_queue_bytes` of
/// unwritten replies (small, so shed behaviour is reachable in a test).
fn start_server(write_queue_bytes: usize) -> Server {
    let engine = ServerEngine::build("occ", 1, 20, 64).expect("known engine");
    let front_end = FrontEnd::Reactor(ReactorConfig { write_queue_bytes });
    Server::start_with(engine, ServiceConfig::default(), "127.0.0.1:0", front_end)
        .expect("bind server")
}

/// Polls `check` until it returns true or ~2s elapse.
fn eventually(mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// A hostile `Submit` whose statement count claims far more than the payload
/// holds must cost the sender its connection — and nothing else: the decoder
/// rejects it without reserving memory for the claimed count, and the server
/// keeps serving well-behaved clients.
#[test]
fn hostile_statement_count_drops_connection_but_server_survives() {
    let server = start_server(1 << 20);

    let mut evil = TcpStream::connect(server.local_addr()).expect("connect");
    // kind=Submit, id, then a statement count the 13-byte payload cannot
    // possibly hold.
    let mut payload = vec![0x01u8];
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    write_frame(&mut evil, &payload).expect("send hostile frame");
    evil.flush().expect("flush");

    // The server hangs up on the hostile connection...
    evil.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = [0u8; 64];
    match evil.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected hang-up, got {n} bytes"),
    }
    assert!(
        eventually(|| server.net_stats().decode_errors >= 1),
        "the protocol error should be counted"
    );

    // ...and keeps serving everyone else.
    let mut client = RemoteClient::connect(server.local_addr()).expect("connect");
    let outcome = client.execute(&RemoteTxn::new().add(Key::from(1u64), 1)).expect("execute");
    assert!(outcome.is_committed(), "server must stay up");
    server.shutdown();
}

/// A reply frame with a hostile length prefix or value count must surface in
/// the client as `InvalidData`, not as an allocation or a hang.
#[test]
fn hostile_server_reply_is_invalid_data_client_side() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Swallow the client's request frame (length prefix + payload).
        let mut len = [0u8; 4];
        conn.read_exact(&mut len).expect("read request header");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        conn.read_exact(&mut body).expect("read request body");
        // Reply with a Done whose value count claims ~2 billion entries.
        let mut payload = vec![0x81u8];
        payload.extend_from_slice(&1u64.to_le_bytes()); // request id
        payload.push(0); // status: committed
        payload.extend_from_slice(&7u64.to_le_bytes()); // tid
        payload.push(0); // not deferred
        payload.extend_from_slice(&0x7FFF_FFFFu32.to_le_bytes()); // value count
        write_frame(&mut conn, &payload).expect("send hostile reply");
        conn.flush().expect("flush");
    });

    let mut client = RemoteClient::connect(addr).expect("connect");
    let id = client.submit(&RemoteTxn::new().get(Key::from(1u64))).expect("submit");
    let err = client.wait(id).expect_err("hostile reply must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    fake.join().expect("fake server thread");
}

/// A request that cannot fit in one frame fails at the client with
/// `InvalidData` instead of being written (the old `debug_assert!` would
/// ship a corrupt frame in release builds).
#[test]
fn oversize_submit_fails_client_side_with_invalid_data() {
    let server = start_server(1 << 20);
    let mut client = RemoteClient::connect(server.local_addr()).expect("connect");
    let huge = Value::Bytes(bytes::Bytes::from(vec![0u8; 17 * 1024 * 1024]));
    let err = client
        .submit(&RemoteTxn::new().put(Key::from(1u64), huge))
        .expect_err("a 17MiB payload exceeds MAX_FRAME");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // The connection is still usable: nothing was written for the bad frame.
    let outcome = client.execute(&RemoteTxn::new().add(Key::from(1u64), 1)).expect("execute");
    assert!(outcome.is_committed());
    server.shutdown();
}

/// A client that submits but never reads its replies must be disconnected
/// once its bounded write buffer overflows — server memory stays bounded and
/// the shed is visible in the stats — while other clients keep working.
#[test]
fn slow_reader_is_shed_not_buffered_without_bound() {
    let server = start_server(1024);
    let big_key = Key::from(42u64);

    // Preload a value whose reply frame alone exceeds the write budget.
    let mut loader = RemoteClient::connect(server.local_addr()).expect("connect");
    let payload = Value::Bytes(bytes::Bytes::from(vec![0xCDu8; 64 * 1024]));
    assert!(loader.execute(&RemoteTxn::new().put(big_key, payload)).expect("preload").is_committed());

    // The slow reader: submit a read of the big value, never read the reply.
    let mut slow = TcpStream::connect(server.local_addr()).expect("connect");
    let msg = ClientMsg::Submit { id: 1, stmts: vec![WireStmt::Get(big_key)] };
    write_frame(&mut slow, &encode_client(&msg)).expect("submit");
    slow.flush().expect("flush");

    assert!(
        eventually(|| server.net_stats().conns_shed >= 1),
        "the overflowing connection must be shed"
    );
    drain_until_closed(&mut slow);

    // Unrelated clients are unaffected.
    let outcome = loader.execute(&RemoteTxn::new().add(Key::from(7u64), 1)).expect("execute");
    assert!(outcome.is_committed(), "healthy clients must keep working");
    server.shutdown();
}

/// Reads until EOF or a reset: a shed closes the socket, so this never hangs.
fn drain_until_closed(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Control replies are appended to the connection's write buffer by the core
/// that owns it, with no reply queue in between — the budget must bound that
/// buffer too. A client that pipelines `GetStats` (small frames, each well
/// under the budget) and never reads is shed once the socket stops taking
/// bytes, and counted exactly once.
#[test]
fn pipelined_get_stats_never_read_is_shed_once() {
    let server = start_server(16 * 1024);
    let mut mute = TcpStream::connect(server.local_addr()).expect("connect");
    mute.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    let frame = encode_client(&ClientMsg::GetStats { id: 1 });
    // Keep asking until the server hangs up (our writes start failing) or the
    // shed shows in the stats; the replies pile up in the kernel's buffers
    // first, then in the server's write buffer.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.net_stats().conns_shed == 0 && Instant::now() < deadline {
        for _ in 0..64 {
            if write_frame(&mut mute, &frame).is_err() {
                break;
            }
        }
    }
    assert!(eventually(|| server.net_stats().conns_shed >= 1), "a mute client must be shed");
    drain_until_closed(&mut mute);
    // The counter settles at one: closing is not counted again by later
    // events for the dead connection.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.net_stats().conns_shed, 1);

    let mut client = RemoteClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("server still serves");
    server.shutdown();
}

/// One core loop multiplexes many simultaneously-open connections.
#[test]
fn one_core_serves_many_concurrent_connections() {
    let server = start_server(1 << 20);
    let addr = server.local_addr();
    let mut clients: Vec<RemoteClient> =
        (0..32).map(|_| RemoteClient::connect(addr).expect("connect")).collect();
    // All connections submit before any waits: every socket has bytes in
    // flight through the single loop at once.
    let ids: Vec<u64> = clients
        .iter_mut()
        .enumerate()
        .map(|(i, c)| {
            c.submit(&RemoteTxn::new().add(Key::from(i as u64), 1)).expect("submit")
        })
        .collect();
    for (client, id) in clients.iter_mut().zip(ids) {
        assert!(client.wait(id).expect("wait").is_committed());
    }
    assert_eq!(server.net_stats().conns_accepted, 32);
    server.shutdown();
}

/// A client that half-closes after its last request still gets every reply:
/// the connection ends only once they are written.
#[test]
fn half_closed_connection_gets_its_replies_then_eof() {
    let server = start_server(1 << 20);
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    for id in 1..=3u64 {
        let msg = ClientMsg::Submit {
            id,
            stmts: vec![WireStmt::Write(Key::from(5u64), doppel_common::Op::Add(1))],
        };
        write_frame(&mut conn, &encode_client(&msg)).expect("submit");
    }
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = std::io::BufReader::new(conn);
    for id in 1..=3u64 {
        let frame = read_frame(&mut reader).expect("read").expect("a reply per request");
        match decode_server(&frame).expect("decode") {
            ServerMsg::Done(done) => {
                assert_eq!(done.id, id);
                assert!(done.result.is_ok());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(read_frame(&mut reader).expect("read").is_none(), "then a clean EOF");
    server.shutdown();
}

/// A read whose 101st frame is garbage: the hundred calls ahead of it were
/// served — several groups of them — and committed, so their replies are
/// written before the connection is closed for the protocol error; the calls
/// behind it never run.
#[test]
fn replies_ahead_of_a_malformed_frame_are_written_before_the_close() {
    const AHEAD: u64 = 100;
    const BEHIND: u64 = 40;
    let engine = ServerEngine::build("occ", 1, 20, 64).expect("known engine").with_procs(kv_registry());
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut read = Vec::new();
    let mut payload = Vec::new();
    for id in 1..=AHEAD + BEHIND {
        if id == AHEAD + 1 {
            write_frame(&mut read, &[0xFF, 1, 2]).unwrap();
        }
        encode_invoke_into(id, "kv.add", &Args::new().key(Key::raw(5)).int(1), &mut payload);
        write_frame(&mut read, &payload).unwrap();
    }
    conn.write_all(&read).expect("one write");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = std::io::BufReader::new(conn);
    for id in 1..=AHEAD {
        let frame = read_frame(&mut reader).expect("read").expect("a reply per call served");
        match decode_server(&frame).expect("decode") {
            ServerMsg::Done(done) => assert_eq!((done.id, done.result.is_ok()), (id, true)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(read_frame(&mut reader).expect("read").is_none(), "then the connection ends");
    assert_eq!(server.net_stats().decode_errors, 1);
    let stored = server.service().engine().global_get(Key::raw(5));
    assert_eq!(stored, Some(Value::Int(AHEAD as i64)), "exactly the calls ahead of it took effect");
    server.shutdown();
}
