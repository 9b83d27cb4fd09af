//! End-to-end tests of the TCP front-end: a real `Server` on an ephemeral
//! localhost port driven through `RemoteClient` over actual sockets —
//! raw statement lists (`Submit`) and registered procedures (`InvokeProc`).

use doppel_common::{Args, Key, Op, Value};
use doppel_rubis::procs::args as rubis_args;
use doppel_rubis::{rubis_registry, RubisData, RubisScale, TxnStyle};
use doppel_common::ProcedureFn;
use doppel_service::wire::{decode_server, encode_invoke_into, read_frame, write_frame};
use doppel_service::{
    kv_registry, RemoteClient, RemoteOutcome, RemoteTxn, Server, ServerEngine, ServerMsg,
    ServiceConfig, WireAbort,
};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(engine: &str, workers: usize, phase_ms: u64) -> Server {
    let engine = ServerEngine::build(engine, workers, phase_ms, 256).expect("known engine");
    Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind ephemeral port")
}

#[test]
fn occ_roundtrip_over_tcp() {
    let server = start_server("occ", 2, 20);
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    // Create, increment, read back — all through the wire.
    let put = RemoteTxn::new().put(Key::raw(1), Value::Int(10));
    assert!(client.execute(&put).unwrap().is_committed());
    for _ in 0..5 {
        let incr = RemoteTxn::new().add(Key::raw(1), 7);
        assert!(client.execute(&incr).unwrap().is_committed());
    }
    let read = RemoteTxn::new().get(Key::raw(1)).get(Key::raw(999));
    match client.execute(&read).unwrap() {
        RemoteOutcome::Committed { values, .. } => {
            assert_eq!(values, vec![Some(Value::Int(45)), None]);
        }
        other => panic!("read failed: {other:?}"),
    }
    // The server-side store agrees.
    assert_eq!(server.service().engine().global_get(Key::raw(1)), Some(Value::Int(45)));
    server.shutdown();
}

#[test]
fn doppel_split_increments_and_stash_deferred_reads_over_tcp() {
    // The acceptance scenario: a doppel-server serving a client that commits
    // splittable increments, reads them back after a phase transition, and
    // observes stash-deferred completions replayed correctly.
    let server = start_server("doppel", 2, 5);
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();

    let key = Key::raw(42);
    client.label_split(key, Op::Add(0)).unwrap();

    // Commit splittable increments; during split phases these go to
    // per-core slices.
    let mut committed = 0i64;
    for _ in 0..60 {
        match client.execute(&RemoteTxn::new().add(key, 1)).unwrap() {
            RemoteOutcome::Committed { .. } => committed += 1,
            RemoteOutcome::Aborted { code, .. } => panic!("increment aborted: {code:?}"),
            RemoteOutcome::Rejected { .. } => panic!("increment rejected"),
        }
    }
    assert_eq!(committed, 60);

    // Read the counter back. The client is synchronous, so every increment
    // completed before this read: whether the read lands in a joined phase
    // (post-reconciliation) or a split phase (stash-deferred, replayed after
    // the next reconciliation), it must observe the full count.
    let mut observed_deferred = false;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let id = client.submit(&RemoteTxn::new().get(key)).unwrap();
        match client.wait(id).unwrap() {
            RemoteOutcome::Committed { values, deferred, .. } => {
                assert_eq!(
                    values,
                    vec![Some(Value::Int(committed))],
                    "a committed read must see every committed increment"
                );
                assert_eq!(deferred, client.was_deferred(id));
                observed_deferred |= deferred;
                // Stop once the run has demonstrated both halves of the
                // split-phase machinery: a stash-deferred read and
                // slice-absorbed increments.
                if observed_deferred && server.service().stats().slice_ops > 0 {
                    break;
                }
            }
            other => panic!("read failed: {other:?}"),
        }
        if Instant::now() >= deadline {
            break;
        }
        // Keep the key hot so it stays split, then probe again: sooner or
        // later a read lands inside a split phase and gets stashed. Under a
        // loaded machine a split phase can pass with zero writes, which
        // unsplits the key (classifier rule 1) — re-assert the label so the
        // machinery cannot go quiet for the rest of the test.
        client.label_split(key, Op::Add(0)).unwrap();
        for _ in 0..4 {
            match client.execute(&RemoteTxn::new().add(key, 1)).unwrap() {
                RemoteOutcome::Committed { .. } => committed += 1,
                other => panic!("increment failed: {other:?}"),
            }
        }
    }
    assert!(
        observed_deferred,
        "no read was stash-deferred within the deadline (split phases never hit a read?)"
    );

    // The server's engine saw real split-phase traffic.
    let stats = server.service().stats();
    assert!(stats.slice_ops > 0, "increments should have used per-core slices");
    assert!(stats.stashes > 0, "the deferred read was stashed");
    server.shutdown();
    assert_eq!(
        server.service().engine().global_get(key),
        Some(Value::Int(committed)),
        "drain must reconcile every slice"
    );
}

#[test]
fn kv_procs_and_unknown_names_over_tcp() {
    let engine = ServerEngine::build("occ", 2, 20, 256).unwrap().with_procs(kv_registry());
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();

    // Typed invocations: put, add, then a get whose result comes back as a
    // ProcResult.
    let put = client
        .call("kv.put", Args::new().key(Key::raw(9)).value(Value::Int(5)))
        .unwrap();
    assert!(put.is_committed());
    for _ in 0..3 {
        assert!(client.call("kv.add", Args::new().key(Key::raw(9)).int(2)).unwrap().is_committed());
    }
    let get = client.call("kv.get", Args::new().key(Key::raw(9))).unwrap();
    let result = get.proc_result().expect("kv.get returns a result");
    assert_eq!(result.get_value(0).unwrap(), Value::Int(11));

    // Unknown names and malformed argument vectors abort with typed codes.
    match client.call("kv.not_registered", Args::new()).unwrap() {
        RemoteOutcome::Aborted { code: WireAbort::UnknownProc, .. } => {}
        other => panic!("expected UnknownProc, got {other:?}"),
    }
    match client.call("kv.add", Args::new().key(Key::raw(9))).unwrap() {
        RemoteOutcome::Aborted { code: WireAbort::UserAbort, .. } => {}
        other => panic!("expected a UserAbort for missing args, got {other:?}"),
    }

    // Raw statement lists keep working next to procedures on one connection.
    match client.execute(&RemoteTxn::new().get(Key::raw(9))).unwrap() {
        RemoteOutcome::Committed { values, .. } => assert_eq!(values, vec![Some(Value::Int(11))]),
        other => panic!("raw Submit failed: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn rubis_bidding_mix_over_tcp_with_pipelined_batches() {
    // The acceptance scenario: RUBiS bids run end-to-end over TCP via
    // InvokeProc (read-dependent StoreBid logic cannot ship as a raw
    // statement list), pipelined with submit_batch, with per-procedure
    // statistics maintained server-side.
    let registry = rubis_registry();
    let engine =
        ServerEngine::build("doppel", 2, 5, 256).unwrap().with_procs(Arc::clone(&registry));
    RubisData::new(RubisScale::small()).load(engine.engine.as_ref());
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();

    let item = 3u64;
    let before = client.call("rubis.view_item", rubis_args::view_item(item)).unwrap();
    let before = before.proc_result().expect("aggregates").clone();
    let (start_max, start_bids) = (before.get_int(0).unwrap(), before.get_int(1).unwrap());

    // Pipeline a window of bids; retry the retryable aborts (concurrent
    // workers validating against hot auction metadata).
    let calls: Vec<(&str, Args)> = (0..30)
        .map(|i| {
            (
                "rubis.store_bid",
                rubis_args::store_bid(
                    (1 << 41) | i as u64,
                    i as u64 % 10,
                    item,
                    start_max + 1 + i as i64,
                    i as i64,
                    TxnStyle::Doppel,
                ),
            )
        })
        .collect();
    let ids = client.submit_batch(&calls).unwrap();
    assert_eq!(ids.len(), calls.len());
    let mut committed = 0i64;
    let mut retry = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        match client.wait(*id).unwrap() {
            RemoteOutcome::Committed { .. } => committed += 1,
            RemoteOutcome::Aborted { code, .. } if code.is_retryable() => retry.push(i),
            other => panic!("bid failed: {other:?}"),
        }
    }
    for i in retry {
        let (name, args) = &calls[i];
        loop {
            match client.call(name, args.clone()).unwrap() {
                RemoteOutcome::Committed { .. } => break,
                RemoteOutcome::Aborted { code, .. } if code.is_retryable() => continue,
                other => panic!("bid retry failed: {other:?}"),
            }
        }
        committed += 1;
    }
    assert_eq!(committed, 30);

    // The aggregates reflect every committed bid, read through the
    // procedure path.
    let after = client.call("rubis.view_item", rubis_args::view_item(item)).unwrap();
    let after = after.proc_result().expect("aggregates").clone();
    assert_eq!(after.get_int(1).unwrap() - start_bids, committed);
    assert_eq!(after.get_int(0).unwrap(), start_max + 30);

    server.shutdown();
    // Per-procedure statistics were maintained by the server's dispatch.
    let stats = registry.stats();
    let bids = stats.iter().find(|s| s.name == "rubis.store_bid").unwrap();
    assert!(bids.commits >= 30, "expected ≥30 committed bids, saw {}", bids.commits);
    let views = stats.iter().find(|s| s.name == "rubis.view_item").unwrap();
    assert_eq!(views.commits, 2);
}

#[test]
fn rejections_after_shutdown_and_multiple_clients() {
    let server = start_server("atomic", 2, 20);
    let addr = server.local_addr();

    // Two concurrent clients share the service.
    let mut a = RemoteClient::connect(addr).unwrap();
    let mut b = RemoteClient::connect(addr).unwrap();
    for _ in 0..10 {
        assert!(a.execute(&RemoteTxn::new().add(Key::raw(5), 1)).unwrap().is_committed());
        assert!(b.execute(&RemoteTxn::new().add(Key::raw(5), 1)).unwrap().is_committed());
    }
    match a.execute(&RemoteTxn::new().get(Key::raw(5))).unwrap() {
        RemoteOutcome::Committed { values, .. } => assert_eq!(values, vec![Some(Value::Int(20))]),
        other => panic!("read failed: {other:?}"),
    }

    server.shutdown();
    // After shutdown the connection is closed (EOF) or submissions bounce
    // with a non-busy rejection; either way no hang and no commit.
    let result = a.execute(&RemoteTxn::new().add(Key::raw(5), 1));
    match result {
        Err(_) => {}
        Ok(RemoteOutcome::Rejected { busy }) => assert!(!busy),
        Ok(RemoteOutcome::Aborted { .. }) => {}
        Ok(RemoteOutcome::Committed { .. }) => panic!("commit after shutdown"),
    }
}

#[test]
fn one_connection_pipelining_2000_calls_gets_2000_replies() {
    // One connection lives on one core of a two-core server; everything it
    // pipelines is read, executed and answered by that core, in order, with
    // no queue whose depth a burst could overrun.
    const CALLS: usize = 2_000;
    const KEYS: u64 = 16;
    let engine = ServerEngine::build("occ", 2, 20, 256).unwrap().with_procs(kv_registry());
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();
    let calls: Vec<(&str, Args)> = (0..CALLS as u64)
        .map(|i| ("kv.add", Args::new().key(Key::raw(i % KEYS)).int(1 + (i % 3) as i64)))
        .collect();
    let ids = client.submit_batch(&calls).unwrap();
    assert_eq!(ids.len(), CALLS);
    for id in ids.iter().map(|id| *id) {
        match client.wait(id).unwrap() {
            RemoteOutcome::Committed { deferred: false, .. } => {}
            other => panic!("call {id} did not simply commit: {other:?}"),
        }
    }
    let expected: i64 = (0..CALLS as i64).map(|i| 1 + i % 3).sum();
    let stored: i64 = (0..KEYS)
        .map(|k| server.service().engine().global_get(Key::raw(k)).unwrap().as_int().unwrap())
        .sum();
    assert_eq!(stored, expected, "the store sums every committed delta");
    // The counters are folded in when a loop turn ends, which may be after
    // the turn's replies have reached the client: read them after the drain.
    server.shutdown();
    let stats = server.service().stats();
    assert_eq!(stats.queue_busy_rejections, 0, "no socket request can be rejected busy");
    assert!(stats.queue_enqueued >= CALLS as u64, "served frames are counted as executed");
    assert!(stats.queue_batches < stats.queue_enqueued, "a pipelined burst is served in batches");
}

#[test]
fn deferred_precedes_done_on_the_wire_while_the_other_core_keeps_the_key_hot() {
    // Connections are assigned round-robin in accept order: `reader` (raw
    // socket, so the frame order is visible) lands on core 0, `writer` on
    // core 1. The writer keeps the labelled key hot from its core while the
    // reader's `kv.get` is stashed, replayed and answered by core 0 alone.
    let engine = ServerEngine::build("doppel", 2, 5, 256).unwrap().with_procs(kv_registry());
    let server = Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").unwrap();
    let reader = TcpStream::connect(server.local_addr()).unwrap();
    reader.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // `write_frame` writes the prefix and the payload separately; without
    // this, Nagle and the delayed ACK hold the payload back for 40 ms.
    reader.set_nodelay(true).unwrap();
    let mut frames = std::io::BufReader::new(reader.try_clone().unwrap());
    // A round trip on the first connection before the second connects, so
    // the accept order (and with it the core assignment) is fixed.
    let mut payload = Vec::new();
    encode_invoke_into(1, "kv.put", &Args::new().key(Key::raw(42)).value(Value::Int(0)), &mut payload);
    write_frame(&mut &reader, &payload).unwrap();
    assert!(matches!(
        decode_server(&read_frame(&mut frames).unwrap().unwrap()).unwrap(),
        ServerMsg::Done(done) if done.id == 1 && done.result.is_ok()
    ));
    let mut writer = RemoteClient::connect(server.local_addr()).unwrap();

    let key = Key::raw(42);
    let mut committed = 0i64;
    let mut next_id = 1u64;
    let mut observed = false;
    let deadline = Instant::now() + Duration::from_secs(60);
    // Until both halves have shown: a stash-deferred read on core 0 and
    // slice-absorbed adds on core 1 (a read can be stashed in a split phase
    // whose adds all landed in the joined phase before it).
    while !(observed && server.service().stats().slice_ops > 0) && Instant::now() < deadline {
        // Re-assert the label each round: a split phase that saw no write
        // unsplits the key (classifier rule 1).
        writer.label_split(key, Op::Add(0)).unwrap();
        for _ in 0..8 {
            assert!(writer.call("kv.add", Args::new().key(key).int(1)).unwrap().is_committed());
            committed += 1;
        }
        next_id += 1;
        encode_invoke_into(next_id, "kv.get", &Args::new().key(key), &mut payload);
        write_frame(&mut &reader, &payload).unwrap();
        let mut deferred_first = false;
        loop {
            match decode_server(&read_frame(&mut frames).unwrap().expect("a reply")).unwrap() {
                ServerMsg::Deferred { id } => {
                    assert_eq!(id, next_id);
                    deferred_first = true;
                }
                ServerMsg::Done(done) => {
                    assert_eq!(done.id, next_id);
                    assert!(done.result.is_ok(), "the read must commit: {:?}", done.result);
                    assert_eq!(done.deferred, deferred_first, "Deferred precedes its Done");
                    // Every add completed before the read was sent.
                    let seen = done.proc_result.unwrap().get_value(0).unwrap().as_int().unwrap();
                    assert_eq!(seen, committed);
                    observed |= done.deferred;
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    assert!(observed, "no read was stash-deferred within the deadline");
    assert!(server.service().stats().slice_ops > 0, "the other core's adds used its slice");
    server.shutdown();
    assert_eq!(server.service().engine().global_get(key), Some(Value::Int(committed)));
}

#[test]
fn parked_loops_wake_for_sockets_in_process_clients_and_shutdown() {
    // A 30 s idle poll parks every loop in `epoll_wait` for good; whatever
    // happens below happens because something woke a loop.
    let engine = ServerEngine::build("occ", 2, 20, 256).unwrap().with_procs(kv_registry());
    let config = ServiceConfig { idle_poll: Duration::from_secs(30), ..ServiceConfig::default() };
    let server = Server::start(engine, config, "127.0.0.1:0").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();

    // A new connection (inbox + waker), then its frames (socket readiness).
    let mut remote = RemoteClient::connect(server.local_addr()).unwrap();
    remote.ping().unwrap();
    assert!(remote.call("kv.add", Args::new().key(Key::raw(1)).int(5)).unwrap().is_committed());

    // An in-process client has no socket: queue push + waker, on both cores.
    let mut inproc = server.service().client();
    for _ in 0..4 {
        let add = ProcedureFn::new("incr", |tx| tx.add(Key::raw(1), 1));
        assert!(inproc.execute(Arc::new(add)).is_ok());
    }

    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(10), "nothing waited for the idle poll");
    assert_eq!(server.service().engine().global_get(Key::raw(1)), Some(Value::Int(9)));
}
