//! What the two single-server TCP workloads share: a server built as
//! `doppel-server` builds it, one `RemoteClient` per benchmark thread, a
//! closed loop of pipelined `InvokeProc` batches, and the serial probes.

use crate::layers::{self, hist_delta, Layers};
use crate::measure::{AllocWindow, ClientReport, SliceClock, Span, STOP};
use crate::sys;
use doppel_common::{Args, Engine, ProcRegistry, ProcResult, Procedure};
use doppel_db::DoppelDb;
use doppel_service::wire::{ClientMsg, ServerMsg, WireDone};
use doppel_service::{
    FrontEnd, ReactorConfig, RemoteClient, RemoteOutcome, Server, ServerEngine, ServiceConfig,
    TelemetrySnapshot,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Serial probe length (pings, in-process calls, one-in-flight calls).
pub const PROBE_CALLS: usize = 2_000;

pub type Pool = Vec<(&'static str, Args)>;

pub struct Fixture {
    pub server: Server,
    pub engine: Arc<dyn Engine>,
    pub doppel: Arc<DoppelDb>,
    pub registry: Arc<ProcRegistry>,
    /// One connection per client thread; each thread takes its own.
    pub clients: Vec<Option<RemoteClient>>,
}

pub fn server_config() -> String {
    format!(
        "ServerEngine::build(\"doppel\", {WORKERS}, 20, 1024).with_adaptive(true), {:?}, FrontEnd::Reactor({:?}), 127.0.0.1:0",
        ServiceConfig::default(),
        ReactorConfig::default()
    )
}

/// Builds the engine, lets `preload` fill it, starts the server, connects
/// the clients and commits `first` — everything `setup_s` covers.
pub fn setup(
    registry: Arc<ProcRegistry>,
    preload: impl FnOnce(&dyn Engine),
    first: &(&'static str, Args),
) -> Result<Fixture, String> {
    let built = ServerEngine::build("doppel", WORKERS, 20, 1024)
        .expect("doppel is a known engine")
        .with_adaptive(true)
        .with_procs(Arc::clone(&registry));
    let engine = Arc::clone(&built.engine);
    let doppel = Arc::clone(built.doppel.as_ref().expect("a doppel engine"));
    preload(engine.as_ref());
    let server = Server::start_with(
        built,
        ServiceConfig::default(),
        "127.0.0.1:0",
        FrontEnd::Reactor(ReactorConfig::default()),
    )
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Some(
            RemoteClient::connect(server.local_addr())
                .map_err(|e| format!("cannot connect: {e}"))?,
        ));
    }
    let outcome = clients[0]
        .as_mut()
        .expect("just connected")
        .call(first.0, first.1.clone())
        .map_err(|e| format!("first call: {e}"))?;
    if !outcome.is_committed() {
        return Err(format!("the first call did not commit: {outcome:?}"));
    }
    Ok(Fixture {
        server,
        engine,
        doppel,
        registry,
        clients,
    })
}

pub fn discard(fixture: Fixture) {
    drop(fixture.clients);
    fixture.server.shutdown();
}

pub fn stats(fixture: &Fixture) -> TelemetrySnapshot {
    fixture.server.telemetry_snapshot()
}

/// The closed loop of one client thread: `depth` calls per `submit_batch`,
/// then every reply awaited. A call that aborts retryably or is rejected by
/// backpressure goes out again with the next batch; its latency runs from
/// its first submission.
fn client_loop(
    mut client: RemoteClient,
    pool: &[(&'static str, Args)],
    depth: usize,
    clock: &SliceClock,
    slices: usize,
    validate: fn(&str, Option<&ProcResult>) -> bool,
) -> Result<ClientReport, String> {
    assert!(
        pool.len().is_multiple_of(depth),
        "the pool holds whole batches"
    );
    let mut report = ClientReport::new(slices, 1 << 19);
    // (pool index, first submission, position in this client's sequence)
    let mut retry: Vec<(usize, Instant, u64)> = Vec::new();
    let mut retry_batch: Vec<(&str, Args)> = Vec::new();
    let origin = Instant::now();
    let mut allocs = AllocWindow::default();
    let mut cursor = 0usize;
    let mut batch_id = 0u32;
    let io = |e: std::io::Error| format!("client I/O: {e}");

    loop {
        let slice = clock.now();
        let stopping = slice == STOP;
        if stopping && retry.is_empty() {
            break;
        }
        let traced = clock.traced();
        allocs.observe(slice, traced, &mut report);
        // A batch is either the next `depth` pool entries or the calls that
        // have to go out again.
        let retried = std::mem::take(&mut retry);
        let (base, base_seq) = (cursor, report.issued);
        let calls: &[(&str, Args)] = if retried.is_empty() {
            cursor = (cursor + depth) % pool.len();
            report.attempted += depth as u64;
            report.issued += depth as u64;
            &pool[base..base + depth]
        } else {
            retry_batch.clear();
            retry_batch.extend(
                retried
                    .iter()
                    .map(|(ix, ..)| (pool[*ix].0, pool[*ix].1.clone())),
            );
            &retry_batch
        };

        let t0 = Instant::now();
        let ids = client.submit_batch(calls).map_err(io)?;
        let t1 = Instant::now();
        for (j, id) in ids.iter().enumerate() {
            let outcome = client.wait(*id).map_err(io)?;
            let done = Instant::now();
            let (ix, first_sent, seq) = if retried.is_empty() {
                (base + j, t0, base_seq + j as u64)
            } else {
                retried[j]
            };
            match outcome {
                RemoteOutcome::Committed {
                    proc_result,
                    deferred,
                    ..
                } => {
                    if !validate(pool[ix].0, proc_result.as_ref()) {
                        report.check_failures += 1;
                    }
                    let ns = done.duration_since(first_sent).as_nanos() as u64;
                    if traced && deferred {
                        report.stash_wait_ns.push(ns.min(u32::MAX as u64) as u32);
                    }
                    report.commit(clock.now(), Some(ns));
                }
                RemoteOutcome::Aborted { code, .. } if code.is_retryable() => {
                    report.failed += u64::from(retried.is_empty());
                    retry.push((ix, first_sent, seq));
                }
                RemoteOutcome::Rejected { busy: true } => {
                    report.failed += u64::from(retried.is_empty());
                    retry.push((ix, first_sent, seq));
                }
                _ => {
                    report.failed += u64::from(retried.is_empty());
                    report.never_committed.push(seq);
                }
            }
        }
        if traced {
            let t2 = Instant::now();
            report.submit_s += t1.duration_since(t0).as_secs_f64();
            report.wait_s += t2.duration_since(t1).as_secs_f64();
            report.batch_s += t2.duration_since(t0).as_secs_f64();
            report.traced_txns += ids.len() as u64;
            batch_id += 1;
            let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
            report.span(Span {
                name: "batch",
                parent: 0,
                id: batch_id * 4,
                start_ns: ns(t0),
                end_ns: ns(t2),
            });
            report.span(Span {
                name: "submit_batch",
                parent: batch_id * 4,
                id: batch_id * 4 + 1,
                start_ns: ns(t0),
                end_ns: ns(t1),
            });
            report.span(Span {
                name: "wait_all",
                parent: batch_id * 4,
                id: batch_id * 4 + 2,
                start_ns: ns(t1),
                end_ns: ns(t2),
            });
        }
    }
    allocs.finish(&mut report);
    Ok(report)
}

pub fn spawn_clients(
    fixture: &mut Fixture,
    pools: impl Fn(usize) -> Arc<Pool>,
    depth: usize,
    clock: &Arc<SliceClock>,
    slices: usize,
    validate: fn(&str, Option<&ProcResult>) -> bool,
) -> Vec<JoinHandle<Result<ClientReport, String>>> {
    (0..CLIENTS)
        .map(|t| {
            let client = fixture.clients[t]
                .take()
                .expect("a connected client per thread");
            let (pool, clock) = (pools(t), Arc::clone(clock));
            std::thread::Builder::new()
                .name(format!("bench-client-{t}"))
                .spawn(move || client_loop(client, &pool, depth, &clock, slices, validate))
                .expect("spawn client thread")
        })
        .collect()
}

/// Serial probes on a connection of their own, continuing client 0's walk
/// through its pool: `reactor.ping_rtt_p50_us` (wire + reactor only),
/// `service.inproc_rtt_p50_us` (queue + engine, no sockets) and `rtt.p50_us`
/// (one call in flight over TCP), with the queue-wait and exec medians of
/// exactly those calls for the sum check.
pub fn probes(
    fixture: &mut Fixture,
    pool: &[(&'static str, Args)],
    report: &mut ClientReport,
    layers: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("probe I/O: {e}");
    let mut client = RemoteClient::connect(fixture.server.local_addr()).map_err(io)?;
    let elapsed_ns = |t: Instant| t.elapsed().as_nanos().min(u32::MAX as u128) as u32;

    let mut samples = Vec::with_capacity(PROBE_CALLS);
    for _ in 0..PROBE_CALLS {
        let t = Instant::now();
        client.ping().map_err(io)?;
        samples.push(elapsed_ns(t));
    }
    layers.set("reactor.ping_rtt_p50_us", sys::p50_us(&mut samples));

    // In-process: the same calls through `ServiceClient::execute`.
    let mut inproc = fixture.server.service().client();
    let next = |report: &mut ClientReport| {
        let ix = (report.issued % pool.len() as u64) as usize;
        report.issued += 1;
        report.attempted += 1;
        &pool[ix]
    };
    samples.clear();
    for _ in 0..PROBE_CALLS {
        let (name, args) = next(report);
        let call = fixture
            .registry
            .call_by_name(name, args.clone())
            .ok_or("probe call is not registered")?;
        let t = Instant::now();
        inproc
            .execute(call as Arc<dyn Procedure>)
            .map_err(|e| format!("in-process probe call aborted: {e:?}"))?;
        samples.push(elapsed_ns(t));
    }
    layers.set("service.inproc_rtt_p50_us", sys::p50_us(&mut samples));

    let before = fixture.server.telemetry_snapshot();
    samples.clear();
    for _ in 0..PROBE_CALLS {
        let (name, args) = next(report);
        let t = Instant::now();
        let outcome = client.call(name, args.clone()).map_err(io)?;
        samples.push(elapsed_ns(t));
        if !outcome.is_committed() {
            return Err(format!("serial probe call did not commit: {outcome:?}"));
        }
    }
    layers.set("rtt.p50_us", sys::p50_us(&mut samples));
    let after = fixture.server.telemetry_snapshot();
    let p50 = |name: &str| {
        hist_delta(&before, &after, name).map_or(0.0, |h| h.quantile_ns(0.5) as f64 / 1e3)
    };
    layers.set_probe_parts(p50("queue_wait"), p50("exec"));
    Ok(())
}

/// The `procs` and `wire` walks: the first calls of pool 0 through the
/// registry on one handle of a fresh, preloaded engine, then those calls and
/// the replies they produced through the codec.
pub fn walks(
    layers: &mut Layers,
    pool: &[(&'static str, Args)],
    registry: &Arc<ProcRegistry>,
    preload: impl FnOnce(&dyn Engine),
    ns_name: &'static str,
    allocs_name: &'static str,
) {
    let engine = DoppelDb::new(doppel_common::DoppelConfig {
        workers: 1,
        store_shards: 1024,
        ..Default::default()
    });
    preload(&engine);
    let calls = &pool[..pool.len().min(layers::WALK_ITERS)];
    let (ns, allocs, results) = layers::walk_procs(&engine, registry, calls);
    layers.set(ns_name, ns);
    layers.set(allocs_name, allocs);

    let wire_calls: Vec<ClientMsg> = calls
        .iter()
        .take(results.len())
        .enumerate()
        .map(|(i, (name, args))| ClientMsg::InvokeProc {
            id: i as u64 + 1,
            proc: name.to_string(),
            args: args.clone(),
        })
        .collect();
    let replies: Vec<ServerMsg> = results
        .into_iter()
        .enumerate()
        .map(|(i, proc_result)| {
            ServerMsg::Done(WireDone {
                id: i as u64 + 1,
                result: Ok(i as u64 + 1),
                deferred: false,
                values: Vec::new(),
                proc_result,
            })
        })
        .collect();
    layers::walk_wire(layers, &wire_calls, &replies);
    layers::walk_queue(layers);
    layers::walk_doppel(layers);
}
