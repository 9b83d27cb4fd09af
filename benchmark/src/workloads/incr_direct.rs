//! `incr_direct`: the paper's own harness shape. Two threads each own a
//! `TxHandle` of one `DoppelDb` and call `execute` in a closed loop; no
//! queues, no sockets. Eight hot keys carry oracle split labels, so the
//! regime (split phases, slices, stash and replay) does not depend on how
//! often two threads happen to collide on two cores.

use crate::layers::{self, Layers};
use crate::measure::{AllocWindow, ClientReport, SliceClock, Span, STOP};
use crate::run::{Generated, Workload};
use crate::sys::{InputHash, Rng};
use doppel_common::{
    DoppelConfig, Engine, Key, OpKind, Outcome, Procedure, ProcedureFn, TxHandle, Value,
};
use doppel_db::DoppelDb;
use doppel_service::TelemetrySnapshot;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
pub const KEYS: u64 = 1_000_000;
pub const HOT_KEYS: u64 = 8;
/// Calls per thread; the pool wraps (adds commute, so the check stays exact).
pub const POOL: usize = 1 << 20;
/// Per cent of calls: add on a hot key / get of a hot key / add on a cold key.
pub const MIX: (u64, u64, u64) = (78, 2, 20);
/// One call in this many is timed for the latency metrics.
pub const LATENCY_SAMPLE: u64 = 64;

/// One generated call. The `Arc<dyn Procedure>` that `TxHandle::execute`
/// takes is built from it at submit time — one allocation per call, as any
/// caller of that interface pays. With pooled procedures `allocs_per_txn`
/// would be ~0.0007: a per-phase count divided by a throughput, which spreads
/// as the throughput does and cannot meet a 3 % bound (README "What was
/// tried"). The check prints the engine's own count, exactly.
#[derive(Clone, Copy)]
pub struct Call {
    key: u32,
    /// 0 for a `get`.
    delta: i32,
}

impl Call {
    fn procedure(self) -> Arc<dyn Procedure> {
        let (k, delta) = (Key::raw(self.key as u64), self.delta as i64);
        if delta == 0 {
            Arc::new(ProcedureFn::read_only("get", move |tx| {
                tx.get(k).map(|_| ())
            }))
        } else {
            Arc::new(ProcedureFn::new("add", move |tx| tx.add(k, delta)))
        }
    }
}

pub struct Input {
    pools: Vec<Vec<Call>>,
}

pub struct Fixture {
    db: Arc<DoppelDb>,
    handles: Vec<Option<Box<dyn TxHandle>>>,
}

pub struct IncrDirect;

fn engine_config() -> DoppelConfig {
    // As `ServerEngine::build("doppel", workers, 20, 1024)` configures it.
    DoppelConfig {
        workers: WORKERS,
        store_shards: 1024,
        phase_len: Duration::from_millis(20),
        ..DoppelConfig::default()
    }
}

fn generate_pool(rng: &mut Rng, hash: &mut InputHash) -> Vec<Call> {
    (0..POOL)
        .map(|_| {
            let roll = rng.below(100);
            let (key, delta) = if roll < MIX.0 {
                (rng.below(HOT_KEYS), 1 + rng.below(9) as i32)
            } else if roll < MIX.0 + MIX.1 {
                (rng.below(HOT_KEYS), 0)
            } else {
                (
                    HOT_KEYS + rng.below(KEYS - HOT_KEYS),
                    1 + rng.below(9) as i32,
                )
            };
            hash.feed(key << 8 | delta as u64);
            Call {
                key: key as u32,
                delta,
            }
        })
        .collect()
}

/// A call on its way to a commit: when it was first issued (if it is timed),
/// whether its latency goes into the end-to-end sample, and whether its first
/// attempt has already been counted as failed.
#[derive(Clone, Copy)]
struct InFlight {
    idx: u32,
    seq: u64,
    started: Option<Instant>,
    sampled: bool,
    retried: bool,
}

struct Client<'a> {
    handle: Box<dyn TxHandle>,
    pool: &'a [Call],
    clock: &'a SliceClock,
    report: ClientReport,
    /// Stashed calls by ticket, waiting for the next joined phase.
    stashed: HashMap<u64, InFlight>,
    origin: Instant,
    /// Inside the allocation window: the procedures built and the commits
    /// counted there end up in `report.extra`.
    counting: bool,
    built: u64,
    commits: u64,
}

impl Client<'_> {
    /// Counts the call as failed unless an earlier attempt already was.
    fn attempt_failed(&mut self, call: &mut InFlight) {
        self.report.failed += u64::from(!call.retried);
        call.retried = true;
    }

    /// Executes one call until it commits or is stashed; a retryable abort
    /// (an OCC conflict in a joined phase) is retried on the spot.
    fn settle(&mut self, mut call: InFlight) {
        let procedure = self.pool[call.idx as usize].procedure();
        self.built += u64::from(self.counting);
        loop {
            match self.handle.execute(Arc::clone(&procedure)) {
                Outcome::Committed(_) => return self.committed(call, false),
                Outcome::Stashed(ticket) => {
                    self.stashed.insert(ticket.0, call);
                    return;
                }
                Outcome::Aborted(e) => {
                    self.attempt_failed(&mut call);
                    if !e.is_retryable() {
                        self.report.never_committed.push(call.seq);
                        return;
                    }
                }
            }
        }
    }

    /// `replayed`: the commit is a stashed call's, long after its `execute`
    /// returned, so its time is a latency but not time spent in the call.
    fn committed(&mut self, call: InFlight, replayed: bool) {
        self.commits += u64::from(self.counting);
        let ns = call.started.map(|t| t.elapsed().as_nanos() as u64);
        self.report
            .commit(self.clock.now(), if call.sampled { ns } else { None });
        if let (true, false, Some(t), Some(ns)) = (self.clock.traced(), replayed, call.started, ns)
        {
            self.report.submit_s += ns as f64 / 1e9;
            self.report.batch_s += ns as f64 / 1e9;
            self.report.traced_txns += 1;
            if call.sampled {
                let start_ns = t.duration_since(self.origin).as_nanos() as u64;
                self.report.span(Span {
                    name: "execute",
                    parent: 0,
                    id: call.seq as u32,
                    start_ns,
                    end_ns: start_ns + ns,
                });
            }
        }
    }

    /// Collects the completions of replayed stashed calls. A replay that ran
    /// out of the engine's own retries goes round again.
    fn drain(&mut self) {
        for completion in self.handle.take_completions() {
            let Some(mut call) = self.stashed.remove(&completion.ticket.0) else {
                continue;
            };
            match completion.result {
                Ok(_) => {
                    if let (true, Some(t)) = (self.clock.traced(), call.started) {
                        self.report
                            .stash_wait_ns
                            .push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    }
                    self.committed(call, true);
                }
                Err(e) => {
                    self.attempt_failed(&mut call);
                    if e.is_retryable() {
                        self.settle(call);
                    } else {
                        self.report.never_committed.push(call.seq);
                    }
                }
            }
        }
    }
}

/// The closed loop of one benchmark thread. Also used for the OCC floor,
/// which is why it takes any `TxHandle`.
fn client_loop(
    handle: Box<dyn TxHandle>,
    pool: &[Call],
    clock: &SliceClock,
    slices: usize,
) -> Result<ClientReport, String> {
    let mut client = Client {
        handle,
        pool,
        clock,
        report: ClientReport::new(slices, 1 << 16),
        stashed: HashMap::with_capacity(1 << 14),
        origin: Instant::now(),
        counting: false,
        built: 0,
        commits: 0,
    };
    let mut allocs = AllocWindow::default();
    let mut seq = 0u64;
    loop {
        let slice = clock.now();
        if slice == STOP {
            break;
        }
        let traced = clock.traced();
        allocs.observe(slice, traced, &mut client.report);
        client.counting = allocs.open();
        let sampled = seq.is_multiple_of(LATENCY_SAMPLE);
        // Traced slices wrap every call in a span (and keep one in
        // LATENCY_SAMPLE of them); untraced slices time only the sample.
        let started = (sampled || traced).then(Instant::now);
        client.report.attempted += 1;
        client.settle(InFlight {
            idx: (seq % pool.len() as u64) as u32,
            seq,
            started,
            sampled,
            retried: false,
        });
        seq += 1;
        if !client.stashed.is_empty() && seq.is_multiple_of(16) {
            client.drain();
        }
    }
    allocs.finish(&mut client.report);
    client.counting = false;
    client.report.extra = vec![client.built, client.commits];
    // Stashed calls complete in the next joined phase: keep passing
    // safepoints until they have, then let go of the handle (which merges
    // this worker's slices and leaves the phase barrier).
    let deadline = Instant::now() + Duration::from_secs(5);
    while !client.stashed.is_empty() {
        client.handle.safepoint();
        client.drain();
        if Instant::now() > deadline {
            return Err(format!(
                "{} stashed calls never completed",
                client.stashed.len()
            ));
        }
        std::thread::yield_now();
    }
    client.report.issued = seq;
    Ok(client.report)
}

fn spawn(
    handles: Vec<Box<dyn TxHandle>>,
    input: &Arc<Input>,
    clock: &Arc<SliceClock>,
    slices: usize,
) -> Vec<JoinHandle<Result<ClientReport, String>>> {
    handles
        .into_iter()
        .enumerate()
        .map(|(t, handle)| {
            let (input, clock) = (Arc::clone(input), Arc::clone(clock));
            std::thread::Builder::new()
                .name(format!("bench-client-{t}"))
                .spawn(move || client_loop(handle, &input.pools[t], &clock, slices))
                .expect("spawn client thread")
        })
        .collect()
}

/// What every key must hold once all issued calls have committed.
fn expected_values(input: &Input, reports: &[ClientReport]) -> Vec<i64> {
    let mut expected = vec![0i64; KEYS as usize];
    for (pool, report) in input.pools.iter().zip(reports) {
        let len = pool.len() as u64;
        for (i, call) in pool.iter().enumerate() {
            let times = report.issued / len + u64::from((i as u64) < report.issued % len);
            expected[call.key as usize] += call.delta as i64 * times as i64;
        }
        for seq in &report.never_committed {
            let call = &pool[(seq % len) as usize];
            expected[call.key as usize] -= call.delta as i64;
        }
    }
    expected
}

fn load(engine: &dyn Engine) {
    for k in 0..KEYS {
        engine.load(Key::raw(k), Value::Int(0));
    }
}

fn snapshot(engine: &dyn Engine) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    snap.absorb_stats(&engine.stats());
    if let Some(registry) = engine.telemetry() {
        snap.absorb_metrics(registry.snapshot());
    }
    snap
}

impl Workload for IncrDirect {
    const NAME: &'static str = "incr_direct";
    type Input = Input;
    type Fixture = Fixture;

    fn config() -> Vec<(&'static str, String)> {
        vec![
            ("engine", format!("DoppelDb::start({:?})", engine_config())),
            ("threads", WORKERS.to_string()),
            ("keys", KEYS.to_string()),
            ("hot_keys", format!("{HOT_KEYS} (label_split Add)")),
            (
                "mix_hot_add/hot_get/cold_add_%",
                format!("{}/{}/{}", MIX.0, MIX.1, MIX.2),
            ),
            ("pool_calls_per_thread", POOL.to_string()),
            ("latency_sample", format!("1 in {LATENCY_SAMPLE}")),
        ]
    }

    fn generate(seed: u64) -> Generated<Input> {
        let mut hash = InputHash::default();
        let pools = (0..WORKERS)
            .map(|t| generate_pool(&mut Rng::new(seed ^ ((t as u64 + 1) << 40)), &mut hash))
            .collect();
        Generated {
            input: Input { pools },
            hash: hash.low32(),
            calls: (WORKERS * POOL) as u64,
        }
    }

    fn setup(_input: &Arc<Input>, _scratch: &Path, _nth: usize) -> Result<Fixture, String> {
        let db = Arc::new(DoppelDb::start(engine_config()));
        load(db.as_ref());
        for k in 0..HOT_KEYS {
            db.label_split(Key::raw(k), OpKind::Add);
        }
        // First committed call, on the only registered handle so the phase
        // barrier cannot wait for a second one; the other handle is created
        // when its thread starts.
        let mut first = db.handle(0);
        let probe: Arc<dyn Procedure> =
            Arc::new(ProcedureFn::new("add", |tx| tx.add(Key::raw(0), 0)));
        if !first.execute(probe).is_committed() {
            return Err("the first call did not commit".into());
        }
        Ok(Fixture {
            db,
            handles: vec![Some(first), None],
        })
    }

    fn discard(fixture: Fixture) {
        drop(fixture.handles);
        fixture.db.shutdown();
    }

    fn spawn_clients(
        fixture: &mut Fixture,
        input: &Arc<Input>,
        clock: &Arc<SliceClock>,
        slices: usize,
    ) -> Vec<JoinHandle<Result<ClientReport, String>>> {
        let handles = (0..WORKERS)
            .map(|core| {
                fixture.handles[core]
                    .take()
                    .unwrap_or_else(|| fixture.db.handle(core))
            })
            .collect();
        spawn(handles, input, clock, slices)
    }

    fn stats(fixture: &Fixture) -> TelemetrySnapshot {
        snapshot(fixture.db.as_ref())
    }

    fn split_count(fixture: &Fixture) -> u64 {
        fixture.db.split_count() as u64
    }

    fn probes(
        _: &mut Fixture,
        _: &Input,
        _: &mut [ClientReport],
        _: &mut Layers,
    ) -> Result<(), String> {
        Ok(()) // no serial path: there is no server to probe
    }

    fn walks(
        input: &Arc<Input>,
        _scratch: &Path,
        seconds: f64,
        layers: &mut Layers,
    ) -> Result<(), String> {
        layers::walk_doppel(layers);
        let keys: Vec<Key> = input.pools[0]
            .iter()
            .take(200_000)
            .map(|c| Key::raw(c.key as u64))
            .collect();
        layers::walk_floors(layers, &keys);

        // The paper's ratio: the same input on the OCC baseline.
        let occ = Arc::new(doppel_occ::OccEngine::new(WORKERS, 1024));
        load(occ.as_ref());
        let clock = Arc::new(SliceClock::default());
        let handles = (0..WORKERS).map(|core| occ.handle(core)).collect();
        let clients = spawn(handles, input, &clock, 0);
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs_f64((seconds * 0.15).min(3.0)));
        clock.stop();
        let elapsed = started.elapsed().as_secs_f64();
        let mut committed = 0u64;
        for c in clients {
            let report = c
                .join()
                .map_err(|_| "OCC floor thread panicked".to_string())??;
            committed += report.slices[0].committed;
        }
        layers.set("occ.incr_direct_txn_per_s", committed as f64 / elapsed);
        Ok(())
    }

    fn finish(
        fixture: Fixture,
        input: &Input,
        reports: &[ClientReport],
        stats_end: &TelemetrySnapshot,
        falsify: bool,
        _layers: &mut Layers,
    ) -> Result<Vec<String>, String> {
        let db = fixture.db;
        db.shutdown();
        let mut expected = expected_values(input, reports);
        if falsify {
            expected[0] += 1;
        }
        let mut wrong = 0u64;
        for (k, want) in expected.iter().enumerate() {
            if db.global_get(Key::raw(k as u64)) != Some(Value::Int(*want)) {
                wrong += 1;
            }
        }
        if wrong > 0 {
            return Err(format!(
                "{wrong} of {KEYS} keys do not equal the sum of their committed adds"
            ));
        }
        let scalar = |name: &str| stats_end.scalar(name).unwrap_or(0);
        let (commits, slice_ops, stashes, phases) = (
            scalar("commits"),
            scalar("slice_ops"),
            scalar("stashes"),
            scalar("split_phases"),
        );
        if phases == 0 || stashes == 0 || (slice_ops as f64) < 0.3 * commits as f64 {
            return Err(format!(
                "regime check failed: split_phases={phases} stashes={stashes} slice_ops={slice_ops} commits={commits} (phase reconciliation is not doing the work)"
            ));
        }
        let window = |i: usize| -> u64 { reports.iter().map(|r| r.extra[i]).sum() };
        let client_allocs: u64 = reports.iter().map(|r| r.allocs).sum();
        Ok(vec![
            format!("every one of {KEYS} keys equals the sum of its committed adds"),
            format!(
                "allocations: the client threads made {client_allocs} in the untraced slices, {} of them the harness's own procedures; the engine made the other {} for {} commits",
                window(0),
                client_allocs.saturating_sub(window(0)),
                window(1)
            ),
            format!(
                "regime: {phases} split phases, slice_ops/commits = {:.3}, stashes/commits = {:.4}",
                slice_ops as f64 / commits as f64,
                stashes as f64 / commits as f64
            ),
        ])
    }
}
