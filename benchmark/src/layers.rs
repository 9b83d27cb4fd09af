//! The layer table: 82 per-layer metrics measured from outside the program.
//!
//! Four sources (README "Per-layer metrics"):
//! * **[cpu]**  per-thread-group CPU time from `/proc/self/task`,
//! * **[stat]** deltas of the public stats snapshot over the untraced slices,
//! * **[span]** benchmark-side spans around client calls (traced slices),
//! * **[walk]** the workload's generated calls replayed single-threaded
//!   through one layer's public functions.

use crate::measure::{ClientReport, SliceSeries};
use crate::run::Edge;
use crate::sys;
use doppel_common::alloc::ThreadAllocCheckpoint;
use doppel_common::{
    Args, CommitSinkExt, DoppelConfig, DurabilityConfig, Engine, Key, Op, OpKind, ProcResult,
    ProcedureFn, Tid, Value,
};
use doppel_db::{DoppelDb, Phase};
use doppel_service::wire::{self, ClientMsg, FrameDecoder, ServerMsg};
use doppel_service::{SubmissionQueue, TelemetrySnapshot};
use doppel_telemetry::Histogram;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations of every walk: enough that timer overhead vanishes.
pub const WALK_ITERS: usize = 100_000;

/// Values by metric name. A name never set prints as `0` (layer not on the
/// workload's path); `missing` marks a name whose source scalar or histogram
/// the program no longer exports, which prints as `null`.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, Option<f64>>,
    notes: Vec<String>,
    /// Queue wait and exec medians *during the serial probe* (not under
    /// load): the parts `rtt.p50_us` is compared against.
    probe_queue_wait_us: f64,
    probe_exec_us: f64,
    /// The six CPU rows' sum and the independent whole-process figure, for
    /// the identity the run asserts.
    pub cpu_rows_us: f64,
    pub cpu_whole_us: f64,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared"
        );
        self.values.insert(name, Some(value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        match self.values.get(name) {
            Some(v) => *v,
            None => Some(0.0),
        }
    }

    pub fn set_probe_parts(&mut self, queue_wait_us: f64, exec_us: f64) {
        self.probe_queue_wait_us = queue_wait_us;
        self.probe_exec_us = exec_us;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Where the allocations per transaction are: client threads, the
    /// procedure bodies (walk), both ends of the codec (walk), and what is
    /// left for the rest of the server.
    pub fn note_alloc_split(&mut self, total: f64) {
        let v = |name: &str| self.get(name).unwrap_or(0.0);
        let client = v("client.allocs_per_txn");
        let procs = v("procs.kv_allocs_per_call") + v("procs.rubis_allocs_per_call");
        let wire = v("wire.allocs_per_roundtrip");
        self.note(format!(
            "allocs/txn {total:.2}: client threads {client:.2}, procedure body {procs:.2} (walk), codec both ends {wire:.2} (walk, part of it inside client), rest of server {:.2}",
            total - client - procs
        ));
    }

    /// `rtt.unattributed_*`: what the serial round trip takes beyond the
    /// parts measured on their own. Reported, not asserted.
    pub fn finish_rtt(&mut self) {
        let rtt = self.get("rtt.p50_us").unwrap_or(0.0);
        if rtt <= 0.0 {
            return;
        }
        let v = |name: &str| self.get(name).unwrap_or(0.0);
        let codec_us = (v("wire.encode_call_ns")
            + v("wire.decode_call_ns")
            + v("wire.encode_reply_ns")
            + v("wire.decode_reply_ns"))
            / 1e3;
        let ping = v("reactor.ping_rtt_p50_us");
        let parts = ping + self.probe_queue_wait_us + self.probe_exec_us + codec_us;
        self.set("rtt.unattributed_us", rtt - parts);
        self.set("rtt.unattributed_share", (rtt - parts) / rtt);
        self.note(format!(
            "rtt {rtt:.1} us = ping {ping:.1} + queue wait {:.1} + exec {:.1} + codec {codec_us:.2} + unattributed {:.1}",
            self.probe_queue_wait_us,
            self.probe_exec_us,
            rtt - parts
        ));
    }
}

pub fn scalar_delta(a: &TelemetrySnapshot, b: &TelemetrySnapshot, name: &str) -> Option<f64> {
    Some(b.scalar(name)?.saturating_sub(a.scalar(name)?) as f64)
}

pub fn hist_delta(a: &TelemetrySnapshot, b: &TelemetrySnapshot, name: &str) -> Option<Histogram> {
    Some(b.hist(name)?.delta(a.hist(name)?))
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) => Some(if d > 0.0 { n / d } else { 0.0 }),
        _ => None,
    }
}

/// The [cpu], [stat] and [span] rows, from the readings at the edges of the
/// untraced slices and the client reports.
pub fn from_edges(
    layers: &mut Layers,
    edges: &[Edge],
    e2e: &SliceSeries,
    traced: Option<&SliceSeries>,
    reports: &[ClientReport],
) {
    let (Some(a), Some(b)) = (edges.first(), edges.get(1)) else {
        return;
    };
    let committed = e2e.committed.max(1) as f64;
    let secs = b.at.duration_since(a.at).as_secs_f64();

    // [cpu] — six rows that must sum to the whole process.
    let groups = sys::cpu_group_delta(&a.cpu, &b.cpu);
    let names = [
        "client.cpu_us_per_txn",
        "reactor.cpu_us_per_txn",
        "service.cpu_us_per_txn",
        "coordinator.cpu_us_per_txn",
        "tuner.cpu_us_per_txn",
        "other.cpu_us_per_txn",
    ];
    for (name, ns) in names.iter().zip(groups) {
        layers.set(name, ns as f64 / 1e3 / committed);
    }
    let rows_us: f64 = groups.iter().sum::<u64>() as f64 / 1e3 / committed;
    let whole_us = b.cpu_stat_ns.saturating_sub(a.cpu_stat_ns) as f64 / 1e3 / committed;
    layers.note(format!(
        "cpu rows sum to {rows_us:.4} us/txn, whole process (/proc/self/stat) {whole_us:.4} us/txn, difference {:.2} %",
        (rows_us - whole_us) / whole_us.max(1e-12) * 100.0
    ));
    layers.cpu_rows_us = rows_us;
    layers.cpu_whole_us = whole_us;

    // [stat] — deltas of the public snapshot over the same slices.
    let d = |name: &str| scalar_delta(&a.stats, &b.stats, name);
    let commits = d("commits");
    let attempts = match (commits, d("conflicts")) {
        (Some(c), Some(x)) => Some(c + x),
        _ => None,
    };
    layers.set_opt("doppel.slice_ops_per_txn", ratio(d("slice_ops"), commits));
    layers.set_opt("doppel.stash_share", ratio(d("stashes"), commits));
    layers.set_opt("doppel.conflict_share", ratio(d("conflicts"), attempts));
    layers.set_opt("doppel.phases_per_s", d("split_phases").map(|p| p / secs));
    layers.set_opt(
        "doppel.split_keys_end",
        b.stats.scalar("split_records").map(|v| v as f64),
    );
    let split = hist_delta(&a.stats, &b.stats, "phase_split");
    let joined = hist_delta(&a.stats, &b.stats, "phase_joined");
    layers.set_opt(
        "doppel.split_time_share",
        match (&split, &joined) {
            (Some(s), Some(j)) => {
                let (s, j) = (s.sum_ns() as f64, j.sum_ns() as f64);
                Some(if s + j > 0.0 { s / (s + j) } else { 0.0 })
            }
            _ => None,
        },
    );
    let q = |h: &Option<Histogram>, q: f64| h.as_ref().map(|h| h.quantile_ns(q) as f64 / 1e3);
    let reconcile = hist_delta(&a.stats, &b.stats, "reconcile");
    layers.set_opt("doppel.reconcile_p50_us", q(&reconcile, 0.50));
    layers.set_opt("doppel.reconcile_p95_us", q(&reconcile, 0.95));
    layers.set_opt(
        "doppel.stash_replay_p95_us",
        q(&hist_delta(&a.stats, &b.stats, "stash_replay"), 0.95),
    );
    layers.set_opt("wal.bytes_per_txn", ratio(d("log_bytes"), commits));
    layers.set_opt("wal.records_per_txn", ratio(d("log_records"), commits));
    layers.set_opt("wal.txns_per_fsync", ratio(commits, d("fsyncs")));

    // Rows that only exist behind a server: the workload says whether its
    // snapshot came from one by exporting the queue counters.
    if b.stats.hist("queue_wait").is_some() || b.stats.scalar("conns_accepted").is_some() {
        let wait = hist_delta(&a.stats, &b.stats, "queue_wait");
        let exec = hist_delta(&a.stats, &b.stats, "exec");
        layers.set_opt("queue.wait_p50_us", q(&wait, 0.50));
        layers.set_opt("queue.wait_p95_us", q(&wait, 0.95));
        layers.set_opt("service.exec_p50_us", q(&exec, 0.50));
        layers.set_opt("service.exec_p95_us", q(&exec, 0.95));
        layers.set_opt("service.deferred_share", ratio(d("stashes"), commits));
        layers.set_opt(
            "queue.avg_batch",
            ratio(d("queue_enqueued"), d("queue_batches")),
        );
        layers.set_opt("queue.busy_rejections", d("queue_busy_rejections"));
        layers.set_opt("reactor.sheds", d("conns_shed"));
        layers.set_opt("reactor.protocol_errors", d("decode_errors"));
        layers.set_opt("twopc.no_votes", d("twopc_vote_no"));
        let (mut invoked, mut aborted) = (0u64, 0u64);
        for p in &b.stats.procs {
            let before = a.stats.procs.iter().find(|x| x.name == p.name);
            invoked += p.invocations - before.map_or(0, |x| x.invocations);
            aborted += p.aborts - before.map_or(0, |x| x.aborts);
        }
        layers.set(
            "procs.abort_share",
            if invoked > 0 {
                aborted as f64 / invoked as f64
            } else {
                0.0
            },
        );
        if let Some(tuner) = &b.stats.tuner {
            layers.set_opt("tuner.promotions", d("tuner_promotions"));
            layers.set_opt("tuner.demotions", d("tuner_demotions"));
            layers.set("tuner.split_keys_end", tuner.split_keys.len() as f64);
        }
    }

    // Client allocations over the untraced slices; the remainder is the
    // server side. The two sum to `allocs_per_txn` by construction.
    let client_allocs: u64 = reports.iter().map(|r| r.allocs).sum();
    layers.set("client.allocs_per_txn", client_allocs as f64 / committed);
    layers.note(format!(
        "allocs/txn {:.3} = client {:.3} + server-side remainder {:.3}",
        e2e.allocs as f64 / committed,
        client_allocs as f64 / committed,
        (e2e.allocs as f64 - client_allocs as f64) / committed
    ));

    // [span] — the traced slices.
    if let Some(traced) = traced {
        let txns: u64 = reports.iter().map(|r| r.traced_txns).sum();
        let submit: f64 = reports.iter().map(|r| r.submit_s).sum();
        let wait: f64 = reports.iter().map(|r| r.wait_s).sum();
        let batch: f64 = reports.iter().map(|r| r.batch_s).sum();
        layers.set(
            "client.submit_us_per_txn",
            submit * 1e6 / txns.max(1) as f64,
        );
        layers.set(
            "client.wait_share",
            if batch > 0.0 { wait / batch } else { 0.0 },
        );
        let mut stash: Vec<u32> = reports
            .iter()
            .flat_map(|r| r.stash_wait_ns.iter().copied())
            .collect();
        stash.sort_unstable();
        layers.set(
            "doppel.stash_wait_p50_us",
            sys::quantile_sorted(&stash, 0.5) / 1e3,
        );
        let (plain, spans) = (sys::median(&e2e.txn_per_s), sys::median(&traced.txn_per_s));
        layers.set(
            "loadgen.trace_overhead_share",
            if plain > 0.0 {
                1.0 - spans / plain
            } else {
                0.0
            },
        );
    }
}

// ---------------------------------------------------------------- walks

fn per_iter_ns(started: Instant, iters: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// `wire.*`: the codec and the frame scanner over the workload's own calls
/// and the replies they produce.
pub fn walk_wire(layers: &mut Layers, calls: &[ClientMsg], replies: &[ServerMsg]) {
    if calls.is_empty() || replies.is_empty() {
        return;
    }
    let iters = WALK_ITERS;
    let encoded_calls: Vec<Vec<u8>> = calls.iter().map(wire::encode_client).collect();
    let encoded_replies: Vec<Vec<u8>> = replies.iter().map(wire::encode_server).collect();
    let mut buf = Vec::with_capacity(4096);
    let mut allocs = 0u64;
    // Times `iters` rounds of `step` and counts the thread's allocations.
    let mut timed = |step: &mut dyn FnMut(usize)| {
        let checkpoint = ThreadAllocCheckpoint::now();
        let t = Instant::now();
        for i in 0..iters {
            step(i);
        }
        let ns = per_iter_ns(t, iters);
        allocs += checkpoint.delta().0;
        ns
    };

    let mut call_bytes = 0usize;
    let ns = timed(&mut |i| {
        wire::encode_client_into(black_box(&calls[i % calls.len()]), &mut buf);
        call_bytes += buf.len();
    });
    layers.set("wire.encode_call_ns", ns);
    layers.set("wire.call_bytes", call_bytes as f64 / iters as f64);
    let ns = timed(&mut |i| {
        black_box(
            wire::decode_client(black_box(&encoded_calls[i % calls.len()]))
                .expect("own encoding decodes"),
        );
    });
    layers.set("wire.decode_call_ns", ns);
    let mut reply_bytes = 0usize;
    let ns = timed(&mut |i| {
        wire::encode_server_into(black_box(&replies[i % replies.len()]), &mut buf);
        reply_bytes += buf.len();
    });
    layers.set("wire.encode_reply_ns", ns);
    layers.set("wire.reply_bytes", reply_bytes as f64 / iters as f64);
    let ns = timed(&mut |i| {
        black_box(
            wire::decode_server(black_box(&encoded_replies[i % replies.len()]))
                .expect("own encoding decodes"),
        );
    });
    layers.set("wire.decode_reply_ns", ns);
    layers.set("wire.allocs_per_roundtrip", allocs as f64 / iters as f64);

    // Frame scan: a whole pipelined window fed in one piece, frames borrowed
    // out one by one, as the reactor does per readable event.
    let mut window = Vec::new();
    for payload in encoded_calls.iter().take(128) {
        wire::write_frame(&mut window, payload).expect("frame fits");
    }
    let frames_per_window = encoded_calls.len().min(128);
    let mut decoder = FrameDecoder::new();
    let t = Instant::now();
    let mut seen = 0usize;
    for _ in 0..(iters / frames_per_window).max(1) {
        decoder.feed(black_box(&window));
        while let Some(frame) = decoder.next_frame_ref().expect("own frames scan") {
            black_box(frame);
            seen += 1;
        }
    }
    layers.set("wire.frame_scan_ns", per_iter_ns(t, seen));
}

/// `queue.push_pop_ns`: one producer, batched consumer, same thread.
pub fn walk_queue(layers: &mut Layers) {
    let queue: SubmissionQueue<u64> = SubmissionQueue::new(1024);
    let mut out = Vec::with_capacity(64);
    let rounds = WALK_ITERS / 64;
    let t = Instant::now();
    for r in 0..rounds {
        for i in 0..64u64 {
            queue
                .try_push(black_box(r as u64 * 64 + i))
                .expect("queue has room");
        }
        queue.pop_batch(64, Duration::from_micros(200), &mut out);
        black_box(&out);
    }
    layers.set("queue.push_pop_ns", per_iter_ns(t, rounds * 64));
}

/// `doppel.joined_txn_ns` / `doppel.split_txn_ns`: the same single-key add
/// on one handle of a manual-phase database, first joined, then with the key
/// labelled split.
pub fn walk_doppel(layers: &mut Layers) {
    let db = DoppelDb::new(DoppelConfig {
        workers: 1,
        ..DoppelConfig::default()
    });
    let key = Key::raw(1);
    db.load(key, Value::Int(0));
    let mut handle = db.handle(0);
    let add: Arc<dyn doppel_common::Procedure> =
        Arc::new(ProcedureFn::new("add", move |tx| tx.add(key, 1)));
    let time = |handle: &mut Box<dyn doppel_common::TxHandle>| {
        let t = Instant::now();
        for _ in 0..WALK_ITERS {
            black_box(handle.execute(Arc::clone(&add)));
        }
        per_iter_ns(t, WALK_ITERS)
    };
    layers.set("doppel.joined_txn_ns", time(&mut handle));
    db.label_split(key, OpKind::Add);
    db.request_phase(Phase::Split);
    handle.safepoint();
    layers.set("doppel.split_txn_ns", time(&mut handle));
    db.request_phase(Phase::Joined);
    handle.safepoint();
    drop(handle);
    assert_eq!(
        db.global_get(key),
        Some(Value::Int(2 * WALK_ITERS as i64)),
        "walk lost an add"
    );
}

/// `occ.txn_ns` and `store.get_ns`: the floors under every engine number —
/// a single-key add on the OCC baseline and a raw store read, over `keys`.
pub fn walk_floors(layers: &mut Layers, keys: &[Key]) {
    if keys.is_empty() {
        return;
    }
    let engine = doppel_occ::OccEngine::new(1, 1024);
    for k in keys {
        engine.load(*k, Value::Int(0));
    }
    let mut handle = engine.handle(0);
    let procs: Vec<Arc<dyn doppel_common::Procedure>> = keys
        .iter()
        .take(4096)
        .map(|k| {
            let k = *k;
            Arc::new(ProcedureFn::new("add", move |tx| tx.add(k, 1)))
                as Arc<dyn doppel_common::Procedure>
        })
        .collect();
    let t = Instant::now();
    for i in 0..WALK_ITERS {
        black_box(handle.execute(Arc::clone(&procs[i % procs.len()])));
    }
    layers.set("occ.txn_ns", per_iter_ns(t, WALK_ITERS));
    let store = engine.store();
    let t = Instant::now();
    for i in 0..WALK_ITERS {
        black_box(store.read_unlocked(black_box(&keys[i % keys.len()])));
    }
    layers.set("store.get_ns", per_iter_ns(t, WALK_ITERS));
}

/// `wal.append_ns` / `wal.fsync_p50_us` on a scratch log with the default
/// group-commit policy: appends that only buffer, and appends that close a
/// batch (write + fsync).
pub fn walk_wal(layers: &mut Layers, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("wal-walk");
    let wal = doppel_wal::Wal::open(&dir, DurabilityConfig::default())
        .map_err(|e| format!("wal walk: {e}"))?;
    let writes = [(Key::raw(7), Op::Add(1))];
    let (mut append_ns, mut appends) = (0u128, 0u64);
    let mut fsync_ns: Vec<u32> = Vec::new();
    for i in 0..20_000u64 {
        let t = Instant::now();
        let receipt = wal.log_commit_slice(Tid::from_parts(i + 1, 0), &writes);
        let ns = t.elapsed().as_nanos();
        if receipt.fsyncs == 0 {
            append_ns += ns;
            appends += 1;
        } else {
            fsync_ns.push(ns.min(u32::MAX as u128) as u32);
        }
    }
    fsync_ns.sort_unstable();
    layers.set("wal.append_ns", append_ns as f64 / appends.max(1) as f64);
    layers.set(
        "wal.fsync_p50_us",
        sys::quantile_sorted(&fsync_ns, 0.5) / 1e3,
    );
    layers.note(format!(
        "wal walk: {} buffered appends, {} batch-closing appends (write+fsync)",
        appends,
        fsync_ns.len()
    ));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `procs.*_call_ns` / `procs.*_allocs_per_call`: the workload's own calls
/// through the registry on one handle. Returns each call's committed result
/// so the wire walk can encode the replies the server would send.
pub fn walk_procs(
    engine: &dyn Engine,
    registry: &Arc<doppel_common::ProcRegistry>,
    calls: &[(&'static str, Args)],
) -> (f64, f64, Vec<Option<ProcResult>>) {
    let mut handle = engine.handle(0);
    let mut results = Vec::with_capacity(calls.len().min(4096));
    let prepared: Vec<_> = calls
        .iter()
        .map(|(name, args)| {
            registry
                .call_by_name(name, args.clone())
                .expect("workload calls are registered")
        })
        .collect();
    let allocs = ThreadAllocCheckpoint::now();
    let t = Instant::now();
    for call in &prepared {
        black_box(handle.execute(Arc::clone(call) as Arc<dyn doppel_common::Procedure>));
    }
    let ns = per_iter_ns(t, prepared.len());
    let allocs_per_call = allocs.delta().0 as f64 / prepared.len().max(1) as f64;
    for call in prepared.iter().take(4096) {
        results.push(call.take_result());
    }
    (ns, allocs_per_call, results)
}
