//! One invocation: the timeline every workload shares.
//!
//! generate inputs → cold set-ups (median → `setup_s`, last one kept) →
//! warm-up → measured window in slices → (trace runs: span slices, serial
//! probes, walks) → shutdown and output checks → print.

use crate::json::{num, obj, Json};
use crate::layers::Layers;
use crate::measure::{self, ClientReport, Plan, SliceClock, SliceSeries};
use crate::spec;
use crate::sys::{self, Scratch};
use doppel_service::TelemetrySnapshot;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Also write the full result (stamp, configuration, per-slice samples)
    /// here.
    pub out: Option<PathBuf>,
    /// Write the spans of a trace run here (one JSON object per line).
    pub spans: Option<PathBuf>,
    /// Smoke-test hook: perturb the expected values before the output check,
    /// which must then fail the run.
    pub falsify: bool,
}

/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Generated<I> {
    pub input: I,
    pub hash: u64,
    /// Calls generated, for `loadgen.gen_ns_per_txn`.
    pub calls: u64,
}

/// Readings taken at the edges of the untraced slices, for the [stat] and
/// [cpu] rows.
pub struct Edge {
    pub stats: TelemetrySnapshot,
    pub cpu: Vec<(String, u64)>,
    pub cpu_stat_ns: u64,
    pub at: Instant,
}

pub trait Workload {
    const NAME: &'static str;
    type Input: Send + Sync + 'static;
    type Fixture;

    /// Every configuration value of the workload, stamped into results.
    fn config() -> Vec<(&'static str, String)>;

    fn generate(seed: u64) -> Generated<Self::Input>;

    /// One cold set-up: engine build, preload, (WAL open,) server start,
    /// connect, first committed call. Timed by the caller.
    fn setup(input: &Arc<Self::Input>, scratch: &Path, nth: usize)
        -> Result<Self::Fixture, String>;

    /// Tears down a set-up that is not kept.
    fn discard(fixture: Self::Fixture);

    /// Starts the closed-loop clients (threads named `bench-client-N`).
    fn spawn_clients(
        fixture: &mut Self::Fixture,
        input: &Arc<Self::Input>,
        clock: &Arc<SliceClock>,
        slices: usize,
    ) -> Vec<JoinHandle<Result<ClientReport, String>>>;

    /// The public stats snapshot of the system under test.
    fn stats(fixture: &Self::Fixture) -> TelemetrySnapshot;

    /// Records currently split (for `tuner.first_split_ms`).
    fn split_count(fixture: &Self::Fixture) -> u64;

    /// Serial one-in-flight probes against the live fixture (trace runs).
    /// They continue client 0's walk through its pool, so what they commit is
    /// covered by the output check.
    fn probes(
        fixture: &mut Self::Fixture,
        input: &Self::Input,
        reports: &mut [ClientReport],
        layers: &mut Layers,
    ) -> Result<(), String>;

    /// Single-threaded replays of the generated calls through one layer's
    /// public functions (trace runs).
    fn walks(
        input: &Arc<Self::Input>,
        scratch: &Path,
        seconds: f64,
        layers: &mut Layers,
    ) -> Result<(), String>;

    /// Shuts the fixture down and checks the outputs. `Err` fails the run.
    fn finish(
        fixture: Self::Fixture,
        input: &Self::Input,
        reports: &[ClientReport],
        stats_end: &TelemetrySnapshot,
        falsify: bool,
        layers: &mut Layers,
    ) -> Result<Vec<String>, String>;
}

pub struct RunResult {
    pub metrics: Vec<(String, Option<f64>, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

fn edge<W: Workload>(fixture: &W::Fixture) -> Edge {
    Edge {
        stats: W::stats(fixture),
        cpu: sys::cpu_by_thread(),
        cpu_stat_ns: sys::cpu_stat_ns(),
        at: Instant::now(),
    }
}

pub fn run<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    if sys::nproc() < 2 {
        return Err(format!(
            "the benchmark needs 2 cores (clients = connections = 2); this host has {}",
            sys::nproc()
        ));
    }
    let scratch = Scratch::create().map_err(|e| format!("cannot create scratch directory: {e}"))?;
    let plan = Plan::new(args.seconds, args.trace);

    let gen_started = Instant::now();
    let generated = W::generate(args.seed);
    let gen_ns_per_txn = gen_started.elapsed().as_nanos() as f64 / generated.calls.max(1) as f64;
    let input = Arc::new(generated.input);
    println!(
        "# {} seed={} seconds={} trace={}",
        W::NAME,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# inputs: {} calls generated in {:.2} s, input_hash={}",
        generated.calls,
        gen_started.elapsed().as_secs_f64(),
        generated.hash
    );

    // Cold set-ups: the median is `setup_s`, the last one is kept. A trace
    // run does not report `setup_s` and sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut kept = None;
    for nth in 0..setups {
        if let Some(previous) = kept.take() {
            W::discard(previous);
        }
        let t = Instant::now();
        kept = Some(W::setup(&input, scratch.path(), nth)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut fixture = kept.expect("at least one set-up");
    println!(
        "# set-ups: {}",
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The load: warm-up, then the slices.
    let clock = Arc::new(SliceClock::default());
    let load_started = Instant::now();
    let clients = W::spawn_clients(&mut fixture, &input, &clock, plan.slices());
    let mut edges: Vec<Edge> = Vec::new();
    let mut first_split_ms: Option<f64> = None;
    let boundaries = {
        let fixture = &fixture;
        let edges = &mut edges;
        let first_split = &mut first_split_ms;
        let trace = args.trace;
        plan.drive(
            &clock,
            |k| {
                if trace && (k == 1 || k == plan.untraced + 1 || k == plan.slices() + 1) {
                    edges.push(edge::<W>(fixture));
                }
            },
            // Trace runs poll the split set every 10 ms until it is first
            // non-empty; untraced runs sleep through each slice.
            || {
                if trace && first_split.is_none() && W::split_count(fixture) > 0 {
                    *first_split = Some(load_started.elapsed().as_secs_f64() * 1e3);
                }
                trace && first_split.is_none()
            },
        )
    };
    let census = sys::thread_census();
    let mut reports: Vec<ClientReport> = Vec::new();
    for c in clients {
        reports.push(
            c.join()
                .map_err(|_| "a client thread panicked".to_string())??,
        );
    }
    let stats_end = W::stats(&fixture);

    let e2e = measure::series(&mut reports, &boundaries, 1, plan.untraced);
    let traced = (plan.traced > 0)
        .then(|| measure::series(&mut reports, &boundaries, plan.untraced + 1, plan.slices()));

    let mut layers = Layers::default();
    if args.trace {
        crate::layers::from_edges(&mut layers, &edges, &e2e, traced.as_ref(), &reports);
        if stats_end.tuner.is_some() {
            layers.set("tuner.first_split_ms", first_split_ms.unwrap_or(0.0));
        }
        // Identity: the six CPU rows are the whole process. Asserted once
        // the untraced slices hold enough CPU time for the 10 ms ticks of the
        // independent figure to be below half a per cent.
        let (rows, whole) = (layers.cpu_rows_us, layers.cpu_whole_us);
        if whole * e2e.committed as f64 >= 2e6 && ((rows - whole) / whole).abs() > 0.02 {
            return Err(format!(
                "the CPU rows sum to {rows:.4} us/txn but the whole process used {whole:.4} us/txn"
            ));
        }
        W::probes(&mut fixture, &input, &mut reports, &mut layers)?;
        W::walks(&input, scratch.path(), args.seconds, &mut layers)?;
        layers.finish_rtt();
        layers.note_alloc_split(e2e.allocs as f64 / e2e.committed.max(1) as f64);
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    // The contract's `failed`: calls that never committed. First attempts
    // that aborted or were rejected are retried by the closed-loop clients
    // until they commit; they are a diagnostic (`loadgen.fail_share`).
    let first_failed: u64 = reports.iter().map(|r| r.failed).sum();
    let failed: u64 = reports.iter().map(|r| r.never_committed.len() as u64).sum();
    let notes = W::finish(
        fixture,
        &input,
        &reports,
        &stats_end,
        args.falsify,
        &mut layers,
    )?;
    for note in &notes {
        println!("# check: {note}");
    }
    if e2e.committed == 0 {
        return Err("no transaction committed inside the measured window".into());
    }

    let setup_s = sys::median(&setup_secs);
    let allocs_per_txn = e2e.allocs as f64 / e2e.committed as f64;
    let alloc_bytes_per_txn = e2e.alloc_bytes as f64 / e2e.committed as f64;
    let e2e_values: Vec<(&str, f64, Option<&Vec<f64>>)> = vec![
        (
            "txn_per_s",
            sys::median(&e2e.txn_per_s),
            Some(&e2e.txn_per_s),
        ),
        (
            "cpu_us_per_txn",
            sys::median(&e2e.cpu_us_per_txn),
            Some(&e2e.cpu_us_per_txn),
        ),
        (
            "lat_p50_us",
            sys::median(&e2e.lat_p50_us),
            Some(&e2e.lat_p50_us),
        ),
        (
            "lat_p95_us",
            sys::median(&e2e.lat_p95_us),
            Some(&e2e.lat_p95_us),
        ),
        ("allocs_per_txn", allocs_per_txn, None),
        ("alloc_bytes_per_txn", alloc_bytes_per_txn, None),
        ("setup_s", setup_s, Some(&setup_secs)),
    ];

    println!(
        "# nproc={} kernel={} cpu_cores_busy={:.3} committed={} window_s={:.3}",
        sys::nproc(),
        sys::kernel(),
        e2e.cpu_cores,
        e2e.committed,
        e2e.seconds
    );
    println!(
        "# threads: {}",
        census
            .iter()
            .map(|(c, n)| format!("{c}x{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("# attempted={attempted} failed={failed} (never committed) first_attempt_failed={first_failed} (aborted or rejected, then retried)");
    for (name, value, samples) in &e2e_values {
        let unit = spec::end_to_end(name).expect("declared").unit;
        match samples {
            Some(s) => {
                let (q1, _, q3) = sys::quartiles(s);
                println!("{name} {value} {unit} q1={q1} q3={q3} n={}", s.len());
            }
            None => println!("{name} {value} {unit}"),
        }
    }

    let mut metrics: Vec<(String, Option<f64>, &'static str)> = Vec::new();
    if args.trace {
        layers.set("loadgen.lat_p99_us", sys::median(&e2e.lat_p99_us));
        layers.set("loadgen.lat_max_us", e2e.lat_max_us);
        layers.set("loadgen.samples", e2e.min_samples as f64);
        layers.set("loadgen.slice_spread", sys::spread(&e2e.txn_per_s));
        layers.set("loadgen.gen_ns_per_txn", gen_ns_per_txn);
        layers.set("loadgen.input_hash", generated.hash as f64);
        layers.set(
            "loadgen.fail_share",
            first_failed as f64 / attempted.max(1) as f64,
        );
        layers.set("process.peak_rss_mb", sys::peak_rss_mb());
        for m in &spec::PER_LAYER {
            let value = layers.get(m.name);
            match value {
                Some(v) => println!("{} {v} {}", m.name, m.unit),
                None => println!("{} null {}", m.name, m.unit),
            }
            metrics.push((m.name.to_string(), value, m.unit));
        }
        for line in layers.notes() {
            println!("# layer: {line}");
        }
    } else {
        for (name, value, _) in &e2e_values {
            metrics.push((
                name.to_string(),
                Some(*value),
                spec::end_to_end(name).expect("declared").unit,
            ));
        }
    }

    let full = full_result::<W>(
        args,
        &plan,
        &e2e,
        traced.as_ref(),
        &setup_secs,
        &metrics,
        attempted,
        failed,
        first_failed,
        generated.hash,
        &scratch,
    );
    if let Some(path) = &args.spans {
        write_spans(path, &reports).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(out) = &args.out {
        std::fs::write(
            out,
            serde_json::to_string_pretty(&Json(&full)).expect("json"),
        )
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    // A trace run's probes and walks need less than the share of the window
    // left to them, so only an untraced run has an "outside".
    let wall = started.elapsed().as_secs_f64();
    if args.trace {
        println!("# wall: {wall:.1} s in all");
    } else {
        println!(
            "# wall: {wall:.1} s in all, {:.1} s outside the window",
            wall - args.seconds
        );
    }
    Ok(RunResult {
        metrics,
        attempted,
        failed,
    })
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| num(*v)).collect())
}

/// Git commit and dirty flag of the checkout the binary runs from, when it
/// is one (the driver's checkout is not).
pub fn git_stamp() -> (String, bool) {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => (
            commit,
            git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
        ),
        None => ("not-a-git-checkout".into(), false),
    }
}

#[allow(clippy::too_many_arguments)]
fn full_result<W: Workload>(
    args: &RunArgs,
    plan: &Plan,
    e2e: &SliceSeries,
    traced: Option<&SliceSeries>,
    setup_secs: &[f64],
    metrics: &[(String, Option<f64>, &'static str)],
    attempted: u64,
    failed: u64,
    first_failed: u64,
    input_hash: u64,
    scratch: &Scratch,
) -> Value {
    let (commit, dirty) = git_stamp();
    obj(vec![
        ("workload", Value::String(W::NAME.into())),
        ("seed", Value::Uint(args.seed as u128)),
        ("run_seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("git_commit", Value::String(commit)),
        ("git_dirty", Value::Bool(dirty)),
        ("nproc", Value::Uint(sys::nproc() as u128)),
        ("kernel", Value::String(sys::kernel())),
        ("scratch_fs", Value::String(sys::fs_type(scratch.path()))),
        ("input_hash", Value::Uint(input_hash as u128)),
        (
            "config",
            Value::Object(
                W::config()
                    .into_iter()
                    .chain([
                        ("slice_s", format!("{}", plan.slice.as_secs_f64())),
                        ("warmup_s", format!("{}", plan.warmup.as_secs_f64())),
                        ("untraced_slices", plan.untraced.to_string()),
                        ("traced_slices", plan.traced.to_string()),
                    ])
                    .map(|(k, v)| (k.to_string(), Value::String(v)))
                    .collect(),
            ),
        ),
        ("attempted", Value::Uint(attempted as u128)),
        ("failed", Value::Uint(failed as u128)),
        ("first_attempt_failed", Value::Uint(first_failed as u128)),
        ("committed_in_window", Value::Uint(e2e.committed as u128)),
        ("cpu_cores_busy", num(e2e.cpu_cores)),
        (
            "slices",
            obj(vec![
                ("txn_per_s", floats(&e2e.txn_per_s)),
                ("cpu_us_per_txn", floats(&e2e.cpu_us_per_txn)),
                ("lat_p50_us", floats(&e2e.lat_p50_us)),
                ("lat_p95_us", floats(&e2e.lat_p95_us)),
                ("lat_p99_us", floats(&e2e.lat_p99_us)),
                ("setup_s", floats(setup_secs)),
                (
                    "traced_txn_per_s",
                    floats(traced.map_or(&[][..], |t| &t.txn_per_s)),
                ),
            ]),
        ),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            obj(vec![
                                ("value", value.map_or(Value::Null, num)),
                                ("unit", Value::String((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The spans kept in memory during the span slices, one JSON object per
/// line: client, name, id, parent (the enclosing batch span, 0 for a root),
/// start and end in nanoseconds since the client started.
fn write_spans(path: &Path, reports: &[ClientReport]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, report) in reports.iter().enumerate() {
        for s in &report.spans {
            writeln!(
                file,
                r#"{{"client":{client},"name":"{}","id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
    }
    file.flush()
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
/// A per-layer value whose source is missing prints as -1 here (the contract
/// wants numbers); the table above and the result file say `null`.
pub fn contract_line(result: &RunResult) -> String {
    let metrics = Value::Object(
        result
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", num(value.unwrap_or(-1.0))),
                        ("unit", Value::String((*unit).into())),
                    ]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::Uint(result.attempted.max(1) as u128)),
        ("failed", Value::Uint(result.failed as u128)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&Json(&line)).expect("json")
}
