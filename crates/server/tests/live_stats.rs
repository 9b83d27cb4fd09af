//! Cross-process acceptance test: a real `doppel-server` child process
//! answers `GetStats` over TCP, `doppel-stat --once` renders the snapshot,
//! `--trace-out` leaves a Perfetto-loadable Chrome trace showing the
//! split/joined phase timeline, and the process's thread census is the one
//! the serving design promises.

use doppel_common::{Key, Op, Value};
use doppel_service::{RemoteClient, RemoteTxn};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server child on panic so a failed assertion doesn't leak a
/// process holding the test runner open.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `doppel-server` on an ephemeral port and returns the child plus
/// the address parsed from its `listening on <addr>` line.
fn spawn_server(extra: &[&str]) -> (ChildGuard, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_doppel-server"));
    cmd.args(["--engine", "doppel", "--port", "0", "--workers", "2", "--phase-ms", "10"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn doppel-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.split_whitespace().next().expect("addr token").to_string();
        }
    };
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe.
    std::thread::spawn(move || for _ in lines {});
    (ChildGuard(child), addr)
}

/// Drives contended splittable increments and forces a split phase, so the
/// phase machinery (and its telemetry) actually runs.
fn drive_contended_load(addr: &str) {
    let mut client = RemoteClient::connect(addr).expect("connect");
    let hot = Key::raw(7);
    let put = RemoteTxn::new().put(hot, Value::Int(0));
    assert!(client.execute(&put).unwrap().is_committed());
    client.label_split(hot, Op::Add(0)).expect("label split");
    let deadline = Instant::now() + Duration::from_millis(400);
    while Instant::now() < deadline {
        let incr = RemoteTxn::new().add(hot, 1);
        client.execute(&incr).expect("incr");
    }
}

#[test]
fn live_server_answers_get_stats_and_doppel_stat_renders_it() {
    let (_guard, addr) = spawn_server(&[]);
    drive_contended_load(&addr);

    // GetStats from this (separate) process.
    let mut client = RemoteClient::connect(&addr).expect("connect");
    let snap = client.stats().expect("GetStats");
    assert!(snap.scalar("commits").unwrap_or(0) > 0, "server committed work");
    assert!(snap.hist("exec").is_some_and(|h| h.count() > 0), "exec histogram populated");
    assert!(snap.hist("phase_joined").is_some(), "phase-duration histogram present");
    assert!(
        snap.phase == "joined" || snap.phase == "split",
        "phase string present, got {:?}",
        snap.phase
    );

    // doppel-stat renders the same snapshot.
    let out = Command::new(env!("CARGO_BIN_EXE_doppel-stat"))
        .args(["--addr", &addr, "--once"])
        .output()
        .expect("run doppel-stat");
    assert!(out.status.success(), "doppel-stat failed: {:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase:"), "doppel-stat output:\n{text}");
    assert!(text.contains("commits"), "doppel-stat output:\n{text}");
    assert!(text.contains("exec"), "doppel-stat output:\n{text}");
}

#[test]
fn trace_out_writes_perfetto_loadable_phase_timeline() {
    let trace_path = std::env::temp_dir().join(format!("doppel-trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let trace_arg = trace_path.to_str().unwrap().to_string();
    // The server exits on its own after --seconds; the trace is written on
    // that clean shutdown path.
    let (mut guard, addr) =
        spawn_server(&["--seconds", "3", "--trace-out", &trace_arg, "--stats-interval", "1"]);
    drive_contended_load(&addr);

    let status = guard.0.wait().expect("server exit");
    assert!(status.success(), "server exited with {status:?}");
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);

    // Chrome trace-event envelope with complete ('X') events.
    assert!(json.starts_with("{\"traceEvents\":["), "envelope: {}", &json[..json.len().min(80)]);
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    // The phase timeline: the contended split-labelled load must have driven
    // at least one split and one joined phase through the tracer.
    assert!(json.contains("\"name\":\"phase.split\""), "split phases traced");
    assert!(json.contains("\"name\":\"phase.joined\""), "joined phases traced");
    // Transaction lifecycle events ride in the same trace.
    assert!(json.contains("\"name\":\"txn.exec\""), "txn exec spans traced");
}

#[test]
fn served_process_runs_one_loop_per_core_and_no_other_serving_thread() {
    // Two workers, two open connections with traffic behind them: the
    // sockets are served by the engine cores' own loops, so the process
    // holds exactly two `doppel-service-*` threads and one `doppel-accept`,
    // and neither a poller pool nor per-connection threads.
    let (guard, addr) = spawn_server(&[]);
    let mut a = RemoteClient::connect(&addr).expect("connect");
    let mut b = RemoteClient::connect(&addr).expect("connect");
    for client in [&mut a, &mut b] {
        client.ping().expect("ping");
        assert!(client.execute(&RemoteTxn::new().add(Key::raw(1), 1)).unwrap().is_committed());
    }

    let tasks = format!("/proc/{}/task", guard.0.id());
    let names: Vec<String> = std::fs::read_dir(&tasks)
        .expect("list the server's threads")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(count("doppel-service-"), 2, "threads: {names:?}");
    assert_eq!(count("doppel-accept"), 1, "threads: {names:?}");
    assert_eq!(count("doppel-poller"), 0, "threads: {names:?}");
    assert_eq!(count("doppel-conn"), 0, "threads: {names:?}");
}
