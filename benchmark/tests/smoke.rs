//! Every workload at 1 s, trace off and on: exit 0 (so output and regime
//! checks held), every declared metric printed exactly once with its unit,
//! inputs a pure function of the seed, and a falsified expectation fails
//! the run.

use serde_json::Value;
use std::process::{Command, Output};
use std::sync::Mutex;

/// Runs need both cores to themselves: one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    field(&json, section)
        .and_then(Value::as_array)
        .expect("declared metrics")
        .iter()
        .map(|m| {
            let get = |k: &str| {
                field(m, k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn invoke(workload: &str, seed: u64, trace: bool, falsify: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_doppel-benchmark"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if falsify {
        cmd.arg("--falsify-check");
    }
    cmd.output().expect("the benchmark starts")
}

fn input_hash(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix("# inputs:")
                .and_then(|l| l.split("input_hash=").nth(1))
        })
        .expect("the run prints its input hash")
        .trim()
        .to_string()
}

/// Checks one successful run against the declaration; returns its input hash.
fn check_run(workload: &str, trace: bool) -> String {
    let out = invoke(workload, 1, trace, false);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let metrics = declared(if trace { "per_layer" } else { "end_to_end" });
    // The table: `name value unit ...`, each declared name exactly once.
    for (name, unit) in &metrics {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        let rows: Vec<&str> = stdout
            .lines()
            .filter(|l| l.split(' ').next() == Some(name.as_str()))
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "{workload} trace={trace}: {name} printed {} times",
            rows.len()
        );
        assert_eq!(
            rows[0].split(' ').nth(2),
            Some(unit.as_str()),
            "{workload}: unit of {name} in {:?}",
            rows[0]
        );
    }
    // The contract's last line: exactly these keys, exactly these metrics.
    let last =
        serde_json::parse(stdout.lines().last().expect("output")).expect("the last line is JSON");
    let keys: Vec<&str> = last
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&last, "correct"), Some(&Value::Bool(true)));
    assert!(matches!(field(&last, "attempted"), Some(Value::Uint(n)) if *n >= 1));
    let printed = field(&last, "metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(
        printed.len(),
        metrics.len(),
        "{workload} trace={trace}: metric count"
    );
    for (name, unit) in &metrics {
        let m = printed
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(
            matches!(
                field(m, "value"),
                Some(Value::Float(_) | Value::Uint(_) | Value::Int(_))
            ),
            "{name} is not a number"
        );
        assert_eq!(
            field(m, "unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
    }
    input_hash(&stdout)
}

fn smoke(workload: &str) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let untraced = check_run(workload, false);
    let traced = check_run(workload, true);
    assert_eq!(
        untraced, traced,
        "{workload}: equal seeds must generate equal inputs"
    );

    // A falsified expectation must fail the run, without a result line.
    let out = invoke(workload, 2, false, true);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        !out.status.success(),
        "{workload}: a violated output check must fail the run"
    );
    assert!(
        !stdout.lines().any(|l| l.starts_with('{')),
        "{workload}: a failed run must not print a result"
    );
    assert_ne!(
        input_hash(&stdout),
        untraced,
        "{workload}: another seed must generate other inputs"
    );
}

#[test]
fn incr_direct() {
    smoke("incr_direct");
}

#[test]
fn kv_tcp() {
    smoke("kv_tcp");
}

#[test]
fn rubis_tcp() {
    smoke("rubis_tcp");
}

#[test]
fn shard_durable() {
    smoke("shard_durable");
}

#[test]
fn scratch_directories_are_removed() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_doppel-benchmark"));
    let scratch = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("target dir")
        .join("scratch");
    let count = || std::fs::read_dir(&scratch).map_or(0, |d| d.count());
    let before = count();
    assert!(invoke("shard_durable", 3, false, false).status.success());
    assert!(!invoke("shard_durable", 3, false, true).status.success());
    assert_eq!(
        count(),
        before,
        "every invocation removes its scratch directory, also after a failed check"
    );
}
