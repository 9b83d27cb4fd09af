//! `selfcheck`: does the benchmark repeat within its own bounds?
//!
//! Runs every workload N times on the current build, each time with another
//! seed, and prints median, quartiles and spread ÷ bound per (workload,
//! end-to-end metric) — the figure the builder's driver computes, with the
//! same quantile method. Fails when a spread exceeds its bound. `--save`
//! writes the result file `diff` compares; `layers` prints one traced run of
//! each workload (the committed `results/layers.txt`).

use crate::json::{field, num, number, obj, Json};
use crate::run::git_stamp;
use crate::spec;
use crate::sys::{self, Scratch};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

pub struct Options {
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<String>,
    pub save: Option<PathBuf>,
}

/// One child invocation; returns its full result and its standard output.
fn invoke(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Scratch,
) -> Result<(Value, String), String> {
    let out = scratch
        .path()
        .join(format!("{workload}-{seed}-{}.json", trace as u8));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--out"])
        .arg(&out)
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("no result file from {workload}: {e}"))?;
    let full = serde_json::parse(&text).map_err(|e| e.to_string())?;
    Ok((full, stdout))
}

pub fn selfcheck(opts: &Options) -> Result<bool, String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    let (commit, dirty) = git_stamp();
    let mut within = true;
    let mut saved_workloads = Vec::new();
    let mut saved_runs = Vec::new();
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>14} {:>8} {:>6} {:>12}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound"
    );
    for w in &opts.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        for i in 0..opts.runs {
            let (full, _) = invoke(w, opts.seed + i as u64, opts.seconds, false, &scratch)?;
            for (m, vals) in spec::END_TO_END.iter().zip(values.iter_mut()) {
                let v = field(&full, "metrics")
                    .and_then(|ms| field(ms, m.name))
                    .and_then(|mv| field(mv, "value"))
                    .and_then(number);
                vals.push(v.ok_or_else(|| format!("{w}: run printed no {}", m.name))?);
            }
            attempted += field(&full, "attempted").and_then(number).unwrap_or(0.0) as u64;
            failed += field(&full, "failed").and_then(number).unwrap_or(0.0) as u64;
            saved_runs.push(full);
        }
        let mut fields = vec![
            ("attempted", Value::Uint(attempted as u128)),
            ("failed", Value::Uint(failed as u128)),
        ];
        for (m, vals) in spec::END_TO_END.iter().zip(&values) {
            let (q1, q2, q3) = sys::quartiles(vals);
            let spread = sys::spread(vals);
            let ok = spread <= m.bound;
            within &= ok;
            println!(
                "{w:<14} {:<20} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>5.0}% {:>11.2}{}",
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                spread / m.bound,
                if ok { "" } else { "  EXCEEDS BOUND" }
            );
            fields.push((
                m.name,
                obj(vec![
                    (
                        "values",
                        Value::Array(vals.iter().map(|v| num(*v)).collect()),
                    ),
                    ("median", num(q2)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("spread", num(spread)),
                    ("bound", num(m.bound)),
                ]),
            ));
        }
        saved_workloads.push((w.clone(), obj(fields)));
    }
    if let Some(path) = &opts.save {
        let file = obj(vec![
            ("git_commit", Value::String(commit)),
            ("git_dirty", Value::Bool(dirty)),
            ("nproc", Value::Uint(sys::nproc() as u128)),
            ("kernel", Value::String(sys::kernel())),
            ("first_seed", Value::Uint(opts.seed as u128)),
            ("runs_per_workload", Value::Uint(opts.runs as u128)),
            ("run_seconds", num(opts.seconds)),
            ("workloads", Value::Object(saved_workloads)),
            ("runs", Value::Array(saved_runs)),
        ]);
        std::fs::write(
            path,
            serde_json::to_string_pretty(&Json(&file)).expect("json"),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(within)
}

/// One traced run of each workload, printed as it printed itself.
pub fn layers(opts: &Options) -> Result<(), String> {
    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    let (commit, dirty) = git_stamp();
    println!("# layer tables: one --trace 1 run per workload");
    println!(
        "# git_commit={commit} git_dirty={dirty} nproc={} kernel={} seed={} run_seconds={}",
        sys::nproc(),
        sys::kernel(),
        opts.seed,
        opts.seconds
    );
    for w in &opts.workloads {
        let (_, stdout) = invoke(w, opts.seed, opts.seconds, true, &scratch)?;
        println!();
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    Ok(())
}
