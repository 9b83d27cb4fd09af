//! The repo's benchmark: one invocation runs one workload (see README.md).
//!
//! ```text
//! doppel-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]
//! doppel-benchmark selfcheck [--runs 10] [--seed 1] [--seconds S] [--workload NAME]... [--save FILE]
//! doppel-benchmark layers    [--seed 1] [--seconds S] [--workload NAME]...
//! doppel-benchmark diff A.json B.json
//! ```

mod diff;
mod json;
mod layers;
mod measure;
mod run;
mod selfcheck;
mod spec;
mod sys;
mod workloads;

use run::{RunArgs, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

// Allocation counts are a first-class metric: count every allocation of the
// process (a binary admits exactly one global allocator, so this package
// must not link `doppel_bench`, which registers the same one).
#[global_allocator]
static ALLOC: doppel_common::CountingAlloc = doppel_common::CountingAlloc;

struct Flags(Vec<String>);

impl Flags {
    /// Removes `--name VALUE` (every occurrence) and returns the values.
    fn take_all(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        while let Some(i) = self.0.iter().position(|a| a == name) {
            if i + 1 >= self.0.len() {
                return Err(format!("{name} needs a value"));
            }
            out.push(self.0.remove(i + 1));
            self.0.remove(i);
        }
        Ok(out)
    }

    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        Ok(self.take_all(name)?.pop())
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.take(name)? {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn take_switch(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("unexpected arguments: {:?}", self.0))
        }
    }
}

fn run_one(args: &RunArgs) -> Result<run::RunResult, String> {
    match args.workload.as_str() {
        workloads::incr_direct::IncrDirect::NAME => {
            run::run::<workloads::incr_direct::IncrDirect>(args)
        }
        workloads::kv_tcp::KvTcp::NAME => run::run::<workloads::kv_tcp::KvTcp>(args),
        workloads::rubis_tcp::RubisTcp::NAME => run::run::<workloads::rubis_tcp::RubisTcp>(args),
        workloads::shard_durable::ShardDurable::NAME => {
            run::run::<workloads::shard_durable::ShardDurable>(args)
        }
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            spec::WORKLOADS
                .iter()
                .chain(&spec::UNGATED_WORKLOADS)
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The declared workloads: what `selfcheck` and `layers` run by default.
fn workload_names() -> Vec<String> {
    spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect()
}

fn selfcheck_options(flags: &mut Flags) -> Result<selfcheck::Options, String> {
    let mut workloads = flags.take_all("--workload")?;
    if workloads.is_empty() {
        workloads = workload_names();
    }
    Ok(selfcheck::Options {
        runs: flags.parsed("--runs", 10)?,
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        workloads,
        save: flags.take("--save")?.map(PathBuf::from),
    })
}

fn main_inner() -> Result<bool, String> {
    let mut flags = Flags(std::env::args().skip(1).collect());
    match flags.0.first().map(String::as_str) {
        Some("selfcheck") => {
            flags.0.remove(0);
            let opts = selfcheck_options(&mut flags)?;
            flags.done()?;
            selfcheck::selfcheck(&opts)
        }
        Some("layers") => {
            flags.0.remove(0);
            let opts = selfcheck_options(&mut flags)?;
            flags.done()?;
            selfcheck::layers(&opts).map(|()| true)
        }
        Some("diff") => {
            flags.0.remove(0);
            let [a, b] = &flags.0[..] else {
                return Err("diff takes two result files".into());
            };
            let parse = |p: &String| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                serde_json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            diff::diff(&parse(a)?, &parse(b)?)
        }
        _ => {
            let args = RunArgs {
                workload: flags
                    .take("--workload")?
                    .ok_or("--workload NAME is required")?,
                seed: flags.parsed("--seed", 1)?,
                seconds: flags.parsed("--seconds", spec::RUN_SECONDS as f64)?,
                trace: flags.parsed::<u8>("--trace", 0)? != 0,
                out: flags.take("--out")?.map(PathBuf::from),
                spans: flags.take("--spans")?.map(PathBuf::from),
                falsify: flags.take_switch("--falsify-check"),
            };
            flags.done()?;
            if !(args.seconds >= 0.5 && args.seconds <= 60.0) {
                return Err("--seconds must be between 0.5 and 60".into());
            }
            let result = run_one(&args)?;
            // The contract's last line.
            println!("{}", run::contract_line(&result));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("doppel-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
