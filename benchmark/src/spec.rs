//! The benchmark's declaration: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is this table as
//! JSON; a test keeps the two equal. Names are permanent: later changes
//! state their claims in them.

/// Seconds one run measures (see README "Run length").
pub const RUN_SECONDS: u64 = 30;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Declared in `BENCHMARK.json`; read only by the test that compares.
    #[allow(dead_code)]
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` declares, which the driver runs and gates.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "incr_direct",
        why: "2 threads drive TxHandles over 8 oracle-split hot keys (78% add, 2% get) plus cold adds: phase reconciliation does all the work, client/wire/reactor/queue/WAL none.",
    },
    WorkloadSpec {
        name: "kv_tcp",
        why: "Smallest transaction over TCP, 128 deep on 2 connections, uniform over 1M keys: client, wire, reactor, queue and dispatch do the work, the engine is uncontended.",
    },
    WorkloadSpec {
        name: "rubis_tcp",
        why: "RUBiS bidding mix via InvokeProc, 32 deep, tuner on, no hints: multi-key procedures and the Args/ProcResult codec share the work with the engine, as users run it.",
    },
];

/// Runs by name like the others, but is not declared in `BENCHMARK.json`:
/// half of its time is `fdatasync` on the host's shared disk, and ten runs
/// of one commit spread by 20-30 % (README "What was tried").
pub const UNGATED_WORKLOADS: [WorkloadSpec; 1] = [WorkloadSpec {
    name: "shard_durable",
    why: "Router over 2 durable shards, 30% direct / 50% fast-path / 20% 2PC in batches of 32: router, 2PC and WAL (group commit and forced fsync) do the work; I/O-bound.",
}];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// `bound`: how far a later median may be worse than its parent's before the
/// change is a regression, and the widest quartile spread ten runs of one
/// commit may show. The time-based bounds are wider than the issue that
/// defined the benchmark asked for (0.10 / 0.10 / 0.10 / 0.15): the driver
/// refused those, because ten runs on its host spread by more (README
/// "Bounds").
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "txn/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_txn",
        unit: "count",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "alloc_bytes_per_txn",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; read only by the test that compares.
    #[allow(dead_code)]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The layer table, outside in. Source tags and predictions are in the
/// README; `0` means the layer is not on the workload's path.
pub const PER_LAYER: [PerLayer; 82] = [
    layer("client.cpu_us_per_txn", "us", Lower),
    layer("client.submit_us_per_txn", "us", Lower),
    layer("client.wait_share", "share", Lower),
    layer("client.allocs_per_txn", "count", Lower),
    layer("wire.encode_call_ns", "ns", Lower),
    layer("wire.decode_call_ns", "ns", Lower),
    layer("wire.encode_reply_ns", "ns", Lower),
    layer("wire.decode_reply_ns", "ns", Lower),
    layer("wire.frame_scan_ns", "ns", Lower),
    layer("wire.allocs_per_roundtrip", "count", Lower),
    layer("wire.call_bytes", "bytes", Lower),
    layer("wire.reply_bytes", "bytes", Lower),
    layer("reactor.cpu_us_per_txn", "us", Lower),
    layer("reactor.ping_rtt_p50_us", "us", Lower),
    layer("reactor.sheds", "count", Lower),
    layer("reactor.protocol_errors", "count", Lower),
    layer("queue.push_pop_ns", "ns", Lower),
    layer("queue.wait_p50_us", "us", Lower),
    layer("queue.wait_p95_us", "us", Lower),
    layer("queue.avg_batch", "count", Higher),
    layer("queue.busy_rejections", "count", Lower),
    layer("service.cpu_us_per_txn", "us", Lower),
    layer("service.exec_p50_us", "us", Lower),
    layer("service.exec_p95_us", "us", Lower),
    layer("service.inproc_rtt_p50_us", "us", Lower),
    layer("service.deferred_share", "share", Lower),
    layer("procs.kv_call_ns", "ns", Lower),
    layer("procs.kv_allocs_per_call", "count", Lower),
    layer("procs.rubis_call_ns", "ns", Lower),
    layer("procs.rubis_allocs_per_call", "count", Lower),
    layer("procs.abort_share", "share", Lower),
    layer("doppel.joined_txn_ns", "ns", Lower),
    layer("doppel.split_txn_ns", "ns", Lower),
    layer("doppel.slice_ops_per_txn", "count", Higher),
    layer("doppel.stash_share", "share", Lower),
    layer("doppel.stash_wait_p50_us", "us", Lower),
    layer("doppel.split_time_share", "share", Higher),
    layer("doppel.phases_per_s", "1/s", Higher),
    layer("doppel.reconcile_p50_us", "us", Lower),
    layer("doppel.reconcile_p95_us", "us", Lower),
    layer("doppel.stash_replay_p95_us", "us", Lower),
    layer("doppel.conflict_share", "share", Lower),
    layer("doppel.split_keys_end", "count", Higher),
    layer("coordinator.cpu_us_per_txn", "us", Lower),
    layer("occ.incr_direct_txn_per_s", "txn/s", Higher),
    layer("occ.txn_ns", "ns", Lower),
    layer("store.get_ns", "ns", Lower),
    layer("tuner.cpu_us_per_txn", "us", Lower),
    layer("tuner.first_split_ms", "ms", Lower),
    layer("tuner.promotions", "count", Lower),
    layer("tuner.demotions", "count", Lower),
    layer("tuner.split_keys_end", "count", Higher),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.fsync_p50_us", "us", Lower),
    layer("wal.bytes_per_txn", "bytes", Lower),
    layer("wal.records_per_txn", "count", Lower),
    layer("wal.txns_per_fsync", "count", Higher),
    layer("wal.recover_us_per_txn", "us", Lower),
    layer("shard.direct_p50_us", "us", Lower),
    layer("shard.fast_p50_us", "us", Lower),
    layer("shard.twopc_p50_us", "us", Lower),
    layer("shard.direct_share", "share", Higher),
    layer("shard.fast_share", "share", Higher),
    layer("shard.twopc_share", "share", Lower),
    layer("shard.allocs_per_txn", "count", Lower),
    layer("twopc.prepare_p50_us", "us", Lower),
    layer("twopc.decide_p50_us", "us", Lower),
    layer("twopc.in_doubt_end", "count", Lower),
    layer("twopc.no_votes", "count", Lower),
    layer("rtt.p50_us", "us", Lower),
    layer("rtt.unattributed_us", "us", Lower),
    layer("rtt.unattributed_share", "share", Lower),
    layer("loadgen.lat_p99_us", "us", Lower),
    layer("loadgen.lat_max_us", "us", Lower),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.slice_spread", "share", Lower),
    layer("loadgen.gen_ns_per_txn", "ns", Lower),
    layer("loadgen.trace_overhead_share", "share", Lower),
    layer("loadgen.input_hash", "hash", Higher),
    layer("loadgen.fail_share", "share", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("other.cpu_us_per_txn", "us", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use serde_json::Value;

    fn s(text: &str) -> Value {
        Value::String(text.to_string())
    }

    fn direction(better: Better) -> Value {
        s(match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    }

    /// `BENCHMARK.json`, with exactly the keys the builder's contract names.
    fn benchmark_json() -> Value {
        let command = [
            "cargo",
            "run",
            "--quiet",
            "--release",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--bin",
            "doppel-benchmark",
            "--",
        ];
        obj(vec![
            (
                "command",
                Value::Array(command.iter().map(|c| s(c)).collect()),
            ),
            ("paths", Value::Array(vec![s("benchmark")])),
            ("run_seconds", Value::Uint(RUN_SECONDS as u128)),
            (
                "workloads",
                Value::Array(
                    WORKLOADS
                        .iter()
                        .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Array(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", s(m.name)),
                                ("unit", s(m.unit)),
                                ("better", direction(m.better)),
                                ("bound", Value::Float(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Array(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", s(m.name)),
                                ("unit", s(m.unit)),
                                ("better", direction(m.better)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .chain(&UNGATED_WORKLOADS)
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            serde_json::parse(&text).unwrap(),
            benchmark_json(),
            "BENCHMARK.json and src/spec.rs declare different benchmarks"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
