//! `diff A B`: applies the declared bounds to two `selfcheck` result files.
//!
//! One row per (workload, end-to-end metric). A row is `unresolved` — not
//! `unchanged` — when either side's own quartile spread exceeds the bound:
//! the runs cannot tell a change of that size from noise.

use crate::json::{field, number};
use crate::spec::{self, Better};
use crate::sys;
use serde_json::Value;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Unchanged,
    Improvement,
    Regression,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improvement => "improvement",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// The verdict for one (workload, metric): `b` against baseline `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if sys::spread(a) > bound || sys::spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (sys::median(a), sys::median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = worse.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improvement
    } else {
        Verdict::Unchanged
    }
}

/// True when the median run of `b` failed a larger share of its attempts
/// than any run of `a` did (each slice holds one failed share per run). First
/// attempts abort by the thousand on `incr_direct` (OCC conflicts in joined
/// phases) and once in a hundred million on `kv_tcp`, and either count
/// wanders from run to run, so a plain "more than before" would flag every
/// second comparison of a commit with itself.
pub fn more_failures(a: &[f64], b: &[f64]) -> bool {
    sys::median(b) > a.iter().copied().fold(0.0, f64::max)
}

fn values_of(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = field(field(field(file, "workloads")?, workload)?, metric)?;
    Some(
        field(m, "values")?
            .as_array()?
            .iter()
            .filter_map(number)
            .collect(),
    )
}

/// The share of attempts counted under `key` (`failed`: never committed;
/// `first_attempt_failed`: aborted or rejected, then retried) in every run of
/// `workload` in a result file, and the (count, attempted) totals.
fn failures_of(file: &Value, workload: &str, key: &str) -> (Vec<f64>, u64, u64) {
    let count = |run: &Value, key: &str| field(run, key).and_then(number).unwrap_or(0.0);
    let (mut shares, mut failed, mut attempted) = (Vec::new(), 0.0, 0.0);
    let runs = field(file, "runs").and_then(Value::as_array);
    for run in runs.into_iter().flatten() {
        if field(run, "workload").and_then(Value::as_str) == Some(workload) {
            let (f, n) = (count(run, key), count(run, "attempted"));
            shares.push(f / n.max(1.0));
            failed += f;
            attempted += n;
        }
    }
    (shares, failed as u64, attempted as u64)
}

/// Prints the table; returns false when any row is a regression, unresolved,
/// or failed more.
pub fn diff(a: &Value, b: &Value) -> Result<bool, String> {
    let workloads: Vec<String> = field(a, "workloads")
        .and_then(Value::as_object)
        .ok_or("first file has no workloads")?
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spreadA", "spreadB", "bound"
    );
    for w in &workloads {
        for spec::EndToEnd {
            name: metric,
            better,
            bound,
            ..
        } in &spec::END_TO_END
        {
            let (Some(va), Some(vb)) = (values_of(a, w, metric), values_of(b, w, metric)) else {
                println!("{w:<14} {metric:<20} missing on one side  UNRESOLVED");
                clean = false;
                continue;
            };
            let v = verdict(&va, &vb, *better, *bound);
            let (ma, mb) = (sys::median(&va), sys::median(&vb));
            println!(
                "{w:<14} {metric:<20} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                if ma != 0.0 { (mb - ma) / ma * 100.0 } else { 0.0 },
                sys::spread(&va) * 100.0,
                sys::spread(&vb) * 100.0,
                bound * 100.0,
                v.as_str()
            );
            clean &= matches!(v, Verdict::Unchanged | Verdict::Improvement);
        }
        for key in ["failed", "first_attempt_failed"] {
            let ((sa, fa, na), (sb, fb, nb)) = (failures_of(a, w, key), failures_of(b, w, key));
            let more = more_failures(&sa, &sb);
            println!(
                "{w:<14} {key:<20} {fa:>14} {fb:>14}   of {na} and {nb} attempted  {}",
                if more {
                    "MORE FAILURES"
                } else {
                    "no more than A's runs"
                }
            );
            clean &= !more;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn regression_improvement_unchanged() {
        let base = around(100.0, 0.01);
        assert_eq!(
            verdict(&base, &around(115.0, 0.01), Better::Lower, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&base, &around(85.0, 0.01), Better::Lower, 0.10),
            Verdict::Improvement
        );
        assert_eq!(
            verdict(&base, &around(105.0, 0.01), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // Direction matters: more throughput is an improvement.
        assert_eq!(
            verdict(&base, &around(115.0, 0.01), Better::Higher, 0.10),
            Verdict::Improvement
        );
        assert_eq!(
            verdict(&base, &around(85.0, 0.01), Better::Higher, 0.10),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_on_either_side_is_unresolved_not_unchanged() {
        let base = around(100.0, 0.01);
        let noisy = around(100.0, 0.30);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &base, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Even a large shift is unresolved when the runs are that noisy.
        assert_eq!(
            verdict(&noisy, &around(150.0, 0.01), Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn failed_share_increase_is_flagged() {
        // Where A never failed, B failing in most of its runs is more; one
        // stray failure is not.
        assert!(more_failures(&[0.0, 0.0, 0.0], &[0.001, 0.0, 0.002]));
        assert!(!more_failures(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.002]));
        // Where A's runs failed 0.3 % to 0.5 %, B's 0.4 % is within them and
        // 0.6 % is not.
        assert!(!more_failures(
            &[0.003, 0.005, 0.004],
            &[0.004, 0.002, 0.006]
        ));
        assert!(more_failures(
            &[0.003, 0.005, 0.004],
            &[0.006, 0.007, 0.004]
        ));
    }

    #[test]
    fn diff_reads_selfcheck_files() {
        let file = |value: f64, failed: u64| {
            let metrics: Vec<String> = spec::END_TO_END
                .iter()
                .map(|m| format!(r#""{}": {{"values": [{value}, {value}, {value}]}}"#, m.name))
                .collect();
            serde_json::parse(&format!(
                r#"{{"workloads": {{"w": {{{}}}}}, "runs": [{{"workload": "w", "attempted": 1000, "failed": {failed}}}]}}"#,
                metrics.join(", ")
            ))
            .unwrap()
        };
        assert!(diff(&file(100.0, 3), &file(101.0, 3)).unwrap());
        // `txn_per_s` fell by two fifths (and everything that is better
        // lower improved): a regression.
        assert!(!diff(&file(100.0, 3), &file(60.0, 3)).unwrap());
        assert!(!diff(&file(100.0, 3), &file(100.0, 9)).unwrap());
    }
}
