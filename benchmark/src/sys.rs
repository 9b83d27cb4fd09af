//! What the benchmark reads from the host: CPU time per thread, memory,
//! core count, kernel and file-system type — all through `/proc`, so no
//! foreign calls — plus the seeded generator and the quantile arithmetic
//! every metric shares.

use std::fs;
use std::path::{Path, PathBuf};

/// SplitMix64: the benchmark's own generator, so the inputs a seed produces
/// do not change when the repository's `rand` stand-in does.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over the generated inputs; the low 32 bits are reported as
/// `loadgen.input_hash` (exact in a JSON number).
#[derive(Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    pub fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn low32(self) -> u64 {
        (self.0 ^ (self.0 >> 32)) & 0xffff_ffff
    }
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method): the builder's driver uses that
/// function, so the spreads printed here are the ones it will see.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `q`-quantile of an ascending slice, interpolated between neighbours.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (pos - lo as f64)
        }
    }
}

/// Median of nanosecond samples, in microseconds (sorts in place).
pub fn p50_us(samples_ns: &mut [u32]) -> f64 {
    samples_ns.sort_unstable();
    quantile_sorted(samples_ns, 0.5) / 1e3
}

/// On-CPU nanoseconds of every live thread of this process, by thread name
/// (`comm`, truncated by the kernel to 15 bytes).
pub fn cpu_by_thread() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let ns = stat
            .split_whitespace()
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        out.push((comm.trim().to_string(), ns));
    }
    out
}

/// Whole-process on-CPU nanoseconds: the sum over live threads.
pub fn cpu_total_ns() -> u64 {
    cpu_by_thread().iter().map(|(_, ns)| ns).sum()
}

/// Whole-process user+system time from `/proc/self/stat`, in nanoseconds at
/// clock-tick (10 ms) resolution. Counts exited threads too, so it is the
/// independent total the per-thread rows are checked against.
pub fn cpu_stat_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// The thread group a `comm` belongs to in the CPU rows of the layer table.
pub fn thread_group(comm: &str) -> &'static str {
    if comm.starts_with("bench-client") {
        "client"
    } else if comm.starts_with("doppel-poller") || comm.starts_with("doppel-accept") {
        "reactor"
    } else if comm.starts_with("doppel-service") {
        "service"
    } else if comm.starts_with("doppel-coordina") {
        "coordinator"
    } else if comm.starts_with("doppel-tuner") {
        "tuner"
    } else {
        "other"
    }
}

pub const THREAD_GROUPS: [&str; 6] = [
    "client",
    "reactor",
    "service",
    "coordinator",
    "tuner",
    "other",
];

/// CPU nanoseconds per thread group between two `cpu_by_thread` readings.
/// Threads are matched by name; the names the program sets are unique while
/// a fixture is alive.
pub fn cpu_group_delta(before: &[(String, u64)], after: &[(String, u64)]) -> [u64; 6] {
    let mut out = [0u64; 6];
    let sum = |set: &[(String, u64)], group: &str| -> u64 {
        set.iter()
            .filter(|(c, _)| thread_group(c) == group)
            .map(|(_, ns)| ns)
            .sum()
    };
    for (i, group) in THREAD_GROUPS.iter().enumerate() {
        out[i] = sum(after, group).saturating_sub(sum(before, group));
    }
    out
}

/// Live threads by name, for the census printed with every run.
pub fn thread_census() -> Vec<(String, usize)> {
    let mut census: Vec<(String, usize)> = Vec::new();
    for (comm, _) in cpu_by_thread() {
        match census.iter_mut().find(|(c, _)| *c == comm) {
            Some((_, n)) => *n += 1,
            None => census.push((comm, 1)),
        }
    }
    census.sort();
    census
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "?".into(), |s| s.trim().into())
}

/// File-system type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = fs::read_to_string("/proc/self/mounts") else {
        return "?".into();
    };
    let mut best: (usize, String) = (0, "?".into());
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if path.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), kind.to_string());
        }
    }
    best.1
}

/// A directory of this invocation's own under the build's target directory,
/// removed when dropped — also when a check fails and the run exits early.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        // <target>/release/doppel-benchmark → <target>/scratch/run-<pid>-<nanos>
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = target
            .join("scratch")
            .join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn rng_and_hash_are_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
        let mut h = InputHash::default();
        h.feed(1);
        let mut g = InputHash::default();
        g.feed(2);
        assert_ne!(h.low32(), g.low32());
    }

    #[test]
    fn thread_groups_cover_the_names_the_program_sets() {
        assert_eq!(thread_group("doppel-poller-1"), "reactor");
        assert_eq!(thread_group("doppel-accept"), "reactor");
        assert_eq!(thread_group("doppel-service-"), "service");
        assert_eq!(thread_group("doppel-coordina"), "coordinator");
        assert_eq!(thread_group("doppel-tuner"), "tuner");
        assert_eq!(thread_group("bench-client-0"), "client");
        assert_eq!(thread_group("doppel-benchmar"), "other");
    }
}
