//! The measured window: a clock that cuts it into slices, what each client
//! thread counts per slice, and how the end-to-end metrics are derived from
//! those counts.
//!
//! The main thread owns the clock. At each slice boundary it samples the
//! process's CPU time and allocation counters and *then* publishes the new
//! slice index; client threads read the index when a transaction completes,
//! so commits and CPU time are cut at the same instant whatever delay the
//! main thread's wake-up suffered.

use crate::sys;
use doppel_common::alloc::{alloc_totals, ThreadAllocCheckpoint};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::{Duration, Instant};

/// Slice index while warming up (counted, then discarded).
pub const WARMUP: i32 = 0;
/// Published when the load must stop.
pub const STOP: i32 = -1;

#[derive(Default)]
pub struct SliceClock {
    slice: AtomicI32,
    traced: AtomicBool,
}

impl SliceClock {
    /// The current slice: `WARMUP`, `1..=n`, or `STOP`.
    #[inline]
    pub fn now(&self) -> i32 {
        self.slice.load(Ordering::Relaxed)
    }

    /// True while client calls are to be wrapped in spans.
    #[inline]
    pub fn traced(&self) -> bool {
        self.traced.load(Ordering::Relaxed)
    }

    fn publish(&self, slice: i32, traced: bool) {
        self.traced.store(traced, Ordering::Relaxed);
        self.slice.store(slice, Ordering::Relaxed);
    }

    pub fn stop(&self) {
        self.publish(STOP, false);
    }
}

/// What one client thread counted in one slice.
#[derive(Default, Clone)]
pub struct SliceAcc {
    pub committed: u64,
    /// Sampled submit → completion latencies, nanoseconds (saturating).
    pub lat_ns: Vec<u32>,
}

/// One benchmark-side span: a client call, by name, inside a batch.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The enclosing batch span's id (0 for a root).
    pub parent: u32,
    pub id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a client thread hands back when the load stops.
#[derive(Default)]
pub struct ClientReport {
    /// Index 0 is the warm-up, `1..=n` the slices.
    pub slices: Vec<SliceAcc>,
    /// Calls issued for the first time (retries not counted).
    pub attempted: u64,
    /// Calls whose first attempt did not commit: it aborted or was rejected
    /// by backpressure. (A first attempt that fails on I/O fails the run.)
    /// The closed-loop client retries such a call until it commits.
    pub failed: u64,
    /// Calls taken from the pool, in order, wrapping: call `s` of the
    /// sequence is pool entry `s % len`. Every one of them committed except
    /// those in `never_committed` (aborts that are not retryable), which is
    /// what makes the output check exact.
    pub issued: u64,
    pub never_committed: Vec<u64>,
    /// Replies that contradicted the workload's own expectation.
    pub check_failures: u64,
    /// Workload-specific counts (`shard_durable`: routes taken under load;
    /// `incr_direct`: procedures built and commits inside the allocation
    /// window).
    pub extra: Vec<u64>,
    /// Thread-local allocations over the measured (untraced) slices.
    pub allocs: u64,
    /// Seconds inside submit calls / waiting for replies / in whole batches,
    /// over the traced slices.
    pub submit_s: f64,
    pub wait_s: f64,
    pub batch_s: f64,
    pub traced_txns: u64,
    /// Deferred (stashed) transactions' submit → replayed-completion times
    /// in the traced slices, nanoseconds.
    pub stash_wait_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

impl ClientReport {
    pub fn new(slices: usize, lat_capacity: usize) -> ClientReport {
        ClientReport {
            slices: (0..=slices)
                .map(|_| SliceAcc {
                    committed: 0,
                    lat_ns: Vec::with_capacity(lat_capacity),
                })
                .collect(),
            stash_wait_ns: Vec::with_capacity(4096),
            spans: Vec::with_capacity(SPAN_CAP),
            ..Default::default()
        }
    }

    /// Counts one committed transaction in `slice` (any index the clock can
    /// publish; completions after `STOP` are counted with the warm-up, which
    /// is discarded).
    #[inline]
    pub fn commit(&mut self, slice: i32, lat_ns: Option<u64>) {
        let acc = &mut self.slices[slice.max(0) as usize];
        acc.committed += 1;
        if let Some(ns) = lat_ns {
            acc.lat_ns.push(ns.min(u32::MAX as u64) as u32);
        }
    }

    pub fn span(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }
}

/// A client thread's own allocations over the untraced slices: the mark is
/// taken when slice 1 begins and read when the span slices begin (or the
/// load stops).
#[derive(Default)]
pub struct AllocWindow {
    mark: Option<ThreadAllocCheckpoint>,
    done: bool,
}

impl AllocWindow {
    /// Call once per loop iteration with what the clock currently shows.
    #[inline]
    pub fn observe(&mut self, slice: i32, traced: bool, report: &mut ClientReport) {
        if self.done {
            return;
        }
        if self.mark.is_none() && slice >= 1 {
            self.mark = Some(ThreadAllocCheckpoint::now());
        }
        if traced {
            self.finish(report);
        }
    }

    /// True between the mark and the reading.
    #[inline]
    pub fn open(&self) -> bool {
        self.mark.is_some() && !self.done
    }

    /// Call when the load stops.
    pub fn finish(&mut self, report: &mut ClientReport) {
        if !self.done {
            report.allocs = self.mark.map_or(0, |m| m.delta().0);
            self.done = true;
        }
    }
}

/// Spans kept per client thread (the rest are timed but not stored).
pub const SPAN_CAP: usize = 100_000;

/// What the main thread sampled at a slice boundary.
#[derive(Clone)]
pub struct Boundary {
    pub at: Instant,
    pub cpu_ns: u64,
    pub allocs: (u64, u64),
}

impl Boundary {
    fn sample() -> Boundary {
        Boundary {
            cpu_ns: sys::cpu_total_ns(),
            allocs: alloc_totals(),
            at: Instant::now(),
        }
    }
}

/// The timeline of one load phase.
pub struct Plan {
    pub warmup: Duration,
    pub slice: Duration,
    /// Measured slices (untraced).
    pub untraced: usize,
    /// Slices during which client calls are wrapped in spans (trace runs).
    pub traced: usize,
}

impl Plan {
    /// `seconds` of measured window: 2 s slices (shorter only for the smoke
    /// test's 1 s runs). A trace run spends 40 % of the window untraced,
    /// 20 % with spans, and leaves the rest for serial probes and walks.
    pub fn new(seconds: f64, trace: bool) -> Plan {
        let slice = if seconds >= 4.0 { 2.0 } else { seconds / 4.0 };
        let total = (seconds / slice).round().max(1.0) as usize;
        let (untraced, traced) = if trace {
            (
                ((total as f64 * 0.4).floor() as usize).max(1),
                ((total as f64 * 0.2).floor() as usize).max(1),
            )
        } else {
            (total, 0)
        };
        Plan {
            warmup: Duration::from_secs_f64((seconds * 0.5).min(2.0)),
            slice: Duration::from_secs_f64(slice),
            untraced,
            traced,
        }
    }

    pub fn slices(&self) -> usize {
        self.untraced + self.traced
    }

    /// Drives the clock through warm-up and every slice, then stops it.
    /// Returns the `slices() + 1` boundaries (start of slice 1 … end of the
    /// last slice). `on_boundary(k)` runs right after slice `k` begins, for
    /// snapshots that must line up with the slices.
    ///
    /// While `poll` returns true the main thread wakes every 10 ms to call it
    /// again (trace runs watch for the first split key this way); once it
    /// returns false the thread sleeps through each slice undisturbed.
    pub fn drive(
        &self,
        clock: &SliceClock,
        mut on_boundary: impl FnMut(usize),
        mut poll: impl FnMut() -> bool,
    ) -> Vec<Boundary> {
        let mut polling = poll();
        let mut sleep_until = |due: Instant| loop {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if polling {
                std::thread::sleep(left.min(Duration::from_millis(10)));
                polling = poll();
            } else {
                std::thread::sleep(left);
            }
        };
        clock.publish(WARMUP, false);
        sleep_until(Instant::now() + self.warmup);
        let mut boundaries = Vec::with_capacity(self.slices() + 1);
        let start = Instant::now();
        for k in 1..=self.slices() {
            boundaries.push(Boundary::sample());
            clock.publish(k as i32, k > self.untraced);
            on_boundary(k);
            sleep_until(start + self.slice * k as u32);
        }
        boundaries.push(Boundary::sample());
        clock.stop();
        on_boundary(self.slices() + 1);
        boundaries
    }
}

/// Per-slice values of the time-based end-to-end metrics.
#[derive(Default, Clone)]
pub struct SliceSeries {
    pub txn_per_s: Vec<f64>,
    pub cpu_us_per_txn: Vec<f64>,
    pub lat_p50_us: Vec<f64>,
    pub lat_p95_us: Vec<f64>,
    pub lat_p99_us: Vec<f64>,
    pub lat_max_us: f64,
    pub min_samples: u64,
    pub committed: u64,
    pub seconds: f64,
    pub cpu_cores: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Folds the client reports and the boundaries of slices `from..=to` into
/// per-slice series.
pub fn series(
    reports: &mut [ClientReport],
    boundaries: &[Boundary],
    from: usize,
    to: usize,
) -> SliceSeries {
    let mut out = SliceSeries {
        min_samples: u64::MAX,
        ..Default::default()
    };
    for k in from..=to {
        let (b0, b1) = (&boundaries[k - 1], &boundaries[k]);
        let secs = b1.at.duration_since(b0.at).as_secs_f64();
        let committed: u64 = reports.iter().map(|r| r.slices[k].committed).sum();
        let mut lat: Vec<u32> = Vec::new();
        for r in reports.iter_mut() {
            lat.append(&mut r.slices[k].lat_ns);
        }
        lat.sort_unstable();
        let cpu_ns = b1.cpu_ns.saturating_sub(b0.cpu_ns);
        out.txn_per_s.push(committed as f64 / secs);
        out.cpu_us_per_txn
            .push(cpu_ns as f64 / 1e3 / committed.max(1) as f64);
        out.lat_p50_us.push(sys::quantile_sorted(&lat, 0.50) / 1e3);
        out.lat_p95_us.push(sys::quantile_sorted(&lat, 0.95) / 1e3);
        out.lat_p99_us.push(sys::quantile_sorted(&lat, 0.99) / 1e3);
        out.lat_max_us = out
            .lat_max_us
            .max(lat.last().copied().unwrap_or(0) as f64 / 1e3);
        out.min_samples = out.min_samples.min(lat.len() as u64);
        out.committed += committed;
        out.seconds += secs;
        out.cpu_cores += cpu_ns as f64 / 1e9;
    }
    out.cpu_cores /= out.seconds.max(1e-9);
    let (first, last) = (&boundaries[from - 1], &boundaries[to]);
    out.allocs = last.allocs.0 - first.allocs.0;
    out.alloc_bytes = last.allocs.1 - first.allocs.1;
    if out.min_samples == u64::MAX {
        out.min_samples = 0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cuts_the_window() {
        let p = Plan::new(22.0, false);
        assert_eq!((p.untraced, p.traced, p.slice.as_secs()), (11, 0, 2));
        let t = Plan::new(22.0, true);
        assert_eq!((t.untraced, t.traced), (4, 2));
        let s = Plan::new(1.0, true);
        assert_eq!((s.untraced, s.traced), (1, 1));
        assert_eq!(s.slice, Duration::from_millis(250));
    }
}
