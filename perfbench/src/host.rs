//! Host-side context for the timings the harness takes: per-thread CPU
//! and run-queue wait, and a fixed calibration workload. They sit beside
//! every timing so a reader can tell a slower program from a slower host.

use std::hint::black_box;

/// The calling thread's scheduler counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    /// Nanoseconds spent on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
}

impl SchedStat {
    /// Reads `/proc/thread-self/schedstat` (zeros if unavailable).
    pub fn now() -> SchedStat {
        let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut it = s.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
        SchedStat {
            on_cpu_ns: it.next().unwrap_or(0),
            runq_wait_ns: it.next().unwrap_or(0),
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
        }
    }

    /// Sum of two deltas.
    pub fn plus(self, other: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns + other.on_cpu_ns,
            runq_wait_ns: self.runq_wait_ns + other.runq_wait_ns,
        }
    }
}

/// A fixed integer loop (an LCG, 20 M steps) for the harness to time.
/// Its work never changes, so its drift between runs is the host's.
pub fn calibrate() -> u64 {
    let mut x = black_box(1u64);
    for _ in 0..20_000_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x)
}
