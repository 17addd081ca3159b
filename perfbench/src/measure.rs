//! Clocks, memory and order statistics.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling thread, and every thread it spawns later, to the
/// last CPU it may run on (the first one usually takes more of the
/// machine's interrupts). Returns that CPU, or `None` when the affinity
/// calls fail.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64).rfind(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile read from raw samples, with the counts that say whether
/// the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    /// Requested quantile in (0, 1).
    pub q: f64,
    /// Value at the quantile (nearest rank).
    pub value: f64,
    /// Samples in total.
    pub n: usize,
    /// Samples strictly above the quantile's rank.
    pub beyond: usize,
}

impl Pctl {
    /// True when at least ten samples lie beyond the percentile — the
    /// least a tail figure needs before it is reported.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn pctl(sorted: &[f64], q: f64) -> Pctl {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pctl {
        q,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// The highest of `qs` (ascending) that the sample supports, falling
/// back to the median.
pub fn highest_supported(sorted: &[f64], qs: &[f64]) -> Pctl {
    qs.iter()
        .rev()
        .map(|&q| pctl(sorted, q))
        .find(Pctl::supported)
        .unwrap_or_else(|| pctl(sorted, 0.5))
}

/// Percentile of a latency histogram. The histogram keeps bucket
/// counts, not samples, and `Histogram::quantile` reads the upper edge
/// of the bucket that holds the rank: runs whose percentile moved by
/// less than a bucket would all read the same edge. So the value walks
/// the histogram's own CDF points and interpolates linearly between the
/// two that bracket `q`. Where empty buckets lie between those two, the
/// value can fall below the bucket that holds the rank; it never rises
/// above that bucket's edge.
pub fn hist_pctl(h: &hat_obs::Histogram, q: f64) -> Pctl {
    let n = h.count() as usize;
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let (mut prev_edge, mut prev_cum) = (0.0, 0.0);
    let mut value = h.quantile(q);
    for (edge, cum) in h.cdf() {
        if cum >= q {
            value = prev_edge + (edge - prev_edge) * (q - prev_cum) / (cum - prev_cum);
            break;
        }
        (prev_edge, prev_cum) = (edge, cum);
    }
    Pctl {
        q,
        value: value.min(h.max()),
        n,
        beyond: n.saturating_sub(rank),
    }
}

/// The highest of `qs` (ascending) a histogram supports, falling back
/// to the median.
pub fn hist_highest_supported(h: &hat_obs::Histogram, qs: &[f64]) -> Pctl {
    qs.iter()
        .rev()
        .map(|&q| hist_pctl(h, q))
        .find(Pctl::supported)
        .unwrap_or_else(|| hist_pctl(h, 0.5))
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_what_lies_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = pctl(&xs, 0.99);
        assert_eq!((p.value, p.n, p.beyond), (99.0, 100, 1));
        assert!(!p.supported());
        let p90 = highest_supported(&xs, &[0.5, 0.9, 0.99]);
        assert_eq!((p90.q, p90.value, p90.beyond), (0.9, 90.0, 10));
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn histogram_percentile_stays_in_its_bucket() {
        let mut h = hat_obs::Histogram::for_latency_ms();
        for i in 1..=1000 {
            h.record(i as f64 / 10.0);
        }
        let p = hist_pctl(&h, 0.5);
        assert!((p.value - 50.0).abs() / 50.0 < 0.02, "{p:?}");
        assert!(p.value <= h.quantile(0.5), "{p:?} above its bucket's edge");
        assert_eq!((p.n, p.beyond), (1000, 500));
        assert!(hist_pctl(&h, 0.999).value <= h.max());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
