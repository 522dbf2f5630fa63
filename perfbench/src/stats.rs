//! Small measurement helpers: order statistics, peak memory, and a
//! digest for "same seed, same outputs" checks.

use std::time::Instant;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank) of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `f` `times` times and returns the median wall seconds together
/// with the last result. Set-up is repeated so `setup_s` is a median,
/// not one noisy sample.
pub fn median_setup<T>(times: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        let t = Instant::now();
        let value = f(i);
        secs.push(t.elapsed().as_secs_f64());
        // The previous set-up is dropped outside the timed region.
        last = Some(value);
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The machine's CPU time counters, the first line of `/proc/stat`
/// (jiffies: user, nice, system, idle, iowait, irq, softirq, steal, ...);
/// empty where there is none.
pub fn cpu_jiffies() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            Some(
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of the machine's CPU time that its host took away (steal)
/// between two `cpu_jiffies` readings, in percent: one kind of outside
/// load, which a virtual machine's timings cannot tell apart otherwise.
pub fn steal_pct(before: &[u64], after: &[u64]) -> f64 {
    let delta = |i: usize| match (before.get(i), after.get(i)) {
        (Some(b), Some(a)) => a.saturating_sub(*b),
        _ => 0,
    };
    let total: u64 = (0..8).map(delta).sum();
    ratio(100.0 * delta(7) as f64, total as f64)
}

/// FNV-1a over everything a run must reproduce for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
