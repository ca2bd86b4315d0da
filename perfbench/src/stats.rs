//! Order statistics, the printed timing summary, and the run digest.

use std::fmt::Write as _;

/// Linear-interpolated quantile of an ascending-sorted sample (`q` in
/// `[0, 1]`). `0.0` for an empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Returns an ascending-sorted copy.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A timing sample summarized the way every timing is printed: median,
/// one tail percentile, the sample count and how many samples lie beyond
/// the tail.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Timing {
    #[must_use]
    pub fn of(values: &[f64], tail_q: f64) -> Self {
        let s = sorted(values);
        let tail = quantile(&s, tail_q);
        Timing {
            median: quantile(&s, 0.5),
            tail,
            tail_q,
            samples: s.len(),
            beyond: s.iter().filter(|&&v| v > tail).count(),
        }
    }

    /// `label: median 1.234 unit, p99 5.678 unit (n=900, 9 beyond p99)`.
    #[must_use]
    pub fn line(&self, label: &str, unit: &str) -> String {
        format!(
            "{label}: median {:.3} {unit}, p{} {:.3} {unit} (n={}, {} beyond p{})",
            self.median,
            (self.tail_q * 100.0).round(),
            self.tail,
            self.samples,
            self.beyond,
            (self.tail_q * 100.0).round()
        )
    }
}

/// A ratio printed with its base: `label: 0.0123 (12 / 975)`.
#[must_use]
pub fn ratio_line(label: &str, num: f64, den: f64) -> String {
    format!("{label}: {:.6} ({num} / {den})", safe_div(num, den))
}

/// `num / den`, or `0.0` when `den` is zero.
#[must_use]
pub fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a 64-bit over everything written into it: the digest two
/// commits compare to see that a workload produced the same outputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn debug<T: std::fmt::Debug>(&mut self, value: &T) {
        let mut s = String::new();
        let _ = write!(s, "{value:?}");
        self.bytes(s.as_bytes());
    }

    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }

    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn timing_counts_samples_beyond_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&v, 0.99);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.bytes(b"ab");
        let mut b = Digest::default();
        b.bytes(b"ba");
        assert_ne!(a.hex(), b.hex());
    }
}
