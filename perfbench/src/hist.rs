//! Latency histogram with bounded relative error.
//!
//! Values below 128 are kept exactly; above, each power of two is split
//! into 128 linear sub-buckets, so a reported percentile (the bucket
//! midpoint) is within 0.4 % of the true sample value.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (about 18 minutes) land in the top bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS) as u64 * SUB) as usize;

/// Log-linear histogram of `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl std::fmt::Debug for LogHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHist")
            .field("total", &self.total)
            .finish()
    }
}

impl Default for LogHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// A percentile read from a histogram, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The estimate, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it.
    pub value: Option<f64>,
    /// Samples in the histogram.
    pub samples: u64,
    /// Samples ranked above the percentile.
    pub beyond: u64,
}

/// A percentile is reported only with at least this many samples above it.
pub const MIN_BEYOND: u64 = 10;

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    (SUB + (exp - SUB_BITS) as u64 * SUB + ((v >> shift) - SUB)) as usize
}

/// Midpoint of bucket `i`.
fn value_of(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB + SUB;
    let lo = sub << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl LogHist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`) by nearest rank.
    pub fn quantile(&self, q: f64) -> Quantile {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let beyond = self.total.saturating_sub(rank);
        let mut value = None;
        if self.total > 0 && beyond >= MIN_BEYOND {
            let mut seen = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    value = Some(value_of(i));
                    break;
                }
            }
        }
        Quantile {
            value,
            samples: self.total,
            beyond,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::default();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5).value, Some(49.0));
    }

    #[test]
    fn relative_error_is_below_one_percent() {
        let mut v = 128u64;
        while v < 1 << 39 {
            let mid = value_of(index(v));
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= 0.01, "{v}: {mid} ({err})");
            v = v * 17 / 16 + 1;
        }
    }

    #[test]
    fn thin_tails_are_withheld() {
        let mut h = LogHist::default();
        for v in 0..500 {
            h.record(v);
        }
        let p99 = h.quantile(0.99);
        assert_eq!(p99.value, None);
        assert_eq!((p99.samples, p99.beyond), (500, 5));
        assert!(h.quantile(0.5).value.is_some());
    }
}
