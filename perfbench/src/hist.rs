//! Fixed-size log-linear latency histogram.
//!
//! Values below 128 get a bucket each; above that every power of two is
//! split into 128 equal sub-buckets, so a bucket's width is at most
//! 1/128 of its lower edge and the midpoint a quantile reports is within
//! 0.4% of any value in the bucket. The bucket array has a fixed size for
//! the whole `u64` range, so recording never allocates and a run's memory
//! does not grow with its sample count.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + sub) as usize
}

/// Midpoint of bucket `idx`.
fn midpoint(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let lo = (SUB + idx % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) as a bucket midpoint; `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(midpoint(i));
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Median of a list of measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_below_one_percent() {
        for v in [
            1u64,
            127,
            128,
            129,
            1000,
            4097,
            123_456,
            9_876_543_210,
            u64::MAX / 3,
        ] {
            let mut h = Histogram::default();
            h.record(v);
            let got = h.quantile(0.5).expect("one sample");
            let err = (got - v as f64).abs() / v as f64;
            assert!(err < 0.01, "{v}: {got} ({err})");
        }
    }

    #[test]
    fn quantiles_rank_samples() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.count(), 100);
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
