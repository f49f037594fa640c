//! Latency histogram: exact 1 ns buckets below 65.5 µs, 64 log-linear
//! sub-buckets per power of two above. Quantiles interpolate inside the
//! bucket, so a reported percentile keeps its fractional digits instead
//! of snapping to a bucket edge.

const LIN: usize = 1 << 16;
const LIN_BITS: usize = 16;
const SUB_BITS: usize = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^48 ns (about three days) land in the last bucket.
const TOP_BITS: usize = 48;

#[derive(Clone)]
pub struct Hist {
    lin: Vec<u32>,
    log: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            lin: vec![0; LIN],
            log: vec![0; (TOP_BITS - LIN_BITS) * SUB],
            n: 0,
        }
    }
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        if ns < LIN as u64 {
            self.lin[ns as usize] += 1;
        } else {
            let e = 63 - ns.leading_zeros() as usize;
            let idx = if e >= TOP_BITS {
                self.log.len() - 1
            } else {
                (e - LIN_BITS) * SUB + ((ns >> (e - SUB_BITS)) as usize & (SUB - 1))
            };
            self.log[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.lin.iter_mut().zip(&o.lin) {
            *a += b;
        }
        for (a, b) in self.log.iter_mut().zip(&o.log) {
            *a += b;
        }
        self.n += o.n;
    }

    pub fn clear(&mut self) {
        self.lin.fill(0);
        self.log.fill(0);
        self.n = 0;
    }

    /// The `q` quantile in ns (0 for an empty histogram), linearly
    /// interpolated inside the bucket that holds it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut cum = 0.0;
        let buckets = self
            .lin
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64, 1.0, c));
        let logs = self.log.iter().enumerate().map(|(i, &c)| {
            let e = LIN_BITS + i / SUB;
            let width = (1u64 << (e - SUB_BITS)) as f64;
            ((1u64 << e) as f64 + (i % SUB) as f64 * width, width, c)
        });
        let mut last = 0.0;
        for (lo, width, c) in buckets.chain(logs) {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if cum + c >= target {
                return lo + (target - cum) / c * width;
            }
            cum += c;
            last = lo + width;
        }
        last
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!((h.p50() - 50.0).abs() <= 1.0, "{}", h.p50());
        assert!((h.p99() - 99.0).abs() <= 1.0, "{}", h.p99());
        let mut big = Hist::default();
        big.record(1 << 20);
        let v = big.p50();
        assert!(
            v >= (1 << 20) as f64 && v < ((1 << 20) + (1 << 14)) as f64,
            "{v}"
        );
        big.record(u64::MAX);
        assert_eq!(big.count(), 2);
    }
}
