//! Seeded input generation. Everything a worker will do in its timed loop
//! is drawn here, before set-up is timed: the loop only reads the next
//! pre-generated operation word from its ring.

use lfc_runtime::SmallRng;

/// The random stream of worker `w` (or of any other consumer numbered `w`)
/// under `seed`.
pub fn rng(seed: u64, w: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform draw in [0, 1).
pub fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipf(`s`) over the 0-based ranks `0..n`: rank 0 is the most popular.
/// Sampling inverts the CDF by binary search, which is why it only ever
/// runs while the rings are filled, never in a timed loop.
///
/// `lfc_bench::throughput::ZipfSampler` does the same. The benchmark keeps
/// its own copy on purpose: it depends only on the library crates, not on
/// the evaluation harness whose modes the ROADMAP's deletion passes
/// reshape, so a harness change can neither break nor move it.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One worker's operation words, cycled by the timed loop. The length is
/// a power of two so the loop indexes with a mask.
pub fn ring(len: usize, mut draw: impl FnMut() -> u32) -> Vec<u32> {
    assert!(len.is_power_of_two());
    (0..len).map(|_| draw()).collect()
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A 64-bit finalizer, used to spread keys and to checksum values.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_stay_in_range_and_skew_to_zero() {
        let z = Zipf::new(1000, 0.99);
        let mut r = rng(7, 0);
        let mut hits0 = 0;
        for _ in 0..100_000 {
            let k = z.sample(&mut r);
            assert!(k < 1000);
            hits0 += (k == 0) as u32;
        }
        // P(rank 0) is about 1/H(1000, 0.99) ~ 0.13.
        assert!((10_000..16_000).contains(&hits0), "{hits0}");
    }

    #[test]
    fn same_seed_same_ring() {
        let mk = |seed| {
            let mut r = rng(seed, 1);
            ring(64, || r.next_u32())
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }
}
