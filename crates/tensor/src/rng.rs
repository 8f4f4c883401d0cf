/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every stochastic component in the reproduction (weight initialization,
/// synthetic datasets, workload jitter) draws from an explicitly seeded
/// `Rng64`, so a whole experiment is a pure function of its seeds. The
/// generator is splittable via [`Rng64::fork`], which derives an independent
/// stream — used to give each device/worker its own stream without
/// coordination.
///
/// # Example
///
/// ```
/// use pipebd_tensor::Rng64;
///
/// let mut a = Rng64::seed_from_u64(42);
/// let mut b = Rng64::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.uniform();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (expanded with SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng64 {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Derives an independent stream keyed by `stream`.
    ///
    /// Forking with distinct stream ids from the same parent produces
    /// statistically independent generators; forking twice with the same id
    /// produces identical generators (useful for replays).
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the parent state with the stream id through SplitMix64 so the
        // child is decorrelated from both the parent and sibling streams.
        let mut sm = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng64 {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 high bits -> f32 mantissa precision.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng64::below called with n = 0");
        // Multiply-shift; bias is negligible for the small n used here.
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 <= f32::EPSILON {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.spare_normal = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Fills `buf` with standard normal samples.
    pub fn fill_normal(&mut self, buf: &mut [f32]) {
        for v in buf {
            *v = self.normal();
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

impl Default for Rng64 {
    fn default() -> Self {
        Rng64::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::seed_from_u64(123);
        let mut b = Rng64::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let parent = Rng64::seed_from_u64(9);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(0);
        let mut c3 = parent.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng64::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut r = Rng64::seed_from_u64(6);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = Rng64::seed_from_u64(7);
        let n = 50_000;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for _ in 0..n {
            let x = r.normal() as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::seed_from_u64(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
