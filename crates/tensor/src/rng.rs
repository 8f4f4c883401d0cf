use std::sync::OnceLock;

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every stochastic component in the reproduction (weight initialization,
/// synthetic datasets, workload jitter) draws from an explicitly seeded
/// `Rng64`, so a whole experiment is a pure function of its seeds. The
/// generator is its four state words and nothing else: every sampler,
/// [`Rng64::normal`] included, consumes whole `next_u64` outputs and
/// caches nothing between calls. It is splittable via [`Rng64::fork`],
/// which derives an independent stream — used to give each device/worker
/// its own stream without coordination.
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
}

/// Where the ziggurat's base layer hands over to its tail (Marsaglia &
/// Tsang 2000, 256 layers).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The area of every layer of that ziggurat, the base layer's tail
/// included.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The layers of the standard normal's ziggurat, in the layout
/// `rand_distr` uses: layer `i` spans `[0, x[i])` at heights between
/// `f[i]` and `f[i + 1]`, where `f` is the unnormalised density
/// `exp(-x²/2)`. `x[0] = V/f(R)` widens the base layer into a rectangle
/// of area `V`, `x[1] = R` and `x[256] = 0`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The tables, built once with the standard recurrence: each layer has
/// area `V`, so `f(x[i + 1]) = V / x[i] + f(x[i])`.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; 257];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
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
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
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
        // The top 53 bits reduced modulo n (not a multiply-shift); the
        // modulo bias is at most n / 2^53.
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// Standard normal sample: a 256-layer ziggurat (Marsaglia & Tsang
    /// 2000).
    ///
    /// Each attempt takes one `next_u64`: its low 8 bits pick a layer `i`
    /// and its top 52 bits a uniform `u` in `[-1, 1)`. When
    /// `|u·x[i]| < x[i + 1]` the point lies in the part of layer `i` that
    /// is wholly under the density, and `u·x[i]` is the draw. 98.5 % of
    /// attempts end there, after one IEEE multiply and one compare and no
    /// libm call, so the fast path gives the same bits on every SIMD tier.
    /// The rest — the wedge beside a layer (one `exp`) and the tail beyond
    /// `R ≈ 3.654` (`ln`) — sits out of line in `Rng64::ziggurat_edge`.
    #[inline]
    pub fn normal(&mut self) -> f32 {
        let zig = ziggurat();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // The top 52 bits are the mantissa of a float in [2, 4).
            let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x as f32;
            }
            // The cold path takes the state by value: were the caller's
            // generator to have its address taken, its state words would
            // live in memory, and every fast draw would wait on a store.
            let (rng, edge) = Self::ziggurat_edge(self.clone(), zig, i, u, x);
            *self = rng;
            if let Some(x) = edge {
                return x as f32;
            }
        }
    }

    /// The rare part of [`Rng64::normal`]: a draw `x = u·x[i]` that fell
    /// outside the layer above. In the base layer (`i == 0`) it is a tail
    /// draw, sampled beyond `R` by Marsaglia's method with the sign of
    /// `u`; elsewhere it is kept with the density's share of the wedge,
    /// or `None` asks for a fresh attempt. Returns the advanced generator
    /// with the outcome.
    #[cold]
    #[inline(never)]
    fn ziggurat_edge(
        mut rng: Rng64,
        zig: &Ziggurat,
        i: usize,
        u: f64,
        x: f64,
    ) -> (Rng64, Option<f64>) {
        if i == 0 {
            loop {
                let a = rng.open_unit_f64().ln() / ZIG_R;
                let b = rng.open_unit_f64().ln();
                if -2.0 * b >= a * a {
                    return (rng, Some(if u < 0.0 { a - ZIG_R } else { ZIG_R - a }));
                }
            }
        }
        let height = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.open_unit_f64();
        (rng, (height < density(x)).then_some(x))
    }

    /// Uniform `f64` in `(0, 1)` from the top 52 bits.
    fn open_unit_f64(&mut self) -> f64 {
        f64::from_bits(0x3FF0_0000_0000_0000 | (self.next_u64() >> 12)) - (1.0 - f64::EPSILON / 2.0)
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Fills `buf` with standard normal samples, in order.
    #[inline]
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

    /// Φ, the standard normal CDF: `1/2 + ∫₀ˣ φ` by Simpson's rule.
    fn phi(x: f64) -> f64 {
        const STEPS: usize = 400;
        let h = x / STEPS as f64;
        let inner: f64 = (1..STEPS)
            .map(|k| density(k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        let integral = (density(0.0) + inner + density(x)) * h / 3.0;
        0.5 + integral / (2.0 * std::f64::consts::PI).sqrt()
    }

    /// A χ² test of 2²¹ draws against Φ over bins of width 0.1 on
    /// [−4, 4] plus the two open ends (82 bins, 81 degrees of freedom),
    /// and the draws beyond ±R — the ziggurat's tail, drawn by its own
    /// code — counted on each side.
    #[test]
    fn normal_matches_the_standard_normal_cdf() {
        const DRAWS: usize = 1 << 21;
        let mut counts = [0u64; 82];
        let (mut below, mut above) = (0u64, 0u64);
        let mut r = Rng64::seed_from_u64(2000);
        for _ in 0..DRAWS {
            let x = r.normal() as f64;
            // Bin 0 is (−∞, −4), bin k in 1..=80 is [−4.1 + k/10, −4 + k/10),
            // bin 81 is [4, ∞).
            let k = ((x + 4.0) * 10.0).floor().clamp(-1.0, 80.0) as i64 + 1;
            counts[k as usize] += 1;
            below += u64::from(x < -ZIG_R);
            above += u64::from(x > ZIG_R);
        }
        let cdf: Vec<f64> = (0..=80).map(|k| phi(-4.0 + k as f64 / 10.0)).collect();
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let p = match k {
                    0 => cdf[0],
                    81 => 1.0 - cdf[80],
                    _ => cdf[k] - cdf[k - 1],
                };
                let expected = p * DRAWS as f64;
                (count as f64 - expected).powi(2) / expected
            })
            .sum();
        // The 99.9th percentile of χ² with 81 degrees of freedom.
        assert!(chi2 < 126.0, "χ² = {chi2} over 81 degrees of freedom");
        let tail = (1.0 - phi(ZIG_R)) * DRAWS as f64;
        for (side, count) in [("below -R", below), ("above R", above)] {
            assert!(
                (count as f64 - tail).abs() < 4.0 * tail.sqrt(),
                "{count} draws {side}, {tail:.0} expected"
            );
        }
    }

    /// Every seeded weight and pixel rides on this stream, so a change to
    /// the sampler must change these bits on purpose.
    #[test]
    fn normal_draws_are_pinned() {
        let mut r = Rng64::seed_from_u64(42);
        let bits: Vec<u32> = (0..16).map(|_| r.normal().to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3f55_9b14,
                0xbf03_d49c,
                0x3fb4_306b,
                0x3eed_cd07,
                0x3f74_2383,
                0x3e8c_58e0,
                0xbfb0_4bef,
                0x3ed4_333c,
                0xbf1c_0f77,
                0x3f4f_c4e1,
                0x3e74_c1b1,
                0x3ffa_167d,
                0x3efd_5400,
                0xbf76_7920,
                0xbe5d_fd13,
                0x3e20_6a95,
            ]
        );
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
