//! Deterministic pseudo-random number generation.
//!
//! [`DetRng`] is a xoshiro256++ generator seeded through SplitMix64 — the
//! standard pairing recommended by the xoshiro authors. It replaces the
//! external `rand` crate throughout the workspace: workloads reach it as
//! `shrimp_sim::SimRng`, the property engine ([`crate::prop`]) draws its
//! choice streams from it, and its output for a given seed is pinned by
//! golden tests so an RNG change can never silently reshuffle every
//! experiment.

use std::ops::Range;

/// Advances a SplitMix64 state and returns the next output word.
///
/// SplitMix64 passes through every 64-bit state exactly once, which makes
/// it the canonical seed expander: any `u64` seed — including 0 — yields a
/// full-entropy xoshiro state.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// The full sequence is a pure function of the seed; equal seeds give
/// bit-identical streams on every platform. All methods are inherent (no
/// trait import needed at call sites).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a single seed word via SplitMix64.
    pub fn from_seed(seed: u64) -> DetRng {
        let mut st = seed;
        DetRng::from_state([
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ])
    }

    /// Creates a generator from a raw xoshiro state.
    ///
    /// The all-zero state is a fixed point of xoshiro; it is remapped to a
    /// SplitMix64-expanded constant so every input is usable.
    pub fn from_state(s: [u64; 4]) -> DetRng {
        if s == [0; 4] {
            return DetRng::from_seed(0x5348_5249_4d50_2131); // "SHRIMP!1"
        }
        DetRng { s }
    }

    /// Returns the raw xoshiro state.
    ///
    /// Feeding the returned words back through [`DetRng::from_state`]
    /// resumes the stream exactly where it left off — the property the
    /// simulation checkpoint plane relies on (and `rng_golden.rs` pins), so
    /// the state layout is part of the serialized-snapshot format.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Returns the next word of the stream (xoshiro256++ step).
    pub fn gen_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 bits (upper half of the next word).
    pub fn gen_u32(&mut self) -> u32 {
        (self.gen_u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples uniformly from a half-open range, e.g.
    /// `rng.gen_range(0u64..100)` or `rng.gen_range(-1.0..1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = bounded(self.gen_u64(), (i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Fills a byte slice with stream output.
    pub fn fill_bytes(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let w = self.gen_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Maps a raw word into `[0, span)` by fixed-point multiplication
/// (Lemire's method without the rejection step; the bias is below 2^-32
/// for every span the workspace uses).
fn bounded(word: u64, span: u64) -> u64 {
    ((word as u128 * span as u128) >> 64) as u64
}

/// A half-open range [`DetRng::gen_range`] can sample from.
pub trait RangeSample {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut DetRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),+) => {$(
        impl RangeSample for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = bounded(rng.gen_u64(), span);
                ((self.start as i128) + off as i128) as $t
            }
        }
    )+};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RangeSample for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut DetRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = DetRng::from_seed(7);
        let mut b = DetRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::from_seed(1);
        let mut b = DetRng::from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut st = 1234567u64;
        assert_eq!(splitmix64(&mut st), 6457827717110365317);
        assert_eq!(splitmix64(&mut st), 3203168211198807973);
        assert_eq!(splitmix64(&mut st), 9817491932198370423);
    }

    #[test]
    fn zero_state_is_remapped() {
        let mut z = DetRng::from_state([0; 4]);
        assert_ne!(z.gen_u64(), 0, "all-zero state must not be a fixed point");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = DetRng::from_seed(99);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn range_covers_every_value() {
        let mut rng = DetRng::from_seed(3);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some bucket never drawn: {seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::from_seed(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = DetRng::from_seed(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = DetRng::from_seed(21);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
