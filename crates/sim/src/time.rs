//! Simulated time: picosecond-resolution timestamps and conversion helpers.
//!
//! Picoseconds in a `u64` cover roughly 213 days of simulated time, far more
//! than any experiment in the study, while keeping every hardware latency in
//! the model (down to single memory-bus cycles at 60 MHz) exactly
//! representable.

/// A point in (or span of) simulated time, in picoseconds.
pub type Time = u64;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: Time = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: Time = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: Time = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: Time = 1_000_000_000_000;

/// Multiplies with an overflow check: `u64` picoseconds wrap silently in
/// release builds, and a wrapped timestamp is a wrong *schedule*, not a
/// crash — far harder to debug than this panic.
const fn scale(v: u64, ps_per_unit: Time) -> Time {
    match v.checked_mul(ps_per_unit) {
        Some(t) => t,
        None => panic!("time overflow: value in this unit exceeds u64 picoseconds (~213 days)"),
    }
}

/// Converts nanoseconds to [`Time`].
///
/// Panics if the result overflows `u64` picoseconds (~213 days of
/// simulated time):
///
/// ```
/// assert_eq!(shrimp_sim::time::ns(3), 3_000);
/// // The largest representable span in each unit still converts…
/// assert_eq!(shrimp_sim::time::ns(u64::MAX / 1_000), 18_446_744_073_709_551_000);
/// ```
///
/// ```should_panic
/// shrimp_sim::time::ns(u64::MAX / 1_000 + 1); // one past the boundary
/// ```
pub const fn ns(v: u64) -> Time {
    scale(v, PS_PER_NS)
}

/// Converts microseconds to [`Time`]. Panics on `u64` overflow.
pub const fn us(v: u64) -> Time {
    scale(v, PS_PER_US)
}

/// Converts milliseconds to [`Time`]. Panics on `u64` overflow.
pub const fn ms(v: u64) -> Time {
    scale(v, PS_PER_MS)
}

/// Converts seconds to [`Time`]. Panics on `u64` overflow — the silent
/// wrap this replaces turned e.g. `s(20_000_000)` into a *small* value:
///
/// ```
/// // 18 446 744 s (~213 days) is the last representable second count…
/// assert_eq!(shrimp_sim::time::s(18_446_744), 18_446_744_000_000_000_000);
/// ```
///
/// ```should_panic
/// shrimp_sim::time::s(18_446_745); // …and one more second overflows
/// ```
pub const fn s(v: u64) -> Time {
    scale(v, PS_PER_S)
}

/// Converts a [`Time`] to fractional seconds (for reporting).
pub fn to_secs(t: Time) -> f64 {
    t as f64 / PS_PER_S as f64
}

/// Converts a [`Time`] to fractional microseconds (for reporting).
pub fn to_us(t: Time) -> f64 {
    t as f64 / PS_PER_US as f64
}

/// Duration of `n` cycles of a clock running at `hz`.
///
/// Rounds to the nearest picosecond; at the 60 MHz SHRIMP node clock one cycle
/// is 16 667 ps.
///
/// ```
/// use shrimp_sim::time::cycles;
/// assert_eq!(cycles(1, 60_000_000), 16_667);
/// ```
pub const fn cycles(n: u64, hz: u64) -> Time {
    // n * PS_PER_S / hz, with u128 to avoid overflow for large n.
    ((n as u128 * PS_PER_S as u128 + (hz / 2) as u128) / hz as u128) as Time
}

/// Time to move `bytes` at `bytes_per_sec` (rounded up to whole picoseconds).
///
/// ```
/// use shrimp_sim::time::transfer;
/// // 200 bytes at 200 MB/s takes 1 microsecond.
/// assert_eq!(transfer(200, 200_000_000), shrimp_sim::time::us(1));
/// ```
pub const fn transfer(bytes: u64, bytes_per_sec: u64) -> Time {
    // Every packet pays this, so divide in `u64` whenever the product
    // fits and widen to `u128` only beyond that (same quotient either way).
    match bytes.checked_mul(PS_PER_S) {
        Some(ps) => ps.div_ceil(bytes_per_sec),
        None => ((bytes as u128 * PS_PER_S as u128).div_ceil(bytes_per_sec as u128)) as Time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_testkit::prop::{any_u64, one_of, u64_in};
    use shrimp_testkit::{prop_assert_eq, props};

    #[test]
    fn unit_conversions_compose() {
        assert_eq!(ns(1_000), us(1));
        assert_eq!(us(1_000), ms(1));
        assert_eq!(ms(1_000), s(1));
    }

    #[test]
    fn cycles_at_60mhz() {
        // 60 cycles at 60 MHz is exactly 1 us.
        assert_eq!(cycles(60, 60_000_000), us(1));
        // One cycle rounds to 16_667 ps.
        assert_eq!(cycles(1, 60_000_000), 16_667);
    }

    #[test]
    fn transfer_rounds_up() {
        // 1 byte at 1 GB/s is 1000 ps exactly.
        assert_eq!(transfer(1, 1_000_000_000), 1_000);
        // 1 byte at 3 GB/s is 333.3.. ps, rounded up to 334.
        assert_eq!(transfer(1, 3_000_000_000), 334);
    }

    #[test]
    fn to_secs_roundtrip() {
        assert!((to_secs(s(14)) - 14.0).abs() < 1e-12);
        assert!((to_us(us(7)) - 7.0).abs() < 1e-12);
    }

    /// The `u128` formula `transfer` narrows to `u64` when it can.
    fn transfer_wide(bytes: u64, bytes_per_sec: u64) -> u128 {
        (bytes as u128 * PS_PER_S as u128).div_ceil(bytes_per_sec as u128)
    }

    #[test]
    fn transfer_matches_the_wide_formula_across_the_narrow_boundary() {
        let b = NARROW_MAX;
        // Rates that keep the result inside `u64` for every byte count here.
        for rate in [PS_PER_S, 200_000_000_000, 1 << 40, u64::MAX / 3, u64::MAX] {
            for bytes in [b - 1, b, b + 1] {
                assert_eq!(
                    transfer(bytes, rate) as u128,
                    transfer_wide(bytes, rate),
                    "{bytes} B at {rate} B/s"
                );
            }
        }
    }

    const NARROW_MAX: u64 = u64::MAX / PS_PER_S;

    props! {
        cases = 256;

        /// Random byte counts on both sides of the boundary and random
        /// rates: the result equals the `u128` formula whenever it fits.
        fn transfer_matches_the_wide_formula(
            bytes in one_of(vec![
                u64_in(0..1 << 20),
                u64_in(NARROW_MAX - 4096..NARROW_MAX + 4096),
                any_u64(),
            ]),
            rate in u64_in(1..u64::MAX),
        ) {
            let wide = transfer_wide(bytes, rate);
            if wide <= u64::MAX as u128 {
                prop_assert_eq!(transfer(bytes, rate) as u128, wide);
            }
        }
    }

    #[test]
    fn transfer_large_values_do_not_overflow() {
        // 4 GiB at 200 MB/s: 4294967296 / 2e8 s = 21.47.. s, or 5000 ps/byte.
        let t = transfer(4 << 30, 200_000_000);
        assert_eq!(t, (4u64 << 30) * 5_000);
    }
}
