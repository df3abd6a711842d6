//! The profiler's clock: raw CPU cycles, calibrated to wall time once at
//! export.
//!
//! On x86-64 [`now_cycles`] is a single `rdtsc` (~10 ns, monotonic per
//! core on every post-2008 part via the invariant TSC). Elsewhere it
//! falls back to `Instant`, reporting nanoseconds as "cycles". Either
//! way the unit is opaque until [`cycles_per_sec`] — measured once
//! against `Instant` over a short window — converts totals for human
//! display; the hot path never pays for the conversion.

use std::sync::OnceLock;
use std::time::Instant;

/// The current cycle count (x86-64: `rdtsc`; elsewhere: `Instant` nanos).
#[inline(always)]
pub fn now_cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; it is unprivileged and
        // available on every x86-64 CPU.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Cycles per wall-clock second, calibrated once against `Instant` over a
/// few milliseconds. Accurate to well under a percent — fine for reports,
/// which is the only place cycles are converted.
pub fn cycles_per_sec() -> f64 {
    static HZ: OnceLock<f64> = OnceLock::new();
    *HZ.get_or_init(|| {
        let t0 = Instant::now();
        let c0 = now_cycles();
        // Busy-wait ~2 ms: immune to sleep granularity, cheap enough for
        // a once-per-process cost.
        while t0.elapsed().as_micros() < 2_000 {
            std::hint::spin_loop();
        }
        let cycles = now_cycles().saturating_sub(c0);
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 && cycles > 0 {
            cycles as f64 / secs
        } else {
            1e9 // degenerate clock; pretend 1 cycle == 1 ns
        }
    })
}

/// The irreducible cycles a [`span`](crate::span)/drop pair *measures*
/// when the guarded scope does nothing: the latency of the clock-read
/// pair itself. Calibrated once at startup as the median over many
/// back-to-back reads — the median rejects the interrupt/migration tail
/// like a minimum would, but unlike the minimum (which out-of-order
/// execution lets overlap to an unrealistically small value) it matches
/// the typical pair latency spans actually measure in situ.
///
/// Without this correction every span's `end - start` is inflated by the
/// clock-pair latency. The inflation telescopes away for a parent with
/// one child, but a parent whose children's summed inflation exceeds its
/// own self-time clamps at zero (`saturating_sub`) and the excess leaks
/// into the profile — which is exactly how millions of tight nested
/// spans pushed `covered_busy_frac` past 1.0. A few cycles of residual
/// over-subtraction on outlier spans only undercounts (each span clamps
/// at zero), which the coverage band's lower bound absorbs.
pub fn guard_overhead_cycles() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples = [0u64; 4096];
        for s in samples.iter_mut() {
            let a = now_cycles();
            let b = now_cycles();
            *s = b.saturating_sub(a);
        }
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Converts a cycle count to seconds using the calibrated rate.
pub fn cycles_to_secs(cycles: u64) -> f64 {
    cycles as f64 / cycles_per_sec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_advance_monotonically_enough() {
        let a = now_cycles();
        let mut b = now_cycles();
        for _ in 0..1000 {
            b = now_cycles();
        }
        assert!(b > a, "cycle counter did not advance: {a} -> {b}");
    }

    #[test]
    fn calibration_is_sane() {
        let hz = cycles_per_sec();
        // Anything from an embedded fallback (1e9 exactly) to a 6 GHz
        // turbo is plausible; catch only order-of-magnitude nonsense.
        assert!(hz > 1e8 && hz < 1e11, "implausible cycle rate {hz}");
        assert_eq!(cycles_per_sec(), hz, "calibration must be cached");
        let secs = cycles_to_secs((hz * 0.5) as u64);
        assert!((secs - 0.5).abs() < 1e-3);
    }
}
