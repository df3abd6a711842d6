//! Engine self-observation: an always-compiled-in phase profiler and its
//! exporters.
//!
//! The other observability crates watch the *simulated system*: `ffs-obs`
//! records control-plane decisions, `ffs-metrics` scores the paper's
//! evaluation figures. This crate watches the *engine itself* — where the
//! host CPU cycles of a sweep actually go — cheaply enough to stay on in
//! every run:
//!
//! * **Phase profiler** ([`span`], [`Phase`]) — a fixed enum of hot
//!   phases, timed with scoped guards over a raw cycle counter
//!   (`rdtsc` on x86-64). Guards nest; each one charges **self-time
//!   only** (its elapsed cycles minus its children's), so per-phase
//!   totals sum to the root span's wall time instead of double counting.
//!   All hot-path state is per-thread, fixed-size and allocation-free
//!   (const-initialised TLS, an open-addressed path table), preserving
//!   the engine's zero-allocation steady state. Harness threads fold
//!   their accumulators into a process-wide snapshot via
//!   [`flush_thread`] / [`snapshot`].
//! * **Exporters** — Prometheus-style text exposition
//!   ([`render_prometheus`]) and a collapsed-stack file
//!   ([`write_collapsed`]) consumable by `inferno` / `flamegraph.pl`.
//!
//! Profiling defaults to **on**; set `FFS_TELEMETRY=0` (or `off` /
//! `false`) to reduce every guard to a single relaxed atomic load.
//! Telemetry only ever *reads* clocks — it feeds nothing back into the
//! simulation, so runs are bit-identical with profiling on or off.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod clock;
mod export;
mod phase;

pub use export::{
    render_phase_exposition, render_prometheus, write_collapsed, write_prometheus_file,
};
pub use phase::{
    flush_thread, reset_for_tests, snapshot, span, PathStat, Phase, PhaseGuard, PhaseSnapshot,
    PHASE_COUNT,
};

/// The profiling on/off flag.
static STATE: Switch = Switch::new();

/// Tri-state switch: 0 = unresolved (consult the environment), 1 = on,
/// 2 = off. Resolved lazily so the first guard pays the env lookup, not
/// crate load.
struct Switch(AtomicU8);

impl Switch {
    const fn new() -> Self {
        Switch(AtomicU8::new(0))
    }

    #[inline]
    fn get(&self) -> bool {
        match self.0.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => self.resolve(),
        }
    }

    #[cold]
    fn resolve(&self) -> bool {
        let off = std::env::var("FFS_TELEMETRY")
            .map(|v| matches!(v.trim(), "0" | "off" | "false"))
            .unwrap_or(false);
        self.set(!off);
        !off
    }

    fn set(&self, on: bool) {
        self.0.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    }
}

/// Whether phase profiling is active. Defaults to on; `FFS_TELEMETRY=0`
/// (or `off` / `false`) disables it. One relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    STATE.get()
}

/// Force profiling on or off, overriding the environment (tests and
/// binaries that want an explicit baseline).
pub fn set_enabled(on: bool) {
    STATE.set(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_toggle_round_trips() {
        // A private switch: flipping the process-wide one would turn off
        // spans that sibling tests are timing in parallel.
        let s = Switch::new();
        s.set(true);
        assert!(s.get());
        s.set(false);
        assert!(!s.get());
        s.set(true);
        assert!(s.get());
    }
}
