//! The machine-speed reference.
//!
//! The benchmark shares its machine with other load, which slows the
//! simulator by up to 2× for seconds to minutes at a time, so host timings
//! from runs made minutes apart differ by a fifth or more. The measured run
//! therefore interleaves the simulation jobs with a fixed reference
//! workload: after each stretch of measured host time it runs the reference
//! for a quarter of that time. A pass's speed factor is the reference's mean
//! run time over its nominal time; host figures are reported at the nominal
//! speed by scaling with that factor. The reference mixes random access to
//! a 32 MiB table with a sort, like the event loop, and its code belongs to
//! the benchmark, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference run takes at the nominal speed: the fast mode of
/// the runs on a 2-vCPU Intel Xeon virtual machine.
pub const NOMINAL_S: f64 = 0.0015;

/// Reference host seconds per measured host second.
pub const SHARE: f64 = 0.25;

/// Measured host seconds that accumulate before the reference runs.
const STRETCH_S: f64 = 0.04;

/// Random read-modify-writes per reference run.
const ACCESSES: usize = 100_000;

/// Keys sorted per reference run.
const SORTED: usize = 16_000;

/// The reference workload and its counters.
pub struct SpeedRef {
    table: Vec<u64>,
    keys: Vec<u64>,
    state: u64,
    /// Measured seconds not yet followed by reference runs.
    owed_s: f64,
    /// Reference seconds and runs since the last [`SpeedRef::take`].
    ran_s: f64,
    runs: u64,
}

impl Default for SpeedRef {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedRef {
    /// Allocates and touches the table.
    pub fn new() -> Self {
        SpeedRef {
            table: (0..(4 << 20)).collect(),
            keys: Vec::with_capacity(SORTED),
            state: 0x2545_F491_4F6C_DD1D,
            owed_s: 0.0,
            ran_s: 0.0,
            runs: 0,
        }
    }

    /// Notes `secs` of measured host time; once a stretch has accumulated,
    /// runs the reference for [`SHARE`] of it.
    pub fn after(&mut self, secs: f64) {
        self.owed_s += secs;
        if self.owed_s >= STRETCH_S {
            self.settle();
        }
    }

    /// Runs the reference for the measured time still owed (at least once).
    pub fn settle(&mut self) {
        let budget = SHARE * self.owed_s;
        let mut spent = 0.0;
        loop {
            spent += self.run();
            if spent >= budget {
                break;
            }
        }
        self.owed_s = 0.0;
    }

    /// The speed factor since the last call — mean reference run time over
    /// [`NOMINAL_S`], above 1 when the machine ran slow — and resets it.
    pub fn take(&mut self) -> f64 {
        let factor = self.ran_s / self.runs.max(1) as f64 / NOMINAL_S;
        self.ran_s = 0.0;
        self.runs = 0;
        factor
    }

    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.table.len() as u64;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % n) as usize;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        self.keys.clear();
        self.keys
            .extend((0..SORTED as u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ acc));
        self.keys.sort_unstable();
        black_box(self.keys[SORTED / 2]);
        self.state = x;
        let secs = t.elapsed().as_secs_f64();
        self.ran_s += secs;
        self.runs += 1;
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_follows_the_measured_time() {
        let mut speed = SpeedRef::new();
        speed.after(0.01); // below a stretch: nothing runs yet
        assert_eq!(speed.runs, 0);
        speed.after(0.2);
        assert!(speed.ran_s >= SHARE * 0.21);
        assert!(speed.take() > 0.0);
        assert_eq!((speed.runs, speed.ran_s), (0, 0.0));
        speed.settle(); // nothing owed still runs once
        assert_eq!(speed.runs, 1);
    }
}
