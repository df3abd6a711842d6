//! # ffs-sim — deterministic discrete-event simulation engine
//!
//! The FluidFaaS reproduction replays hours of serverless invocation traces
//! against a modelled GPU cluster. Doing that in wall-clock time is
//! infeasible, so every platform in this workspace (FluidFaaS itself and the
//! ESG / INFless baselines) is driven by the discrete-event engine in this
//! crate.
//!
//! The engine is deliberately small and strict:
//!
//! * **Integer time.** [`SimTime`] and [`SimDuration`] are microsecond
//!   counters. Floating-point simulation clocks make event ordering depend on
//!   rounding; integer clocks do not.
//! * **Total event order.** Ties at the same timestamp are broken by a
//!   monotonically increasing sequence number, so a simulation run is a pure
//!   function of its inputs.
//! * **One heap.** [`Scheduler`] keeps dynamically scheduled events in a
//!   `(time, seq)`-ordered binary heap and a pre-sorted trace preload in a
//!   FIFO stream beside it ([`engine`] explains the tie-break between them).
//! * **Deterministic randomness.** [`rng::SimRng`] is a seeded, splittable
//!   xoshiro256++ generator. Every stochastic component in the workspace
//!   draws from an explicitly seeded stream.
//!
//! ```
//! use ffs_sim::{Scheduler, SimDuration, SimTime, World, run_until};
//!
//! struct Counter(u64);
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!         if self.0 < 10 {
//!             sched.after(SimDuration::from_millis(5), ());
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut world = Counter(0);
//! let mut sched = Scheduler::new();
//! sched.at(SimTime::ZERO, ());
//! run_until(&mut world, &mut sched, SimTime::from_secs(1));
//! assert_eq!(world.0, 10);
//! ```

#![warn(clippy::unwrap_used)]

pub mod engine;
pub mod queueing;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::{
    process_executed_events, run_until, thread_executed_events, Scheduler, StopReason, World,
};
pub use rng::SimRng;
pub use shard::{Envelope, Sequencer};
pub use stats::{OnlineStats, TimeWeightedMean};
pub use time::{SimDuration, SimTime};
