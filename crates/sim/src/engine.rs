//! The event loop: a time-ordered queue with deterministic tie-breaking.
//!
//! The pending-event set is one `BinaryHeap` ordered by `(time,
//! insertion-seq)` for dynamically scheduled events, plus a FIFO stream
//! for a pre-sorted batch loaded up front ([`Scheduler::preload_sorted`]).
//! `tests/proptest_scheduler.rs` checks the execution order against a
//! plain reference heap.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::time::SimTime;

/// A simulated system: receives events, mutates state, schedules more events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at simulation time `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Process-wide count of events executed by [`run_until`] (all schedulers,
/// all threads); the benchmark harness derives `events_per_sec` from it.
static EXECUTED_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread slice of [`EXECUTED_EVENTS`], so a parallel harness can
    /// attribute events to the worker that executed them.
    static THREAD_EXECUTED: Cell<u64> = const { Cell::new(0) };
}

/// Total events executed through [`run_until`] in this process so far.
pub fn process_executed_events() -> u64 {
    EXECUTED_EVENTS.load(AtomicOrdering::Relaxed)
}

/// Events executed through [`run_until`] on the *calling thread* so far.
/// Workers snapshot this around their run loop to report per-thread skew.
pub fn thread_executed_events() -> u64 {
    THREAD_EXECUTED.with(|c| c.get())
}

#[inline]
fn note_executed(n: u64) {
    if n > 0 {
        EXECUTED_EVENTS.fetch_add(n, AtomicOrdering::Relaxed);
        THREAD_EXECUTED.with(|c| c.set(c.get() + n));
    }
}

struct Scheduled<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Ties broken by
        // insertion sequence so execution order is deterministic and FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending-event set and simulation clock.
///
/// Handlers receive `&mut Scheduler` and may enqueue future events with
/// [`Scheduler::at`] or [`Scheduler::after`]. Scheduling into the past is a
/// logic error: the timestamp clamps to `now` and the clamp is counted
/// ([`Scheduler::clamps`], surfaced process-wide through
/// `ffs_obs::schedule_clamps`) so the bug is visible in release builds too.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    clamps: u64,
    /// Every event pushed with `at`, `after` or `immediately`.
    heap: BinaryHeap<Scheduled<E>>,
    /// Time-sorted events from [`Scheduler::preload_sorted`], consumed
    /// front-to-back without a heap push and pop each.
    stream: VecDeque<(u64, E)>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty scheduler with pre-allocated heap space for `cap`
    /// pending events. Callers that know the event volume up front (e.g. a
    /// run over a generated trace) avoid growth reallocations.
    pub fn with_capacity(cap: usize) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            clamps: 0,
            heap: BinaryHeap::with_capacity(cap),
            stream: VecDeque::new(),
        }
    }

    /// Returns the scheduler to its freshly constructed state while keeping
    /// both containers' grown capacity. A pooled scheduler reset this way is
    /// indistinguishable from a new one — same `seq` stream — so reuse
    /// across runs is bit-exact (the arena-reuse determinism test pins this
    /// down).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.stream.clear();
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.executed = 0;
        self.clamps = 0;
    }

    /// Total element capacity retained across the scheduler's containers.
    /// The arena-growth test asserts this stays flat once a pooled
    /// scheduler has seen its peak load.
    pub fn retained_capacity(&self) -> usize {
        self.heap.capacity() + self.stream.capacity()
    }

    /// Bulk-loads a time-sorted batch of events (e.g. a trace's arrivals)
    /// into the scheduler. Equivalent to calling [`Scheduler::at`] for each
    /// item in order, but the items wait in a FIFO stream instead of the
    /// heap, so the whole batch costs O(1) per event instead of O(log n)
    /// twice.
    ///
    /// # Panics
    /// Panics if the scheduler is not fresh (events were already scheduled)
    /// or if the items are not sorted by nondecreasing time — both are
    /// required for the stream's seq-order shortcut to be exact.
    pub fn preload_sorted<I: IntoIterator<Item = (SimTime, E)>>(&mut self, items: I) {
        assert_eq!(self.seq, 0, "preload requires a fresh scheduler");
        let mut last = 0u64;
        for (at, ev) in items {
            let at = at.as_micros();
            assert!(at >= last, "preload items must be sorted by time");
            last = at;
            self.stream.push_back((at, ev));
            self.seq += 1;
        }
    }

    /// The current simulation time (the timestamp of the event being
    /// processed, or zero before the first event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.stream.len()
    }

    /// Number of past-scheduling attempts that were clamped to `now`.
    pub fn clamps(&self) -> u64 {
        self.clamps
    }

    /// Schedules `ev` at absolute time `at`.
    #[inline]
    pub fn at(&mut self, at: SimTime, ev: E) {
        let at = if at < self.now {
            // Scheduling into the past is a logic error; clamp to `now`
            // and count it so the bug is visible outside debug builds.
            self.clamps += 1;
            ffs_obs::note_schedule_clamp();
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at: at.as_micros(),
            seq,
            ev,
        });
    }

    /// Schedules `ev` a relative duration after the current time.
    #[inline]
    pub fn after(&mut self, d: crate::time::SimDuration, ev: E) {
        let at = self.now.saturating_add(d);
        self.at(at, ev);
    }

    /// Schedules `ev` at the current instant (runs after all events already
    /// queued for this instant, preserving FIFO order).
    pub fn immediately(&mut self, ev: E) {
        self.at(self.now, ev);
    }

    /// Whether the stream's front runs before the heap's top. Preload only
    /// runs on a fresh scheduler, so every stream seq is below every heap
    /// seq: the stream wins timestamp ties, which is exact `(time, seq)` order.
    #[inline]
    fn stream_first(&self) -> bool {
        match (self.stream.front(), self.heap.peek()) {
            (Some(&(s, _)), Some(h)) => s <= h.at,
            (front, _) => front.is_some(),
        }
    }

    /// The timestamp of the next event, if any.
    #[inline]
    fn next_time(&self) -> Option<u64> {
        if self.stream_first() {
            self.stream.front().map(|&(at, _)| at)
        } else {
            self.heap.peek().map(|s| s.at)
        }
    }

    /// Pops the earliest event.
    #[inline]
    fn pop_next(&mut self) -> Option<(u64, E)> {
        if self.stream_first() {
            self.stream.pop_front()
        } else {
            self.heap.pop().map(|s| (s.at, s.ev))
        }
    }
}

/// Why [`run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained before the deadline.
    QueueEmpty,
    /// The next event lies at or beyond the deadline; it remains queued.
    DeadlineReached,
}

/// Runs the world until the queue empties or the clock reaches `until`,
/// handling one event at a time in `(time, insertion-seq)` order.
///
/// Events scheduled exactly at `until` are *not* executed, so consecutive
/// calls with increasing deadlines partition time unambiguously. Deadlines
/// across calls on one scheduler must be non-decreasing: the clock must not
/// go backwards.
pub fn run_until<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: SimTime,
) -> StopReason {
    debug_assert!(
        until >= sched.now,
        "run_until deadlines must be non-decreasing"
    );
    // Profile the scheduler probe and pop as WheelDrain self-time; the
    // per-event BatchDispatch child below subtracts handler time out of it.
    let _drain = ffs_telemetry::span(ffs_telemetry::Phase::WheelDrain);
    let executed_at_entry = sched.executed;
    let until_us = until.as_micros();
    let reason = loop {
        // Probe first: popping and re-queueing a boundary event would
        // reorder it behind same-timestamp peers (a bug the engine's
        // property tests guard against).
        match sched.next_time() {
            None => break StopReason::QueueEmpty,
            Some(t) if t >= until_us => {
                sched.now = until;
                break StopReason::DeadlineReached;
            }
            Some(_) => {}
        }
        let (at_us, ev) = sched.pop_next().expect("probed non-empty");
        let at = SimTime::from_micros(at_us);
        sched.now = at;
        sched.executed += 1;
        // Observability hook: publish the sim clock to the thread-local
        // ambient time (so time-unaware crates can stamp events) and offer
        // a queue-depth sample. Pure observation — world state is
        // untouched, so execution is byte-identical with tracing on or off.
        if ffs_obs::enabled() {
            ffs_obs::set_now_us(at_us);
            ffs_obs::sample_queue_depth(at_us, sched.pending() as u64);
        }
        let _dispatch = ffs_telemetry::span(ffs_telemetry::Phase::BatchDispatch);
        world.handle(at, ev, sched);
    };
    note_executed(sched.executed - executed_at_entry);
    reason
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now, ev));
            if ev == 1 {
                // Chain: event 1 schedules events 10 and 11 at the same instant.
                sched.immediately(10);
                sched.immediately(11);
                sched.after(SimDuration::from_secs(5), 99);
            }
        }
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(2), 2);
        s.at(SimTime::from_secs(1), 1);
        s.at(SimTime::from_secs(2), 3); // same time as 2, inserted later
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(100));
        assert_eq!(reason, StopReason::QueueEmpty);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 10, 11, 2, 3, 99]);
    }

    #[test]
    fn deadline_excludes_boundary_event() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(1), 1);
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(6));
        assert_eq!(reason, StopReason::DeadlineReached);
        // Event 99 (at t=6) must still be pending.
        assert_eq!(s.pending(), 1);
        assert_eq!(s.now(), SimTime::from_secs(6));
        // Resuming executes it.
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(7));
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(w.log.last().unwrap().1, 99);
    }

    #[test]
    fn immediately_runs_after_already_queued_same_instant_events() {
        struct W {
            order: Vec<u32>,
        }
        impl World for W {
            type Event = u32;
            fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev == 0 {
                    sched.immediately(5);
                }
            }
        }
        let mut w = W { order: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 0);
        s.at(SimTime::ZERO, 1);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(w.order, vec![0, 1, 5]);
    }

    #[test]
    fn executed_counter_counts() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 7);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(s.executed(), 1);
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut w = Recorder { log: vec![] };
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(
            run_until(&mut w, &mut s, SimTime::from_secs(1)),
            StopReason::QueueEmpty
        );
    }

    #[test]
    fn far_future_events_run_in_order() {
        // Spread events from microseconds to tens of seconds out, with
        // same-timestamp ties near and far.
        struct Plain {
            log: Vec<(SimTime, u32)>,
        }
        impl World for Plain {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, _sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
            }
        }
        let mut w = Plain { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(40), 4);
        s.at(SimTime::from_micros(10), 0);
        s.at(SimTime::from_secs(40), 5); // same instant as 4, later insert
        s.at(SimTime::from_secs(20), 3);
        s.at(SimTime::from_millis(8), 2);
        s.at(SimTime::from_micros(10), 1); // ties with 0
        let reason = run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(reason, StopReason::QueueEmpty);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.executed(), 6);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn deadline_on_a_queued_timestamp() {
        // A deadline falling exactly on a queued event's timestamp must not
        // strand or reorder it.
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        let deadline = SimTime::from_micros(4096);
        s.at(deadline, 7);
        assert_eq!(
            run_until(&mut w, &mut s, deadline),
            StopReason::DeadlineReached
        );
        assert!(w.log.is_empty(), "boundary event must stay queued");
        // An insert at the deadline instant lands behind the queued peer.
        s.at(deadline, 8);
        run_until(&mut w, &mut s, SimTime::MAX);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![7, 8]);
    }

    #[test]
    fn past_scheduling_clamps_and_counts() {
        struct W {
            log: Vec<(SimTime, u32)>,
        }
        impl World for W {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
                if ev == 1 {
                    // A logic error: schedule one second into the past.
                    sched.at(now - SimDuration::from_secs(1), 2);
                }
            }
        }
        let before = ffs_obs::schedule_clamps();
        let mut w = W { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(5), 1);
        run_until(&mut w, &mut s, SimTime::MAX);
        // The clamped event ran at `now`, not in the past, and was counted.
        assert_eq!(
            w.log,
            vec![(SimTime::from_secs(5), 1), (SimTime::from_secs(5), 2)]
        );
        assert_eq!(s.clamps(), 1);
        assert_eq!(ffs_obs::schedule_clamps(), before + 1);
    }

    #[test]
    fn preload_matches_individual_pushes() {
        struct Plain {
            log: Vec<(SimTime, u32)>,
        }
        impl World for Plain {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, _sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
            }
        }
        // Times span microseconds to hours, with duplicates.
        let times: Vec<SimTime> = [0u64, 0, 10, 4096, 5000, 5000, 20_000_000, 40_000_000_000]
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect();
        let mut via_preload = Plain { log: vec![] };
        let mut s1 = Scheduler::new();
        s1.preload_sorted(times.iter().enumerate().map(|(i, &t)| (t, i as u32)));
        // A dynamic push tying with a preloaded timestamp runs after it.
        s1.at(SimTime::from_micros(5000), 90);
        assert_eq!(s1.pending(), times.len() + 1);
        run_until(&mut via_preload, &mut s1, SimTime::MAX);

        let mut via_at = Plain { log: vec![] };
        let mut s2 = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s2.at(t, i as u32);
        }
        s2.at(SimTime::from_micros(5000), 90);
        run_until(&mut via_at, &mut s2, SimTime::MAX);

        assert_eq!(via_preload.log, via_at.log);
        assert_eq!(s1.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn preload_rejects_unsorted_input() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.preload_sorted(vec![(SimTime::from_secs(2), 0), (SimTime::from_secs(1), 1)]);
    }

    #[test]
    fn reset_restores_fresh_scheduler_semantics() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(1), 1);
        s.at(SimTime::from_secs(100), 2); // left pending past the deadline
        run_until(&mut w, &mut s, SimTime::from_secs(50));
        assert!(s.pending() > 0);
        let cap = s.retained_capacity();

        s.reset();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.executed(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.retained_capacity(), cap, "reset must keep capacity");

        // A reset scheduler accepts preload again (requires seq == 0) and
        // replays identically to a fresh one.
        let replay = |s: &mut Scheduler<u32>| {
            s.preload_sorted([(SimTime::from_micros(7), 5), (SimTime::from_secs(30), 6)]);
            s.at(SimTime::from_micros(7), 7);
            let mut w = Recorder { log: vec![] };
            run_until(&mut w, s, SimTime::MAX);
            w.log
        };
        let reused = replay(&mut s);
        let fresh = replay(&mut Scheduler::new());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn process_event_counter_accumulates() {
        let before = process_executed_events();
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 3);
        s.at(SimTime::from_millis(1), 4);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert!(process_executed_events() >= before + 2);
    }
}
