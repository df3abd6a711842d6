//! Layer probes at the workload's shape: the timer wheel replaying the
//! workload's arrivals, MIG slice allocation on a fleet of the workload's
//! shape, and plan-cache lookups on that fleet.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ffs_mig::{Fleet, NodeId};
use ffs_profile::FunctionProfile;
use ffs_sim::{run_until, Scheduler, SimTime, World};
use ffs_trace::{Trace, WorkloadClass};
use fluidfaas::plancache::PlanCache;
use fluidfaas::FfsConfig;

use crate::stats::median;

/// Minimum wall time one probe spends, so short probes repeat.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Rounds each probe runs at least.
const MIN_ROUNDS: usize = 3;

/// Runs `round` until the budget and the minimum round count are both
/// met; each round returns `(elapsed, operations)`. Returns the median
/// nanoseconds per operation.
fn ns_per_op(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_ROUNDS || start.elapsed() < PROBE_BUDGET {
        let (d, ops) = round();
        samples.push(d.as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

/// A world that does nothing with its events.
struct Noop;

impl World for Noop {
    type Event = u32;

    fn handle(&mut self, _now: SimTime, ev: u32, _sched: &mut Scheduler<u32>) {
        black_box(ev);
    }
}

/// Nanoseconds per event of `Scheduler::preload_sorted` plus `run_until`
/// replaying each trace's arrival stream into a no-op world.
pub fn wheel_ns_per_event(traces: &[&Trace]) -> f64 {
    ns_per_op(|| {
        let mut elapsed = Duration::ZERO;
        let mut events = 0;
        for trace in traces {
            let mut sched: Scheduler<u32> = Scheduler::new();
            let end = SimTime::ZERO + trace.duration;
            let t = Instant::now();
            sched.preload_sorted(
                trace
                    .invocations
                    .iter()
                    .enumerate()
                    .map(|(i, inv)| (inv.arrival, i as u32)),
            );
            run_until(&mut Noop, &mut sched, end);
            elapsed += t.elapsed();
            events += trace.invocations.len() as u64;
        }
        (elapsed, events)
    })
}

/// The fleet one engine of the workload owns.
fn cell_fleet(cfg: &FfsConfig, nodes: usize) -> Fleet {
    Fleet::new(nodes, cfg.gpus_per_node, &cfg.scheme).expect("the workload's partition is valid")
}

/// Nanoseconds per allocate-and-release pair over every free slice of a
/// fleet of `nodes` nodes.
pub fn mig_alloc_release_ns(cfg: &FfsConfig, nodes: usize) -> f64 {
    let mut fleet = cell_fleet(cfg, nodes);
    let ids: Vec<_> = fleet.free_slices(None).iter().map(|s| s.id).collect();
    ns_per_op(|| {
        let t = Instant::now();
        for &id in &ids {
            fleet.allocate(id).expect("slice is free");
        }
        for &id in &ids {
            fleet.release(id).expect("slice is allocated");
        }
        (t.elapsed(), ids.len() as u64)
    })
}

/// Nanoseconds per `PlanCache::plan_with_signature` lookup for every
/// Medium-class function on every node of a fleet of `nodes` nodes:
/// `(hit, miss)`. The miss rounds invalidate the cache first.
pub fn plancache_lookup_ns(cfg: &FfsConfig, nodes: usize) -> (f64, f64) {
    let fleet = cell_fleet(cfg, nodes);
    let class = WorkloadClass::Medium;
    let profiles: Vec<FunctionProfile> = class
        .apps()
        .into_iter()
        .map(|app| FunctionProfile::build(app, class.variant(), &cfg.perf))
        .collect();
    let mut cache = PlanCache::new();
    let sweep = |cache: &mut PlanCache| {
        let t = Instant::now();
        let mut n = 0;
        for node in 0..nodes {
            let node = NodeId(node as u16);
            for (f, profile) in profiles.iter().enumerate() {
                let plan = cache.plan_with_signature(
                    f,
                    node,
                    cfg.enable_cv_ranking,
                    profile,
                    fleet.node_signature(node),
                    || fleet.free_slices(Some(node)),
                );
                black_box(plan);
                n += 1;
            }
        }
        (t.elapsed(), n)
    };
    let miss = ns_per_op(|| {
        cache.invalidate();
        sweep(&mut cache)
    });
    let hit = ns_per_op(|| sweep(&mut cache));
    (hit, miss)
}
