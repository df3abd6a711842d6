//! Microbenchmarks of the simulation hot path: scheduler push/pop churn,
//! SoA column scans against record scans, the incremental routing index
//! against the full admission scan, the maintained overflow view against
//! the scan it replaced, the incremental plan-cache signature against
//! recomputing it from the free-slice list, placement over one node per
//! distinct signature against the every-node walk, and an end-to-end run
//! that exercises every hot-path change at once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ffs_mig::{Fleet, GpuId, NodeId, SliceId, SliceProfile};
use ffs_pipeline::plan::StagePlan;
use ffs_pipeline::{DeploymentPlan, InstanceEstimate};
use ffs_profile::{App, FunctionProfile, PerfModel, Variant};
use ffs_sim::{run_until, Scheduler, SimTime, World};
use ffs_trace::Trace;
use ffs_trace::{AzureTraceConfig, WorkloadClass};
use fluidfaas::instance::{Instance, Phase, StageTimings};
use fluidfaas::plancache::{slice_signature, PlanCache};
use fluidfaas::platform::events::InstanceId;
use fluidfaas::platform::policy::{ExclusiveView, Placer};
use fluidfaas::platform::runner::run_platform;
use fluidfaas::platform::slab::{InstanceSlab, PhaseTag};
use fluidfaas::{paper_policies, Engine, FfsConfig, FluidFaaSSystem, FluidPlacer};

// ---------------------------------------------------------------------
// Scheduler push/pop
// ---------------------------------------------------------------------

/// A deterministic xorshift stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The real event mix: a standing population of pending events, each pop
/// scheduling a short-horizon follow-up (stage completions, handoffs,
/// ticks are all `now + a-few-ms`). Each push and pop pays
/// `O(log pending)`.
const PENDING: usize = 1_000;
const CHURN_OPS: usize = 50_000;
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Delta for the follow-up push: 1 µs ..= ~1 s.
fn delta(rng: &mut u64) -> u64 {
    1 + xorshift(rng) % 1_000_000
}

struct Churn {
    remaining: usize,
    rng: u64,
}

impl World for Churn {
    type Event = u32;
    fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let d = delta(&mut self.rng);
            sched.after(ffs_sim::SimDuration::from_micros(d), ev);
        }
    }
}

fn bench_scheduler_push_pop(c: &mut Criterion) {
    let seeds: Vec<u64> = {
        let mut x = SEED;
        (0..PENDING).map(|_| xorshift(&mut x) % 1_000_000).collect()
    };
    let mut g = c.benchmark_group("scheduler_steady_churn_1k_pending");
    g.bench_function("scheduler", |b| {
        b.iter(|| {
            let mut w = Churn {
                remaining: CHURN_OPS,
                rng: SEED,
            };
            let mut s: Scheduler<u32> = Scheduler::new();
            for (i, &t) in seeds.iter().enumerate() {
                s.at(SimTime::from_micros(t), i as u32);
            }
            run_until(&mut w, &mut s, SimTime::MAX);
            black_box(s.now())
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// SoA column scan vs slab record scan
// ---------------------------------------------------------------------

/// A slab of `n` ready single-stage instances with varied latency
/// estimates and occupancies — the shape of the routing scan.
fn scan_slab(n: u64) -> InstanceSlab {
    let mut slab = InstanceSlab::new();
    let mut rng = SEED;
    for id in 0..n {
        let nodes = vec![ffs_dag::NodeId(0)];
        let plan = DeploymentPlan {
            partition: ffs_dag::PipelinePartition::new(vec![nodes.clone()]),
            stages: vec![StagePlan {
                nodes,
                slice: SliceId::new(GpuId((id / 7) as u16), (id % 7) as u8),
                profile: SliceProfile::G1_10,
                mem_gb: 1.0,
            }],
            cv: 0.0,
        };
        let jitter = (xorshift(&mut rng) % 64) as f64;
        let inst = Instance::new(
            InstanceId(id),
            0,
            plan,
            InstanceEstimate {
                latency_ms: 20.0 + jitter,
                bottleneck_ms: 10.0,
                throughput_rps: 100.0,
            },
            StageTimings::zero(1),
            NodeId(0),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        slab.insert(InstanceId(id), inst, 100.0);
        slab.set_phase(&InstanceId(id), Phase::Ready);
        // A third of the fleet sits at its admission bound.
        if id % 3 == 0 {
            for _ in 0..10 {
                slab.note_admitted(InstanceId(id));
                slab.get_mut(&InstanceId(id)).unwrap().stage_queues[0].push_back(0);
            }
        }
    }
    slab
}

/// The lowest-latency routing scan (admission filter + latency argmin),
/// on the SoA hot columns against the instance records they mirror. The
/// record path drags each instance's plans, queues and timing tables
/// through the cache to read three scalars.
fn bench_soa_scan(c: &mut Criterion) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    let slo_ms = 100.0;
    let mut g = c.benchmark_group("routing_scan_256_instances");
    g.bench_function("soa_columns", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for id in (0..FLEET).map(InstanceId) {
                if !slab.has_admission_capacity(id) {
                    continue;
                }
                let lat = slab.latency_ms_of(id);
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((id, lat));
                }
            }
            black_box(best)
        })
    });
    g.bench_function("slab_records", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for inst in slab.values() {
                if !inst.has_capacity(slo_ms) {
                    continue;
                }
                let lat = inst.est.latency_ms;
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((inst.id, lat));
                }
            }
            black_box(best)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Incremental routing index vs full admission scan
// ---------------------------------------------------------------------

/// The routing lookup on the maintained per-function candidate index
/// against the full filter-scan it replaced. `scan_slab` parks a third of
/// the fleet at its admission bound, so the index holds ~2/3 of the
/// instances; the full scan still reads the phase/occupancy/cap columns
/// of all of them.
fn bench_route_index(c: &mut Criterion) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    let mut g = c.benchmark_group("route_lookup_256_instances");
    g.bench_function("incremental_index", |b| {
        b.iter(|| {
            let mut best: Option<(u32, f64)> = None;
            for &idx in slab.admissible_of(0) {
                let lat = slab.latency_ms_of(InstanceId(u64::from(idx)));
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((idx, lat));
                }
            }
            black_box(best)
        })
    });
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for id in (0..FLEET).map(InstanceId) {
                if !slab.has_admission_capacity(id) {
                    continue;
                }
                let lat = slab.latency_ms_of(id);
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((id, lat));
                }
            }
            black_box(best)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Overflow view: maintained aggregate vs full scan
// ---------------------------------------------------------------------

/// The per-request overflow check's input on one function with 1024
/// instances (a `fleet_1024` hot function holds about 900): the slab's
/// maintained view against the walk over every instance it replaced.
fn bench_overflow_view(c: &mut Criterion) {
    const FLEET: u64 = 1024;
    let slab = scan_slab(FLEET);
    let mut g = c.benchmark_group("overflow_view_1024_instances");
    g.bench_function("aggregate", |b| {
        b.iter(|| black_box(slab.exclusive_view(0)))
    });
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            let mut v = ExclusiveView::EMPTY;
            for id in (0..FLEET).map(InstanceId) {
                match slab.phase_tag(id) {
                    PhaseTag::Ready => {
                        v.ready += 1;
                        v.occupancy += slab.occupancy_of(id) as usize;
                        v.best_bottleneck_ms = v.best_bottleneck_ms.min(slab.bottleneck_ms_of(id));
                        v.best_latency_ms = v.best_latency_ms.min(slab.latency_ms_of(id));
                    }
                    PhaseTag::Launching => v.launching += 1,
                    PhaseTag::Draining | PhaseTag::Empty => {}
                }
            }
            black_box(v)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Plan-cache hit: incremental signature vs recomputed signature
// ---------------------------------------------------------------------

fn bench_plan_cache_hit(c: &mut Criterion) {
    let fleet = Fleet::paper_default();
    let node = NodeId(0);
    let profile = FunctionProfile::build(
        App::ImageClassification,
        Variant::Small,
        &PerfModel::default(),
    );
    let mut cache = PlanCache::new();
    // Warm the single entry both variants will hit.
    cache.plan(7, node, true, &profile, &fleet.free_slices(Some(node)));

    let mut g = c.benchmark_group("plan_cache_hit");
    g.bench_function("incremental_signature", |b| {
        b.iter(|| {
            let sig = fleet.node_signature(node);
            black_box(cache.plan_with_signature(7, node, true, &profile, sig, || {
                fleet.free_slices(Some(node))
            }))
        })
    });
    g.bench_function("recomputed_signature", |b| {
        b.iter(|| {
            // The pre-incremental hot path: materialize the free-slice
            // list and hash it on every lookup.
            let free = fleet.free_slices(Some(node));
            let sig = slice_signature(&free);
            black_box(cache.plan_with_signature(7, node, true, &profile, sig, || free.clone()))
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Placement: one probe per distinct node signature vs every node
// ---------------------------------------------------------------------

/// One warm-cache placement of a heavy function on 128 nodes × 8 GPUs in
/// the shape a loaded large fleet takes: most nodes full, a few with one
/// slice taken, the rest free — three distinct free-slice signatures.
/// `FluidPlacer::place` probes the first node of each signature; the
/// every-node arm is the walk it replaced, one plan-cache lookup per node.
/// (On a fleet where every node has its own signature both walks make 128
/// lookups.)
fn bench_place(c: &mut Criterion) {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Heavy);
    cfg.nodes = 128;
    let trace = Trace {
        invocations: Vec::new(),
        duration: ffs_sim::SimDuration::from_secs(1),
    };
    let policies = paper_policies(&cfg);
    let mut engine = Engine::new(cfg, policies, &trace).expect("valid engine");
    let core = &mut engine.core;
    let mut rng = SEED;
    for n in 0..core.fleet.node_count() {
        let free = core.fleet.free_slices(Some(NodeId(n as u16)));
        let take = match xorshift(&mut rng) % 8 {
            0..=4 => free.len(),
            5 => 1,
            _ => 0,
        };
        for s in &free[..take] {
            core.fleet.allocate(s.id).expect("free slice allocates");
        }
    }
    let f = 0;
    let placer = FluidPlacer { ranked: true };

    let mut g = c.benchmark_group("place_128_nodes");
    g.bench_function("signature_walk", |b| {
        b.iter(|| black_box(placer.place(core, f)))
    });
    g.bench_function("every_node_walk", |b| {
        b.iter(|| {
            let profile = core.catalog.profile(f);
            let mut chosen: Option<(DeploymentPlan, NodeId)> = None;
            for node in core.fleet.nodes() {
                let sig = core.fleet.node_signature(node.id);
                let plan =
                    core.plan_cache
                        .plan_with_signature(f, node.id, true, profile, sig, || {
                            core.fleet.free_slices(Some(node.id))
                        });
                if let Some(p) = plan {
                    let better = match &chosen {
                        None => true,
                        Some((c, _)) => (p.num_stages(), p.cv) < (c.num_stages(), c.cv),
                    };
                    if better {
                        chosen = Some((p, node.id));
                    }
                }
            }
            black_box(chosen)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// End-to-end run (all hot-path changes at once)
// ---------------------------------------------------------------------

fn bench_end_to_end(c: &mut Criterion) {
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 60.0, 7).generate();
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("fluidfaas_light_60s", |b| {
        b.iter(|| {
            let cfg = FfsConfig::paper_default(WorkloadClass::Light);
            let mut sys = FluidFaaSSystem::new(cfg, &trace);
            let out = run_platform(&mut sys, &trace);
            black_box(out.log.len())
        })
    });
    g.finish();
}

criterion_group!(
    hotpath,
    bench_scheduler_push_pop,
    bench_soa_scan,
    bench_route_index,
    bench_overflow_view,
    bench_plan_cache_hit,
    bench_place,
    bench_end_to_end
);
criterion_main!(hotpath);
