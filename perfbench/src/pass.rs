//! One pass of a workload: synthesize its inputs, then construct, run and
//! fold every job, timing each layer call from outside.

use std::hint::black_box;
use std::time::Instant;

use ffs_baselines::{BaselineKind, MonolithicSystem};
use ffs_metrics::{LatencyCdf, TenantReport};
use fluidfaas::platform::{run_platform, Platform, RunOutput};
use fluidfaas::{
    mqfq_policies, run_output_digest, run_sharded_fluid, FluidFaaSSystem, SchedulerLog,
    ShardRunStats, ShardSpec,
};

use crate::spans::Spans;
use crate::speed::SpeedRef;
use crate::workload::{synthesize, systems, Arrivals, Input, PassKind, Shape, System};

/// The simulated outcome of one FluidFaaS-family run, kept from the
/// reference pass to compute the simulated end-to-end metrics.
#[derive(Debug, Default)]
pub struct SimFigures {
    /// Invocations offered.
    pub offered: u64,
    /// Invocations completed by the end of the drain.
    pub completed: u64,
    /// Invocations completed within their SLO.
    pub slo_hits: u64,
    /// `CostReport::total_gpu_time_secs`.
    pub gpu_s: f64,
    /// The replica the input belongs to.
    pub replica: usize,
    /// The input's class or scenario index within its replica.
    pub class: usize,
    /// The scenario's aggressor tenant, if any.
    pub aggressor: Option<u32>,
    /// `(tenant, requests, SLO hits)`, ascending by tenant.
    pub tenants: Vec<(u32, u64, u64)>,
    /// End-to-end latency of every completed invocation, in ms.
    pub latencies_ms: Vec<f64>,
}

/// What one job (one simulation run) cost and produced.
#[derive(Debug)]
pub struct JobRecord {
    /// Invocations offered.
    pub offered: u64,
    /// Platform construction seconds (0 for the sharded engine, which
    /// builds its cells inside the run).
    pub construct_s: f64,
    /// Event-loop seconds: `run_platform` or `run_sharded_fluid`.
    pub run_s: f64,
    /// Metric-fold seconds: latency CDF, tenant report, cost totals.
    pub fold_s: f64,
    /// Events the engine executed (exact).
    pub events: u64,
    /// The scheduler's decision counters (single-engine FluidFaaS runs).
    pub sched: Option<SchedulerLog>,
    /// Sharded-engine statistics.
    pub shard: Option<ShardRunStats>,
    /// `run_output_digest` of the output.
    pub digest: u64,
    /// Simulated outcome, on the reference pass only.
    pub sim: Option<SimFigures>,
}

/// What one pass cost and produced.
#[derive(Debug, Default)]
pub struct PassRecord {
    /// Trace-synthesis seconds.
    pub synth_s: f64,
    /// Invocations synthesized.
    pub synthesized: u64,
    /// Wall seconds of the whole pass, checks included.
    pub wall_s: f64,
    /// Mean reference run time over its nominal time during the pass
    /// (1 when the pass ran without the reference).
    pub speed_factor: f64,
    /// One record per job, in run order.
    pub jobs: Vec<JobRecord>,
    /// Plan-cache `(hits, misses)` over the pass, from the process totals.
    pub plan_cache: (u64, u64),
    /// Run-arena `(fresh, reused)` containers over the pass.
    pub arena: (u64, u64),
    /// Jobs attempted.
    pub attempted: u64,
    /// Checks that failed, by name with detail.
    pub failures: Vec<String>,
}

impl PassRecord {
    /// Set-up seconds: synthesis plus platform construction.
    pub fn setup_s(&self) -> f64 {
        self.synth_s + self.jobs.iter().map(|j| j.construct_s).sum::<f64>()
    }

    /// Set-up seconds at the reference's nominal speed.
    pub fn nominal_setup_s(&self) -> f64 {
        self.setup_s() / self.speed_factor
    }

    /// Seconds of the timed region: engine runs plus metric folds.
    pub fn timed_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.run_s + j.fold_s).sum()
    }

    /// Engine-run seconds.
    pub fn run_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.run_s).sum()
    }

    /// Invocations offered across all jobs.
    pub fn offered(&self) -> u64 {
        self.jobs.iter().map(|j| j.offered).sum()
    }

    /// Engine events across all jobs.
    pub fn events(&self) -> u64 {
        self.jobs.iter().map(|j| j.events).sum()
    }

    /// Invocations simulated per second of the timed region, at the
    /// reference's nominal speed.
    pub fn invocations_per_s(&self) -> f64 {
        self.offered() as f64 / self.timed_s() * self.speed_factor
    }

    /// The scheduler's decision counters summed over the pass's
    /// single-engine FluidFaaS-family runs.
    pub fn sched(&self) -> SchedulerLog {
        let mut a = SchedulerLog::default();
        for s in self.jobs.iter().filter_map(|j| j.sched) {
            a.launches += s.launches;
            a.pipeline_launches += s.pipeline_launches;
            a.retirements += s.retirements;
            a.evictions += s.evictions;
            a.reloads += s.reloads;
            a.migrations += s.migrations;
            a.pool_grows += s.pool_grows;
            a.pool_shrinks += s.pool_shrinks;
            a.cold_terminations += s.cold_terminations;
        }
        a
    }

    /// The job digests, in run order.
    pub fn digests(&self) -> Vec<u64> {
        self.jobs.iter().map(|j| j.digest).collect()
    }
}

/// Whether a pass is the reference: it checks the request logs and keeps
/// the simulated figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Checks every log and keeps the simulated outcome.
    Reference,
    /// Only digests, compared against the reference by the caller.
    Repeat,
}

/// Runs one pass: synthesize, then construct, run and fold every job.
/// With `speed`, the reference runs between jobs for a share of their
/// time and sets the pass's speed factor.
pub fn run_pass(
    shape: &Shape,
    seed: u64,
    kind: PassKind,
    role: Role,
    spans: &mut Spans,
    mut speed: Option<&mut SpeedRef>,
) -> PassRecord {
    let wall = Instant::now();
    let root = spans.enter("pass");
    let plan0 = fluidfaas::plancache::process_stats();
    let arena0 = fluidfaas::platform::arena::arena_stats();
    let mut rec = PassRecord {
        speed_factor: 1.0,
        ..PassRecord::default()
    };

    let tok = spans.enter("trace.synth");
    let t = Instant::now();
    let mut inputs = synthesize(shape, seed);
    rec.synth_s = t.elapsed().as_secs_f64();
    spans.exit(tok);
    rec.synthesized = inputs.iter().map(|i| i.invocations() as u64).sum();
    if let Some(s) = speed.as_deref_mut() {
        s.after(rec.synth_s);
    }

    let plan = systems(shape, kind);
    for input in &mut inputs {
        let expected = (role == Role::Reference).then(|| input.expected_ids());
        for &system in &plan {
            rec.attempted += 1;
            match run_job(system, input, spans) {
                Ok((mut job, out)) => {
                    let tok = spans.enter("bench.check");
                    job.digest = run_output_digest(&out);
                    if let Some(ids) = &expected {
                        if let Err(e) = check_log(&out, ids) {
                            rec.failures
                                .push(format!("log_exactly_once: {system:?}: {e}"));
                        }
                        if system.fluid_family() {
                            job.sim = Some(sim_figures(&out, input, job.offered));
                        }
                    }
                    drop(out);
                    spans.exit(tok);
                    if let Some(s) = speed.as_deref_mut() {
                        s.after(job.construct_s + job.run_s + job.fold_s);
                    }
                    rec.jobs.push(job);
                }
                Err(e) => rec.failures.push(format!("run_succeeds: {system:?}: {e}")),
            }
        }
    }
    drop(inputs);
    if let Some(s) = speed {
        s.settle();
        rec.speed_factor = s.take();
    }

    let plan1 = fluidfaas::plancache::process_stats();
    let arena1 = fluidfaas::platform::arena::arena_stats();
    rec.plan_cache = (plan1.0 - plan0.0, plan1.1 - plan0.1);
    rec.arena = (arena1.fresh - arena0.fresh, arena1.reused - arena0.reused);
    spans.exit(root);
    rec.wall_s = wall.elapsed().as_secs_f64();
    rec
}

/// Set-up only: synthesize the inputs and construct every platform of a
/// pass, then drop them. Returns the set-up seconds at the reference's
/// nominal speed.
pub fn setup_only(shape: &Shape, seed: u64, speed: &mut SpeedRef) -> f64 {
    let t = Instant::now();
    let inputs = synthesize(shape, seed);
    let mut secs = t.elapsed().as_secs_f64();
    speed.after(secs);
    let plan = systems(shape, PassKind::Main);
    for input in &inputs {
        let Arrivals::Trace(trace) = &input.arrivals else {
            continue;
        };
        for &system in &plan {
            let t = Instant::now();
            match system {
                System::Fluid | System::Mqfq => {
                    let p = black_box(build_fluid(system, &input.cfg, trace));
                    let s = t.elapsed().as_secs_f64();
                    drop(p);
                    secs += s;
                    speed.after(s);
                }
                System::Esg | System::Infless => {
                    let p = black_box(build_mono(system, &input.cfg, trace));
                    let s = t.elapsed().as_secs_f64();
                    drop(p);
                    secs += s;
                    speed.after(s);
                }
                System::Sharded { .. } => {}
            }
        }
    }
    speed.settle();
    secs / speed.take()
}

fn build_fluid(
    system: System,
    cfg: &fluidfaas::FfsConfig,
    trace: &ffs_trace::Trace,
) -> Result<FluidFaaSSystem, fluidfaas::EngineError> {
    if system == System::Mqfq {
        FluidFaaSSystem::with_policies(cfg.clone(), mqfq_policies(cfg), trace)
    } else {
        Ok(FluidFaaSSystem::new(cfg.clone(), trace))
    }
}

fn build_mono(
    system: System,
    cfg: &fluidfaas::FfsConfig,
    trace: &ffs_trace::Trace,
) -> MonolithicSystem {
    let kind = if system == System::Esg {
        BaselineKind::Esg
    } else {
        BaselineKind::Infless
    };
    MonolithicSystem::new(kind, cfg.clone(), trace)
}

fn timed_run<P: Platform>(
    platform: &mut P,
    trace: &ffs_trace::Trace,
    spans: &mut Spans,
) -> (RunOutput, f64) {
    let tok = spans.enter("engine.run");
    let t = Instant::now();
    let out = run_platform(platform, trace);
    let secs = t.elapsed().as_secs_f64();
    spans.exit(tok);
    (out, secs)
}

/// Constructs, runs and folds one job. The sharded engine consumes the
/// input's cell traces.
fn run_job(
    system: System,
    input: &mut Input,
    spans: &mut Spans,
) -> Result<(JobRecord, RunOutput), String> {
    let offered = input.invocations() as u64;
    let events0 = ffs_sim::process_executed_events();
    let mut construct_s = 0.0;
    let mut sched = None;
    let mut shard = None;
    let cfg = &input.cfg;
    let (out, run_s) = match &mut input.arrivals {
        Arrivals::Cells(cells) => {
            let System::Sharded { lanes } = system else {
                return Err(format!("{system:?} cannot run per-cell traces"));
            };
            let spec = ShardSpec::new(cells.len(), lanes);
            let cells = std::mem::take(cells);
            let tok = spans.enter("engine.run");
            let t = Instant::now();
            let result = run_sharded_fluid(cfg, cells, &spec);
            let secs = t.elapsed().as_secs_f64();
            spans.exit(tok);
            let (out, stats) = result.map_err(|e| e.to_string())?;
            shard = Some(stats);
            (out, secs)
        }
        Arrivals::Trace(trace) => {
            let tok = spans.enter("construct");
            let t = Instant::now();
            match system {
                System::Fluid | System::Mqfq => {
                    let mut p = build_fluid(system, cfg, trace).map_err(|e| e.to_string())?;
                    construct_s = t.elapsed().as_secs_f64();
                    spans.exit(tok);
                    let r = timed_run(&mut p, trace, spans);
                    sched = Some(p.scheduler_log());
                    r
                }
                System::Esg | System::Infless => {
                    let mut p = build_mono(system, cfg, trace);
                    construct_s = t.elapsed().as_secs_f64();
                    spans.exit(tok);
                    timed_run(&mut p, trace, spans)
                }
                System::Sharded { .. } => {
                    spans.exit(tok);
                    return Err("the sharded engine needs per-cell traces".into());
                }
            }
        }
    };
    let events = ffs_sim::process_executed_events() - events0;

    let tok = spans.enter("metrics.fold");
    let t = Instant::now();
    let cdf = LatencyCdf::new(out.log.latencies_ms());
    black_box((cdf.p50(), cdf.percentile(0.999)));
    black_box(TenantReport::from_log(&out.log, out.duration));
    black_box(out.cost.total_gpu_time_secs());
    let fold_s = t.elapsed().as_secs_f64();
    spans.exit(tok);

    let job = JobRecord {
        offered,
        construct_s,
        run_s,
        fold_s,
        events,
        sched,
        shard,
        digest: 0,
        sim: None,
    };
    Ok((job, out))
}

/// Every offered invocation is logged exactly once.
fn check_log(out: &RunOutput, expected: &[u64]) -> Result<(), String> {
    let mut ids: Vec<u64> = out.log.records().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids == expected {
        return Ok(());
    }
    let dup = ids.windows(2).filter(|w| w[0] == w[1]).count();
    Err(format!(
        "{} records for {} invocations ({dup} duplicated ids)",
        ids.len(),
        expected.len()
    ))
}

fn sim_figures(out: &RunOutput, input: &Input, offered: u64) -> SimFigures {
    let records = out.log.records();
    let mut tenants: Vec<(u32, u64, u64)> = Vec::new();
    for t in out.log.tenants() {
        let (requests, hits) = out
            .log
            .for_tenant(t)
            .fold((0, 0), |(n, h), r| (n + 1, h + u64::from(r.slo_hit())));
        tenants.push((t, requests, hits));
    }
    SimFigures {
        offered,
        completed: records.iter().filter(|r| r.completed.is_some()).count() as u64,
        slo_hits: records.iter().filter(|r| r.slo_hit()).count() as u64,
        gpu_s: out.cost.total_gpu_time_secs(),
        replica: input.replica,
        class: input.class,
        aggressor: input.aggressor,
        tenants,
        latencies_ms: out.log.latencies_ms(),
    }
}
