//! The measured run and the traced run of one workload.
//!
//! The measured run (`--trace 0`) times the workload with every kind of
//! tracing off and reports the end-to-end metrics. The traced run
//! (`--trace 1`) interleaves plain passes with passes that record the
//! benchmark's spans, passes with the program's own profiler on, and — on
//! the workloads that have them — one-lane and control passes, and reports
//! the per-layer metrics. Both runs check the program's outputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ffs_metrics::LatencyCdf;
use ffs_telemetry::{Phase, PhaseSnapshot};

use crate::pass::{run_pass, setup_only, PassRecord, Role, SimFigures};
use crate::probes;
use crate::spans::Spans;
use crate::speed::SpeedRef;
use crate::stats::median;
use crate::workload::{replica_seed, synthesize, PassKind, Shape, Size, Workload};

/// Set-up is measured at least this many times per run.
const MIN_SETUP_SAMPLES: usize = 7;

/// A replica group holds at least this many latency samples, so its p99.9
/// has at least 100 samples beyond it.
const GROUP_SAMPLES: usize = 100_000;

/// The paper-claims report runs at this many seeds derived from the
/// workload seed; one seed holds 9 to 11 of the 11 claims.
const CLAIMS_SEEDS: usize = 4;

/// One end-to-end metric: name and unit.
pub struct MetricDef {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in the output and in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, printed by the measured run.
pub const END_TO_END: [MetricDef; 11] = [
    def("invocations_per_s", "1/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("slo_attainment", "ratio"),
    def("latency_p50_ms", "ms"),
    def("latency_p999_ms", "ms"),
    def("gpu_s_per_kreq", "s"),
    def("completed_frac", "ratio"),
    def("jain_goodput", "ratio"),
    def("worst_victim_slo", "ratio"),
    def("paper_claims_held", "count"),
];

/// The per-layer metrics other than the profiler phases, printed by the
/// traced run.
pub const PER_LAYER: [MetricDef; 38] = [
    def("trace.synth_s", "s"),
    def("trace.invocations", "count"),
    def("construct_s", "s"),
    def("engine.run_s", "s"),
    def("engine.invocations", "count"),
    def("engine.events", "count"),
    def("engine.ns_per_event", "ns"),
    def("engine.events_per_invocation", "ratio"),
    def("sched.launches", "count"),
    def("sched.pipeline_launches", "count"),
    def("sched.evictions", "count"),
    def("sched.reloads", "count"),
    def("sched.migrations", "count"),
    def("sched.pool_grows", "count"),
    def("sched.cold_terminations", "count"),
    def("plancache.hits", "count"),
    def("plancache.misses", "count"),
    def("plancache.hit_rate", "ratio"),
    def("arena.reuse_rate", "ratio"),
    def("metrics.fold_s", "s"),
    def("mqfq.overhead_ratio", "ratio"),
    def("mqfq.events_per_invocation", "ratio"),
    def("sharded.epochs", "count"),
    def("sharded.forwards", "count"),
    def("sharded.imbalance", "ratio"),
    def("sharded.lane_speedup", "ratio"),
    def("sim.wheel_ns_per_event", "ns"),
    def("mig.alloc_release_ns", "ns"),
    def("plancache.lookup_ns", "ns"),
    def("plancache.miss_ns", "ns"),
    def("telemetry.overhead_ratio", "ratio"),
    def("bench.tracing_overhead", "ratio"),
    def("bench.traced_wall_s", "s"),
    def("bench.check_s", "s"),
    def("bench.glue_s", "s"),
    def("bench.span_coverage", "ratio"),
    def("bench.passes", "count"),
    def("bench.latency_samples", "count"),
];

/// Every per-layer metric name and unit, the profiler phases included.
pub fn per_layer_defs() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit))
        .collect();
    for phase in Phase::ALL {
        out.push((format!("phase.{}.self_s", phase.name()), "s"));
        out.push((format!("phase.{}.calls", phase.name()), "count"));
    }
    out
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every synthesized input.
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// The traced run instead of the measured one.
    pub trace: bool,
    /// Full or tiny inputs.
    pub size: Size,
}

/// The result of a run.
pub struct Outcome {
    /// `(name, value, unit)`, in definition order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Failed checks, each naming the check.
    pub failures: Vec<String>,
    /// Provenance lines: commit, machine, seed and exact counts.
    pub provenance: Vec<String>,
    /// The spans the traced run recorded.
    pub spans: Spans,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the measured or the traced run.
pub fn run(opts: &Options) -> Outcome {
    ffs_telemetry::set_enabled(false);
    let shape = opts.workload.shape(opts.size);
    let run_id = run_id(opts);
    let mut ctx = Ctx {
        shape,
        opts: *opts,
        spans: Spans::new(run_id, false),
        failures: Vec::new(),
        attempted: 0,
        reference: PassRecord::default(),
        notes: Vec::new(),
        speed: SpeedRef::new(),
    };
    // The reference pass checks the request logs and keeps the simulated
    // outcome; every later pass must reproduce its digests. On the sharded
    // workload it runs on one lane, so the comparison is the lane check.
    let ref_kind = if shape.workload == Workload::Sharded4096 {
        PassKind::OneLane
    } else {
        PassKind::Main
    };
    ctx.reference = ctx.pass(ref_kind, Role::Reference);
    let (metrics, counts_from) = if opts.trace {
        ctx.traced()
    } else {
        ctx.measured()
    };
    for (name, value) in [
        ("schedule_clamps", ffs_obs::schedule_clamps()),
        ("arrival_saturations", ffs_obs::arrival_saturations()),
        ("metric_clamps", ffs_obs::metric_clamps()),
        (
            "nonfinite_latency_samples",
            ffs_obs::nonfinite_latency_samples(),
        ),
    ] {
        if value != 0 {
            ctx.failures.push(format!("obs_{name}_zero: {value}"));
        }
    }
    let mut provenance = provenance(opts, &shape, &counts_from, &ctx.reference);
    provenance.append(&mut ctx.notes);
    Outcome {
        metrics,
        attempted: ctx.attempted,
        failures: ctx.failures,
        provenance,
        spans: ctx.spans,
    }
}

struct Ctx {
    shape: Shape,
    opts: Options,
    spans: Spans,
    failures: Vec<String>,
    attempted: u64,
    reference: PassRecord,
    /// Extra provenance lines.
    notes: Vec<String>,
    speed: SpeedRef,
}

impl Ctx {
    /// Runs a pass; the measured run's repeats interleave the reference.
    fn pass(&mut self, kind: PassKind, role: Role) -> PassRecord {
        let scaled = !self.opts.trace && role == Role::Repeat;
        let speed = scaled.then_some(&mut self.speed);
        let mut p = run_pass(
            &self.shape,
            self.opts.seed,
            kind,
            role,
            &mut self.spans,
            speed,
        );
        self.attempted += p.attempted;
        self.failures.append(&mut p.failures);
        p
    }

    /// Records a failure of `check` if `pass` did not reproduce the
    /// digests `base`.
    fn same_digests(&mut self, check: &str, base: &[u64], pass: &PassRecord) {
        let digests = pass.digests();
        if digests != base {
            self.failures.push(format!(
                "{check}: digests {digests:x?} differ from {base:x?}"
            ));
        }
    }

    /// The check a main pass's digests answer against the reference.
    fn main_check(&self) -> &'static str {
        if self.shape.workload == Workload::Sharded4096 {
            "digest_one_lane_equals_two_lanes"
        } else {
            "digest_equal_across_repeats"
        }
    }

    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.opts.seconds)
    }

    /// The measured run: the end-to-end metrics.
    fn measured(&mut self) -> (Vec<(String, f64, &'static str)>, PassRecord) {
        let deadline = self.deadline();
        let mut passes: Vec<PassRecord> = Vec::new();
        loop {
            let p = self.pass(PassKind::Main, Role::Repeat);
            match passes.first() {
                None => self.same_digests(self.main_check(), &self.reference.digests(), &p),
                Some(first) => {
                    let base = first.digests();
                    self.same_digests("digest_equal_across_repeats", &base, &p);
                }
            }
            passes.push(p);
            if Instant::now() >= deadline {
                break;
            }
        }
        let mut setups: Vec<f64> = passes.iter().map(PassRecord::nominal_setup_s).collect();
        while setups.len() < MIN_SETUP_SAMPLES {
            setups.push(setup_only(&self.shape, self.opts.seed, &mut self.speed));
        }
        let held: usize = (0..CLAIMS_SEEDS)
            .map(|r| {
                let seed = replica_seed(self.opts.seed, r);
                let claims = ffs_experiments::report::run(self.opts.size.claims_secs(), seed);
                claims.iter().filter(|c| c.holds).count()
            })
            .sum();
        let rate: Vec<f64> = passes.iter().map(PassRecord::invocations_per_s).collect();
        let listed = |f: &dyn Fn(&PassRecord) -> f64| {
            let v: Vec<String> = passes.iter().map(|p| format!("{:.4}", f(p))).collect();
            v.join(",")
        };
        self.notes.push(format!(
            "perfbench: passes={} invocations_per_s=[{}] raw_invocations_per_s=[{}] speed_factor=[{}]",
            passes.len(),
            listed(&PassRecord::invocations_per_s),
            listed(&|p| p.offered() as f64 / p.timed_s()),
            listed(&|p| p.speed_factor),
        ));
        let sim = SimMetrics::of(&self.reference);
        let values = [
            median(&rate),
            median(&setups),
            ffs_experiments::scale::peak_rss_kb() as f64 / 1024.0,
            sim.slo_attainment,
            sim.p50_ms,
            sim.p999_ms,
            sim.gpu_s_per_kreq,
            sim.completed_frac,
            sim.jain_goodput,
            sim.worst_victim_slo,
            held as f64,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v, d.unit))
            .collect();
        let counts = passes.swap_remove(0);
        (metrics, counts)
    }

    /// The traced run: the per-layer metrics.
    fn traced(&mut self) -> (Vec<(String, f64, &'static str)>, PassRecord) {
        #[derive(Clone, Copy, PartialEq)]
        enum Variant {
            Plain,
            Spans,
            Profiler,
            OneLane,
            Control,
        }
        let mut variants = vec![Variant::Plain, Variant::Spans, Variant::Profiler];
        match self.shape.workload {
            Workload::Sharded4096 => variants.push(Variant::OneLane),
            Workload::Tenants => variants.push(Variant::Control),
            _ => {}
        }
        let mut plain: Vec<PassRecord> = Vec::new();
        let mut spanned: Vec<(PassRecord, Vec<(&'static str, u64)>)> = Vec::new();
        let mut profiled: Vec<(PassRecord, PhaseSnapshot)> = Vec::new();
        let mut one_lane: Vec<PassRecord> = Vec::new();
        let mut control: Vec<PassRecord> = Vec::new();
        let deadline = self.deadline();
        let reference = self.reference.digests();
        let mut main_digests = Vec::new();
        while plain.is_empty() || Instant::now() < deadline {
            for &v in &variants {
                match v {
                    Variant::Plain => {
                        let p = self.pass(PassKind::Main, Role::Repeat);
                        self.same_digests(self.main_check(), &reference, &p);
                        main_digests = p.digests();
                        plain.push(p);
                    }
                    Variant::Spans => {
                        self.spans.set_enabled(true);
                        let mark = self.spans.mark();
                        let p = self.pass(PassKind::Main, Role::Repeat);
                        self.spans.set_enabled(false);
                        self.same_digests("digest_traced_equals_untraced", &main_digests, &p);
                        let by_name = self.spans.self_ns_by_name(mark);
                        spanned.push((p, by_name));
                    }
                    Variant::Profiler => {
                        ffs_telemetry::flush_thread();
                        let before = ffs_telemetry::snapshot();
                        ffs_telemetry::set_enabled(true);
                        let p = self.pass(PassKind::Main, Role::Repeat);
                        ffs_telemetry::set_enabled(false);
                        ffs_telemetry::flush_thread();
                        let delta = snapshot_delta(&ffs_telemetry::snapshot(), &before);
                        self.same_digests("digest_profiled_equals_unprofiled", &main_digests, &p);
                        profiled.push((p, delta));
                    }
                    Variant::OneLane => {
                        let p = self.pass(PassKind::OneLane, Role::Repeat);
                        self.same_digests("digest_equal_across_repeats", &reference, &p);
                        one_lane.push(p);
                    }
                    Variant::Control => {
                        let p = self.pass(PassKind::Control, Role::Repeat);
                        if let Some(first) = control.first() {
                            let base = first.digests();
                            self.same_digests("digest_equal_across_repeats", &base, &p);
                        }
                        control.push(p);
                    }
                }
            }
        }

        // The probes, each in a root span of its own.
        self.spans.set_enabled(true);
        let tok = self.spans.enter("trace.synth");
        let inputs = synthesize(&self.shape, self.opts.seed);
        self.spans.exit(tok);
        let cfg = inputs[0].cfg.clone();
        let cell_nodes = self.shape.nodes_per_cell();
        let tok = self.spans.enter("probe.wheel");
        let traces: Vec<_> = inputs.iter().flat_map(|i| i.engine_traces()).collect();
        let wheel = probes::wheel_ns_per_event(&traces);
        self.spans.exit(tok);
        drop(traces);
        drop(inputs);
        let tok = self.spans.enter("probe.mig");
        let mig = probes::mig_alloc_release_ns(&cfg, cell_nodes);
        self.spans.exit(tok);
        let tok = self.spans.enter("probe.plancache");
        let (hit_ns, miss_ns) = probes::plancache_lookup_ns(&cfg, cell_nodes);
        self.spans.exit(tok);
        self.spans.set_enabled(false);

        // Timings come from the median-wall pass of each variant, so the
        // span self-times of the reported pass add up to its wall time.
        let (sp, by_name) = median_pass(&spanned, |(p, _)| p.wall_s);
        let span_s = |name: &str| {
            by_name
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, ns)| *ns as f64 * 1e-9)
        };
        let traced_wall = by_name.iter().map(|(_, ns)| *ns as f64 * 1e-9).sum::<f64>();
        let (_, phases) = median_pass(&profiled, |(p, _)| p.timed_s());
        let first = &plain[0];
        let sched = first.sched();
        let shard = first.jobs.iter().find_map(|j| j.shard.as_ref());
        let (hits, misses) = first.plan_cache;
        let (fresh, reused) = plain
            .iter()
            .chain(spanned.iter().map(|(p, _)| p))
            .chain(profiled.iter().map(|(p, _)| p))
            .fold((0, 0), |(f, r), p| (f + p.arena.0, r + p.arena.1));
        let med = |ps: &[PassRecord], f: fn(&PassRecord) -> f64| -> f64 {
            if ps.is_empty() {
                0.0
            } else {
                median(&ps.iter().map(f).collect::<Vec<_>>())
            }
        };
        let plain_run = med(&plain, PassRecord::run_s);
        let engine_run = span_s("engine.run");
        let events = first.events() as f64;
        let offered = first.offered() as f64;
        let samples = SimMetrics::of(&self.reference).samples;
        let values = [
            span_s("trace.synth"),
            first.synthesized as f64,
            span_s("construct"),
            engine_run,
            offered,
            events,
            ratio(engine_run * 1e9, sp.events() as f64),
            ratio(events, offered),
            sched.launches as f64,
            sched.pipeline_launches as f64,
            sched.evictions as f64,
            sched.reloads as f64,
            sched.migrations as f64,
            sched.pool_grows as f64,
            sched.cold_terminations as f64,
            hits as f64,
            misses as f64,
            ratio(hits as f64, (hits + misses) as f64),
            ratio(reused as f64, (fresh + reused) as f64),
            span_s("metrics.fold"),
            ratio(plain_run, med(&control, PassRecord::run_s)),
            if control.is_empty() {
                0.0
            } else {
                ratio(events, offered)
            },
            shard.map_or(0.0, |s| s.epochs as f64),
            shard.map_or(0.0, |s| s.forwards as f64),
            shard.map_or(0.0, |s| s.imbalance()),
            ratio(med(&one_lane, PassRecord::run_s), plain_run),
            wheel,
            mig,
            hit_ns,
            miss_ns,
            ratio(
                median(
                    &profiled
                        .iter()
                        .map(|(p, _)| p.timed_s())
                        .collect::<Vec<_>>(),
                ),
                med(&plain, PassRecord::timed_s),
            ),
            ratio(
                median(&spanned.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>()),
                med(&plain, |p| p.wall_s),
            ),
            traced_wall,
            span_s("bench.check"),
            span_s("pass"),
            ratio(traced_wall - span_s("pass"), traced_wall),
            (plain.len() + spanned.len() + profiled.len() + one_lane.len() + control.len()) as f64,
            samples,
        ];
        let mut metrics: Vec<(String, f64, &'static str)> = PER_LAYER
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v, d.unit))
            .collect();
        for phase in Phase::ALL {
            let i = phase as usize;
            let secs = ffs_telemetry::clock::cycles_to_secs(phases.cycles[i]);
            metrics.push((format!("phase.{}.self_s", phase.name()), secs, "s"));
            metrics.push((
                format!("phase.{}.calls", phase.name()),
                phases.calls[i] as f64,
                "count",
            ));
        }
        let counts = plain.swap_remove(0);
        (metrics, counts)
    }
}

/// The element whose `key` is the median (the lower middle for an even
/// count).
fn median_pass<T>(items: &[T], key: impl Fn(&T) -> f64) -> &T {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| key(&items[a]).total_cmp(&key(&items[b])));
    &items[order[(order.len() - 1) / 2]]
}

fn snapshot_delta(after: &PhaseSnapshot, before: &PhaseSnapshot) -> PhaseSnapshot {
    let mut d = after.clone();
    for i in 0..d.cycles.len() {
        d.cycles[i] = after.cycles[i].saturating_sub(before.cycles[i]);
        d.calls[i] = after.calls[i].saturating_sub(before.calls[i]);
    }
    d.paths.clear();
    d
}

/// The simulated end-to-end metrics of the reference pass, pooled over its
/// FluidFaaS-family runs.
struct SimMetrics {
    slo_attainment: f64,
    p50_ms: f64,
    p999_ms: f64,
    gpu_s_per_kreq: f64,
    completed_frac: f64,
    jain_goodput: f64,
    worst_victim_slo: f64,
    samples: f64,
}

impl SimMetrics {
    fn of(reference: &PassRecord) -> SimMetrics {
        let figs: Vec<&SimFigures> = reference
            .jobs
            .iter()
            .filter_map(|j| j.sim.as_ref())
            .collect();
        let offered: u64 = figs.iter().map(|f| f.offered).sum();
        let completed: u64 = figs.iter().map(|f| f.completed).sum();
        let hits: u64 = figs.iter().map(|f| f.slo_hits).sum();
        let gpu_s: f64 = figs.iter().map(|f| f.gpu_s).sum();
        let groups = replica_groups(&figs);
        let mut p50 = Vec::new();
        let mut p999 = Vec::new();
        let mut jain = Vec::new();
        let mut worst = Vec::new();
        for group in &groups {
            let pooled: Vec<f64> = group
                .iter()
                .flat_map(|f| f.latencies_ms.iter().copied())
                .collect();
            let cdf = LatencyCdf::new(pooled);
            p50.push(cdf.percentile(0.5).unwrap_or(0.0));
            p999.push(cdf.percentile(0.999).unwrap_or(0.0));
            let (j, w) = fairness(group);
            jain.push(j);
            worst.push(w);
        }
        let samples = groups
            .iter()
            .map(|g| g.iter().map(|f| f.latencies_ms.len()).sum::<usize>())
            .min()
            .unwrap_or(0);
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        SimMetrics {
            slo_attainment: ratio(hits as f64, offered as f64),
            p50_ms: med(&p50),
            p999_ms: med(&p999),
            gpu_s_per_kreq: ratio(gpu_s, completed as f64 / 1000.0),
            completed_frac: ratio(completed as f64, offered as f64),
            jain_goodput: med(&jain),
            worst_victim_slo: med(&worst),
            samples: samples as f64,
        }
    }
}

/// Splits the runs into groups of consecutive replicas, each with at least
/// [`GROUP_SAMPLES`] latency samples (a short tail joins the last group).
/// Tail and worst-case figures are taken per group and reported as the
/// median over groups: on the bursty paper traces one group's p99.9 is set
/// by its worst burst, and the median keeps one burst from setting the
/// workload's figure.
fn replica_groups<'a>(figs: &[&'a SimFigures]) -> Vec<Vec<&'a SimFigures>> {
    let replicas = figs.iter().map(|f| f.replica + 1).max().unwrap_or(0);
    let mut groups: Vec<Vec<&SimFigures>> = Vec::new();
    let mut open: Vec<&SimFigures> = Vec::new();
    for r in 0..replicas {
        open.extend(figs.iter().filter(|f| f.replica == r));
        if open.iter().map(|f| f.latencies_ms.len()).sum::<usize>() >= GROUP_SAMPLES {
            groups.push(std::mem::take(&mut open));
        }
    }
    if !open.is_empty() {
        match groups.last_mut() {
            Some(last) => last.extend(open),
            None => groups.push(open),
        }
    }
    groups
}

/// Jain's index over per-tenant goodput and the lowest non-aggressor
/// tenant SLO attainment, each the minimum over the group's classes or
/// scenarios. Each tenant's requests and SLO hits are pooled over the
/// group's replicas, which share one duration, so pooled hits are
/// proportional to pooled goodput.
fn fairness(group: &[&SimFigures]) -> (f64, f64) {
    // class → (aggressor, tenant → (requests, SLO hits))
    type Tally = (Option<u32>, BTreeMap<u32, (u64, u64)>);
    let mut classes: BTreeMap<usize, Tally> = BTreeMap::new();
    for f in group {
        let c = classes
            .entry(f.class)
            .or_insert((f.aggressor, BTreeMap::new()));
        for &(tenant, requests, hits) in &f.tenants {
            let t = c.1.entry(tenant).or_insert((0, 0));
            t.0 += requests;
            t.1 += hits;
        }
    }
    let mut jain: f64 = 1.0;
    let mut worst: f64 = 1.0;
    for (aggressor, tenants) in classes.values() {
        let goodput: Vec<f64> = tenants.values().map(|&(_, h)| h as f64).collect();
        jain = jain.min(ffs_metrics::jain_index(&goodput));
        for (tenant, &(requests, hits)) in tenants {
            if Some(*tenant) != *aggressor {
                worst = worst.min(ratio(hits as f64, requests as f64));
            }
        }
    }
    (jain, worst)
}

/// An id shared by every span of one run.
fn run_id(opts: &Options) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in opts
        .workload
        .name()
        .bytes()
        .chain(opts.seed.to_le_bytes())
        .chain(nanos.to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(
    opts: &Options,
    shape: &Shape,
    counts: &PassRecord,
    reference: &PassRecord,
) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sched = counts.sched();
    vec![
        format!(
            "perfbench: workload={} seed={} seconds={} trace={} size={:?} commit={} cpu=\"{}\" nproc={nproc} gpus={} cells={} lanes={}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.size,
            commit(),
            cpu_model(),
            shape.gpus(),
            shape.cells,
            shape.lanes,
        ),
        format!(
            "perfbench: counts trace.invocations={} engine.invocations={} engine.events={} latency.samples={} sched.launches={} sched.pipeline_launches={} sched.evictions={} sched.reloads={} sched.migrations={} sched.pool_grows={} sched.cold_terminations={} plancache.hits={} plancache.misses={}",
            counts.synthesized,
            counts.offered(),
            counts.events(),
            SimMetrics::of(reference).samples,
            sched.launches,
            sched.pipeline_launches,
            sched.evictions,
            sched.reloads,
            sched.migrations,
            sched.pool_grows,
            sched.cold_terminations,
            counts.plan_cache.0,
            counts.plan_cache.1,
        ),
    ]
}
