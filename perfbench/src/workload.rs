//! The benchmark's workloads: their shapes, the inputs each synthesizes
//! from the seed, and the simulation runs one pass executes.
//!
//! Why each workload is in the benchmark:
//!
//! * `paper_sweep` — the paper's 2 × 8 GPU fleet under its Light, Medium
//!   and Heavy traces, replayed by INFless, ESG and FluidFaaS. The event
//!   loop (timer wheel, dispatch, keep-alive, autoscaler) dominates; the
//!   plan cache almost always hits.
//! * `fleet_1024` — FluidFaaS alone on 1024 GPUs in one cell. The
//!   per-fleet control plane (placer, plan cache, migrator probes, shared
//!   pool, routing) dominates, so costs that grow with the GPU count show.
//! * `tenants` — MQFQ-Sticky on three multi-tenant scenarios: per-flow
//!   virtual-time queues, throttling, retries on scale ticks, and the
//!   per-tenant metric fold. No other workload reaches the MQFQ policies.
//! * `sharded_4096` — 4096 GPUs in 64 cells on two lanes: the only
//!   workload that runs the epoch barrier, the cross-cell exchange and lane
//!   parallelism, and the one with the largest memory.

use ffs_trace::{
    AzureTraceConfig, CellTrace, FairnessScenario, ScaleTraceConfig, Trace, WorkloadClass,
};
use fluidfaas::FfsConfig;

/// GPUs per node on every fleet (the paper's node shape).
pub const GPUS_PER_NODE: usize = 8;

/// Arrival rate per GPU of the scale workloads, in requests per second.
const SCALE_RPS_PER_GPU: f64 = 3.0;

/// Tenant functions per GPU of the scale workloads.
const FUNCTIONS_PER_GPU: usize = 64;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// INFless, ESG and FluidFaaS on the paper fleet and traces.
    PaperSweep,
    /// FluidFaaS on 1024 GPUs in one cell.
    Fleet1024,
    /// MQFQ-Sticky on the three fairness scenarios.
    Tenants,
    /// Sharded FluidFaaS on 4096 GPUs in 64 cells.
    Sharded4096,
}

/// Full size for measurement, tiny for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` measures.
    Full,
    /// A few seconds of trace on a small fleet.
    Tiny,
}

impl Size {
    /// Trace seconds of the paper-claims report (the paper's setting at
    /// full size).
    pub fn claims_secs(self) -> f64 {
        match self {
            Size::Full => 300.0,
            Size::Tiny => 20.0,
        }
    }
}

/// The dimensions of one workload at one size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Which workload.
    pub workload: Workload,
    /// Trace length in simulated seconds.
    pub trace_secs: f64,
    /// Nodes of [`GPUS_PER_NODE`] GPUs across the whole fleet.
    pub nodes: usize,
    /// Tenant functions of a scale trace (0 for the paper's apps).
    pub functions: usize,
    /// Shard cells the fleet is split into.
    pub cells: usize,
    /// Worker lanes of the sharded engine.
    pub lanes: usize,
    /// Independent copies of the inputs, each from its own seed derived
    /// from the workload seed.
    pub replicas: usize,
}

impl Shape {
    /// GPUs across the fleet.
    pub fn gpus(&self) -> usize {
        self.nodes * GPUS_PER_NODE
    }

    /// Nodes in one cell (the fleet one engine owns).
    pub fn nodes_per_cell(&self) -> usize {
        self.nodes / self.cells
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::Fleet1024,
        Workload::Tenants,
        Workload::Sharded4096,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Fleet1024 => "fleet_1024",
            Workload::Tenants => "tenants",
            Workload::Sharded4096 => "sharded_4096",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's dimensions. Every full-size workload offers its
    /// FluidFaaS-family runs more than 10⁵ invocations, so the p99.9
    /// latency has at least 100 samples beyond it.
    pub fn shape(self, size: Size) -> Shape {
        let full = size == Size::Full;
        let paper = |trace_secs, replicas| Shape {
            workload: self,
            trace_secs,
            nodes: 2,
            functions: 0,
            cells: 1,
            lanes: 1,
            replicas,
        };
        match self {
            // The generator scales its burst periods with the trace length,
            // so one trace holds only a few bursts however long it is, and
            // the simulated figures of one trace swing with the seed.
            // Replicas of the paper's 300 s setting average the bursts out;
            // 48 of them offer FluidFaaS ~1.8·10⁶ invocations.
            Workload::PaperSweep => {
                paper(if full { 300.0 } else { 30.0 }, if full { 48 } else { 2 })
            }
            // The adversarial burst also scales with the trace length: four
            // replicas of 1800 s offer MQFQ ~6·10⁵ invocations.
            Workload::Tenants => paper(if full { 1800.0 } else { 30.0 }, if full { 4 } else { 1 }),
            // Warm instances need minutes to form on a cold 1024-GPU fleet:
            // shorter traces miss every SLO.
            Workload::Fleet1024 => {
                let nodes = if full { 128 } else { 4 };
                Shape {
                    workload: self,
                    trace_secs: if full { 300.0 } else { 20.0 },
                    nodes,
                    functions: nodes * GPUS_PER_NODE * FUNCTIONS_PER_GPU,
                    cells: 1,
                    lanes: 1,
                    replicas: 1,
                }
            }
            Workload::Sharded4096 => {
                let nodes = if full { 512 } else { 8 };
                Shape {
                    workload: self,
                    trace_secs: if full { 90.0 } else { 10.0 },
                    nodes,
                    functions: nodes * GPUS_PER_NODE * FUNCTIONS_PER_GPU,
                    cells: if full { 64 } else { 4 },
                    lanes: 2,
                    replicas: 1,
                }
            }
        }
    }
}

/// A system one job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// INFless with MIG support.
    Infless,
    /// ESG.
    Esg,
    /// FluidFaaS.
    Fluid,
    /// The MQFQ-Sticky policy family.
    Mqfq,
    /// FluidFaaS on the sharded engine with this many lanes.
    Sharded {
        /// Worker lanes.
        lanes: usize,
    },
}

impl System {
    /// Whether the run feeds the simulated end-to-end metrics.
    pub fn fluid_family(self) -> bool {
        !matches!(self, System::Infless | System::Esg)
    }
}

/// Which variant of a workload's pass to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// The workload as measured.
    Main,
    /// The sharded workload on one lane (the lane-count cross-check and
    /// the lane speed-up's base).
    OneLane,
    /// FluidFaaS on the `tenants` traces: the control for MQFQ's overhead.
    Control,
}

/// The systems a pass runs on each of its inputs, in order.
pub fn systems(shape: &Shape, kind: PassKind) -> Vec<System> {
    match (shape.workload, kind) {
        (Workload::PaperSweep, _) => vec![System::Infless, System::Esg, System::Fluid],
        (Workload::Fleet1024, _) => vec![System::Fluid],
        (Workload::Tenants, PassKind::Control) => vec![System::Fluid],
        (Workload::Tenants, _) => vec![System::Mqfq],
        (Workload::Sharded4096, PassKind::OneLane) => vec![System::Sharded { lanes: 1 }],
        (Workload::Sharded4096, _) => vec![System::Sharded { lanes: shape.lanes }],
    }
}

/// The arrivals of one input.
pub enum Arrivals {
    /// One trace for the whole fleet.
    Trace(Trace),
    /// One trace per shard cell, taken by the run that consumes them.
    Cells(Vec<CellTrace>),
}

/// One synthesized input of a pass.
pub struct Input {
    /// Which replica of the workload the input belongs to.
    pub replica: usize,
    /// Index of the class or scenario within the replica.
    pub class: usize,
    /// The fleet and policy configuration.
    pub cfg: FfsConfig,
    /// The tenant a fairness scenario makes the aggressor, if any.
    pub aggressor: Option<u32>,
    /// The arrivals.
    pub arrivals: Arrivals,
}

impl Input {
    /// Invocations the input offers.
    pub fn invocations(&self) -> usize {
        self.engine_traces()
            .iter()
            .map(|t| t.invocations.len())
            .sum()
    }

    /// The request ids a run of this input must log, sorted.
    pub fn expected_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = match &self.arrivals {
            Arrivals::Trace(trace) => trace.invocations.iter().map(|i| i.id).collect(),
            Arrivals::Cells(cells) => cells
                .iter()
                .flat_map(|c| c.global_ids.iter().copied())
                .collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// The traces one engine replays each: the whole trace, or every cell.
    pub fn engine_traces(&self) -> Vec<&Trace> {
        match &self.arrivals {
            Arrivals::Trace(trace) => vec![trace],
            Arrivals::Cells(cells) => cells.iter().map(|c| &c.trace).collect(),
        }
    }
}

fn scale_cfg(shape: &Shape) -> FfsConfig {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = shape.nodes;
    cfg.gpus_per_node = GPUS_PER_NODE;
    cfg
}

fn scale_trace(shape: &Shape, seed: u64) -> ScaleTraceConfig {
    let rps = SCALE_RPS_PER_GPU * shape.gpus() as f64;
    ScaleTraceConfig::new(shape.functions, shape.trace_secs, rps, seed)
}

/// The seed of replica `r` of a workload seeded with `seed` (splitmix64).
pub fn replica_seed(seed: u64, r: usize) -> u64 {
    let mut z = seed.wrapping_add((r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Synthesizes a pass's inputs from the seed, replica by replica. The same
/// seed gives the same inputs.
pub fn synthesize(shape: &Shape, seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    for replica in 0..shape.replicas {
        let seed = if shape.replicas == 1 {
            seed
        } else {
            replica_seed(seed, replica)
        };
        for (class, cfg, aggressor, arrivals) in synthesize_one(shape, seed) {
            inputs.push(Input {
                replica,
                class,
                cfg,
                aggressor,
                arrivals,
            });
        }
    }
    inputs
}

type Synthesized = (usize, FfsConfig, Option<u32>, Arrivals);

fn synthesize_one(shape: &Shape, seed: u64) -> Vec<Synthesized> {
    match shape.workload {
        Workload::PaperSweep => WorkloadClass::ALL
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let trace =
                    AzureTraceConfig::for_workload(class, shape.trace_secs, seed).generate();
                (
                    i,
                    FfsConfig::paper_default(class),
                    None,
                    Arrivals::Trace(trace),
                )
            })
            .collect(),
        Workload::Tenants => FairnessScenario::ALL
            .iter()
            .enumerate()
            .map(|(i, &scenario)| {
                let class = WorkloadClass::Medium;
                let trace = scenario.generate(class, shape.trace_secs, seed);
                let cfg = FfsConfig::paper_default(class);
                (i, cfg, scenario.aggressor(class), Arrivals::Trace(trace))
            })
            .collect(),
        Workload::Fleet1024 => {
            let trace = scale_trace(shape, seed).cell_trace(0, 1).trace;
            vec![(0, scale_cfg(shape), None, Arrivals::Trace(trace))]
        }
        Workload::Sharded4096 => {
            let tc = scale_trace(shape, seed);
            let cells = (0..shape.cells).map(|c| tc.cell_trace(c, shape.cells));
            vec![(0, scale_cfg(shape), None, Arrivals::Cells(cells.collect()))]
        }
    }
}
