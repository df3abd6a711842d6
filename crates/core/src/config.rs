//! Platform configuration.

use crate::chaos::FaultSpec;
use ffs_mig::PartitionScheme;
use ffs_profile::PerfModel;
use ffs_sim::SimDuration;
use ffs_trace::WorkloadClass;

/// How the autoscaler sizes a function's exclusive-instance fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalingPolicy {
    /// Reactive: scale while measured demand exceeds capacity headroom or a
    /// backlog persists (the default, matching serverless platforms).
    Reactive,
    /// Model-based: size to the minimum M/M/c fleet whose mean queueing
    /// wait stays below `target_wait_frac` x the function's SLO slack
    /// (Erlang-C sizing).
    ErlangC {
        /// Fraction of the SLO budget allowed as mean queueing wait.
        target_wait_frac: f64,
    },
}

/// Configuration of a FluidFaaS (or baseline) platform run.
#[derive(Clone, Debug)]
pub struct FfsConfig {
    /// Number of invoker nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// How GPUs are partitioned.
    pub scheme: PartitionScheme,
    /// The workload class (fixes each app's variant).
    pub workload: WorkloadClass,
    /// SLO scale: SLO latency = scale x reference latency (§6, default 1.5).
    pub slo_scale: f64,
    /// The performance model.
    pub perf: PerfModel,
    /// Autoscaler cadence.
    pub scale_tick: SimDuration,
    /// Utilization below which an exclusive-hot instance demotes to time
    /// sharing (§5.3: "not actively busy, i.e. utilization below 30%").
    pub demote_utilization: f64,
    /// Utilization above which a time-sharing instance promotes to
    /// exclusive hot.
    pub promote_utilization: f64,
    /// Idle time after which a warm (time-sharing) instance is terminated
    /// to cold (§5.3: 10 minutes).
    pub keep_alive: SimDuration,
    /// Minimum idle time before a low-utilization exclusive instance is
    /// demoted/retired (hysteresis so burst capacity stays warm between
    /// bursts).
    pub exclusive_idle_grace: SimDuration,
    /// Idle time after which the *baselines* release an exclusive instance
    /// (their only reclamation path — the "exclusive keep-alive" policy).
    pub baseline_keep_alive: SimDuration,
    /// Headroom factor: scale up when demand exceeds this fraction of
    /// serving capacity.
    pub scaleup_headroom: f64,
    /// The autoscaler's sizing policy.
    pub scaling_policy: ScalingPolicy,
    /// Enable CV ranking of partitions; when false the planner effectively
    /// takes the first feasible partition in enumeration order (ablation).
    pub enable_cv_ranking: bool,
    /// How long after the last trace arrival the run keeps draining before
    /// finalising metrics.
    pub drain: SimDuration,
    /// Fault-injection spec (disabled by default; fault-free runs stay
    /// bit-identical to pre-chaos goldens).
    pub faults: FaultSpec,
}

impl FfsConfig {
    /// The paper's evaluation setup: 2 nodes x 8 A100s, default partition
    /// P1, SLO scale 1.5.
    pub fn paper_default(workload: WorkloadClass) -> Self {
        FfsConfig {
            nodes: 2,
            gpus_per_node: 8,
            scheme: PartitionScheme::p1(),
            workload,
            slo_scale: 1.5,
            perf: PerfModel::default(),
            scale_tick: SimDuration::from_secs(1),
            demote_utilization: 0.30,
            promote_utilization: 0.60,
            exclusive_idle_grace: SimDuration::from_secs(90),
            keep_alive: SimDuration::from_mins(10),
            baseline_keep_alive: SimDuration::from_secs(120),
            scaleup_headroom: 0.5,
            scaling_policy: ScalingPolicy::Reactive,
            enable_cv_ranking: true,
            drain: SimDuration::from_secs(60),
            faults: FaultSpec::disabled(),
        }
    }

    /// A small single-node fleet for unit tests.
    pub fn test_small(workload: WorkloadClass) -> Self {
        FfsConfig {
            nodes: 1,
            gpus_per_node: 2,
            ..Self::paper_default(workload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let c = FfsConfig::paper_default(WorkloadClass::Medium);
        assert_eq!(c.nodes, 2);
        assert_eq!(c.gpus_per_node, 8);
        assert_eq!(c.slo_scale, 1.5);
        assert_eq!(c.keep_alive, SimDuration::from_mins(10));
        assert_eq!(c.demote_utilization, 0.30);
        assert!(c.enable_cv_ranking);
    }
}
