//! Property test: placement and the migration probe visit only the first
//! node of each distinct free-slice signature, and give the same answer as
//! a walk over every node.
//!
//! The test builds an engine on a fleet of 8–12 nodes, where most nodes
//! start with the same signature, and drives the fleet through random
//! allocate/release sequences (invalidating the plan cache after each, as
//! the engine does). After every step, for every function of the workload:
//!
//! * `FluidPlacer::place`, ranked and unranked, returns the same
//!   `(plan, node)` as the reference walk below, slice ids included;
//! * the placer made exactly one plan-cache lookup per distinct node
//!   signature;
//! * `monolithic_placement_exists` agrees with a fresh monolithic probe of
//!   every node.

use proptest::prelude::*;

use ffs_mig::{Fleet, NodeId, PartitionScheme, SliceId};
use ffs_pipeline::{plan_deployment, plan_deployment_unranked, DeploymentPlan};
use ffs_sim::SimDuration;
use ffs_trace::{Trace, WorkloadClass};
use fluidfaas::platform::policy::Placer;
use fluidfaas::system::monolithic_placement_exists;
use fluidfaas::{paper_policies, Engine, FfsConfig, FluidPlacer};

/// The every-node walk the placer's signature walk replaced: a fresh plan
/// on every node in index order, keeping the first plan with the fewest
/// stages, then the lowest CV (strict `<`, so the lowest node wins ties).
fn every_node_walk(
    fleet: &Fleet,
    profile: &ffs_profile::FunctionProfile,
    ranked: bool,
) -> Option<(DeploymentPlan, NodeId)> {
    let mut best: Option<(DeploymentPlan, NodeId)> = None;
    for node in fleet.nodes() {
        let free = fleet.free_slices(Some(node.id));
        let plan = if ranked {
            plan_deployment(profile, &free)
        } else {
            plan_deployment_unranked(profile, &free)
        };
        if let Some(p) = plan {
            let better = match &best {
                None => true,
                Some((c, _)) => (p.num_stages(), p.cv) < (c.num_stages(), c.cv),
            };
            if better {
                best = Some((p, node.id));
            }
        }
    }
    best
}

/// Whether any node, probed fresh, could host a monolithic plan.
fn every_node_monolithic(fleet: &Fleet, profile: &ffs_profile::FunctionProfile) -> bool {
    fleet.nodes().iter().any(|node| {
        plan_deployment(profile, &fleet.free_slices(Some(node.id)))
            .is_some_and(|p| p.is_monolithic())
    })
}

fn distinct_signatures(fleet: &Fleet) -> u64 {
    let mut sigs: Vec<u64> = fleet
        .nodes()
        .iter()
        .map(|n| fleet.node_signature(n.id))
        .collect();
    sigs.sort_unstable();
    sigs.dedup();
    sigs.len() as u64
}

/// Allocates a free slice (even `op`) or releases an allocated one (odd
/// `op`); returns whether the fleet changed.
fn apply_op(fleet: &mut Fleet, allocated: &mut Vec<SliceId>, op: u8) -> bool {
    if op.is_multiple_of(2) {
        let free = fleet.free_slices(None);
        if free.is_empty() {
            return false;
        }
        let id = free[op as usize % free.len()].id;
        fleet.allocate(id).expect("free slice allocates");
        allocated.push(id);
    } else {
        if allocated.is_empty() {
            return false;
        }
        let id = allocated.remove(op as usize % allocated.len());
        fleet.release(id).expect("allocated slice releases");
    }
    true
}

proptest! {
    #[test]
    fn signature_walk_matches_every_node_walk(
        nodes in 8usize..13,
        gpus_per_node in 1usize..3,
        scheme in 0u8..3,
        class in 0u8..3,
        ops in proptest::collection::vec(0u8..=255u8, 1..40),
    ) {
        let workload = [WorkloadClass::Light, WorkloadClass::Medium, WorkloadClass::Heavy]
            [class as usize];
        let mut cfg = FfsConfig::paper_default(workload);
        cfg.nodes = nodes;
        cfg.gpus_per_node = gpus_per_node;
        cfg.scheme = [PartitionScheme::p1(), PartitionScheme::p2(), PartitionScheme::hybrid()]
            [scheme as usize]
            .clone();
        let trace = Trace {
            invocations: Vec::new(),
            duration: SimDuration::from_secs(1),
        };
        let policies = paper_policies(&cfg);
        let mut engine = Engine::new(cfg, policies, &trace).expect("valid engine");
        let core = &mut engine.core;
        let funcs: Vec<usize> = core.catalog.ids().collect();
        let mut allocated = Vec::new();

        for &op in &ops {
            if apply_op(&mut core.fleet, &mut allocated, op) {
                core.plan_cache.invalidate();
            }
            let distinct = distinct_signatures(&core.fleet);
            for &f in &funcs {
                for ranked in [true, false] {
                    let expect = every_node_walk(&core.fleet, core.catalog.profile(f), ranked);
                    let lookups = core.plan_cache.hits() + core.plan_cache.misses();
                    let got = FluidPlacer { ranked }.place(core, f);
                    prop_assert_eq!(
                        core.plan_cache.hits() + core.plan_cache.misses() - lookups,
                        distinct,
                        "one lookup per distinct signature"
                    );
                    prop_assert_eq!(got, expect, "function {} ranked {}", f, ranked);
                }
                let expect = every_node_monolithic(&core.fleet, core.catalog.profile(f));
                prop_assert_eq!(monolithic_placement_exists(core, f), expect, "function {}", f);
            }
        }
    }
}
