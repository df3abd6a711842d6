//! Tiny-size runs of every workload, measured and traced, with every
//! output check passing; and the metric list against `BENCHMARK.json`.

use ffs_perfbench::bench::{self, per_layer_defs, Options, END_TO_END};
use ffs_perfbench::workload::{Size, Workload};

fn tiny(workload: Workload, trace: bool) -> bench::Outcome {
    bench::run(&Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    })
}

#[test]
fn every_workload_passes_its_checks_measured_and_traced() {
    for workload in Workload::ALL {
        let measured = tiny(workload, false);
        assert!(
            measured.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            measured.failures
        );
        assert!(measured.attempted >= 2, "{}", workload.name());
        let names: Vec<&str> = measured.metrics.iter().map(|m| m.0.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        // Tiny traces end before warm instances form, so simulated
        // figures may be 0 here; host figures never are.
        for (name, value, _) in &measured.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        for host in ["invocations_per_s", "setup_s", "peak_rss_mb"] {
            assert!(measured.metric(host).expect(host) > 0.0, "{host}");
        }

        let traced = tiny(workload, true);
        assert!(
            traced.failures.is_empty(),
            "{} traced: {:?}",
            workload.name(),
            traced.failures
        );
        let names: Vec<String> = traced.metrics.iter().map(|m| m.0.clone()).collect();
        let expected: Vec<String> = per_layer_defs().into_iter().map(|d| d.0).collect();
        assert_eq!(names, expected);
        let get = |name: &str| traced.metric(name).expect(name);
        assert!(get("engine.events") > 0.0);
        assert!(get("bench.span_coverage") > 0.5);
        assert!(get("telemetry.overhead_ratio") > 0.0);
        match workload {
            Workload::Tenants => assert!(get("mqfq.overhead_ratio") > 0.0),
            Workload::Sharded4096 => {
                assert!(get("sharded.epochs") > 0.0);
                assert!(get("sharded.lane_speedup") > 0.0);
            }
            _ => assert!(get("sched.launches") > 0.0),
        }
    }
}

#[test]
fn traced_span_self_times_add_up_to_each_pass() {
    let traced = tiny(Workload::PaperSweep, true);
    let spans = traced.spans.spans();
    let own = ffs_perfbench::spans::self_times_ns(spans, 0);
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        // The root's subtree is every later span until the next root.
        let end = spans[i + 1..]
            .iter()
            .position(|s| s.parent.is_none())
            .map_or(spans.len(), |p| i + 1 + p);
        let total: u64 = own[i..end].iter().sum();
        assert_eq!(total, root.duration_ns(), "root {} at {i}", root.name);
    }
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    let e2e = END_TO_END.iter().map(|d| (d.name.to_string(), d.unit));
    for (name, unit) in e2e.chain(per_layer_defs()) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(
            compact.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for workload in Workload::ALL {
        let entry = format!("{{\"name\":\"{}\",\"why\":", workload.name());
        assert!(compact.contains(&entry), "{} missing", workload.name());
    }
}
