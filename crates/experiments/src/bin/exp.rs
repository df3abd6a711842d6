//! `exp <artifact>`: regenerates one entry of
//! [`ffs_experiments::artifacts::ARTIFACTS`], or every paper artifact with
//! `exp all`. `FFS_EXP_SECS`, `FFS_EXP_SEED`, `FFS_EXP_THREADS` and
//! `FFS_TRACE` apply as documented in `docs/EXPERIMENTS.md`.
//!
//! The sweeps (`all`, `fairness`, `scale`) end with the harness summary on
//! stderr and write their BENCH record, `telemetry.prom` and
//! `telemetry.folded` to the working directory. An unknown artifact exits
//! with status 2, a failed check (`report`'s claims, `scale`'s digest
//! cross-check or memory ceiling) with status 1.
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ffs_experiments::artifacts::{self, Section, ARTIFACTS};
use ffs_experiments::parallel::{self, BenchReport};
use ffs_experiments::runner::{experiment_secs, experiment_seed};
use ffs_experiments::{scale, trace_dir};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [name] if name == "all" || artifacts::find(name).is_some() => name,
        _ => {
            eprintln!("{}", artifacts::usage());
            return ExitCode::from(2);
        }
    };
    let secs = experiment_secs();
    let seed = experiment_seed();
    let tracing = trace_dir();
    let started = Instant::now();
    // `None` is `all`.
    let artifact = artifacts::find(name);
    let (section, bench) = match artifact {
        None => {
            if let Some(dir) = tracing {
                println!("tracing: control-plane traces -> {}\n", dir.display());
            }
            (all(secs, seed), Some("BENCH_harness.json"))
        }
        Some(a) => {
            let section = (a.run)(secs, seed);
            print!("{}", section.text);
            (section, a.bench)
        }
    };

    if let Some(file) = bench {
        let mut report = parallel::bench_report(started.elapsed().as_secs_f64());
        report.resilience = section.resilience;
        report.fairness = section.fairness;
        report.scale = section.scale;
        // The multicore probe runs after the report snapshot, so its events
        // and wall clock never leak into the sweep's harness figures.
        if artifact.is_none() {
            report.multicore = Some(scale::multicore_probe(seed));
        }
        write_report(Path::new(file), &report);
    }
    if let Some(why) = section.failure {
        eprintln!("exp: ERROR: {why}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints every paper artifact's section in table order; the returned
/// section carries what they add to the BENCH record.
fn all(secs: f64, seed: u64) -> Section {
    println!(
        "FluidFaaS reproduction — full experiment sweep ({secs}s traces, seed {seed}, {} threads)\n",
        parallel::threads()
    );
    let mut all = Section::default();
    for a in ARTIFACTS.iter().filter(|a| a.in_all) {
        let section = (a.run)(secs, seed);
        print!("{}", section.text);
        all.resilience = all.resilience.or(section.resilience);
    }
    all
}

/// The sweeps' shared tail: the harness summary on stderr, then the BENCH
/// record, the Prometheus exposition and the collapsed-stack profile
/// (`flamegraph.pl` / inferno input).
fn write_report(bench: &Path, report: &BenchReport) {
    if let Some(m) = &report.multicore {
        eprintln!(
            "harness: multicore probe {} gpus x {} cells: {:.0} events/s on 1 lane, {:.0} events/s on {} lanes ({:.2}x, cross_check={})",
            m.gpus,
            m.cells,
            m.sequential_events_per_sec,
            m.parallel_events_per_sec,
            m.lanes,
            m.speedup(),
            m.cross_check,
        );
    }
    eprintln!(
        "harness: {} runs in {:.1}s wall ({:.2} runs/s, {:.1}s simulated busy, {} threads)",
        report.runs, report.total_secs, report.runs_per_sec, report.busy_secs, report.threads
    );
    eprintln!(
        "harness: {} events executed ({:.0} events/s)",
        report.events, report.events_per_sec
    );
    eprintln!(
        "harness: plan cache {} hits / {} misses ({:.1}% hit rate)",
        report.plan_cache_hits,
        report.plan_cache_misses,
        report.plan_cache_hit_rate() * 100.0
    );
    eprintln!(
        "harness: arena {} fresh / {} reused ({:.1}% reuse), {} pooled elements",
        report.arena.fresh,
        report.arena.reused,
        report.arena.reuse_rate() * 100.0,
        report.arena.pooled_capacity
    );
    eprint!("harness: {}", parallel::render_phase_table(report));
    let clamps = ffs_obs::schedule_clamps();
    if clamps > 0 {
        eprintln!("harness: WARNING: {clamps} past-time schedules were clamped to now");
    }
    let saturations = ffs_obs::arrival_saturations();
    if saturations > 0 {
        eprintln!("harness: WARNING: {saturations} per-tick arrival counters saturated");
    }
    let (prom, folded) = (Path::new("telemetry.prom"), Path::new("telemetry.folded"));
    for (path, written) in [
        (bench, parallel::write_bench_json(bench, report)),
        (prom, ffs_telemetry::write_prometheus_file(prom)),
        (folded, write_folded(folded)),
    ] {
        match written {
            Ok(()) => eprintln!("harness: wrote {}", path.display()),
            Err(e) => eprintln!("harness: could not write {}: {e}", path.display()),
        }
    }
}

/// Writes the collapsed-stack profile for flamegraph tooling.
fn write_folded(path: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    ffs_telemetry::write_collapsed(&mut f, &ffs_telemetry::snapshot())?;
    f.flush()
}
