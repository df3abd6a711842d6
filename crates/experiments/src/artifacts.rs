//! The artifact table behind the `exp` binary: every table, figure,
//! ablation and study this crate regenerates, by name, in `exp all` order
//! (the paper's evaluation artifacts first, then the studies `exp all`
//! skips).

use ffs_trace::WorkloadClass;

use crate::{
    ablation, fairness, fig10, fig14, fig15, fig16, fig3, fig5, fig9, latency, parallel, report,
    resilience, scale, sensitivity, table2, table5, table6,
};

/// What one artifact produced.
#[derive(Debug, Default)]
pub struct Section {
    /// The text `exp` prints (newline-terminated).
    pub text: String,
    /// Resilience summary for the BENCH record of the sweep that ran it.
    pub resilience: Option<resilience::ResilienceSummary>,
    /// Fairness summary for the BENCH record.
    pub fairness: Option<fairness::FairnessSummary>,
    /// Scale-sweep summary for the BENCH record.
    pub scale: Option<scale::ScaleSummary>,
    /// Why the artifact's own checks failed (`exp` then exits with 1).
    pub failure: Option<String>,
}

/// One entry of [`ARTIFACTS`].
pub struct Artifact {
    /// The `exp <name>` argument.
    pub name: &'static str,
    /// Whether `exp all` regenerates it.
    pub in_all: bool,
    /// The BENCH file a stand-alone run writes, if it keeps a record.
    pub bench: Option<&'static str>,
    /// Regenerates the artifact for (trace seconds, seed).
    pub run: fn(f64, u64) -> Section,
}

const fn paper(name: &'static str, run: fn(f64, u64) -> Section) -> Artifact {
    Artifact {
        name,
        in_all: true,
        bench: None,
        run,
    }
}

/// Every artifact, in `exp all` order.
#[rustfmt::skip]
pub const ARTIFACTS: [Artifact; 17] = [
    paper("table2", |_, _| titled("Table 2", table2::render())),
    paper("table5", |_, _| titled("Table 5", table5::render())),
    paper("fig3", |t, s| titled("Figure 3", fig3::render(&fig3::run(t, s)))),
    paper("fig5", |t, s| titled("Figure 5", fig5::render(&fig5::run(t, s)))),
    paper("fig9", |t, s| titled("Figure 9", fig9::render(&fig9::run(t, s)))),
    paper("fig10", |t, s| titled("Figure 10", fig10::render(&fig10::run(t, s)))),
    paper("latency_cdf", latency_cdf),
    paper("fig14", |t, s| titled("Figure 14", fig14::render(&fig14::run(t, s)))),
    paper("fig15", |t, s| titled("Figure 15", fig15::render(&fig15::run(t, s)))),
    paper("fig16", |t, s| titled("Figure 16", fig16::render(&fig16::run(t, s)))),
    paper("table6", |t, s| titled("Table 6", table6::render(&table6::run(t, s)))),
    paper("ablation", |t, s| titled("Ablations", ablation::render(&ablation::run(t, s)))),
    paper("resilience", resilience_section),
    Artifact { name: "report", in_all: false, bench: None, run: claim_report },
    Artifact { name: "sensitivity", in_all: false, bench: None, run: sensitivity_section },
    Artifact { name: "fairness", in_all: false, bench: Some("BENCH_fairness.json"), run: fairness_section },
    Artifact { name: "scale", in_all: false, bench: Some("BENCH_scale.json"), run: scale_section },
];

/// The artifact named `name`.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// The one-line usage message, naming `all` and every artifact.
pub fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    format!("usage: exp <all|{}>", names.join("|"))
}

fn text(text: String) -> Section {
    Section {
        text,
        ..Section::default()
    }
}

/// `== title ==` over a rendered body.
fn titled(title: &str, body: String) -> Section {
    text(format!("== {title} ==\n{body}\n"))
}

/// Figures 11–13: one latency CDF per workload class.
fn latency_cdf(secs: f64, seed: u64) -> Section {
    let mut out = String::new();
    for (fig, wl) in [
        ("11 (heavy)", WorkloadClass::Heavy),
        ("12 (medium)", WorkloadClass::Medium),
        ("13 (light)", WorkloadClass::Light),
    ] {
        let cells = latency::run(wl, secs, seed);
        out.push_str(&format!(
            "== Figure {fig} ==\n{}\n",
            latency::render(&cells)
        ));
    }
    text(out)
}

/// The MTBF sweep. The trailing `fault_free_metric_clamps=<n>` line is a
/// CI contract: fault-free runs never clamp a metric interval.
fn resilience_section(secs: f64, seed: u64) -> Section {
    let res = resilience::run(secs, seed);
    Section {
        resilience: Some(resilience::summarize(&res)),
        ..titled(
            "Resilience",
            format!(
                "{}\nfault_free_metric_clamps={}",
                resilience::render(&res),
                res.fault_free_metric_clamps
            ),
        )
    }
}

/// The paper-vs-measured claim report; fails when a claim does not hold.
fn claim_report(secs: f64, seed: u64) -> Section {
    let claims = report::run(secs, seed);
    let failed = claims.iter().filter(|c| !c.holds).count();
    Section {
        failure: (failed > 0).then(|| format!("{failed} paper claims do not hold")),
        ..text(format!(
            "# FluidFaaS reproduction — claim report\n\n{}\n\n{} / {} claims hold\n",
            report::render(&claims),
            claims.len() - failed,
            claims.len()
        ))
    }
}

/// The SLO-scale sweep and the five-seed sweep.
fn sensitivity_section(secs: f64, seed: u64) -> Section {
    let rows = sensitivity::slo_scale_sweep(secs, seed);
    let stats = sensitivity::seed_sweep(secs, &[1, 2, 3, 4, 5]);
    text(format!(
        "SLO-scale sweep (medium workload)\n\n{}\n\
         Seed sweep (SLO hit rate, mean ± std over 5 seeds)\n\n{}\n",
        sensitivity::render_slo_sweep(&rows),
        sensitivity::render_seed_sweep(&stats)
    ))
}

/// Four systems on the three multi-tenant scenarios, with the
/// `fairness_*=` lines the `fairness-smoke` CI job asserts on.
fn fairness_section(secs: f64, seed: u64) -> Section {
    let cells = fairness::run(secs, seed);
    let summary = fairness::summarize(&cells);
    let out = format!(
        "FluidFaaS fairness sweep ({secs}s traces, seed {seed}, {} threads)\n\n\
         == Fairness ==\n{}\n== Fairness (per tenant) ==\n{}\n\
         fairness_mqfq_goodput_jain_noisy={:.4}\nfairness_esg_goodput_jain_noisy={:.4}\n\
         fairness_mqfq_beats_esg_noisy={}\n",
        parallel::threads(),
        fairness::render(&cells),
        fairness::render_detail(&cells),
        summary.mqfq_jain_noisy,
        summary.esg_jain_noisy,
        u8::from(summary.mqfq_jain_noisy > summary.esg_jain_noisy)
    );
    Section {
        fairness: Some(summary),
        ..text(out)
    }
}

/// Thousand-GPU fleets on the sharded engine at 1 and `FFS_SHARDS` lanes,
/// over [`scale::scale_secs`] traces (a shorter default than `secs`).
/// Fails on a lane-count digest mismatch or an RSS-ceiling overrun.
fn scale_section(_secs: f64, seed: u64) -> Section {
    let secs = scale::scale_secs();
    let summary = scale::run_sweep(secs, seed);
    let peak_kb = scale::peak_rss_kb();
    let failure = if summary.cross_check != "ok" {
        Some("lane-count digest cross-check failed".to_string())
    } else {
        (peak_kb > scale::RSS_CEILING_KB).then(|| {
            format!(
                "peak RSS {:.1} MiB exceeds the {} MiB ceiling",
                peak_kb as f64 / 1024.0,
                scale::RSS_CEILING_KB / 1024
            )
        })
    };
    let out = format!(
        "FluidFaaS scale sweep — sharded engine ({secs}s traces, seed {seed}, {} lanes)\n\n\
         == Scale ==\n{}\n",
        parallel::shards(),
        scale::render(&summary)
    );
    Section {
        scale: Some(summary),
        failure,
        ..text(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_walks_the_paper_artifacts_in_order() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        names.push("all");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len() + 1, "duplicate names");

        // The old `exp_all` order; the studies come after every paper
        // artifact.
        let in_all: Vec<&str> = ARTIFACTS
            .iter()
            .take_while(|a| a.in_all)
            .map(|a| a.name)
            .collect();
        assert_eq!(
            in_all.join(" "),
            "table2 table5 fig3 fig5 fig9 fig10 latency_cdf fig14 fig15 fig16 table6 ablation \
             resilience"
        );
        assert!(ARTIFACTS[in_all.len()..].iter().all(|a| !a.in_all));
    }
}
