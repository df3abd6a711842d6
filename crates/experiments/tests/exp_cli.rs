//! The `exp` binary at its command line: a single artifact prints exactly
//! its section of `exp all`, and an unknown artifact is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

use ffs_experiments::artifacts::ARTIFACTS;

/// Runs `exp <arg>` on short traces in a working directory of its own (the
/// sweeps write their BENCH and telemetry files there).
fn exp(arg: &str) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("exp_cli_{arg}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg(arg)
        .current_dir(&dir)
        .env("FFS_EXP_SECS", "5")
        .env_remove("FFS_TRACE")
        .output()
        .expect("exp runs")
}

fn stdout(out: Output) -> String {
    assert!(out.status.success(), "exp failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `exp table2`, `exp fig9`, ... each print exactly their section of
/// `exp all`, and those sections in table order are all of `exp all` after
/// its banner.
#[test]
fn each_paper_artifact_prints_its_section_of_all() {
    let all = stdout(exp("all"));
    let (_banner, mut rest) = all.split_once("\n\n").expect("banner line");
    for a in ARTIFACTS.iter().filter(|a| a.in_all) {
        let section = stdout(exp(a.name));
        assert!(
            rest.starts_with(&section),
            "`exp {}` differs from its section of `exp all`:\n{section}",
            a.name
        );
        rest = &rest[section.len()..];
    }
    assert_eq!(rest, "", "`exp all` prints more than its sections");
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    let out = exp("fig99");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.lines().any(|l| l
            == "usage: exp <all|table2|table5|fig3|fig5|fig9|fig10|latency_cdf|fig14|fig15\
                |fig16|table6|ablation|resilience|report|sensitivity|fairness|scale>"),
        "{stderr}"
    );
}
