//! Drives the built binary the way a user and the driver do, on `--quick`
//! sizes.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_tileqr-benchmark");
const WORKLOADS: [&str; 5] = [
    "tall_factor",
    "square_factor",
    "lstsq_tall",
    "service_mixed",
    "service_paced",
];
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_gflops",
    "request_p50_s",
    "request_p90_s",
    "peak_rss_mib",
    "failed_fraction",
];

fn run(args: &[&str]) -> (Output, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout)
}

/// The value printed on the `workload metric value unit` line.
fn printed(stdout: &str, workload: &str, metric: &str) -> Option<f64> {
    let prefix = format!("{workload} {metric} ");
    let line = stdout.lines().find(|l| l.starts_with(&prefix))?;
    line[prefix.len()..].split(' ').next()?.parse().ok()
}

/// The per-layer metric names `BENCHMARK.json` lists.
fn listed_per_layer() -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let section = &text[text.find("\"per_layer\"").expect("per_layer is listed")..];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("a closing quote")].to_string())
        .collect()
}

/// One test, so the runs that write `benchmark/out/` do not interleave.
#[test]
fn the_one_command_checks_outputs_and_compare_reads_its_results() {
    // A spoiled reference must fail the whole command.
    let (out, stdout) = run(&["--quick", "--corrupt-reference"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a failed output check exits non-zero"
    );
    assert!(stdout.contains("\"correct\": false"));
    assert!(printed(&stdout, "tall_factor", "failed_fraction").unwrap() > 0.0);

    let (out, stdout) = run(&["--quick", "--seed", "5"]);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("not comparable"),
        "--quick marks its numbers"
    );
    let per_layer = listed_per_layer();
    assert!(per_layer.len() > 40);
    for w in WORKLOADS {
        for m in END_TO_END {
            let v = printed(&stdout, w, m).unwrap_or_else(|| panic!("{w} {m} is printed"));
            assert!(v.is_finite(), "{w} {m} = {v}");
            assert!(
                m == "failed_fraction" && v == 0.0 || v > 0.0,
                "{w} {m} = {v}"
            );
        }
        for m in &per_layer {
            let v = printed(&stdout, w, m).unwrap_or_else(|| panic!("{w} {m} is printed"));
            assert!(v.is_finite(), "{w} {m} = {v}");
        }
    }
    // A layer's metrics appear on the workloads that use the layer, and only
    // there.
    for (metric, on) in [
        ("solve.back_half_fraction", &["lstsq_tall"][..]),
        ("service.items_per_s", &["service_mixed", "service_paced"]),
        ("service.generator_lag_p99_s", &["service_paced"]),
    ] {
        for w in WORKLOADS {
            let v = printed(&stdout, w, metric);
            assert_eq!(v.is_some(), on.contains(&w), "{w} {metric}");
            assert!(v.is_none_or(f64::is_finite), "{w} {metric} = {v:?}");
        }
    }
    assert!(!stdout.contains("VIOLATION"));

    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.json");
    let (out, table) = run(&["compare", results, results]);
    assert!(out.status.success(), "a run agrees with itself: {table}");
    assert_eq!(table.lines().filter(|l| l.ends_with(" ok")).count(), 30);
    for w in WORKLOADS {
        let trace = format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{trace}: {e}"));
        assert!(text.starts_with("{\"traceEvents\": [{"), "{trace}");
    }
}

#[test]
fn one_workload_prints_the_contract_line_last() {
    for trace in ["0", "1"] {
        let (out, stdout) = run(&[
            "--workload",
            "square_factor",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(out.status.success());
        let last = stdout.lines().last().expect("some output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"));
        let expected = if trace == "0" {
            "\"setup_s\""
        } else {
            "\"kernels.geqrt_gflops\""
        };
        assert!(last.contains(expected), "{last}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["compare", "only-one.json"],
    ] {
        let (out, stdout) = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}");
    }
}
