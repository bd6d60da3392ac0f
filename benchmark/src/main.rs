//! The repo benchmark: five workloads, six end-to-end metrics and a
//! kernel→service layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! tileqr-benchmark [--seed N] [--seconds S] [--quick]
//!     every workload untraced, then every workload traced; writes
//!     benchmark/out/results.json and benchmark/out/trace-<workload>.json
//! tileqr-benchmark --workload NAME [--trace 0|1] [--seed N] [--seconds S] [--quick]
//!     one pass over one workload; the last line of output is one JSON object
//! tileqr-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]
//!     applies the per-metric bounds to two sets of results.json files
//! ```

mod checks;
mod compare;
mod host;
mod json;
mod ledger;
mod metrics;
mod pass;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{every_per_layer, END_TO_END};
use pass::{Options, Outcome, Row};
use workloads::{Scale, Workload, WORKLOADS};

/// Length of the timed section when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    seed: u64,
    seconds: f64,
    quick: bool,
    workload: Option<String>,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        quick: false,
        workload: None,
        trace: false,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--workload" => cli.workload = Some(value()?.clone()),
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            // Test-only: see `pass::Options::corrupt_reference`.
            "--corrupt-reference" => cli.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

impl Cli {
    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            scale: if self.quick {
                Scale::quick()
            } else {
                Scale::full(self.seconds)
            },
            corrupt_reference: self.corrupt_reference,
        }
    }
}

fn print_rows(workload: &str, rows: &[Row]) {
    for (name, value, unit) in rows {
        println!("{workload} {name} {value} {unit}");
    }
}

/// One metric as the contract's result line and `results.json` write it.
fn metric_json(value: f64, unit: &str) -> Json {
    Json::object([("value", Json::Number(value)), ("unit", unit.into())])
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| (*name, metric_json(*value, unit)));
    Json::object([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Number(outcome.attempted as f64)),
        ("failed", Json::Number(outcome.failed as f64)),
        ("metrics", Json::object(metrics)),
    ])
}

/// One pass over one workload, in this process.
fn run_one(w: &Workload, cli: &Cli) -> ExitCode {
    let opts = cli.options();
    let pass = if cli.trace {
        pass::traced
    } else {
        pass::untraced
    };
    let outcome = match pass(w, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    if cli.quick {
        println!("# --quick: the numbers below are not comparable with a full run");
    }
    print_rows(w.name, &outcome.metrics);
    print_rows(w.name, &outcome.extra);
    for note in &outcome.notes {
        println!("# {}: {note}", w.name);
    }
    for violation in &outcome.violations {
        println!("# {}: VIOLATION {violation}", w.name);
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} requests failed, {} violation(s)",
            w.name,
            outcome.failed,
            outcome.attempted,
            outcome.violations.len()
        );
        ExitCode::from(2)
    }
}

/// What the parent keeps of one child run.
struct ChildReport {
    rows: Vec<(String, f64, String)>,
    result: Option<Json>,
    succeeded: bool,
}

/// Re-executes this binary for one pass over one workload, so each workload
/// has a process (and a `peak_rss_mib`) of its own; echoes its output.
fn run_child(w: &Workload, cli: &Cli, trace: bool) -> std::io::Result<ChildReport> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "--workload",
        w.name,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &cli.seed.to_string()])
    .args(["--seconds", &cli.seconds.to_string()])
    .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    if cli.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut report = ChildReport {
        rows: Vec::new(),
        result: None,
        succeeded: false,
    };
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        if let [name, metric, value, unit] = fields[..] {
            if name == w.name {
                let value = value.parse().unwrap_or(f64::NAN);
                report
                    .rows
                    .push((metric.to_string(), value, unit.to_string()));
            }
        } else if line.starts_with('{') {
            report.result = Json::parse(&line).ok();
        }
    }
    report.succeeded = child.wait()?.success();
    Ok(report)
}

fn rows_json(rows: &[(String, f64, String)]) -> Json {
    Json::object(
        rows.iter()
            .map(|(name, value, unit)| (name.clone(), metric_json(*value, unit))),
    )
}

fn print_header(stamp: &Json) {
    println!("# tileqr-benchmark: host {stamp}");
    let load = stamp.get("load_average_1m").and_then(Json::as_f64);
    let cpus = host::available_parallelism() as f64;
    if load.is_some_and(|l| l > 0.5 * cpus) {
        println!(
            "# WARNING: 1-minute load average {} is above half of the {cpus} CPUs; expect noise",
            load.unwrap_or(f64::NAN)
        );
    }
    println!("# workloads:");
    for w in &WORKLOADS {
        println!("#   {:<14} {}", w.name, w.why);
    }
    println!(
        "# end-to-end metrics (untraced pass; bound = worsening that counts as a regression):"
    );
    for m in &END_TO_END {
        println!(
            "#   {:<18} {:<8} {} is better, bound {:>2.0}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("# per-layer metrics (traced pass): layer | metric | unit | better | should move");
    for m in every_per_layer() {
        println!(
            "#   {:<8} {:<36} {:<8} {:<6} {}",
            m.layer,
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// Every workload untraced, then every workload traced.
fn run_all(cli: &Cli) -> ExitCode {
    let stamp = host::stamp(cli.seed, cli.seconds, cli.quick);
    print_header(&stamp);
    let mut all_ok = true;
    let mut per_workload: Vec<Vec<(String, Json)>> = vec![Vec::new(); WORKLOADS.len()];
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        println!("# {} pass", if trace { "traced" } else { "untraced" });
        for (w, entry) in WORKLOADS.iter().zip(&mut per_workload) {
            match run_child(w, cli, trace) {
                Ok(report) => {
                    all_ok &= report.succeeded;
                    entry.push((section.to_string(), rows_json(&report.rows)));
                    if !trace {
                        for key in ["attempted", "failed"] {
                            let count = report.result.as_ref().and_then(|r| r.get(key)).cloned();
                            entry.push((key.to_string(), count.unwrap_or(Json::Null)));
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{}: could not run the child process: {e}", w.name);
                    all_ok = false;
                }
            }
        }
    }
    let results = Json::object([
        ("host", stamp),
        (
            "workloads",
            Json::object(
                WORKLOADS
                    .iter()
                    .zip(per_workload)
                    .map(|(w, entry)| (w.name, Json::Object(entry))),
            ),
        ),
    ]);
    let path = pass::out_dir().join("results.json");
    let written = std::fs::create_dir_all(pass::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{results}\n")));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        println!("# all output checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an output check failed or a workload did not run");
        ExitCode::from(2)
    }
}

fn run_compare(sides: &[String]) -> ExitCode {
    let [a_paths, b_paths] = sides else {
        eprintln!("usage: compare A.json[,A2.json,...] B.json[,B2.json,...]");
        return ExitCode::FAILURE;
    };
    let load = |paths: &String| {
        let one = |path: &str| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
        };
        paths.split(',').map(one).collect::<Result<Vec<_>, _>>()
    };
    let rows = load(a_paths).and_then(|a| load(b_paths).and_then(|b| compare::compare(&a, &b)));
    match rows {
        Ok(rows) if compare::report(&rows, a_paths, b_paths) => ExitCode::from(2),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return run_compare(&args[1..]);
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!(
                "{e}\nsee the head of benchmark/src/main.rs or benchmark/README.md for usage"
            );
            return ExitCode::FAILURE;
        }
    };
    match &cli.workload {
        None => run_all(&cli),
        Some(name) => match workloads::find(name) {
            Some(w) if cli.quick => run_one(&w.quick(), &cli),
            Some(w) => run_one(w, &cli),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "unknown workload {name}; the workloads are {}",
                    names.join(", ")
                );
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_is_the_run_seconds_of_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn cli_reads_the_driver_arguments() {
        let args: Vec<String> = "--workload tall_factor --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("tall_factor"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.quick),
            (7, 10.0, true, false)
        );
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_cli(&["--bogus".into()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            metrics: vec![("setup_s", 0.5123, "s")],
            extra: vec![("failed_fraction", 0.0, "ratio")],
            notes: Vec::new(),
        };
        let line = result_line(&outcome);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5123));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
