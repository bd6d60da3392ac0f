//! `compare A.json[,A2.json,…] B.json[,B2.json,…]`: applies each end-to-end
//! metric's bound, per workload, to two sets of `results.json` files (A is
//! the baseline). A set of several runs is judged by its median, and its
//! run-to-run spread decides whether the bound can be applied at all.

use crate::json::Json;
use crate::metrics::{worsening, END_TO_END};
use crate::stats::{median, quartile_spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The two medians agree within the metric's bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// Left open: either B is better than A by more than the bound (a gain
    /// takes ten alternating pairs to claim), or the runs of one side spread
    /// by more than the bound, so agreement within it shows nothing.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    /// Median over the runs of A, and of B.
    pub base: f64,
    pub new: f64,
    /// The wider of the two sides' spreads (quartile distance over median);
    /// NaN when neither side has two runs.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric: `worse_by` is how much worse B's median is than A's,
/// `spread` the run-to-run spread (NaN = unknown).
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by.is_nan() || worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound || spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The metric's value in every run of a set; `None` if any run lacks it.
fn values(docs: &[Json], workload: &str, metric: &str) -> Option<Vec<f64>> {
    let value = |doc: &Json| {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    docs.iter().map(value).collect()
}

/// One row per (workload of A's first run, end-to-end metric). A value
/// missing from any run reads as NaN and counts as a regression.
pub fn compare(a: &[Json], b: &[Json]) -> Result<Vec<Row>, String> {
    let workloads = a
        .first()
        .and_then(|doc| doc.get("workloads"))
        .and_then(Json::as_object)
        .ok_or("baseline has no `workloads` object")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let side = |docs| match values(docs, workload, m.name) {
                Some(v) => (median(&v), quartile_spread(&v)),
                None => (f64::NAN, f64::NAN),
            };
            let ((base, spread_a), (new, spread_b)) = (side(a), side(b));
            // `f64::max` ignores a NaN side.
            let spread = spread_a.max(spread_b);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                base,
                new,
                spread,
                bound: m.bound,
                verdict: judge(worsening(m.better, base, new), spread, m.bound),
            });
        }
    }
    Ok(rows)
}

/// Prints the table and returns whether any row is a regression.
pub fn report(rows: &[Row], a_paths: &str, b_paths: &str) -> bool {
    println!("# A (base of every ratio) = {a_paths}");
    println!("# B = {b_paths}");
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "spread", "bound"
    );
    for r in rows {
        // One run a side has no spread.
        let spread = if r.spread.is_nan() {
            "-".to_string()
        } else {
            format!("{:.1}%", r.spread * 100.0)
        };
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            spread,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let regressions = count(Verdict::Regression);
    println!(
        "# {} rows: {regressions} regression(s), {} unresolved",
        rows.len(),
        count(Verdict::Unresolved)
    );
    regressions > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    fn results(throughput: f64, p50: f64, failed_fraction: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::object([("value", Json::Number(v)), ("unit", unit.into())]);
        Json::object([(
            "workloads",
            Json::object([(
                "tall_factor",
                Json::object([(
                    "end_to_end",
                    Json::object([
                        ("setup_s", metric(1.0, "s")),
                        ("throughput_gflops", metric(throughput, "GFLOP/s")),
                        ("request_p50_s", metric(p50, "s")),
                        ("request_p90_s", metric(0.2, "s")),
                        ("peak_rss_mib", metric(100.0, "MiB")),
                        ("failed_fraction", metric(failed_fraction, "ratio")),
                    ]),
                )]),
            )]),
        )])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn bound_logic() {
        let unknown = f64::NAN;
        assert_eq!(judge(0.04, unknown, 0.05), Verdict::Ok);
        assert_eq!(judge(-0.04, unknown, 0.05), Verdict::Ok);
        assert_eq!(judge(0.06, unknown, 0.05), Verdict::Regression);
        assert_eq!(judge(-0.06, unknown, 0.05), Verdict::Unresolved);
        assert_eq!(judge(f64::NAN, unknown, 0.05), Verdict::Regression);
        // Runs that spread by more than the bound cannot show agreement
        // within it, but a loss beyond the bound is still a loss.
        assert_eq!(judge(0.01, 0.04, 0.05), Verdict::Ok);
        assert_eq!(judge(0.01, 0.08, 0.05), Verdict::Unresolved);
        assert_eq!(judge(0.06, 0.08, 0.05), Verdict::Regression);
        // failed_fraction: bound 0, any increase is a regression.
        assert_eq!(
            judge(worsening(Better::Lower, 0.0, 0.0), unknown, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(worsening(Better::Lower, 0.0, 0.001), unknown, 0.0),
            Verdict::Regression
        );
    }

    #[test]
    fn identical_results_agree_everywhere() {
        let a = [results(15.0, 0.137, 0.0)];
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn sets_of_runs_are_judged_by_median_and_spread() {
        let bound = END_TO_END[1].bound;
        let set = |rates: [f64; 5]| rates.map(|r| results(r, 0.137, 0.0));
        let steady = set([15.0, 15.02, 14.98, 15.01, 14.99]);
        let rows = compare(&steady, &set([15.0; 5])).unwrap();
        let row = rows
            .iter()
            .find(|r| r.metric == "throughput_gflops")
            .unwrap();
        assert_eq!((row.base, row.new), (15.0, 15.0));
        assert_eq!(row.verdict, Verdict::Ok);
        // Runs that disagree with each other by more than the bound settle
        // nothing, even when the medians agree.
        let wide = 15.0 * (1.0 + 2.0 * bound);
        let noisy = set([15.0, wide, 15.0 / (1.0 + 2.0 * bound), wide, 15.0]);
        let rows = compare(&noisy, &set([15.0; 5])).unwrap();
        assert_eq!(verdict_of(&rows, "throughput_gflops"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "request_p50_s"), Verdict::Ok);
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let a = [results(15.0, 0.137, 0.0)];
        let verdict = |throughput: f64, p50: f64, failed: f64, metric: &str| {
            verdict_of(
                &compare(&a, &[results(throughput, p50, failed)]).unwrap(),
                metric,
            )
        };
        // Throughput is higher-is-better: less of it inside the bound is
        // fine, outside it is a regression; more of it beyond the bound is a
        // claim one pair cannot settle.
        let b = bound("throughput_gflops");
        assert_eq!(
            verdict(15.0 * (1.0 - 0.8 * b), 0.137, 0.0, "throughput_gflops"),
            Verdict::Ok
        );
        assert_eq!(
            verdict(15.0 * (1.0 - 1.2 * b), 0.137, 0.0, "throughput_gflops"),
            Verdict::Regression
        );
        assert_eq!(
            verdict(15.0 * (1.0 + 1.2 * b), 0.137, 0.0, "throughput_gflops"),
            Verdict::Unresolved
        );
        // Latency is lower-is-better.
        let b = bound("request_p50_s");
        assert_eq!(
            verdict(15.0, 0.137 * (1.0 + 1.2 * b), 0.0, "request_p50_s"),
            Verdict::Regression
        );
        assert_eq!(
            verdict(15.0, 0.137 * (1.0 - 1.2 * b), 0.0, "request_p50_s"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(15.0, 0.137, 0.01, "failed_fraction"),
            Verdict::Regression
        );
    }

    #[test]
    fn a_missing_workload_or_metric_is_a_regression() {
        let a = [results(15.0, 0.137, 0.0)];
        let b = [Json::object([("workloads", Json::object::<String>([]))])];
        assert!(compare(&a, &b)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Regression));
        assert!(compare(&b, &a).unwrap().is_empty());
        assert!(compare(&[Json::Null], &a).is_err());
        assert!(compare(&[], &a).is_err());
    }
}
