//! The names, units and bounds of every metric. `BENCHMARK.json` at the repo
//! root lists the same tables (a test keeps the two in step); later issues
//! refer to these names.

use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, measured with tracing off and pooled
/// over every request of the timed section (`stats::pooled`).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression (0 = any worsening counts).
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "inputs generated to first timed request: context, plans, service, warm-up",
    },
    EndToEnd {
        name: "throughput_gflops",
        unit: "GFLOP/s",
        better: Better::Higher,
        bound: 0.25,
        what: "flops of successful requests over the timed section",
    },
    EndToEnd {
        name: "request_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median request latency",
    },
    EndToEnd {
        name: "request_p90_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "90th-percentile request latency",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process over the timed section",
    },
    EndToEnd {
        name: "failed_fraction",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        what:
            "requests that errored, were refused or failed an output check, over requests attempted",
    },
];

/// The one end-to-end metric `BENCHMARK.json` cannot list (it is exactly 0 at
/// a correct commit); the driver reads it as `failed` over `attempted`.
pub const FAILED_FRACTION: &str = "failed_fraction";

/// A metric of a single layer, from the traced pass. `layer` is the module it
/// measures; `moves` says which end-to-end metric it should move, and where.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const MATRIX: &str = "request_p50_s on service_mixed/service_paced (largest share on small items); <= 3% on tall_factor";
const KERNELS: &str = "throughput_gflops on tall_factor (panel kernels) and square_factor (update kernels); least on service_paced";
const CORE: &str = "setup_s everywhere, and driver.oneshot_s";
const MODEL: &str = "caps throughput_gflops once the critical path binds";
const EXECUTOR: &str = "throughput_gflops on tall_factor, square_factor, lstsq_tall";
const CONTEXT_SETUP: &str = "setup_s everywhere";
const CONTEXT: &str = "request_p50_s on tall_factor/square_factor";
const BATCH: &str = "throughput_gflops on service_mixed (the compute floor under the service)";
const DRIVER: &str = "request_p50_s on lstsq_tall only";
const SOLVE: &str = "request_p50_s on lstsq_tall; absent elsewhere";
const SERVICE: &str = "throughput_gflops on service_mixed, request_p50_s/request_p90_s on service_paced; absent from library workloads";
const VERIFY: &str = "failed_fraction everywhere";
const TRACE: &str = "none: the cost of the benchmark's own spans";

/// The metrics every workload has; `BENCHMARK.json` lists exactly these,
/// since the driver wants every listed name from every workload.
// One metric per line reads as the table it is.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 43] = [
    layer("matrix.tile_fill_s", "s", Lower, "matrix", MATRIX),
    layer("matrix.tile_fill_gbps", "GB/s", Higher, "matrix", MATRIX),
    layer("matrix.input_clone_s", "s", Lower, "matrix", MATRIX),
    layer("kernels.geqrt_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("kernels.ttqrt_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("kernels.unmqr_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("kernels.ttmqr_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("kernels.gemm_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("kernels.weighted_ceiling_gflops", "GFLOP/s", Higher, "kernels", KERNELS),
    layer("core.plan_build_s", "s", Lower, "core", CORE),
    layer("core.tasks", "count", Lower, "core", CORE),
    layer("core.total_weight_units", "count", Lower, "core", MODEL),
    layer("core.critical_path_units", "count", Lower, "core", MODEL),
    layer("core.model_speedup", "ratio", Higher, "core", MODEL),
    layer("executor.seq_dag_s", "s", Lower, "executor", EXECUTOR),
    layer("executor.seq_dag_gflops", "GFLOP/s", Higher, "executor", EXECUTOR),
    layer("executor.busy_s.geqrt", "s", Lower, "executor", EXECUTOR),
    layer("executor.busy_s.ttqrt", "s", Lower, "executor", EXECUTOR),
    layer("executor.busy_s.unmqr", "s", Lower, "executor", EXECUTOR),
    layer("executor.busy_s.ttmqr", "s", Lower, "executor", EXECUTOR),
    layer("executor.in_dag_slowdown", "ratio", Lower, "executor", EXECUTOR),
    layer("executor.scoped_tP_s", "s", Lower, "executor", EXECUTOR),
    layer("executor.idle_fraction", "ratio", Lower, "executor", EXECUTOR),
    layer("context.new_s", "s", Lower, "context", CONTEXT_SETUP),
    layer("context.cold_request_s", "s", Lower, "context", CONTEXT_SETUP),
    layer("context.factorize_into_t1_s", "s", Lower, "context", CONTEXT),
    layer("context.factorize_into_tP_s", "s", Lower, "context", CONTEXT),
    layer("context.factorize_tP_s", "s", Lower, "context", CONTEXT),
    layer("context.pool_overhead_fraction", "ratio", Lower, "context", CONTEXT),
    layer("context.parallel_efficiency", "ratio", Higher, "context", CONTEXT),
    layer("context.copy_alloc_overhead_s", "s", Lower, "context", CONTEXT),
    layer("context.predicted_gflops", "GFLOP/s", Higher, "context", MODEL),
    layer("context.model_efficiency", "ratio", Higher, "context", CONTEXT),
    layer("context.batch_into_item_s", "s", Lower, "context", BATCH),
    layer("driver.oneshot_s", "s", Lower, "driver", DRIVER),
    layer("driver.oneshot_overhead_s", "s", Lower, "driver", DRIVER),
    layer("driver.r_extract_s", "s", Lower, "driver", DRIVER),
    layer("driver.apply_qh_s", "s", Lower, "driver", DRIVER),
    layer("driver.apply_qh_gflops", "GFLOP/s", Higher, "driver", DRIVER),
    layer("verify.backward_error_max", "ratio", Lower, "verify", VERIFY),
    layer("trace.request_self_s", "s", Lower, "trace", TRACE),
    layer("trace.overhead_fraction", "ratio", Lower, "trace", TRACE),
    layer("trace.dropped_spans", "count", Lower, "trace", TRACE),
];

/// Printed by `lstsq_tall` only, beside the table above: the other workloads
/// make no least-squares request.
#[rustfmt::skip]
pub const LSTSQ_ONLY: [PerLayer; 5] = [
    layer("solve.factor_s", "s", Lower, "solve", SOLVE),
    layer("solve.back_half_s", "s", Lower, "solve", SOLVE),
    layer("solve.back_half_fraction", "ratio", Lower, "solve", SOLVE),
    layer("solve.tri_solve_s", "s", Lower, "solve", SOLVE),
    layer("verify.normal_residual_max", "ratio", Lower, "verify", VERIFY),
];

/// Printed by the two service workloads only: the library workloads never
/// touch the service.
#[rustfmt::skip]
pub const SERVICE_ONLY: [PerLayer; 10] = [
    layer("service.submit_call_p50_s", "s", Lower, "service", SERVICE),
    layer("service.resolve_p50_s", "s", Lower, "service", SERVICE),
    layer("service.resolve_p99_s", "s", Lower, "service", SERVICE),
    layer("service.items_per_s", "1/s", Higher, "service", SERVICE),
    layer("service.overhead_vs_batch_fraction", "ratio", Lower, "service", SERVICE),
    layer("service.fused_width", "ratio", Higher, "service", SERVICE),
    layer("service.mixed_group_fraction", "ratio", Higher, "service", SERVICE),
    layer("service.max_queue_depth", "count", Lower, "service", SERVICE),
    layer("service.retries", "count", Lower, "service", SERVICE),
    layer("service.rejected", "count", Lower, "service", SERVICE),
];

/// Printed by `service_paced` only: its load generator's own two numbers.
#[rustfmt::skip]
pub const PACED_ONLY: [PerLayer; 2] = [
    layer("service.generator_lag_p99_s", "s", Lower, "service", SERVICE),
    layer("service.backlog_at_end", "count", Lower, "service", SERVICE),
];

/// Every per-layer metric, the shared table first.
pub fn every_per_layer() -> impl Iterator<Item = &'static PerLayer> {
    PER_LAYER
        .iter()
        .chain(&LSTSQ_ONLY)
        .chain(&SERVICE_ONLY)
        .chain(&PACED_ONLY)
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// it is better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 && delta == 0.0 {
        0.0
    } else {
        // ±∞ for any change from a zero base, NaN for a missing value.
        delta / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(every_per_layer().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn benchmark_json_lists_the_same_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed = rows("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (row, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(row, "name"), w.name);
            assert_eq!(text(row, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }

        let expected: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.name != FAILED_FRACTION)
            .collect();
        let listed = rows("end_to_end");
        assert_eq!(listed.len(), expected.len());
        for (row, m) in listed.iter().zip(expected) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound),
            "setup_s has the largest bound"
        );

        let listed = rows("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (row, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better.as_str());
            assert!(m.unit.len() <= 16);
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).unwrap(),
            [Json::from("benchmark")]
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.01), f64::INFINITY);
        assert!(worsening(Better::Lower, 0.0, f64::NAN).is_nan());
        assert!(worsening(Better::Higher, f64::NAN, 1.0).is_nan());
    }
}
