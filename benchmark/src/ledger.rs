//! Turns the traced pass — request spans, probe numbers, service counters —
//! into the per-layer metrics, in the order of `metrics::PER_LAYER`.

use std::collections::HashMap;

use tiled_qr::runtime::service::ServiceStats;

use crate::probes::{apply_qh_flops, kernel_gflops, Probes};
use crate::run::Section;
use crate::spans::{durations_of, self_times_ns, Span};
use crate::stats::{median, percentile};
use crate::workloads::Workload;

/// The service as one or more traced sections saw it.
#[derive(Default)]
pub struct ServiceView {
    pub items: u64,
    pub wall_s: f64,
    pub stats: ServiceStats,
    pub generator_lag_s: Vec<f64>,
    pub backlog_at_end: usize,
}

impl ServiceView {
    pub fn add(&mut self, section: &Section) {
        let Some(side) = &section.service else {
            return;
        };
        self.items += section.samples.len() as u64;
        self.wall_s += section.wall_s;
        let (a, b) = (&mut self.stats, &side.stats);
        a.submitted += b.submitted;
        a.rejected += b.rejected;
        a.retries += b.retries;
        a.groups += b.groups;
        a.group_items += b.group_items;
        a.mixed_groups += b.mixed_groups;
        a.max_queue_depth = a.max_queue_depth.max(b.max_queue_depth);
        self.generator_lag_s.extend(&side.generator_lag_s);
        self.backlog_at_end = side.backlog_at_end;
    }
}

/// Everything the traced pass measured.
pub struct Traced<'a> {
    pub workload: &'a Workload,
    pub threads: usize,
    pub probes: &'a Probes,
    /// Request spans of the workload and the probe spans.
    pub spans: &'a [Span],
    pub service: &'a ServiceView,
    /// Median request latency of the untraced and of the traced blocks.
    pub untraced_p50_s: f64,
    pub traced_p50_s: f64,
    pub backward_error_max: f64,
    pub normal_residual_max: f64,
    pub dropped_spans: u64,
}

/// Self time of the request spans and, per request, the sum of its spans'
/// self times over the request's duration (1 when the trace accounts for the
/// whole request).
pub fn request_accounting(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let own = self_times_ns(spans);
    let mut sum_by_request: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        *sum_by_request.entry(s.request).or_default() += own[&s.id];
    }
    let mut self_s = Vec::new();
    let mut coverage = Vec::new();
    for s in spans.iter().filter(|s| s.name == "request") {
        self_s.push(own[&s.id] as f64 * 1e-9);
        coverage.push(sum_by_request[&s.id] as f64 / (s.end_ns - s.start_ns) as f64);
    }
    (self_s, coverage)
}

/// Per least-squares request: its duration and its factorization's.
fn solve_split(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let factor: HashMap<u32, f64> = spans
        .iter()
        .filter(|s| s.name == "solve.factor")
        .map(|s| (s.request, s.duration_s()))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "request")
        .filter_map(|s| factor.get(&s.id).map(|f| (s.duration_s(), *f)))
        .unzip()
}

/// The metrics of `metrics::PER_LAYER`, in its order.
pub fn per_layer(t: &Traced) -> Vec<(&'static str, f64)> {
    let shape = &t.workload.shapes[0];
    let p = t.probes;
    let threads = t.threads as f64;
    let flops = shape.factor_flops();

    let bytes = 8.0 * (shape.m * shape.n) as f64 * 2.0;
    let (kernel_rates, gemm_rate) = kernel_gflops(shape, p);
    let ceiling = flops / p.isolated_total_s() / 1e9;
    let total_weight = p.total_weight as f64;
    let critical_path = p.critical_path as f64;
    let predicted = p.predicted_gflops(ceiling, t.threads);
    let (request_self, _) = request_accounting(t.spans);

    vec![
        ("matrix.tile_fill_s", p.tile_fill_s),
        ("matrix.tile_fill_gbps", bytes / p.tile_fill_s / 1e9),
        ("matrix.input_clone_s", p.input_clone_s),
        ("kernels.geqrt_gflops", kernel_rates[0]),
        ("kernels.ttqrt_gflops", kernel_rates[1]),
        ("kernels.unmqr_gflops", kernel_rates[2]),
        ("kernels.ttmqr_gflops", kernel_rates[3]),
        ("kernels.gemm_gflops", gemm_rate),
        ("kernels.weighted_ceiling_gflops", ceiling),
        ("core.plan_build_s", p.plan_build_s),
        ("core.tasks", p.tasks as f64),
        ("core.total_weight_units", total_weight),
        ("core.critical_path_units", critical_path),
        (
            "core.model_speedup",
            total_weight / (total_weight / threads).max(critical_path),
        ),
        ("executor.seq_dag_s", p.seq_dag_s),
        ("executor.seq_dag_gflops", flops / p.seq_dag_s / 1e9),
        ("executor.busy_s.geqrt", p.busy_s[0]),
        ("executor.busy_s.ttqrt", p.busy_s[1]),
        ("executor.busy_s.unmqr", p.busy_s[2]),
        ("executor.busy_s.ttmqr", p.busy_s[3]),
        (
            "executor.in_dag_slowdown",
            p.seq_dag_s / p.isolated_total_s(),
        ),
        ("executor.scoped_tP_s", p.scoped_s),
        ("executor.idle_fraction", p.idle_fraction),
        ("context.new_s", p.context_new_s),
        ("context.cold_request_s", p.cold_request_s),
        ("context.factorize_into_t1_s", p.into_t1_s),
        ("context.factorize_into_tP_s", p.into_tp_s),
        ("context.factorize_tP_s", p.factorize_tp_s),
        (
            "context.pool_overhead_fraction",
            p.into_t1_s / p.seq_dag_s - 1.0,
        ),
        (
            "context.parallel_efficiency",
            p.into_t1_s / (threads * p.into_tp_s),
        ),
        (
            "context.copy_alloc_overhead_s",
            p.factorize_tp_s - p.into_tp_s,
        ),
        ("context.predicted_gflops", predicted),
        (
            "context.model_efficiency",
            flops / p.factorize_tp_s / 1e9 / predicted,
        ),
        ("context.batch_into_item_s", p.batch_item_s),
        ("driver.oneshot_s", p.oneshot_s),
        ("driver.oneshot_overhead_s", p.oneshot_s - p.factorize_tp_s),
        ("driver.r_extract_s", p.r_extract_s),
        ("driver.apply_qh_s", p.apply_qh_s),
        (
            "driver.apply_qh_gflops",
            apply_qh_flops(shape) / p.apply_qh_s / 1e9,
        ),
        ("verify.backward_error_max", t.backward_error_max),
        ("trace.request_self_s", median(&request_self)),
        (
            "trace.overhead_fraction",
            t.traced_p50_s / t.untraced_p50_s - 1.0,
        ),
        ("trace.dropped_spans", t.dropped_spans as f64),
    ]
}

/// The metrics of `metrics::LSTSQ_ONLY`, from the traced requests' spans.
pub fn lstsq_only(t: &Traced) -> Vec<(&'static str, f64)> {
    let (request_s, factor_s) = solve_split(t.spans);
    let back_half: Vec<f64> = request_s
        .iter()
        .zip(&factor_s)
        .map(|(r, f)| r - f)
        .collect();
    vec![
        ("solve.factor_s", median(&factor_s)),
        ("solve.back_half_s", median(&back_half)),
        (
            "solve.back_half_fraction",
            median(&back_half) / median(&request_s),
        ),
        (
            "solve.tri_solve_s",
            median(&durations_of(t.spans, "solve.tri_solve")),
        ),
        ("verify.normal_residual_max", t.normal_residual_max),
    ]
}

/// The metrics of `metrics::SERVICE_ONLY`, from the traced requests' spans
/// and the service's own counters over the traced sections.
pub fn service_only(t: &Traced) -> Vec<(&'static str, f64)> {
    let sv = t.service;
    let per_item_s = sv.wall_s / sv.items as f64;
    let resolve = durations_of(t.spans, "service.resolve");
    let groups = sv.stats.groups as f64;
    vec![
        (
            "service.submit_call_p50_s",
            median(&durations_of(t.spans, "service.submit")),
        ),
        ("service.resolve_p50_s", percentile(&resolve, 50.0)),
        ("service.resolve_p99_s", percentile(&resolve, 99.0)),
        ("service.items_per_s", 1.0 / per_item_s),
        (
            "service.overhead_vs_batch_fraction",
            per_item_s / t.probes.batch_item_s - 1.0,
        ),
        ("service.fused_width", sv.stats.group_items as f64 / groups),
        (
            "service.mixed_group_fraction",
            sv.stats.mixed_groups as f64 / groups,
        ),
        ("service.max_queue_depth", sv.stats.max_queue_depth as f64),
        ("service.retries", sv.stats.retries as f64),
        ("service.rejected", sv.stats.rejected as f64),
    ]
}

/// The metrics of `metrics::PACED_ONLY`.
pub fn paced_only(t: &Traced) -> Vec<(&'static str, f64)> {
    let sv = t.service;
    vec![
        (
            "service.generator_lag_p99_s",
            percentile(&sv.generator_lag_s, 99.0),
        ),
        ("service.backlog_at_end", sv.backlog_at_end as f64),
    ]
}

/// Ledger reconciliation: the relations between adjacent layers that must
/// hold if the numbers mean what their names say. Returns the ones that do
/// not, as text.
pub fn reconcile(t: &Traced, values: &[(&'static str, f64)]) -> Vec<String> {
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let mut broken = Vec::new();
    // Kernels alone >= kernels in the DAG >= the DAG under the pool's
    // bookkeeping, each within 5%.
    let ceiling = get("kernels.weighted_ceiling_gflops");
    let seq = get("executor.seq_dag_gflops");
    let t1 = t.workload.shapes[0].factor_flops() / get("context.factorize_into_t1_s") / 1e9;
    if seq > ceiling * 1.05 {
        broken.push(format!("executor.seq_dag_gflops {seq:.3} above kernels.weighted_ceiling_gflops {ceiling:.3} by more than 5%"));
    }
    if t1 > seq * 1.05 {
        broken.push(format!("context.factorize_into_t1 rate {t1:.3} above executor.seq_dag_gflops {seq:.3} by more than 5%"));
    }
    let (_, coverage) = request_accounting(t.spans);
    let covered = median(&coverage);
    if (covered - 1.0).abs() > 0.02 {
        broken.push(format!(
            "self times cover {covered:.4} of the request span, not 1 within 2%"
        ));
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn request_accounting_leaves_probe_spans_out() {
        let spans = [
            span(1, 0, 1, "request", 0, 100),
            span(2, 1, 1, "solve.factor", 10, 70),
            span(3, 1, 1, "driver.apply_qh", 70, 90),
            span(10, 9, 9, "probe.kernels", 200, 300),
            span(9, 0, 9, "probe", 150, 400),
        ];
        let (self_s, coverage) = request_accounting(&spans);
        assert_eq!(self_s.len(), 1);
        assert!((self_s[0] - 20e-9).abs() < 1e-15);
        assert_eq!(coverage, [1.0]);
    }

    #[test]
    fn solve_split_pairs_a_request_with_its_factorization() {
        let spans = [
            span(1, 0, 1, "request", 0, 1_000),
            span(2, 1, 1, "solve.factor", 0, 600),
            span(3, 0, 3, "request", 2_000, 2_500), // not a least-squares request
        ];
        let (request_s, factor_s) = solve_split(&spans);
        assert_eq!(request_s.len(), 1);
        assert!((request_s[0] - 1e-6).abs() < 1e-15);
        assert!((factor_s[0] - 0.6e-6).abs() < 1e-15);
    }
}
