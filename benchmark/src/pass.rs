//! The two passes over one workload: untraced for the end-to-end metrics,
//! traced for the per-layer ledger. End-to-end numbers never come from the
//! traced pass.

use std::path::PathBuf;

use tiled_qr::runtime::{QrError, QrFactorization};

use crate::checks::{factorization_ok, r_matches, verify_factorization};
use crate::host::{peak_rss_mib, pool_threads, reset_peak_rss, StealWatch};
use crate::ledger::{
    lstsq_only, paced_only, per_layer, reconcile, service_only, ServiceView, Traced,
};
use crate::metrics::{
    PerLayer, END_TO_END, FAILED_FRACTION, LSTSQ_ONLY, PACED_ONLY, PER_LAYER, SERVICE_ONLY,
};
use crate::probes::run_probes;
use crate::run::{run_section, setup, Drive, Engine, Limit, Section, Session};
use crate::spans::{chrome_trace, now_ns, secs, Recorder};
use crate::stats::{median, pooled};
use crate::workloads::{generate, Data, Kind, Scale, Workload};

pub struct Options {
    pub seed: u64,
    pub scale: Scale,
    /// Test-only: spoil the reference `R` of the first input, so every
    /// result for it must be reported as failed.
    pub corrupt_reference: bool,
}

/// One metric as printed: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// What one pass over one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants other than failed requests (service accounting).
    pub violations: Vec<String>,
    /// The metrics the contract asks this pass for.
    pub metrics: Vec<Row>,
    /// Printed beside them, outside the contract's list.
    pub extra: Vec<Row>,
    /// Remarks for the reader (ledger reconciliation, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Where traces and results are written: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn inputs(w: &Workload, opts: &Options) -> Data {
    let mut data = generate(w, opts.seed, &opts.scale);
    if opts.corrupt_reference {
        let r = &mut data.refs[0][0];
        r.set(0, 0, r.get(0, 0) + 1.0);
    }
    data
}

/// One more request per shape through the session's own engine, verified in
/// full: its `R` against the reference, then backward error and
/// orthogonality through its `Q`. Returns `(attempted, failed, worst backward
/// error)`.
fn verify_first_results(session: &Session, data: &Data) -> (u64, u64, f64) {
    let mut failed = 0;
    let mut worst = 0.0f64;
    for (si, plan) in session.plans.iter().enumerate() {
        let a = &data.mats[si][0];
        let result: Result<QrFactorization<f64>, QrError> = match &session.engine {
            Engine::Context(ctx) => ctx.factorize(plan, a),
            Engine::Service(service) => service
                .client()
                .submit(plan, a.clone())
                .and_then(|ticket| ticket.wait()),
        };
        let ok = result.is_ok_and(|f| {
            let (backward, orthogonality) = verify_factorization(&f, a);
            worst = worst.max(backward);
            factorization_ok(backward, orthogonality)
                && r_matches(f.factored_tiles(), &data.refs[si][0], data.norms[si][0])
        });
        failed += u64::from(!ok);
    }
    (session.plans.len() as u64, failed, worst)
}

/// The ledger's values as printable rows, checked against their table.
fn rows(table: &[PerLayer], values: &[(&'static str, f64)]) -> Vec<Row> {
    assert_eq!(table.len(), values.len());
    table
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            assert_eq!(m.name, *name, "the ledger follows the order of its table");
            (m.name, *v, m.unit)
        })
        .collect()
}

/// Stolen share of CPU time above which a run says so.
const STEAL_WORTH_A_REMARK: f64 = 0.01;

/// The untraced pass: set-up (several times over, for a median), one timed
/// section whose requests are pooled, then the output checks.
pub fn untraced(w: &Workload, opts: &Options) -> Result<Outcome, QrError> {
    let scale = &opts.scale;
    let threads = pool_threads();
    let data = inputs(w, opts);
    let steal = StealWatch::start();

    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..scale.setups {
        // The previous session goes first: two pools would share the cores.
        drop(session.take());
        let t0 = now_ns();
        session = Some(setup(w, &data, scale, threads, opts.seed)?);
        setup_s.push(secs(t0, now_ns()));
    }
    let session = session.expect("there is at least one set-up");
    reset_peak_rss();
    let drive = Drive::untraced(Limit::Seconds(scale.seconds), opts.seed);
    let mut section = run_section(w, &session, &data, drive);
    let peak_rss = peak_rss_mib().unwrap_or(f64::NAN);

    let mut out = Outcome {
        attempted: section.attempted,
        failed: section.failed,
        violations: std::mem::take(&mut section.violations),
        ..Outcome::default()
    };
    let (verified, verify_failed, _) = verify_first_results(&session, &data);
    out.attempted += verified;
    out.failed += verify_failed;

    let timed = pooled(&section.samples, section.wall_s);
    let values = [
        median(&setup_s),
        timed.throughput_gflops,
        timed.p50_s,
        timed.p90_s,
        peak_rss,
        out.failed as f64 / out.attempted as f64,
    ];
    // `BENCHMARK.json` cannot list a metric that is exactly 0; the contract's
    // result line carries it as `failed` over `attempted` instead.
    (out.extra, out.metrics) = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .partition(|row| row.0 == FAILED_FRACTION);
    out.notes.push(format!(
        "{} timed requests, {} of them beyond request_p90_s; setup_s is the median of {} set-ups",
        timed.samples, timed.beyond_p90, scale.setups,
    ));
    if let Some(stolen) = steal.fraction().filter(|f| *f > STEAL_WORTH_A_REMARK) {
        out.notes.push(format!(
            "DISTURBED: the hypervisor gave {:.0}% of this guest's CPU time to other guests during the run",
            stolen * 100.0
        ));
    }
    Ok(out)
}

/// Request blocks of the traced pass: untraced and traced in turn, and short
/// (well under a second), so the two latencies behind
/// `trace.overhead_fraction` see the same machine.
const TRACED_PASS_BLOCKS: usize = 16;

/// The traced pass: alternating untraced/traced request blocks over half of
/// `--seconds`, then the layer probes; spans go to
/// `benchmark/out/trace-<workload>.json`.
pub fn traced(w: &Workload, opts: &Options) -> Result<Outcome, QrError> {
    let scale = &opts.scale;
    let threads = pool_threads();
    let data = inputs(w, opts);
    let session = setup(w, &data, scale, threads, opts.seed)?;

    let mut out = Outcome::default();
    let mut spans = Vec::new();
    let mut dropped_spans = 0;
    let mut service = ServiceView::default();
    // Request latencies per kind of block: untraced, traced.
    let mut latencies = [Vec::new(), Vec::new()];
    let mut normal_residual_max = 0.0f64;
    let mut take = |section: &mut Section, out: &mut Outcome| {
        out.attempted += section.attempted;
        out.failed += section.failed;
        out.violations.append(&mut section.violations);
        dropped_spans += section.dropped_spans;
        spans.append(&mut section.spans);
    };
    let block = Limit::Seconds(scale.seconds / 2.0 / TRACED_PASS_BLOCKS as f64);
    for k in 0..TRACED_PASS_BLOCKS {
        let with_spans = k % 2 == 1;
        let drive = Drive {
            traced: with_spans,
            ..Drive::untraced(block, opts.seed.wrapping_add(k as u64))
        };
        let mut section = run_section(w, &session, &data, drive);
        latencies[usize::from(with_spans)].extend(section.latencies());
        normal_residual_max = normal_residual_max.max(section.normal_residual_max);
        if with_spans {
            service.add(&section);
        }
        take(&mut section, &mut out);
    }

    let (verified, verify_failed, backward_error_max) = verify_first_results(&session, &data);
    out.attempted += verified;
    out.failed += verify_failed;
    drop(session);

    let mut rec = Recorder::new(true);
    let probes = run_probes(w, &data, threads, scale, &mut rec);
    dropped_spans += rec.dropped;
    spans.extend(rec.into_spans());

    let view = Traced {
        workload: w,
        threads,
        probes: &probes,
        spans: &spans,
        service: &service,
        untraced_p50_s: median(&latencies[0]),
        traced_p50_s: median(&latencies[1]),
        backward_error_max,
        normal_residual_max,
        dropped_spans,
    };
    let values = per_layer(&view);
    out.notes = reconcile(&view, &values);
    out.notes.push(format!(
        "{} untraced and {} traced requests; {} spans",
        latencies[0].len(),
        latencies[1].len(),
        spans.len()
    ));
    out.metrics = rows(&PER_LAYER, &values);
    out.extra = match w.kind {
        Kind::Factor => Vec::new(),
        Kind::Lstsq => rows(&LSTSQ_ONLY, &lstsq_only(&view)),
        Kind::ServiceClosed => rows(&SERVICE_ONLY, &service_only(&view)),
        Kind::ServicePaced => [
            rows(&SERVICE_ONLY, &service_only(&view)),
            rows(&PACED_ONLY, &paced_only(&view)),
        ]
        .concat(),
    };

    let path = out_dir().join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, chrome_trace(&spans).to_string()));
    match written {
        Ok(()) => out
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    Ok(out)
}
