//! Set-up and the request loops of the five workloads.
//!
//! One set of loops serves both passes: with a disabled [`Recorder`] a
//! library request is the single public call a user makes
//! (`QrContext::factorize`, `least_squares_solve_with`); with an enabled one
//! it goes through the decomposed public path with a span around every layer
//! call. Service requests make the same calls in both passes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use tiled_qr::matrix::{Matrix, TiledMatrix};
use tiled_qr::runtime::service::{
    Priority, QrClient, QrService, ServiceConfig, ServiceStats, Ticket,
};
use tiled_qr::runtime::solve::least_squares_solve_with;
use tiled_qr::runtime::{QrContext, QrError, QrPlan};

use crate::checks::{normal_residual, r_matches, NORMAL_RESIDUAL_MAX};
use crate::spans::{now_ns, secs, Recorder, Span};
use crate::stats::Sample;
use crate::workloads::{
    Data, Kind, PickSeq, Scale, Workload, CLIENTS, OUTSTANDING, PACED_ADMISSION_S,
    PACED_ITEMS_PER_S,
};

/// Every `CHECK_EVERY`-th service result has its `R` compared with the
/// reference: the clients share the two cores with the pool, so checking
/// every 2 ms item would tax the capacity being measured.
const CHECK_EVERY: u64 = 8;

pub enum Engine {
    Context(QrContext),
    Service(QrService<f64>),
}

/// What set-up builds: the context (inside the service, on service
/// workloads) and one shared plan per shape.
pub struct Session {
    pub engine: Engine,
    pub plans: Vec<Arc<QrPlan<f64>>>,
}

/// When a request loop stops issuing.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    Seconds(f64),
    Items(usize),
}

/// Counters of the service side of a section.
#[derive(Clone, Debug, Default)]
pub struct ServiceSide {
    /// `QrService::stats` after the section minus before it (the high-water
    /// queue depth is the lifetime value).
    pub stats: ServiceStats,
    /// How late the paced generator issued each item.
    pub generator_lag_s: Vec<f64>,
    /// Tickets unresolved when the paced generator issued its last item.
    pub backlog_at_end: usize,
}

/// The outcome of one run of a request loop.
#[derive(Default)]
pub struct Section {
    pub samples: Vec<Sample>,
    /// Length of the section: wall time, except on library workloads, where
    /// it is the sum of the request latencies.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    /// Largest `‖Aᴴ(Ax − b)‖ / (‖A‖‖b‖)` seen (least-squares requests).
    pub normal_residual_max: f64,
    pub service: Option<ServiceSide>,
    /// Broken invariants (service accounting); any entry fails the run.
    pub violations: Vec<String>,
}

impl Section {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_s).collect()
    }

    fn absorb(&mut self, rec: Recorder) {
        self.dropped_spans += rec.dropped;
        self.spans.extend(rec.into_spans());
    }
}

/// Builds the session and warms it up; the caller times this for `setup_s`.
pub fn setup(
    w: &Workload,
    data: &Data,
    scale: &Scale,
    threads: usize,
    seed: u64,
) -> Result<Session, QrError> {
    let ctx = QrContext::new(threads)?;
    let plans = w
        .shapes
        .iter()
        .map(|s| QrPlan::new(s.m, s.n, s.config()).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (engine, warm) = if w.is_service() {
        let service = QrService::new(ctx, ServiceConfig::default())?;
        (Engine::Service(service), scale.warm_items)
    } else {
        (Engine::Context(ctx), scale.warm_requests)
    };
    let session = Session { engine, plans };
    let drive = Drive::untraced(Limit::Items(warm), seed);
    let warmed = match &session.engine {
        // Warm-up goes through the closed loop on both service workloads: it
        // fills the plans' caches at full fused width.
        Engine::Service(service) => {
            closed_section(Traffic::new(w, &session, data, drive), service, drive)
        }
        Engine::Context(_) => run_section(w, &session, data, drive),
    };
    if warmed.failed > 0 {
        eprintln!(
            "warning: {} of {} warm-up requests failed",
            warmed.failed, warmed.attempted
        );
    }
    Ok(session)
}

/// How one run of a request loop is driven.
#[derive(Clone, Copy, Debug)]
pub struct Drive {
    pub limit: Limit,
    /// Whether requests go through the decomposed path and record spans.
    pub traced: bool,
    /// Seeds the traffic sources' sequences of picks.
    pub seed: u64,
}

impl Drive {
    pub fn untraced(limit: Limit, seed: u64) -> Self {
        Drive {
            limit,
            traced: false,
            seed,
        }
    }
}

/// Runs the workload's request loop.
pub fn run_section(w: &Workload, session: &Session, data: &Data, drive: Drive) -> Section {
    match (&session.engine, w.kind) {
        (Engine::Context(ctx), Kind::Factor | Kind::Lstsq) => {
            library_section(w, ctx, &session.plans[0], data, drive)
        }
        (Engine::Service(service), kind) => {
            let traffic = Traffic::new(w, session, data, drive);
            if kind == Kind::ServicePaced {
                paced_section(traffic, service, drive)
            } else {
                closed_section(traffic, service, drive)
            }
        }
        (Engine::Context(_), _) => unreachable!("set-up builds a service for service workloads"),
    }
}

// ---------------------------------------------------------------- library

fn library_section(
    w: &Workload,
    ctx: &QrContext,
    plan: &QrPlan<f64>,
    data: &Data,
    drive: Drive,
) -> Section {
    let mut rec = Recorder::new(drive.traced);
    let mut out = Section::default();
    let flops = w.request_flops(0);
    // The section's clock is the sum of request latencies: output checks run
    // between requests and are not part of any of them.
    let mut clock_ns = 0u64;
    for i in 0.. {
        let stop = match drive.limit {
            Limit::Seconds(s) => clock_ns as f64 * 1e-9 >= s,
            Limit::Items(n) => i >= n,
        };
        if stop {
            break;
        }
        let ii = i % data.mats[0].len();
        let a = &data.mats[0][ii];
        let (latency_ns, ok) = if w.kind == Kind::Factor {
            factor_request(ctx, plan, a, &data.refs[0][ii], data.norms[0][ii], &mut rec)
        } else {
            let (latency_ns, residual) = lstsq_request(ctx, plan, a, &data.rhs[ii], &mut rec);
            let relative = residual.map(|r| r / (data.norms[0][ii] * data.rhs_norms[ii]));
            if let Some(r) = relative {
                out.normal_residual_max = out.normal_residual_max.max(r);
            }
            (
                latency_ns,
                relative.is_some_and(|r| r <= NORMAL_RESIDUAL_MAX),
            )
        };
        clock_ns += latency_ns;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.samples.push(Sample {
            latency_s: latency_ns as f64 * 1e-9,
            flops: if ok { flops } else { 0.0 },
        });
    }
    out.wall_s = clock_ns as f64 * 1e-9;
    out.absorb(rec);
    out
}

/// One factorization request, ending when the result handle is dropped (its
/// `T` storage recycles into the plan). Returns the latency, which leaves
/// out the output check, and whether the result matched its reference.
fn factor_request(
    ctx: &QrContext,
    plan: &QrPlan<f64>,
    a: &Matrix<f64>,
    reference: &Matrix<f64>,
    norm_a: f64,
    rec: &mut Recorder,
) -> (u64, bool) {
    let req = rec.open();
    let t0 = now_ns();
    let result = if rec.enabled() {
        let mut tiled = rec.span("matrix.tile_fill", req, req, || {
            TiledMatrix::from_dense_padded(a, plan.tile_size())
        });
        rec.span("context.factorize_into", req, req, || {
            ctx.factorize_into(plan, &mut tiled)
        })
        .map(|reflectors| {
            rec.span("driver.into_factorization", req, req, || {
                reflectors.into_factorization(tiled)
            })
        })
    } else {
        ctx.factorize(plan, a)
    };
    let t1 = now_ns();
    let ok = rec.span(
        "verify.check",
        req,
        req,
        || matches!(&result, Ok(f) if r_matches(f.factored_tiles(), reference, norm_a)),
    );
    let t2 = now_ns();
    drop(result);
    let t3 = now_ns();
    rec.close(req, 0, req, "request", t0, t3);
    ((t1 - t0) + (t3 - t2), ok)
}

/// One least-squares request. Returns the latency and `‖Aᴴ(Ax − b)‖` of the
/// solution (`None` if the solve failed).
fn lstsq_request(
    ctx: &QrContext,
    plan: &QrPlan<f64>,
    a: &Matrix<f64>,
    b: &[f64],
    rec: &mut Recorder,
) -> (u64, Option<f64>) {
    let req = rec.open();
    let t0 = now_ns();
    let x = if rec.enabled() {
        // `least_squares_with_factorization`, one public call at a time.
        rec.span("solve.factor", req, req, || ctx.factorize(plan, a))
            .map(|f| {
                let bmat = Matrix::from_col_major(f.m, 1, b.to_vec());
                let c = rec.span("driver.apply_qh", req, req, || f.apply_qh(&bmat));
                let r = rec.span("driver.r_extract", req, req, || f.r());
                let rhs: Vec<f64> = (0..f.n).map(|i| c.get(i, 0)).collect();
                rec.span("solve.tri_solve", req, req, || {
                    r.solve_upper_triangular(&rhs)
                })
            })
    } else {
        least_squares_solve_with(ctx, plan, a, b)
    };
    let t1 = now_ns();
    rec.close(req, 0, req, "request", t0, t1);
    (t1 - t0, x.ok().map(|x| normal_residual(a, &x, b)))
}

// ---------------------------------------------------------------- service

/// An accepted submission on its way to resolution.
struct Pending {
    ticket: Ticket<f64>,
    req: u32,
    /// Where the request's latency starts: just before the input clone in
    /// the closed loop, the due time in the open loop.
    start_ns: u64,
    submitted_ns: u64,
    pick: (usize, usize),
    number: u64,
}

/// What one traffic-source thread hands back.
struct SourceOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    rec: Recorder,
}

impl SourceOut {
    fn new(traced: bool) -> Self {
        SourceOut {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            rec: Recorder::new(traced),
        }
    }
}

/// What the traffic-source threads of a service section share.
#[derive(Clone, Copy)]
struct Traffic<'a> {
    w: &'a Workload,
    plans: &'a [Arc<QrPlan<f64>>],
    data: &'a Data,
    traced: bool,
}

impl<'a> Traffic<'a> {
    fn new(w: &'a Workload, session: &'a Session, data: &'a Data, drive: Drive) -> Self {
        Traffic {
            w,
            plans: &session.plans,
            data,
            traced: drive.traced,
        }
    }

    fn picks(&self, seed: u64, source: usize) -> PickSeq {
        PickSeq::new(seed, source, self.w.shapes.len(), self.data.mats[0].len())
    }

    /// Clones the input and submits it; `submit` is the admission call.
    /// `due_ns` is where an open-loop request's latency starts; a
    /// closed-loop one starts just before the clone.
    fn submit_one(
        &self,
        pick: (usize, usize),
        number: u64,
        due_ns: Option<u64>,
        out: &mut SourceOut,
        submit: impl FnOnce(&Arc<QrPlan<f64>>, Matrix<f64>) -> Result<Ticket<f64>, QrError>,
    ) -> Option<Pending> {
        let rec = &mut out.rec;
        let req = rec.open();
        let t0 = now_ns();
        let input = rec.span("matrix.input_clone", req, req, || {
            self.data.mats[pick.0][pick.1].clone()
        });
        let t1 = now_ns();
        let ticket = submit(&self.plans[pick.0], input);
        let t2 = now_ns();
        rec.close(rec.open(), req, req, "service.submit", t1, t2);
        out.attempted += 1;
        match ticket {
            Ok(ticket) => Some(Pending {
                ticket,
                req,
                start_ns: due_ns.unwrap_or(t0),
                submitted_ns: t2,
                pick,
                number,
            }),
            Err(_) => {
                out.failed += 1;
                None
            }
        }
    }

    /// Waits for a ticket, checks and drops the result, and closes the
    /// request.
    fn resolve_one(&self, p: Pending, out: &mut SourceOut) {
        let rec = &mut out.rec;
        let result = p.ticket.wait();
        let t_resolved = now_ns();
        rec.close(
            rec.open(),
            p.req,
            p.req,
            "service.resolve",
            p.submitted_ns,
            t_resolved,
        );
        let (si, ii) = p.pick;
        let ok = rec.span("verify.check", p.req, p.req, || match &result {
            Ok(f) => {
                !p.number.is_multiple_of(CHECK_EVERY)
                    || r_matches(
                        f.factored_tiles(),
                        &self.data.refs[si][ii],
                        self.data.norms[si][ii],
                    )
            }
            Err(_) => false,
        });
        let t_checked = now_ns();
        drop(result);
        let t_end = now_ns();
        rec.close(p.req, 0, p.req, "request", p.start_ns, t_end);
        out.failed += u64::from(!ok);
        out.samples.push(Sample {
            latency_s: secs(p.start_ns, t_end) - secs(t_resolved, t_checked),
            flops: if ok { self.w.request_flops(si) } else { 0.0 },
        });
    }
}

/// One closed-loop tenant: keeps [`OUTSTANDING`] tickets in flight, waiting
/// on the oldest before it submits the next.
fn closed_client(
    traffic: Traffic,
    client: QrClient<f64>,
    picks: PickSeq,
    deadline_ns: Option<u64>,
    items: usize,
) -> SourceOut {
    let mut out = SourceOut::new(traffic.traced);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(OUTSTANDING);
    for (number, pick) in picks.enumerate() {
        let stop = match deadline_ns {
            Some(deadline) => now_ns() >= deadline,
            None => number >= items,
        };
        if stop {
            break;
        }
        if pending.len() == OUTSTANDING {
            let oldest = pending.pop_front().expect("the window is full");
            traffic.resolve_one(oldest, &mut out);
        }
        let submitted = traffic.submit_one(pick, number as u64, None, &mut out, |plan, input| {
            client.submit(plan, input)
        });
        pending.extend(submitted);
    }
    for p in pending {
        traffic.resolve_one(p, &mut out);
    }
    out
}

fn stats_delta(before: ServiceStats, after: ServiceStats) -> ServiceStats {
    ServiceStats {
        submitted: after.submitted - before.submitted,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        retries: after.retries - before.retries,
        groups: after.groups - before.groups,
        group_items: after.group_items - before.group_items,
        mixed_groups: after.mixed_groups - before.mixed_groups,
        max_queue_depth: after.max_queue_depth,
    }
}

/// Folds the traffic sources into a section and checks the service's books:
/// every accepted submission resolved exactly once, nothing retried.
fn service_section(
    service: &QrService<f64>,
    before: ServiceStats,
    section_start_ns: u64,
    sources: Vec<SourceOut>,
    mut side: ServiceSide,
) -> Section {
    let mut out = Section::default();
    for s in sources {
        out.samples.extend(s.samples);
        out.attempted += s.attempted;
        out.failed += s.failed;
        out.absorb(s.rec);
    }
    out.wall_s = secs(section_start_ns, now_ns());
    side.stats = stats_delta(before, service.stats());
    let st = &side.stats;
    if st.completed + st.failed != st.submitted {
        out.violations.push(format!(
            "service: completed {} + failed {} != submitted {}",
            st.completed, st.failed, st.submitted
        ));
    }
    if out.samples.len() as u64 != st.submitted {
        out.violations.push(format!(
            "service: {} tickets resolved for {} accepted submissions",
            out.samples.len(),
            st.submitted
        ));
    }
    if st.retries != 0 {
        out.violations
            .push(format!("service: {} retries", st.retries));
    }
    out.service = Some(side);
    out
}

fn closed_section(traffic: Traffic, service: &QrService<f64>, drive: Drive) -> Section {
    let before = service.stats();
    let start = now_ns();
    let (deadline_ns, items) = match drive.limit {
        Limit::Seconds(s) => (Some(start + (s * 1e9) as u64), 0),
        Limit::Items(n) => (None, n.div_ceil(CLIENTS)),
    };
    let sources = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = service.client();
                let picks = traffic.picks(drive.seed, c);
                scope.spawn(move || closed_client(traffic, client, picks, deadline_ns, items))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    service_section(service, before, start, sources, ServiceSide::default())
}

/// Sleeps until `due_ns` on the span clock.
fn sleep_until(due_ns: u64) {
    let now = now_ns();
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Open loop: one generator thread issues items on a fixed schedule whatever
/// the service does; one collector thread waits on the tickets in submit
/// order. A request is timed from the instant it was due.
fn paced_section(traffic: Traffic, service: &QrService<f64>, drive: Drive) -> Section {
    let before = service.stats();
    let start = now_ns();
    let items = match drive.limit {
        Limit::Seconds(s) => (s * PACED_ITEMS_PER_S).ceil() as usize,
        Limit::Items(n) => n,
    };
    let period_ns = 1e9 / PACED_ITEMS_PER_S;
    let resolved = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    let client = service.client();
    let picks = traffic.picks(drive.seed, 0);
    let (generator, collector) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut out = SourceOut::new(traffic.traced);
            for p in rx {
                traffic.resolve_one(p, &mut out);
                resolved.fetch_add(1, Ordering::Relaxed);
            }
            out
        });
        let generator = scope.spawn(|| {
            let mut out = SourceOut::new(traffic.traced);
            let mut side = ServiceSide::default();
            let mut accepted = 0;
            for (number, pick) in picks.take(items).enumerate() {
                let due = start + (number as f64 * period_ns) as u64;
                sleep_until(due);
                side.generator_lag_s.push(secs(due, now_ns()));
                let submitted =
                    traffic.submit_one(pick, number as u64, Some(due), &mut out, |plan, input| {
                        client.submit_within(
                            plan,
                            input,
                            Priority::Normal,
                            Duration::from_secs_f64(PACED_ADMISSION_S),
                        )
                    });
                if let Some(p) = submitted {
                    accepted += 1;
                    tx.send(p).expect("the collector outlives the generator");
                }
            }
            side.backlog_at_end = accepted - resolved.load(Ordering::Relaxed);
            drop(tx);
            (out, side)
        });
        (
            generator.join().expect("the generator thread panicked"),
            collector.join().expect("the collector thread panicked"),
        )
    });
    let (generated, side) = generator;
    service_section(service, before, start, vec![generated, collector], side)
}
