//! Multi-tenant streaming through [`QrService`] — the service layer on top
//! of the session API (`QrContext` + `QrPlan`), for when the *callers* are
//! concurrent too.
//!
//! Three tenants share one service over the same plan:
//!
//! * a **bulk** tenant floods `Priority::Low` submissions open-loop with a
//!   zero admission timeout (`submit_within(.., Duration::ZERO)`, the
//!   fast-fail path) and simply counts how many the admission controller
//!   turns away ([`QrError::QueueFull`] once the shed threshold / queue
//!   capacity is reached) — load shedding keeps the queue bounded no matter
//!   how fast this tenant pushes;
//! * two **interactive** tenants submit `Priority::Normal` work with a
//!   250 ms admission timeout ([`QrClient::submit_within`]) — instead of a
//!   fast-fail they *wait* for admission up to the timeout, riding the
//!   backpressure signal, and measure end-to-end latency per item.
//!
//! Deficit-fair dequeueing keeps the bulk tenant from starving the
//! interactive ones, and per-client quotas bound how much of the queue any
//! one tenant can own. The final shutdown demonstrates the drain guarantee:
//! every ticket still in the queue resolves with
//! [`QrError::ServiceShutdown`] — none is ever leaked.
//!
//! Run with:
//! ```text
//! cargo run --release --example service_stream
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::Matrix;
use tiled_qr::prelude::{Priority, QrConfig, QrContext, QrError, QrPlan, QrService, ServiceConfig};

fn main() {
    let (m, n, nb) = (96usize, 48usize, 16usize);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2)
        .max(2);

    let ctx = QrContext::new(threads).expect("reasonable thread count");
    // A small queue so admission control is visible at demo scale: capacity
    // 32, Low-priority shedding from depth 20, quota wide enough that the
    // bulk tenant hits the shed threshold (not its quota) first.
    let config = ServiceConfig::default()
        .with_queue_capacity(32)
        .with_shed_threshold(20)
        .with_client_quota(32);
    let service = QrService::new(ctx, config).expect("service spawns its dispatcher");
    let plan = Arc::new(
        QrPlan::<f64>::new(m, n, QrConfig::new(nb)).expect("tall matrix, positive tile size"),
    );

    println!(
        "QrService on {threads} threads: {m} x {n} (nb = {nb}), queue capacity 32, \
         shed threshold 20, per-client quota 32\n"
    );

    let (bulk_total, interactive_each) = (160usize, 40usize);
    let ((bulk_ok, bulk_shed), lat_a, lat_b) = std::thread::scope(|s| {
        // Bulk tenant: open-loop Low-priority flood; rejected submissions
        // are simply dropped (a real service would resubmit later).
        let bulk = {
            let client = service.client();
            let plan = &plan;
            s.spawn(move || {
                let mut tickets = Vec::new();
                let mut rejected = 0usize;
                for i in 0..bulk_total {
                    let a: Matrix<f64> = random_matrix(m, n, i as u64);
                    match client.submit_within(plan, a, Priority::Low, Duration::ZERO) {
                        Ok(t) => tickets.push(t),
                        Err(QrError::QueueFull) => rejected += 1,
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                }
                let done = tickets
                    .into_iter()
                    .map(|t| t.wait())
                    .filter(Result::is_ok)
                    .count();
                (done, rejected)
            })
        };
        // Interactive tenants: closed-loop Normal-priority work with a
        // 250 ms admission deadline per submit.
        let interactive = |seed: u64| {
            let client = service.client();
            let plan = &plan;
            s.spawn(move || {
                let mut worst = Duration::ZERO;
                let mut total = Duration::ZERO;
                for i in 0..interactive_each {
                    let a: Matrix<f64> = random_matrix(m, n, seed + i as u64);
                    let start = Instant::now();
                    let ticket = client
                        .submit_within(plan, a, Priority::Normal, Duration::from_millis(250))
                        .expect("admission within the deadline");
                    ticket.wait().expect("interactive item factors");
                    let lat = start.elapsed();
                    total += lat;
                    worst = worst.max(lat);
                }
                (total / interactive_each as u32, worst)
            })
        };
        let a = interactive(1_000);
        let b = interactive(2_000);
        (
            bulk.join().expect("bulk tenant"),
            a.join().expect("interactive tenant A"),
            b.join().expect("interactive tenant B"),
        )
    });

    println!(
        "  bulk tenant (Low)        : {bulk_ok}/{bulk_total} completed, \
         {bulk_shed} turned away at admission (shed / queue-full)"
    );
    println!(
        "  interactive tenant A     : {}/{interactive_each} completed, mean {:?}, worst {:?}",
        interactive_each, lat_a.0, lat_a.1
    );
    println!(
        "  interactive tenant B     : {}/{interactive_each} completed, mean {:?}, worst {:?}",
        interactive_each, lat_b.0, lat_b.1
    );

    let stats = service.stats();
    println!(
        "\n  service counters: submitted {}, rejected {}, shed {}, completed {}, \
         failed {}, retries {}, max queue depth {}",
        stats.submitted,
        stats.rejected,
        stats.shed,
        stats.completed,
        stats.failed,
        stats.retries,
        stats.max_queue_depth
    );

    // Shutdown drains: submit a burst and immediately shut down — every
    // ticket resolves (queued items with ServiceShutdown), none leaks.
    let client = service.client();
    let tickets: Vec<_> = (0..16)
        .filter_map(|i| client.submit(&plan, random_matrix(m, n, 9_000 + i)).ok())
        .collect();
    service.shutdown();
    let drained = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(|r| matches!(r, Err(QrError::ServiceShutdown)))
        .count();
    println!("\n  shutdown drained {drained} queued tickets with ServiceShutdown — zero leaked");
}
