//! Service-layer benchmarks: what does [`QrService`] cost on top of the
//! fused batch path it wraps, where does it saturate, and what do admission
//! control and load shedding buy under overload?
//!
//! Cells (all written to `BENCH_service.json`):
//!
//! * `service_overhead` — a closed loop of k submissions + ticket waits
//!   through the service vs the same k matrices through the raw
//!   `factorize_batch_into` + recycle steady state. The dispatcher handoff,
//!   ticket plumbing and owned-input copy are the only extras, so the
//!   service loop must stay within a few percent of the fused path.
//! * `service_saturation` — closed-loop throughput ceiling: N items pushed
//!   through as fast as admission allows; its per-item time calibrates the
//!   open-loop arrival rates below.
//! * `service_latency` — open-loop latency under the protected config:
//!   a Normal-priority tenant paced at 80% of saturation while a
//!   Low-priority tenant floods on top; shedding + per-client quotas keep
//!   the queue — and with it the Normal tenant's p99 — bounded. The
//!   `unloaded_*` cells (sequential closed loop, empty queue) are the
//!   baseline the 3x acceptance bound is measured against.
//! * `service_shedding` — the overload ablation: the same 1.5x-saturation
//!   Low-priority flood against the protected config vs an unprotected one
//!   (shedding and quotas effectively disabled); `ns_per_iter` reports the
//!   observed max queue depth — bounded near the shed threshold with
//!   protection, growing with the arrival excess without it.
//! * `service_mixed` — three tenants with three *different* shapes
//!   interleaving one closed loop: throughput, average fused group width
//!   (`group_items / groups`) and mixed-group count under the offset-mapped
//!   heterogeneous runtime vs the `max_group = 1` narrow-job regime the old
//!   same-plan gate degraded to on alternating shapes.
//!
//! Knobs: `TILEQR_BENCH_MS`, `TILEQR_BENCH_CTX_THREADS` (default 2),
//! `TILEQR_BENCH_CTX_K` (batch width, default 8), `TILEQR_BENCH_SVC_NB`
//! (tile size, default 16).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tileqr_bench::microbench::{run, write_json, Sample};
use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::QrConfig;
use tileqr_runtime::service::{Priority, QrService, ServiceConfig, Ticket};
use tileqr_runtime::{QrContext, QrError, QrPlan};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Busy-accurate pacing: sleep most of the interval, spin the tail.
fn pace_until(next: Instant) {
    loop {
        let now = Instant::now();
        if now >= next {
            return;
        }
        let left = next - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open-loop run: one Normal-priority tenant paced at `normal_load` times
/// saturation for `n_open` items, plus `flood_clients` Low-priority tenants
/// jointly offering `flood_load` times saturation over the same window.
/// Returns the Normal tenant's per-item latencies in nanoseconds, measured
/// at resolve time by a collector thread that drains the tickets in submit
/// order.
#[allow(clippy::too_many_arguments)]
fn open_loop_run(
    service: &QrService<f64>,
    plan: &Arc<QrPlan<f64>>,
    mats: &[Matrix<f64>],
    n_open: usize,
    sat_item_ns: f64,
    normal_load: f64,
    flood_clients: usize,
    flood_load: f64,
) -> Vec<f64> {
    let k = mats.len();
    let normal_gap = Duration::from_nanos((sat_item_ns / normal_load) as u64);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(Instant, Ticket<f64>)>();
        let collector = s.spawn(move || {
            let mut lat = Vec::new();
            while let Ok((submitted, ticket)) = rx.recv() {
                ticket.wait().expect("Normal traffic resolves");
                lat.push(submitted.elapsed().as_nanos() as f64);
            }
            lat
        });
        let normal = {
            let client = service.client();
            s.spawn(move || {
                let mut next = Instant::now();
                for i in 0..n_open {
                    pace_until(next);
                    next += normal_gap;
                    let a = mats[i % k].clone();
                    let submitted = Instant::now();
                    // Paced below saturation; quota blips ride the deadline.
                    let ticket = client
                        .submit_within(plan, a, Priority::Normal, Duration::from_secs(10))
                        .expect("Normal admission within the deadline");
                    tx.send((submitted, ticket)).expect("collector alive");
                }
                drop(tx);
            })
        };
        let floods: Vec<_> = (0..flood_clients)
            .map(|f| {
                let client = service.client();
                // Each flooder offers `flood_load / flood_clients` times
                // saturation over the Normal tenant's submission window.
                let gap =
                    Duration::from_nanos((sat_item_ns * flood_clients as f64 / flood_load) as u64);
                let window_ns = n_open as f64 * sat_item_ns / normal_load;
                let items =
                    (window_ns * flood_load / (sat_item_ns * flood_clients as f64)) as usize;
                s.spawn(move || {
                    let mut next = Instant::now();
                    for i in 0..items {
                        pace_until(next);
                        next += gap;
                        let a = mats[(i + f) % k].clone();
                        match client.submit_with_priority(plan, a, Priority::Low) {
                            // The dispatcher resolves the slot whether or
                            // not anyone holds the ticket.
                            Ok(t) => drop(t),
                            Err(QrError::QueueFull) => {}
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                })
            })
            .collect();
        normal.join().expect("normal tenant");
        for f in floods {
            f.join().expect("flood tenant");
        }
        collector.join().expect("collector")
    })
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

fn main() {
    let nb = env_usize("TILEQR_BENCH_SVC_NB", 32);
    let threads = env_usize("TILEQR_BENCH_CTX_THREADS", 2).max(2);
    let k = env_usize("TILEQR_BENCH_CTX_K", 8).max(1);
    let (p, q) = (8usize, 4usize);
    let (m, n) = (p * nb, q * nb);
    let config = QrConfig::new(nb);
    let flops1 = qr_flops(m, n);
    let flops_batch = Some(flops1 * k as f64);
    let mats: Vec<Matrix<f64>> = (0..k).map(|i| random_matrix(m, n, 7 + i as u64)).collect();
    let mut samples: Vec<Sample> = Vec::new();

    // --- service loop vs the fused batch path it wraps ---------------------
    let ctx = QrContext::new(threads).expect("thread count below the maximum");
    let plan_ctx: QrPlan<f64> = QrPlan::new(m, n, config).expect("valid shape");
    let mut tiles: Vec<TiledMatrix<f64>> = mats
        .iter()
        .map(|a| TiledMatrix::from_dense_padded(a, nb))
        .collect();
    run(
        &mut samples,
        "service_overhead",
        &format!("fused_batch_t{threads}_k{k}"),
        nb,
        flops_batch,
        || {
            for (t, a) in tiles.iter_mut().zip(&mats) {
                t.fill_from_dense_padded(a);
            }
            for item in ctx.factorize_batch_into(&plan_ctx, &mut tiles) {
                drop(std::hint::black_box(
                    item.expect("tiles match the plan grid"),
                ));
            }
        },
    );
    // The ownership-equivalent fused path: dense input in, owned
    // factorization out, fresh tile storage per item — exactly what a
    // submission-based service must do per request. This is the comparator
    // for the service overhead; `fused_batch` above additionally reuses
    // caller-owned tile buffers, which an owned-submission API cannot.
    run(
        &mut samples,
        "service_overhead",
        &format!("factorize_batch_t{threads}_k{k}"),
        nb,
        flops_batch,
        || {
            for item in ctx.factorize_batch(&plan_ctx, &mats) {
                std::hint::black_box(item.expect("conforming input factors"));
            }
        },
    );
    let plan = Arc::new(QrPlan::<f64>::new(m, n, config).expect("valid shape"));
    // A short linger lets the dispatcher coalesce the k submissions into
    // one full-width fused job instead of racing the submitter into
    // several narrow ones.
    let service = QrService::new(
        QrContext::new(threads).expect("thread count below the maximum"),
        ServiceConfig::default()
            .with_max_group(k)
            .with_linger(Duration::from_micros(500)),
    )
    .expect("service spawns");
    let client = service.client();
    // Submission moves the matrix into the service — a real client hands
    // over an input it built anyway, so the clone that re-creates each set
    // is bench scaffolding, staged *outside* the timed region (the rare
    // refill when the stage runs dry pollutes one round, which best-of
    // discards). Both paths then pay the same copies: one dense-to-tiled
    // per item.
    let mut staged: Vec<Vec<Matrix<f64>>> = (0..24).map(|_| mats.clone()).collect();
    run(
        &mut samples,
        "service_overhead",
        &format!("service_batch_t{threads}_k{k}"),
        nb,
        flops_batch,
        || {
            let set = staged.pop().unwrap_or_else(|| mats.clone());
            let tickets: Vec<Ticket<f64>> = set
                .into_iter()
                .map(|a| client.submit(&plan, a).expect("admitted"))
                .collect();
            for t in tickets {
                std::hint::black_box(t.wait().expect("conforming input factors"));
            }
        },
    );
    drop(client);
    service.shutdown();

    let ns_of = |samples: &[Sample], group: &str, name: &str| {
        samples
            .iter()
            .find(|s| s.group == group && s.name == name)
            .map(|s| s.ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    let in_place_ns = ns_of(
        &samples,
        "service_overhead",
        &format!("fused_batch_t{threads}_k{k}"),
    );
    let fused_ns = ns_of(
        &samples,
        "service_overhead",
        &format!("factorize_batch_t{threads}_k{k}"),
    );
    let service_ns = ns_of(
        &samples,
        "service_overhead",
        &format!("service_batch_t{threads}_k{k}"),
    );
    let overhead_pct = (service_ns / fused_ns - 1.0) * 100.0;
    samples.push(Sample {
        group: "service_overhead".into(),
        name: format!("service_vs_fused_pct_t{threads}_k{k}"),
        param: nb,
        ns_per_iter: overhead_pct,
        gflops: None,
    });
    println!(
        "\nservice loop vs fused batch, k = {k} of {m} x {n} (nb = {nb}), {threads} threads: \
         {overhead_pct:+.2}% ({:.1} µs -> {:.1} µs per batch; in-place+recycled floor {:.1} µs)\n",
        fused_ns / 1e3,
        service_ns / 1e3,
        in_place_ns / 1e3,
    );

    // --- closed-loop saturation throughput ---------------------------------
    let n_sat = env_usize("TILEQR_BENCH_SVC_SAT_ITEMS", 256);
    let group = env_usize("TILEQR_BENCH_SVC_GROUP", k);
    let service = QrService::new(
        QrContext::new(threads).expect("thread count below the maximum"),
        ServiceConfig::default()
            .with_queue_capacity(n_sat)
            .with_shed_threshold(n_sat)
            .with_client_quota(n_sat)
            .with_max_group(group)
            .with_linger(Duration::from_micros(500)),
    )
    .expect("service spawns");
    let client = service.client();
    // Warm the pool, the plan's T-factor pool and the dispatcher.
    for a in &mats {
        client
            .submit(&plan, a.clone())
            .expect("admitted")
            .wait()
            .expect("factors");
    }
    let start = Instant::now();
    let tickets: Vec<Ticket<f64>> = (0..n_sat)
        .map(|i| {
            client
                .submit(&plan, mats[i % k].clone())
                .expect("capacity admits the whole closed loop")
        })
        .collect();
    for t in tickets {
        t.wait().expect("conforming input factors");
    }
    let sat_item_ns = start.elapsed().as_nanos() as f64 / n_sat as f64;
    samples.push(Sample {
        group: "service_saturation".into(),
        name: format!("closed_loop_t{threads}"),
        param: nb,
        ns_per_iter: sat_item_ns,
        gflops: Some(flops1 / sat_item_ns),
    });
    println!(
        "saturation: {:.0} items/s ({:.1} µs/item closed-loop, {n_sat} items)",
        1e9 / sat_item_ns,
        sat_item_ns / 1e3,
    );

    // --- unloaded latency baseline (empty queue, one item at a time) -------
    let n_unloaded = env_usize("TILEQR_BENCH_SVC_LAT_ITEMS", 200);
    let mut lat: Vec<f64> = (0..n_unloaded)
        .map(|i| {
            let a = mats[i % k].clone();
            let t0 = Instant::now();
            let t = client.submit(&plan, a).expect("empty queue admits");
            t.wait().expect("factors");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let unloaded_p50 = percentile(&lat, 0.50);
    let unloaded_p99 = percentile(&lat, 0.99);
    for (name, v) in [
        ("unloaded_p50", unloaded_p50),
        ("unloaded_p99", unloaded_p99),
    ] {
        samples.push(Sample {
            group: "service_latency".into(),
            name: name.into(),
            param: nb,
            ns_per_iter: v,
            gflops: None,
        });
    }
    drop(client);
    service.shutdown();

    // --- open loop at 0.8x saturation, protected config --------------------
    // Normal-priority traffic paced at 80% of the measured saturation
    // through the protected config (shedding + quotas armed). The
    // acceptance criterion: p99 stays within 3x the unloaded p99.
    let protected = ServiceConfig::default()
        .with_queue_capacity(256)
        .with_shed_threshold(8)
        .with_client_quota(6)
        .with_max_group(k);
    let n_open = env_usize("TILEQR_BENCH_SVC_OPEN_ITEMS", 300);
    let service = QrService::new(
        QrContext::new(threads).expect("thread count below the maximum"),
        protected,
    )
    .expect("service spawns");
    let mut open_lat = open_loop_run(&service, &plan, &mats, n_open, sat_item_ns, 0.8, 0, 0.0);
    service.shutdown();
    open_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let open_p50 = percentile(&open_lat, 0.50);
    let open_p99 = percentile(&open_lat, 0.99);
    let open_p999 = percentile(&open_lat, 0.999);
    for (name, v) in [
        ("open_loop_0.8sat_p50", open_p50),
        ("open_loop_0.8sat_p99", open_p99),
        ("open_loop_0.8sat_p999", open_p999),
    ] {
        samples.push(Sample {
            group: "service_latency".into(),
            name: name.into(),
            param: nb,
            ns_per_iter: v,
            gflops: None,
        });
    }
    println!(
        "open loop at 0.8x saturation (shed+quota armed): p50 {:.1} µs, p99 {:.1} µs \
         ({:.2}x unloaded p99 {:.1} µs), p99.9 {:.1} µs",
        open_p50 / 1e3,
        open_p99 / 1e3,
        open_p99 / unloaded_p99,
        unloaded_p99 / 1e3,
        open_p999 / 1e3,
    );

    // --- overload ablation: shedding + quotas on vs off --------------------
    // The same 0.8x Normal tenant now shares the service with three
    // Low-priority tenants flooding a full saturation's worth of extra
    // work (1.8x offered in total). Protected: the flood is shed from the
    // threshold and quota-capped, the queue stays pinned near the
    // threshold, and the Normal tenant's p99 stays bounded. Unprotected
    // (capacity/threshold/quota effectively infinite): the backlog — and
    // with it the Normal p99 — grows with the arrival excess for as long
    // as the run lasts.
    for (label, cfg) in [
        ("protected", protected),
        (
            "unprotected",
            ServiceConfig::default()
                .with_queue_capacity(1 << 20)
                .with_shed_threshold(1 << 20)
                .with_client_quota(1 << 20)
                .with_max_group(k),
        ),
    ] {
        let service = QrService::new(
            QrContext::new(threads).expect("thread count below the maximum"),
            cfg,
        )
        .expect("service spawns");
        let mut lat = open_loop_run(&service, &plan, &mats, n_open, sat_item_ns, 0.8, 3, 1.0);
        let stats = service.stats();
        // Shutdown promptly drains any remaining backlog with
        // ServiceShutdown — the unprotected run would otherwise spend
        // seconds finishing it.
        service.shutdown();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p99 = percentile(&lat, 0.99);
        for (name, v) in [
            (format!("flood_normal_p99_{label}"), p99),
            (
                format!("max_queue_depth_{label}"),
                stats.max_queue_depth as f64,
            ),
        ] {
            samples.push(Sample {
                group: "service_shedding".into(),
                name,
                param: nb,
                ns_per_iter: v,
                gflops: None,
            });
        }
        println!(
            "overload 1.8x offered (0.8x Normal + 1.0x Low flood), {label}: Normal p99 {:.1} µs, \
             max queue depth {}, {} shed, {} rejected, {} completed",
            p99 / 1e3,
            stats.max_queue_depth,
            stats.shed,
            stats.rejected,
            stats.completed,
        );
    }

    // --- mixed-shape cell: heterogeneous fused groups ----------------------
    // Three tenants, each with its own shape (three distinct plans and task
    // counts), interleaving one closed-loop burst. The offset-mapped runtime
    // fuses across the plans — group width stays > 1 over distinct DAGs —
    // while the `max_group = 1` run is the narrow-job regime the old
    // same-plan gate degraded to whenever neighboring lanes held different
    // shapes. Reported per config: closed-loop throughput, average fused
    // group width (`group_items / groups`) and the mixed-group count.
    let mixed_grids: [(usize, usize); 3] = [(8, 4), (6, 3), (4, 4)];
    let mixed_plans: Vec<Arc<QrPlan<f64>>> = mixed_grids
        .iter()
        .map(|&(p, q)| Arc::new(QrPlan::new(p * nb, q * nb, config).expect("valid shape")))
        .collect();
    let mixed_mats: Vec<Matrix<f64>> = mixed_grids
        .iter()
        .enumerate()
        .map(|(i, &(p, q))| random_matrix(p * nb, q * nb, 31 + i as u64))
        .collect();
    let n_mixed = env_usize("TILEQR_BENCH_SVC_MIXED_ITEMS", 192);
    let mixed_flops_total: f64 = (0..n_mixed)
        .map(|i| {
            let (p, q) = mixed_grids[i % 3];
            qr_flops(p * nb, q * nb)
        })
        .sum();
    for (label, group_cap) in [("fused", k.max(2)), ("narrow", 1)] {
        let service = QrService::new(
            QrContext::new(threads).expect("thread count below the maximum"),
            ServiceConfig::default()
                .with_queue_capacity(n_mixed)
                .with_shed_threshold(n_mixed)
                .with_client_quota(n_mixed)
                .with_max_group(group_cap)
                .with_linger(Duration::from_micros(500)),
        )
        .expect("service spawns");
        let clients: Vec<_> = (0..3).map(|_| service.client()).collect();
        // Warm every plan's T pool and the dispatcher before timing.
        for (c, (plan_i, a)) in clients.iter().zip(mixed_plans.iter().zip(&mixed_mats)) {
            c.submit(plan_i, a.clone())
                .expect("admitted")
                .wait()
                .expect("factors");
        }
        let warm = service.stats();
        let start = Instant::now();
        let tickets: Vec<Ticket<f64>> = (0..n_mixed)
            .map(|i| {
                clients[i % 3]
                    .submit(&mixed_plans[i % 3], mixed_mats[i % 3].clone())
                    .expect("capacity admits the whole closed loop")
            })
            .collect();
        for t in tickets {
            t.wait().expect("conforming input factors");
        }
        let mixed_item_ns = start.elapsed().as_nanos() as f64 / n_mixed as f64;
        let stats = service.stats();
        let groups = stats.groups - warm.groups;
        let width = (stats.group_items - warm.group_items) as f64 / groups.max(1) as f64;
        let mixed_groups = stats.mixed_groups - warm.mixed_groups;
        service.shutdown();
        samples.push(Sample {
            group: "service_mixed".into(),
            name: format!("closed_loop_{label}_t{threads}"),
            param: nb,
            ns_per_iter: mixed_item_ns,
            gflops: Some(mixed_flops_total / (mixed_item_ns * n_mixed as f64)),
        });
        samples.push(Sample {
            group: "service_mixed".into(),
            name: format!("fused_width_{label}"),
            param: nb,
            ns_per_iter: width,
            gflops: None,
        });
        samples.push(Sample {
            group: "service_mixed".into(),
            name: format!("mixed_groups_{label}"),
            param: nb,
            ns_per_iter: mixed_groups as f64,
            gflops: None,
        });
        println!(
            "mixed shapes ({label}, max_group {group_cap}): {:.0} items/s ({:.1} µs/item), \
             avg fused width {width:.2} over {groups} groups, {mixed_groups} mixed",
            1e9 / mixed_item_ns,
            mixed_item_ns / 1e3,
        );
    }

    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json"),
        &samples,
    );
}
