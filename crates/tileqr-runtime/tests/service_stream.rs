//! Integration coverage of the streaming multi-tenant service layer:
//! bitwise-identical streamed results across thread counts, bounded admission
//! (fast-fail and blocking-with-deadline), priority load shedding,
//! per-client quotas, deficit-round-robin fairness, deterministic input
//! errors through the ticket, and the service-routed least-squares solve.
//!
//! The overload tests pin the dispatcher deterministically: a `threads = 1`
//! context has no helper threads and runs fused jobs *on the dispatcher
//! thread itself* (the caller is worker 0), so one large
//! "blocker" submission keeps the dispatcher busy while the test fills the
//! admission queue at leisure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tileqr_matrix::generate::{random_matrix, random_vector};
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::QrConfig;
use tileqr_runtime::service::{Priority, QrService, RetryPolicy, ServiceConfig};
use tileqr_runtime::solve::{least_squares_solve_via, least_squares_solve_with};
use tileqr_runtime::{QrContext, QrError, QrPlan};

const M: usize = 48;
const N: usize = 32;
const NB: usize = 8;

fn plan() -> Arc<QrPlan<f64>> {
    Arc::new(QrPlan::new(M, N, QrConfig::new(NB)).expect("valid shape"))
}

/// A plan big enough that one submission keeps a single-threaded dispatcher
/// busy for a macroscopic stretch.
fn blocker_plan() -> Arc<QrPlan<f64>> {
    Arc::new(QrPlan::new(256, 192, QrConfig::new(8)).expect("valid shape"))
}

/// Spins until the service dequeued everything currently admitted (the
/// dispatcher picked the work up; with `threads = 1` it is now running it).
fn wait_until_drained_queue(service: &QrService<f64>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "dispatcher never picked up work");
        std::thread::yield_now();
    }
}

/// Fast-retry policy for tests that should not sleep meaningfully.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(2),
    }
}

#[test]
fn streamed_results_are_bitwise_identical_across_thread_counts() {
    let plan = plan();
    let reference: Vec<Matrix<f64>> = (0..6)
        .map(|i| {
            let ctx = QrContext::new(1).unwrap();
            ctx.factorize(&plan, &random_matrix(M, N, 40 + i))
                .unwrap()
                .r()
        })
        .collect();
    for threads in [4usize, 1] {
        let ctx = QrContext::new(threads).unwrap();
        let service =
            QrService::new(ctx, ServiceConfig::default().with_retry(fast_retry())).unwrap();
        // Three tenants interleaving submissions over one shape.
        let clients = [service.client(), service.client(), service.client()];
        let tickets: Vec<_> = (0..6u64)
            .map(|i| {
                clients[(i % 3) as usize]
                    .submit(&plan, random_matrix(M, N, 40 + i))
                    .unwrap()
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let f = ticket
                .wait()
                .unwrap_or_else(|e| panic!("item {i} failed under threads {threads}: {e:?}"));
            assert_eq!(
                f.r().as_slice(),
                reference[i].as_slice(),
                "item {i} not bitwise identical under threads {threads}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 0);
    }
}

#[test]
fn full_queue_fast_fails_with_queue_full() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(4)
            .with_shed_threshold(4),
    )
    .unwrap();
    let client = service.client();
    let big = blocker_plan();
    let small = plan();
    let blocker = client.submit(&big, random_matrix(256, 192, 1)).unwrap();
    wait_until_drained_queue(&service);
    // Dispatcher is busy factoring the blocker; fill the queue.
    let mut tickets = Vec::new();
    for i in 0..4u64 {
        tickets.push(client.submit(&small, random_matrix(M, N, 60 + i)).unwrap());
    }
    match client.submit(&small, random_matrix(M, N, 70)) {
        Err(QrError::QueueFull) => {}
        other => panic!("expected QueueFull on a full queue, got {other:?}"),
    }
    assert!(service.stats().rejected >= 1);
    assert!(blocker.wait().is_ok());
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    assert_eq!(service.stats().max_queue_depth, 4);
}

/// `submit` is `submit_within` at `Normal` with a zero timeout: on a full
/// queue both fast-fail the same way, and each rejection counts once.
#[test]
fn submit_and_a_zero_timeout_submit_within_reject_alike_on_a_full_queue() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(2)
            .with_shed_threshold(2),
    )
    .unwrap();
    let client = service.client();
    let small = plan();
    let blocker = client
        .submit(&blocker_plan(), random_matrix(256, 192, 3))
        .unwrap();
    wait_until_drained_queue(&service);
    let queued: Vec<_> = (0..2u64)
        .map(|i| client.submit(&small, random_matrix(M, N, 90 + i)).unwrap())
        .collect();
    let before = service.stats().rejected;
    assert_eq!(
        client.submit(&small, random_matrix(M, N, 92)).err(),
        Some(QrError::QueueFull)
    );
    assert_eq!(service.stats().rejected, before + 1);
    assert_eq!(
        client
            .submit_within(
                &small,
                random_matrix(M, N, 93),
                Priority::Normal,
                Duration::ZERO
            )
            .err(),
        Some(QrError::QueueFull)
    );
    assert_eq!(service.stats().rejected, before + 2);
    assert_eq!(service.stats().shed, 0);
    for t in std::iter::once(blocker).chain(queued) {
        assert!(t.wait().is_ok());
    }
}

/// A service runs its groups under its context's deadline: over a
/// zero-deadline context every ticket resolves `DeadlineExceeded`, and a
/// deadline is not transient, so nothing is retried.
#[test]
fn a_zero_deadline_context_resolves_every_ticket_as_deadline_exceeded() {
    for threads in [1usize, 3] {
        let ctx = QrContext::new(threads)
            .unwrap()
            .with_deadline(Duration::ZERO);
        let service =
            QrService::new(ctx, ServiceConfig::default().with_retry(fast_retry())).unwrap();
        let client = service.client();
        let plan = plan();
        let tickets: Vec<_> = (0..5u64)
            .map(|i| client.submit(&plan, random_matrix(M, N, 95 + i)).unwrap())
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().err(), Some(QrError::DeadlineExceeded));
        }
        let stats = service.stats();
        assert_eq!(stats.failed, 5);
        assert_eq!(stats.retries, 0);
    }
}

#[test]
fn low_priority_is_shed_under_saturation_while_normal_is_admitted() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(8)
            .with_shed_threshold(2),
    )
    .unwrap();
    let client = service.client();
    let big = blocker_plan();
    let small = plan();
    let blocker = client.submit(&big, random_matrix(256, 192, 2)).unwrap();
    wait_until_drained_queue(&service);
    let t1 = client.submit(&small, random_matrix(M, N, 80)).unwrap();
    let t2 = client.submit(&small, random_matrix(M, N, 81)).unwrap();
    // Depth is now at the shed threshold: Low is rejected (retriable),
    // Normal still gets in.
    match client.submit_within(
        &small,
        random_matrix(M, N, 82),
        Priority::Low,
        Duration::ZERO,
    ) {
        Err(e @ QrError::QueueFull) => assert!(e.is_transient(), "shedding must be retriable"),
        other => panic!("expected Low work to be shed, got {other:?}"),
    }
    let t3 = client
        .submit_within(
            &small,
            random_matrix(M, N, 83),
            Priority::Normal,
            Duration::ZERO,
        )
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    assert!(stats.rejected >= 1);
    for t in [blocker, t1, t2, t3] {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn per_client_quota_bounds_one_tenant_without_blocking_others() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(16)
            .with_shed_threshold(16)
            .with_client_quota(2),
    )
    .unwrap();
    let blocker_client = service.client();
    let tenant_a = service.client();
    let tenant_b = service.client();
    let big = blocker_plan();
    let small = plan();
    let blocker = blocker_client
        .submit(&big, random_matrix(256, 192, 3))
        .unwrap();
    wait_until_drained_queue(&service);
    let a1 = tenant_a.submit(&small, random_matrix(M, N, 90)).unwrap();
    let a2 = tenant_a.submit(&small, random_matrix(M, N, 91)).unwrap();
    match tenant_a.submit(&small, random_matrix(M, N, 92)) {
        Err(QrError::QueueFull) => {}
        other => panic!("expected the quota to reject tenant A, got {other:?}"),
    }
    // A clone shares the tenant identity — and its quota.
    match tenant_a.clone().submit(&small, random_matrix(M, N, 93)) {
        Err(QrError::QueueFull) => {}
        other => panic!("expected the clone to share the quota, got {other:?}"),
    }
    // Another tenant is unaffected.
    let b1 = tenant_b.submit(&small, random_matrix(M, N, 94)).unwrap();
    for t in [blocker, a1, a2, b1] {
        assert!(t.wait().is_ok());
    }
    // Quota slots were released on resolution: tenant A can submit again.
    assert!(tenant_a
        .submit(&small, random_matrix(M, N, 95))
        .unwrap()
        .wait()
        .is_ok());
}

#[test]
fn submit_within_blocks_until_admission_and_times_out_cleanly() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(1)
            .with_shed_threshold(1),
    )
    .unwrap();
    let client = service.client();
    let big = blocker_plan();
    let small = plan();
    let blocker = client.submit(&big, random_matrix(256, 192, 4)).unwrap();
    wait_until_drained_queue(&service);
    let filler = client.submit(&small, random_matrix(M, N, 96)).unwrap();
    // Queue is full (capacity 1). The short deadline expires first.
    match client.submit_within(
        &small,
        random_matrix(M, N, 97),
        Priority::Normal,
        Duration::from_millis(1),
    ) {
        Err(QrError::QueueFull) => {}
        other => panic!("expected the blocking submit to time out, got {other:?}"),
    }
    // A generous deadline outlives the blocker: admission opens once the
    // dispatcher dequeues the filler, and the submission goes through.
    let admitted = client
        .submit_within(
            &small,
            random_matrix(M, N, 98),
            Priority::Normal,
            Duration::from_secs(60),
        )
        .expect("blocking submit must be admitted once space frees");
    for t in [blocker, filler, admitted] {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn fair_dequeue_keeps_a_flooding_tenant_from_starving_others() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(64)
            .with_shed_threshold(64)
            .with_client_quota(64),
    )
    .unwrap();
    let blocker_client = service.client();
    let flooder = service.client();
    let polite = service.client();
    let big = blocker_plan();
    let small = plan();
    // Deficit round-robin interleaves the lanes, so the polite tenant's four
    // items resolve in the first group, long before the flooding tenant's
    // middle item; pure FIFO would run all 30 flood items first. The premise
    // is that the blocker pins the dispatcher until both lanes are fully
    // populated, so the first fair-dequeue round sees all of them. That is a
    // race, so it is observed — the blocker is still unresolved after the
    // last submission — and a scenario whose premise failed is run again
    // (bounded), never judged. The flood items are the heavier ones, which
    // widens the window in which a FIFO dispatcher is caught.
    let heavy = Arc::new(QrPlan::new(2 * M, 2 * N, QrConfig::new(NB)).expect("valid shape"));
    const ATTEMPTS: usize = 8;
    for _ in 0..ATTEMPTS {
        let flood_inputs: Vec<_> = (0..30u64)
            .map(|i| random_matrix(2 * M, 2 * N, 200 + i))
            .collect();
        let wanted_inputs: Vec<_> = (0..4u64).map(|i| random_matrix(M, N, 300 + i)).collect();
        let blocker = blocker_client
            .submit(&big, random_matrix(256, 192, 5))
            .unwrap();
        wait_until_drained_queue(&service);
        let mut flood: Vec<_> = flood_inputs
            .into_iter()
            .map(|a| flooder.submit(&heavy, a).unwrap())
            .collect();
        let wanted: Vec<_> = wanted_inputs
            .into_iter()
            .map(|a| polite.submit(&small, a).unwrap())
            .collect();
        let pinned = !blocker.is_ready();
        assert!(blocker.wait().is_ok());
        // Looked at once the middle flood item resolved, so this thread can
        // be late but never early; FIFO still has 14 flood items to run then.
        let middle = flood.remove(flood.len() / 2);
        assert!(middle.wait().is_ok());
        if pinned {
            assert!(
                wanted.iter().all(|t| t.is_ready()),
                "fair dequeue should resolve the polite tenant's items before \
                 the flooding tenant's middle one"
            );
        }
        for t in wanted.into_iter().chain(flood) {
            assert!(t.wait().is_ok());
        }
        if pinned {
            return;
        }
    }
    panic!("the blocker never pinned the dispatcher in {ATTEMPTS} attempts");
}

#[test]
fn non_finite_input_resolves_through_the_ticket_and_never_retries() {
    let ctx = QrContext::new(2).unwrap();
    let checked =
        Arc::new(QrPlan::<f64>::new(M, N, QrConfig::new(NB).with_check_finite(true)).unwrap());
    let service = QrService::new(ctx, ServiceConfig::default().with_retry(fast_retry())).unwrap();
    let client = service.client();
    let mut bad = random_matrix(M, N, 7);
    bad.as_mut_slice()[5] = f64::NAN;
    let ticket = client.submit(&checked, bad).unwrap();
    match ticket.wait() {
        Err(QrError::NonFiniteInput { .. }) => {}
        other => panic!("expected NonFiniteInput through the ticket, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.retries, 0, "deterministic errors must never retry");
    assert_eq!(stats.failed, 1);
    // The service keeps serving after a poisoned item.
    assert!(client
        .submit(&checked, random_matrix(M, N, 8))
        .unwrap()
        .wait()
        .is_ok());
}

#[test]
fn wait_for_times_out_and_hands_the_ticket_back() {
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
    let client = service.client();
    let big = blocker_plan();
    let small = plan();
    let blocker = client.submit(&big, random_matrix(256, 192, 6)).unwrap();
    wait_until_drained_queue(&service);
    let queued = client.submit(&small, random_matrix(M, N, 99)).unwrap();
    let queued = match queued.wait_for(Duration::from_millis(1)) {
        Err(ticket) => ticket,
        Ok(r) => panic!("queued item cannot resolve behind a blocker: {r:?}"),
    };
    assert!(blocker.wait().is_ok());
    assert!(queued.wait().is_ok(), "the returned ticket must stay valid");
}

#[test]
fn a_timeout_beyond_the_clock_waits_without_a_deadline() {
    // `Duration::MAX` from now is no representable instant: both blocking
    // calls must wait as if untimed instead of panicking.
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(1)
            .with_shed_threshold(1),
    )
    .unwrap();
    let client = service.client();
    let (big, small) = (blocker_plan(), plan());
    let blocker = client.submit(&big, random_matrix(256, 192, 7)).unwrap();
    wait_until_drained_queue(&service);
    let filler = client.submit(&small, random_matrix(M, N, 110)).unwrap();
    // The queue is full; admission opens once the dispatcher dequeues the
    // filler.
    let admitted = client
        .submit_within(
            &small,
            random_matrix(M, N, 111),
            Priority::Normal,
            Duration::MAX,
        )
        .expect("an unbounded blocking submit is admitted once space frees");
    for ticket in [blocker, filler, admitted] {
        match ticket.wait_for(Duration::MAX) {
            Ok(outcome) => assert!(outcome.is_ok()),
            Err(ticket) => panic!("an unbounded wait handed {ticket:?} back"),
        }
    }
}

#[test]
fn least_squares_solve_via_matches_the_context_path() {
    let ctx = QrContext::new(2).unwrap();
    let plan = plan();
    let a: Matrix<f64> = random_matrix(M, N, 11);
    let b: Vec<f64> = random_vector(M, 12);
    let expected = {
        let ctx = QrContext::new(1).unwrap();
        least_squares_solve_with(&ctx, &plan, &a, &b).unwrap()
    };
    let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
    let client = service.client();
    let x = least_squares_solve_via(&client, &plan, a.clone(), &b).unwrap();
    assert_eq!(x, expected, "service-routed solve must match bitwise");
    // RHS length mismatch is typed, not a panic.
    match least_squares_solve_via(&client, &plan, a.clone(), &b[..M - 1]) {
        Err(QrError::RhsLength { expected, got }) => {
            assert_eq!((expected, got), (M, M - 1));
        }
        other => panic!("expected RhsLength, got {other:?}"),
    }
    // So is an exactly rank-deficient matrix.
    let mut singular = a;
    singular.col_mut(N - 1).fill(0.0);
    assert_eq!(
        least_squares_solve_via(&client, &plan, singular, &b),
        Err(QrError::SingularR { index: N - 1 })
    );
}

#[test]
fn submissions_after_shutdown_are_rejected_with_service_shutdown() {
    let ctx = QrContext::new(1).unwrap();
    let plan = plan();
    let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
    let client = service.client();
    service.shutdown();
    match client.submit(&plan, random_matrix(M, N, 13)) {
        Err(e @ QrError::ServiceShutdown) => {
            assert!(!e.is_transient(), "shutdown is not a retriable condition");
        }
        other => panic!("expected ServiceShutdown, got {other:?}"),
    }
    match client.submit_within(
        &plan,
        random_matrix(M, N, 14),
        Priority::Normal,
        Duration::from_secs(1),
    ) {
        Err(QrError::ServiceShutdown) => {}
        other => panic!("expected ServiceShutdown from the blocking path, got {other:?}"),
    }
}

/// The tentpole through the public API: three tenants each submitting their
/// own shape concurrently. Queued behind one blocker job, the backlog is
/// dispatched as fused groups that span plans (`mixed_groups` moves), and
/// every item is bitwise identical to its own sequential single-plan
/// reference.
#[test]
fn mixed_shape_submissions_coalesce_and_stay_bitwise_identical() {
    let shapes: [(usize, usize, usize); 3] = [(M, N, NB), (30, 20, 5), (26, 26, 6)];
    let plans: Vec<Arc<QrPlan<f64>>> = shapes
        .iter()
        .map(|&(m, n, nb)| Arc::new(QrPlan::new(m, n, QrConfig::new(nb)).expect("valid shape")))
        .collect();
    let ctx = QrContext::new(4).unwrap();
    let service = QrService::new(ctx, ServiceConfig::default().with_max_group(8)).unwrap();
    let clients: Vec<_> = (0..3).map(|_| service.client()).collect();
    // The dispatcher runs the blocker as worker 0 of its job, so it cannot
    // dequeue again until the blocker is done.
    let blocker = clients[0]
        .submit(&blocker_plan(), random_matrix(256, 192, 7_690))
        .unwrap();
    wait_until_drained_queue(&service);
    // 4 items per tenant, interleaved, all queued behind the blocker — the
    // dispatcher must fuse across the three plans.
    let mats: Vec<Matrix<f64>> = (0..12)
        .map(|i| {
            let (m, n, _) = shapes[i % 3];
            random_matrix(m, n, 7_700 + i as u64)
        })
        .collect();
    let tickets: Vec<_> = mats
        .iter()
        .enumerate()
        .map(|(i, a)| clients[i % 3].submit(&plans[i % 3], a.clone()).unwrap())
        .collect();
    let seq = QrContext::new(1).unwrap();
    for (i, (ticket, a)) in tickets.into_iter().zip(&mats).enumerate() {
        let f = ticket
            .wait()
            .unwrap_or_else(|e| panic!("item {i} failed: {e:?}"));
        let reference = seq.factorize(&plans[i % 3], a).unwrap();
        assert_eq!(
            f.factored_tiles(),
            reference.factored_tiles(),
            "item {i} (plan {}) must be bitwise identical to its sequential reference",
            i % 3
        );
    }
    blocker.wait().unwrap();
    let stats = service.stats();
    assert_eq!(stats.completed, 13);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.mixed_groups >= 1,
        "a coalesced mixed-shape backlog must fuse across plans, not fragment \
         into per-plan jobs: {stats:?}"
    );
    assert!(
        stats.group_items > stats.groups,
        "fused groups must carry more than one item on average: {stats:?}"
    );
}

/// The DRR fairness-skew fix: each lane's quantum is its **own** head-of-line
/// cost. A tenant flooding small-plan items can no longer burn a budget
/// inflated by another tenant's large plan, so the large item lands in the
/// *first* fused group (mixed across plans) instead of waiting behind the
/// whole flood.
#[test]
fn per_lane_quantum_keeps_a_small_plan_flood_from_crowding_out_a_large_item() {
    let small = plan();
    let large = blocker_plan();
    // threads = 1: the first (blocker) submission pins the dispatcher while
    // the mixed backlog queues up behind it.
    let ctx = QrContext::new(1).unwrap();
    let service = QrService::new(
        ctx,
        ServiceConfig::default()
            .with_queue_capacity(64)
            .with_client_quota(64)
            .with_max_group(8),
    )
    .unwrap();
    let flooder = service.client();
    let tenant_b = service.client();
    let blocker = flooder
        .submit(&large, random_matrix(256, 192, 7_900))
        .unwrap();
    wait_until_drained_queue(&service);
    // Backlog while the dispatcher is busy: 8 small items from the flooder,
    // one large item from tenant B. Under the old global-max quantum the
    // flooder's lane could afford the whole flood in one visit and the first
    // group came out single-plan.
    let small_mats: Vec<Matrix<f64>> = (0..8).map(|i| random_matrix(M, N, 7_910 + i)).collect();
    let small_tickets: Vec<_> = small_mats
        .iter()
        .map(|a| flooder.submit(&small, a.clone()).unwrap())
        .collect();
    let big = random_matrix(256, 192, 7_950);
    let big_ticket = tenant_b.submit(&large, big.clone()).unwrap();
    assert!(blocker.wait().is_ok());
    let seq = QrContext::new(1).unwrap();
    for (i, (ticket, a)) in small_tickets.into_iter().zip(&small_mats).enumerate() {
        let f = ticket
            .wait()
            .unwrap_or_else(|e| panic!("small item {i} failed: {e:?}"));
        assert_eq!(
            f.factored_tiles(),
            seq.factorize(&small, a).unwrap().factored_tiles(),
            "small item {i} diverged bitwise"
        );
    }
    let f = big_ticket.wait().expect("large item resolves");
    assert_eq!(
        f.factored_tiles(),
        seq.factorize(&large, &big).unwrap().factored_tiles(),
        "large item diverged bitwise"
    );
    let stats = service.stats();
    assert!(
        stats.mixed_groups >= 1,
        "per-lane quantum must admit the large-plan tenant into the first \
         fused group instead of letting the flood burst past it: {stats:?}"
    );
}

/// The dispatcher-stall fix: per-item tiling happens inside the fused job
/// (worker-side), so admission latency stays bounded while a large group
/// launches — submit is a queue push, never an O(group · m · n) wait.
#[test]
fn admission_stays_responsive_while_a_large_group_launches() {
    let large = blocker_plan();
    let ctx = QrContext::new(2).unwrap();
    let service = QrService::new(ctx, ServiceConfig::default().with_max_group(4)).unwrap();
    let client = service.client();
    let tickets: Vec<_> = (0..4u64)
        .map(|i| {
            client
                .submit(&large, random_matrix(256, 192, 7_960 + i))
                .unwrap()
        })
        .collect();
    // The group has been picked up (and with worker-side tiling, the
    // dispatcher handed the dense inputs straight to the pool).
    wait_until_drained_queue(&service);
    // Pre-generate so only admission itself is timed.
    let extra_mat = random_matrix(256, 192, 7_970);
    let t0 = Instant::now();
    let extra = client.submit(&large, extra_mat).unwrap();
    let latency = t0.elapsed();
    assert!(
        latency < Duration::from_millis(250),
        "admission blocked for {latency:?} while a large group was launching"
    );
    for (i, t) in tickets.into_iter().enumerate() {
        t.wait()
            .unwrap_or_else(|e| panic!("group item {i} failed: {e:?}"));
    }
    extra.wait().expect("late submission resolves");
}
