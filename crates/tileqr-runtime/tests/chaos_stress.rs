//! Deterministic chaos suite (`--features fault-injection`).
//!
//! A hundred seeded fault schedules over the batch-stress shape mix: panics
//! injected at random `(copy, task)` boundaries must be contained to exactly
//! that batch item (which reports [`QrError::TaskPanicked`] with the faulted
//! task's kind), while every non-faulted sibling — including the ones slowed down by
//! injected delays — stays **bitwise identical** to its fault-free
//! factorization. Separate tests drive the watchdog with an injected stall
//! and check that bounded delays never trip a generously-bounded watchdog.
//!
//! Fault plans are process-global, so the tests in this binary serialize on
//! a local mutex: a reference factorization computed while another test's
//! plan is armed would hit that test's faults.

#![cfg(feature = "fault-injection")]

use std::sync::Mutex;
use std::time::Duration;

use std::collections::HashMap;
use std::sync::Arc;

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{TaskDag, TaskKind};
use tileqr_core::KernelFamily;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::rng::Rng;
use tileqr_matrix::{Complex64, Matrix, TiledMatrix};
use tileqr_runtime::driver::{elimination_list_for, qr_factorize, QrConfig};
use tileqr_runtime::fault::FaultPlan;
use tileqr_runtime::service::{probe_id, QrService, RetryPolicy, ServiceConfig};
use tileqr_runtime::{QrContext, QrError, QrPlan};

const RUNS: usize = 100;
const THREADS: usize = 4;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One chaos round: draw a batch-stress-style problem and a seeded fault
/// schedule (1..k-1 panicking copies, a few delays on the clean copies),
/// run it, and check per-item containment.
fn chaos_round<T: RandomScalar>(rng: &mut Rng, ctx: &QrContext, it: usize, use_in_place: bool) {
    let algorithms = [
        Algorithm::Greedy,
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::BinaryTree,
    ];
    let nb = 2 + (rng.next_u64() % 4) as usize; // 2..=5
    let p = 2 + (rng.next_u64() % 4) as usize; // 2..=5 tile rows
    let q = 1 + (rng.next_u64() % p.min(3) as u64) as usize; // 1..=min(p,3)
    let m = p * nb - (rng.next_u64() % nb as u64) as usize; // ragged edges
    let n = (q * nb - (rng.next_u64() % nb as u64) as usize)
        .min(m)
        .max(1);
    let algo = algorithms[(rng.next_u64() % 4) as usize];
    let family = if rng.next_u64().is_multiple_of(2) {
        KernelFamily::TT
    } else {
        KernelFamily::TS
    };
    // At least two copies so every faulted run keeps a clean sibling whose
    // bitwise identity proves the blast radius stayed per-item.
    let k = 2 + (rng.next_u64() % 3) as usize; // 2..=4
    let ib = 1 + (rng.next_u64() % nb as u64) as usize; // 1..=nb

    let config = QrConfig::new(nb)
        .with_algorithm(algo)
        .with_family(family)
        .with_inner_block(ib);
    let mats: Vec<Matrix<T>> = (0..k)
        .map(|_| random_matrix(m, n, rng.next_u64()))
        .collect();
    // References run fault-free, so they must be computed before a plan is
    // armed: installation is process-global and `qr_factorize` goes through
    // the same probed task loop.
    let references: Vec<_> = mats.iter().map(|a| qr_factorize(a, config)).collect();

    let plan: QrPlan<T> = QrPlan::new(m, n, config).expect("valid random shape");
    let panics = 1 + (rng.next_u64() as usize) % (k - 1).max(1); // 1..=k-1
    let delays = (rng.next_u64() % 4) as usize;
    let faults = FaultPlan::seeded(rng.next_u64(), k, plan.task_count(), panics, delays);
    let expected = faults.panics();
    // The same DAG construction the plan uses, to check the reported kind.
    let dag = TaskDag::build(
        &elimination_list_for(algo, plan.tile_rows(), plan.tile_cols()),
        family,
    );

    let label = |copy: usize| {
        format!(
            "iteration {it} copy {copy}: {m}x{n} nb={nb} ib={ib} k={k} {} {}, \
             faults {expected:?} (+{} delays)",
            algo.name(),
            family.name(),
            faults.delay_count(),
        )
    };
    let injected = |copy: usize| {
        expected
            .iter()
            .find(|&&(c, _)| c == copy)
            .map(|&(_, task)| task)
    };
    let check = |copy: usize, item: Result<&TiledMatrix<T>, &QrError>| match (injected(copy), item)
    {
        (Some(task), Err(QrError::TaskPanicked { kind, message })) => {
            assert_eq!(*kind, dag.tasks[task].kind, "{}", label(copy));
            let expect_msg = format!("injected fault at (copy {copy}, task {task})");
            assert!(
                message.contains(&expect_msg),
                "{}: got {message:?}",
                label(copy)
            );
        }
        (Some(_), other) => panic!(
            "{}: faulted item returned {other:?} instead of TaskPanicked",
            label(copy)
        ),
        (None, Ok(tiles)) => assert_eq!(
            tiles,
            references[copy].factored_tiles(),
            "{} (clean item diverged bitwise)",
            label(copy)
        ),
        (None, Err(e)) => panic!("{}: clean item failed: {e}", label(copy)),
    };

    let armed = faults.clone().install();
    if use_in_place {
        let mut tiles: Vec<TiledMatrix<T>> = mats
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, nb))
            .collect();
        let out = ctx.factorize_batch_into(&plan, &mut tiles);
        drop(armed);
        assert_eq!(out.len(), k);
        for (copy, (slot, t)) in out.iter().zip(&tiles).enumerate() {
            // A faulted item's buffer legitimately holds partial values;
            // only clean buffers are compared.
            check(copy, slot.as_ref().map(|_| t));
        }
    } else {
        let batch = ctx.factorize_batch(&plan, &mats);
        drop(armed);
        assert_eq!(batch.len(), k);
        for (copy, item) in batch.iter().enumerate() {
            check(copy, item.as_ref().map(|f| f.factored_tiles()));
        }
    }
}

#[test]
fn hundred_seeded_fault_schedules_are_contained_per_item() {
    let _serial = serial();
    let ctx = QrContext::new(THREADS).expect("valid thread count");
    let mut rng = Rng::seed_from_u64(0xFA017);
    for it in 0..RUNS {
        // Alternate scalar type and batch entry point like the fault-free
        // batch-stress suite, so containment is exercised on all four paths.
        match it % 4 {
            0 => chaos_round::<f64>(&mut rng, &ctx, it, false),
            1 => chaos_round::<Complex64>(&mut rng, &ctx, it, false),
            2 => chaos_round::<f64>(&mut rng, &ctx, it, true),
            _ => chaos_round::<Complex64>(&mut rng, &ctx, it, true),
        }
    }
}

/// Retry budget the service chaos rounds run with; fault chains are drawn
/// from `1..=SERVICE_RETRIES + 1` attempts so both retried-to-success and
/// budget-exhausted outcomes occur.
const SERVICE_RETRIES: u32 = 2;
/// Submissions per round — two per client thread.
const SERVICE_ITEMS: usize = 8;
/// Concurrent client threads per round.
const SERVICE_CLIENTS: usize = 4;

fn chaos_service_config() -> ServiceConfig {
    // Generous admission: the round's seq ↔ item mapping assumes every
    // submission is accepted (rejections would leave holes in the dense
    // `base_seq..base_seq + items` range the fault plan was keyed on).
    ServiceConfig::default()
        .with_queue_capacity(64)
        .with_shed_threshold(64)
        .with_client_quota(64)
        .with_max_group(4)
        .with_retry(RetryPolicy {
            max_retries: SERVICE_RETRIES,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(2),
        })
}

fn chaos_service<T: RandomScalar>() -> QrService<T> {
    let ctx = QrContext::new(THREADS).expect("valid thread count");
    QrService::new(ctx, chaos_service_config()).expect("service spawns")
}

/// One service chaos round: draw a problem, compute fault-free references,
/// then arm a seeded per-attempt fault schedule and push the items through
/// the service from four concurrent client threads.
/// Items whose fault chain fits the retry budget must be retried to a
/// bitwise-identical success; items whose chain exceeds it must surface the
/// last attempt's panic; clean items must match the references bitwise; and
/// the retry counter must move by exactly the transient budget consumed
/// (deterministic failures never retry, so any extra tick would fail the
/// equality).
fn service_chaos_round<T: RandomScalar>(rng: &mut Rng, service: &QrService<T>, it: usize) {
    let algorithms = [
        Algorithm::Greedy,
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::BinaryTree,
    ];
    let nb = 2 + (rng.next_u64() % 4) as usize; // 2..=5
    let p = 2 + (rng.next_u64() % 4) as usize; // 2..=5 tile rows
    let q = 1 + (rng.next_u64() % p.min(3) as u64) as usize; // 1..=min(p,3)
    let m = p * nb - (rng.next_u64() % nb as u64) as usize; // ragged edges
    let n = (q * nb - (rng.next_u64() % nb as u64) as usize)
        .min(m)
        .max(1);
    let algo = algorithms[(rng.next_u64() % 4) as usize];
    let family = if rng.next_u64().is_multiple_of(2) {
        KernelFamily::TT
    } else {
        KernelFamily::TS
    };
    let ib = 1 + (rng.next_u64() % nb as u64) as usize; // 1..=nb

    let config = QrConfig::new(nb)
        .with_algorithm(algo)
        .with_family(family)
        .with_inner_block(ib);
    let mats: Vec<Matrix<T>> = (0..SERVICE_ITEMS)
        .map(|_| random_matrix(m, n, rng.next_u64()))
        .collect();
    // Fault-free references, computed before any plan is armed.
    let references: Vec<_> = mats.iter().map(|a| qr_factorize(a, config)).collect();

    let plan = Arc::new(QrPlan::<T>::new(m, n, config).expect("valid random shape"));
    let dag = TaskDag::build(
        &elimination_list_for(algo, plan.tile_rows(), plan.tile_cols()),
        family,
    );
    let faulted = 1 + (rng.next_u64() as usize) % (SERVICE_ITEMS / 2); // 1..=4
    let delays = (rng.next_u64() % 4) as usize;
    let fault_seed = rng.next_u64();

    let before = service.stats();
    // The queue is quiescent between rounds, so the next assigned
    // sequence number equals the accepted-submission count.
    let base_seq = before.submitted;
    let (faults, chains) = FaultPlan::seeded_service(
        fault_seed,
        base_seq,
        SERVICE_ITEMS,
        plan.task_count(),
        faulted,
        SERVICE_RETRIES + 1,
        delays,
    );
    let chain_map: HashMap<u64, u32> = chains.iter().copied().collect();
    // probe copy -> faulted task, for checking the surfaced error's kind.
    let panic_tasks: HashMap<usize, usize> = faults.panics().into_iter().collect();
    let label = |idx: usize, seq: u64| {
        format!(
            "iteration {it} item {idx} (seq {seq}): {m}x{n} nb={nb} ib={ib} {} {}, \
             chains {chains:?} (+{} delays)",
            algo.name(),
            family.name(),
            faults.delay_count(),
        )
    };

    let armed = faults.clone().install();
    // Four concurrent clients submit two items each; the seq ↔ item
    // mapping is nondeterministic under concurrency, so it is read back
    // from the tickets rather than assumed.
    let tickets: Vec<(usize, tileqr_runtime::Ticket<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|t| {
                let client = service.client();
                let mats = &mats;
                let plan = &plan;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (t..SERVICE_ITEMS).step_by(SERVICE_CLIENTS) {
                        let ticket = client
                            .submit(plan, mats[idx].clone())
                            .expect("generous admission accepts every chaos submission");
                        out.push((idx, ticket));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Every ticket resolves while the plan is still armed (retries run
    // through the probed loop too); a leaked ticket would hang here.
    let outcomes: Vec<(usize, u64, Result<_, QrError>)> = tickets
        .into_iter()
        .map(|(idx, t)| {
            let seq = t.seq();
            (idx, seq, t.wait())
        })
        .collect();
    drop(armed);

    // The round's sequence numbers are exactly the dense range the fault
    // plan was keyed on.
    let mut seqs: Vec<u64> = outcomes.iter().map(|&(_, seq, _)| seq).collect();
    seqs.sort_unstable();
    let expect_seqs: Vec<u64> = (base_seq..base_seq + SERVICE_ITEMS as u64).collect();
    assert_eq!(seqs, expect_seqs, "iteration {it}");

    for (idx, seq, outcome) in &outcomes {
        match (chain_map.get(seq), outcome) {
            // Chain fits the retry budget: retried to success, and the
            // result is bitwise identical to the fault-free run.
            (Some(&a), Ok(f)) if a <= SERVICE_RETRIES => assert_eq!(
                f.factored_tiles(),
                references[*idx].factored_tiles(),
                "{} (retried item diverged bitwise)",
                label(*idx, *seq)
            ),
            // Chain exhausts the budget: the final attempt's injected
            // panic surfaces, with the faulted task's kind.
            (Some(&a), Err(QrError::TaskPanicked { kind: k, message })) if a > SERVICE_RETRIES => {
                let probe = probe_id(*seq, SERVICE_RETRIES);
                let task = panic_tasks[&probe];
                assert_eq!(*k, dag.tasks[task].kind, "{}", label(*idx, *seq));
                let expect_msg = format!("injected fault at (copy {probe}, task {task})");
                assert!(
                    message.contains(&expect_msg),
                    "{}: got {message:?}",
                    label(*idx, *seq)
                );
            }
            (Some(&a), other) => panic!(
                "{}: {a}-attempt chain resolved as {other:?}",
                label(*idx, *seq)
            ),
            (None, Ok(f)) => assert_eq!(
                f.factored_tiles(),
                references[*idx].factored_tiles(),
                "{} (clean item diverged bitwise)",
                label(*idx, *seq)
            ),
            (None, Err(e)) => panic!("{}: clean item failed: {e}", label(*idx, *seq)),
        }
    }

    let after = service.stats();
    assert_eq!(after.submitted - before.submitted, SERVICE_ITEMS as u64);
    assert_eq!(
        (after.completed + after.failed) - (before.completed + before.failed),
        SERVICE_ITEMS as u64,
        "iteration {it}: a ticket went unaccounted"
    );
    // Exactly the transient budget is consumed — an `a`-attempt chain
    // retries `min(a, budget)` times and nothing else retries at all.
    let expect_retries: u64 = chains
        .iter()
        .map(|&(_, a)| u64::from(a.min(SERVICE_RETRIES)))
        .sum();
    assert_eq!(
        after.retries - before.retries,
        expect_retries,
        "iteration {it}: retry counter off (chains {chains:?})"
    );
    assert_eq!(service.queue_depth(), 0, "iteration {it} left residue");
}

/// Shutdown with faults armed and tickets in flight: every ticket still
/// resolves — queued items drain with [`QrError::ServiceShutdown`], in-flight
/// items finish with their real outcome (success or the injected panic; the
/// drain never retries), and the counters account for every submission.
fn service_chaos_drain<T: RandomScalar>(service: QrService<T>, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let config = QrConfig::new(4);
    let plan = Arc::new(QrPlan::<T>::new(20, 12, config).expect("static shape"));
    let before = service.stats();
    let (faults, _chains) = FaultPlan::seeded_service(
        rng.next_u64(),
        before.submitted,
        SERVICE_ITEMS,
        plan.task_count(),
        2,
        SERVICE_RETRIES + 1,
        2,
    );
    let armed = faults.install();
    let client = service.client();
    let tickets: Vec<_> = (0..SERVICE_ITEMS)
        .map(|i| {
            client
                .submit(&plan, random_matrix::<T>(20, 12, rng.next_u64() ^ i as u64))
                .expect("capacity admits the burst")
        })
        .collect();
    service.shutdown();
    // Exactly-once drain invariant: every ticket resolves to precisely
    // one terminal outcome, and the per-category tallies observed by the
    // clients reconcile with the service's own counters — nothing is
    // lost, duplicated, or resolved on both sides of the ledger.
    let (mut ok, mut shut, mut panicked) = (0u64, 0u64, 0u64);
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => ok += 1,
            Err(QrError::ServiceShutdown) => shut += 1,
            Err(QrError::TaskPanicked { .. }) => panicked += 1,
            Err(e) => panic!("drain resolved a ticket with an unexpected error: {e}"),
        }
    }
    drop(armed);
    let after = service.stats();
    assert_eq!(after.submitted - before.submitted, SERVICE_ITEMS as u64);
    assert_eq!(
        ok + shut + panicked,
        SERVICE_ITEMS as u64,
        "a ticket resolved more or less than exactly once"
    );
    assert_eq!(
        after.completed - before.completed,
        ok,
        "completed counter disagrees with the tickets that resolved Ok"
    );
    assert_eq!(
        after.failed - before.failed,
        shut + panicked,
        "failed counter disagrees with the tickets that resolved Err"
    );
    assert_eq!(service.queue_depth(), 0);
}

#[test]
fn hundred_seeded_service_schedules_with_concurrent_clients() {
    let _serial = serial();
    let f64_service = chaos_service::<f64>();
    let c64_service = chaos_service::<Complex64>();
    let mut rng = Rng::seed_from_u64(0x5E7FA017);
    for it in 0..RUNS {
        // Alternate scalar type.
        if it % 2 == 0 {
            service_chaos_round::<f64>(&mut rng, &f64_service, it);
        } else {
            service_chaos_round::<Complex64>(&mut rng, &c64_service, it);
        }
    }
    // Final drain: shutdown with faults armed and tickets in flight must
    // still resolve every ticket.
    service_chaos_drain(f64_service, 0xD4A1_F00D);
    service_chaos_drain(c64_service, 0xD4A1_F00E);
}

#[test]
fn sequential_path_contains_injected_panics_too() {
    let _serial = serial();
    let ctx = QrContext::new(1).expect("one thread");
    let config = QrConfig::new(4);
    let plan: QrPlan<f64> = QrPlan::new(20, 12, config).unwrap();
    let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(20, 12, 300 + i)).collect();
    let references: Vec<_> = mats.iter().map(|a| qr_factorize(a, config)).collect();
    let dag = TaskDag::build(
        &elimination_list_for(plan.algorithm(), plan.tile_rows(), plan.tile_cols()),
        plan.family(),
    );

    let armed = FaultPlan::new().panic_at(1, 0).install();
    let batch = ctx.factorize_batch(&plan, &mats);
    drop(armed);
    match &batch[1] {
        Err(QrError::TaskPanicked { kind, message }) => {
            assert_eq!(*kind, dag.tasks[0].kind);
            assert!(message.contains("injected fault at (copy 1, task 0)"));
        }
        other => panic!("sequential fault not contained: {other:?}"),
    }
    // The panic neither poisons the earlier copy nor the later one.
    for copy in [0usize, 2] {
        let f = batch[copy].as_ref().expect("clean sibling factors");
        assert_eq!(f.factored_tiles(), references[copy].factored_tiles());
    }
}

/// The right-hand-side updates of a fused solve are ordinary tasks of the
/// job: a panic in one is contained like any other, fails exactly that
/// solve, and leaves the plan's parked buffers and the pool fit for the next.
#[test]
fn a_panic_in_an_rhs_update_fails_only_that_solve() {
    let _serial = serial();
    for family in [KernelFamily::TT, KernelFamily::TS] {
        let config = QrConfig::new(4).with_family(family).with_inner_block(2);
        let (m, n) = (22usize, 10usize);
        let plan: QrPlan<f64> = QrPlan::new(m, n, config).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 500);
        let b: Matrix<f64> = random_matrix(m, 3, 501);
        let other: Matrix<f64> = random_matrix(m, n, 502);
        // The solve schedule, to pick the faulted tasks: the first and the
        // last update of the trailing column.
        let q = plan.tile_cols();
        let dag = TaskDag::build_with_trailing(
            &elimination_list_for(plan.algorithm(), plan.tile_rows(), q),
            family,
            1,
        );
        let on_rhs = |kind: TaskKind| match kind {
            TaskKind::Unmqr { j, .. } | TaskKind::Tsmqr { j, .. } | TaskKind::Ttmqr { j, .. } => {
                j == q
            }
            _ => false,
        };
        let first = dag.tasks.iter().position(|t| on_rhs(t.kind)).unwrap();
        let last = dag.tasks.iter().rposition(|t| on_rhs(t.kind)).unwrap();

        let sequential = QrContext::new(1).expect("one thread");
        let pooled = QrContext::new(THREADS).expect("valid thread count");
        for ctx in [sequential, pooled] {
            let expected = ctx.solve(&plan, &a, &b).expect("fault-free solve");
            let expected_other = ctx.solve(&plan, &other, &b).expect("fault-free solve");
            for task in [first, last] {
                let armed = FaultPlan::new().panic_at(0, task).install();
                let outcome = ctx.solve(&plan, &a, &b);
                drop(armed);
                match outcome {
                    Err(QrError::TaskPanicked { kind, message }) => {
                        assert_eq!(kind, dag.tasks[task].kind);
                        assert!(
                            message.contains(&format!("injected fault at (copy 0, task {task})")),
                            "{message}"
                        );
                    }
                    other => panic!("rhs-update fault not contained: {other:?}"),
                }
                // The next solves reuse the buffers the failed one parked.
                assert_eq!(ctx.solve(&plan, &other, &b).unwrap(), expected_other);
                assert_eq!(ctx.solve(&plan, &a, &b).unwrap(), expected);
            }
        }
    }
}

#[test]
fn watchdog_flags_an_injected_stall_as_stalled() {
    let _serial = serial();
    let ctx = QrContext::new(2)
        .expect("two threads")
        .with_watchdog(Duration::from_millis(25));
    let config = QrConfig::new(4);
    let plan: QrPlan<f64> = QrPlan::new(16, 8, config).unwrap();
    let a = random_matrix::<f64>(16, 8, 400);
    let reference = qr_factorize(&a, config);

    // Healthy runs never trip the watchdog.
    let f = ctx.factorize(&plan, &a).expect("healthy run");
    assert_eq!(f.factored_tiles(), reference.factored_tiles());

    // Wedge the first task for far longer than the stall bound: tasks stop
    // retiring, the idle worker's stall check cancels the job, and the call
    // returns Stalled well
    // before a hung-forever worker would (the test itself is the no-hang
    // assertion).
    let armed = FaultPlan::new()
        .delay_at(0, 0, Duration::from_millis(400))
        .install();
    assert_eq!(ctx.factorize(&plan, &a).err(), Some(QrError::Stalled));
    drop(armed);

    // Stalled is per-call, not sticky: the same context recovers bitwise.
    let f = ctx.factorize(&plan, &a).expect("recovered run");
    assert_eq!(f.factored_tiles(), reference.factored_tiles());
}

#[test]
fn bounded_delays_never_trip_a_generous_watchdog() {
    let _serial = serial();
    let ctx = QrContext::new(THREADS)
        .expect("valid thread count")
        .with_watchdog(Duration::from_secs(5));
    let config = QrConfig::new(4);
    let plan: QrPlan<f64> = QrPlan::new(24, 16, config).unwrap();
    let mats: Vec<Matrix<f64>> = (0..4).map(|i| random_matrix(24, 16, 500 + i)).collect();
    let references: Vec<_> = mats.iter().map(|a| qr_factorize(a, config)).collect();

    // Delays only (panics = 0): every item must complete, every result must
    // be bitwise identical — schedule perturbation may not change a bit.
    let faults = FaultPlan::seeded(0xDE1A75, 4, plan.task_count(), 0, 6);
    let armed = faults.install();
    let batch = ctx.factorize_batch(&plan, &mats);
    drop(armed);
    for (item, reference) in batch.into_iter().zip(&references) {
        let f = item.expect("delayed item still completes");
        assert_eq!(f.factored_tiles(), reference.factored_tiles());
    }
}

/// Mixed-plan service chaos: one service runs a queue that alternates
/// between two *different* plans (shape, tile size, inner blocking, tree,
/// kernel family), with a hand-built per-attempt fault schedule. The fused
/// groups span both plans (`mixed_groups` moves); injected panics stay
/// contained to exactly the addressed attempt of the addressed item;
/// retries match the injected transient chains exactly; and every clean or
/// retried item is bitwise identical to its own fault-free reference.
#[test]
fn mixed_plan_service_chaos_contains_faults_and_retries_exactly() {
    let _serial = serial();
    let config_a = QrConfig::new(4)
        .with_algorithm(Algorithm::Greedy)
        .with_family(KernelFamily::TT);
    let config_b = QrConfig::new(5)
        .with_algorithm(Algorithm::FlatTree)
        .with_family(KernelFamily::TS)
        .with_inner_block(2);
    let plan_a = Arc::new(QrPlan::<f64>::new(20, 12, config_a).expect("valid shape"));
    let plan_b = Arc::new(QrPlan::<f64>::new(15, 15, config_b).expect("valid shape"));
    let dag_a = TaskDag::build(
        &elimination_list_for(Algorithm::Greedy, plan_a.tile_rows(), plan_a.tile_cols()),
        KernelFamily::TT,
    );
    let dag_b = TaskDag::build(
        &elimination_list_for(Algorithm::FlatTree, plan_b.tile_rows(), plan_b.tile_cols()),
        KernelFamily::TS,
    );

    const ITEMS: usize = 8;
    let plan_of = |idx: usize| {
        if idx.is_multiple_of(2) {
            (&plan_a, &config_a)
        } else {
            (&plan_b, &config_b)
        }
    };
    let mut rng = Rng::seed_from_u64(0xC_0FFE_EA11);
    let mats: Vec<Matrix<f64>> = (0..ITEMS)
        .map(|idx| {
            let (plan, _) = plan_of(idx);
            random_matrix(plan.m(), plan.n(), rng.next_u64())
        })
        .collect();
    // Fault-free references, computed before the plan is armed.
    let references: Vec<_> = (0..ITEMS)
        .map(|idx| qr_factorize(&mats[idx], *plan_of(idx).1))
        .collect();

    let ctx = QrContext::new(THREADS).unwrap();
    let service = QrService::new(ctx, chaos_service_config()).unwrap();
    let base_seq = service.stats().submitted;

    // Hand-built schedule keyed on (seq, attempt) probe coordinates —
    // submissions below are serial, so item `idx` gets seq `base_seq + idx`.
    // Item 1 (plan B): 2-panic transient chain, fits the retry budget.
    // Item 4 (plan A): 3-panic chain, exhausts the budget and surfaces.
    // Item 6 (plan A): a bounded delay only — must not retry at all.
    let task_b = dag_b.len() / 2;
    let task_a = dag_a.len() / 3;
    let seq1 = base_seq + 1;
    let seq4 = base_seq + 4;
    let seq6 = base_seq + 6;
    let faults = FaultPlan::new()
        .panic_at(probe_id(seq1, 0), task_b)
        .panic_at(probe_id(seq1, 1), task_b)
        .panic_at(probe_id(seq4, 0), task_a)
        .panic_at(probe_id(seq4, 1), task_a)
        .panic_at(probe_id(seq4, 2), task_a)
        .delay_at(probe_id(seq6, 0), 0, Duration::from_millis(1));
    let armed = faults.install();

    let client = service.client();
    let tickets: Vec<_> = (0..ITEMS)
        .map(|idx| {
            let (plan, _) = plan_of(idx);
            client
                .submit(plan, mats[idx].clone())
                .expect("generous admission accepts the mixed burst")
        })
        .collect();
    // Serial submission makes the seq ↔ item mapping exact.
    for (idx, t) in tickets.iter().enumerate() {
        assert_eq!(t.seq(), base_seq + idx as u64, "serial submission order");
    }
    let outcomes: Vec<Result<_, QrError>> = tickets.into_iter().map(|t| t.wait()).collect();
    drop(armed);

    for (idx, outcome) in outcomes.iter().enumerate() {
        let seq = base_seq + idx as u64;
        if seq == seq4 {
            // The exhausted chain surfaces the *last* attempt's injected
            // panic with the faulted task's kind.
            match outcome {
                Err(QrError::TaskPanicked { kind, message }) => {
                    assert_eq!(*kind, dag_a.tasks[task_a].kind, "item {idx}");
                    let probe = probe_id(seq4, SERVICE_RETRIES);
                    let expect = format!("injected fault at (copy {probe}, task {task_a})");
                    assert!(message.contains(&expect), "item {idx}: got {message:?}");
                }
                other => panic!("item {idx}: exhausted chain resolved as {other:?}"),
            }
        } else {
            let f = outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("item {idx} (seq {seq}) failed: {e:?}"));
            assert_eq!(
                f.factored_tiles(),
                references[idx].factored_tiles(),
                "item {idx} (seq {seq}) diverged bitwise from its fault-free reference"
            );
        }
    }

    let stats = service.stats();
    assert_eq!(stats.submitted - base_seq, ITEMS as u64);
    assert_eq!(stats.completed, ITEMS as u64 - 1);
    assert_eq!(stats.failed, 1);
    // Exactly the injected transient budget: 2 for the recovered chain,
    // SERVICE_RETRIES for the exhausted one, nothing for the delay.
    assert_eq!(stats.retries, 2 + u64::from(SERVICE_RETRIES));
    assert!(
        stats.mixed_groups >= 1,
        "the alternating two-plan queue must fuse into mixed groups: {stats:?}"
    );
    assert_eq!(service.queue_depth(), 0, "no residue after the round");
}
