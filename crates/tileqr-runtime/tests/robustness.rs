//! Failure-path coverage of the fault-isolating runtime: cancellation races
//! (before submit, after completion, mid-batch), deadlines (pre-expired and
//! mid-run), context teardown with a call in flight, and the opt-in
//! non-finite input scan. Every test here must terminate without hanging —
//! unbounded waits are exactly the failure mode this layer removes.
//!
//! Panic containment and the watchdog have dedicated suites: the
//! deterministic chaos tests (`chaos_stress.rs`, behind
//! `--features fault-injection`) and the executor's unit tests.

use std::sync::Arc;
use std::time::Duration;

use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::{qr_factorize, QrConfig};
use tileqr_runtime::{QrContext, QrError, QrPlan};

const M: usize = 48;
const N: usize = 32;
const NB: usize = 4;

fn plan() -> QrPlan<f64> {
    QrPlan::new(M, N, QrConfig::new(NB)).expect("valid shape")
}

fn mats(k: usize, seed: u64) -> Vec<Matrix<f64>> {
    (0..k)
        .map(|i| random_matrix(M, N, seed + i as u64))
        .collect()
}

#[test]
fn cancel_before_submit_rejects_everything_and_reset_revives() {
    for threads in [1usize, 4] {
        let ctx = QrContext::new(threads).unwrap();
        let plan = plan();
        let a = &mats(1, 100)[0];
        let handle = ctx.cancel_handle();
        handle.cancel();

        // Dense path: rejected before any kernel ran.
        assert_eq!(ctx.factorize(&plan, a).err(), Some(QrError::Cancelled));

        // In-place path: the caller's buffers come back bitwise untouched.
        let mut tiles: Vec<TiledMatrix<f64>> = mats(3, 110)
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, NB))
            .collect();
        let before = tiles.clone();
        let out = ctx.factorize_batch_into(&plan, &mut tiles);
        assert!(out
            .iter()
            .all(|r| r.as_ref().err() == Some(&QrError::Cancelled)));
        assert_eq!(tiles, before, "pre-cancelled buffers must be untouched");

        // Cancellation is sticky until reset; afterwards the context factors
        // bitwise-correctly again.
        assert_eq!(ctx.factorize(&plan, a).err(), Some(QrError::Cancelled));
        handle.reset();
        let f = ctx.factorize(&plan, a).expect("revived context factors");
        let reference = qr_factorize(a, QrConfig::new(NB));
        assert_eq!(f.factored_tiles(), reference.factored_tiles());
    }
}

#[test]
fn cancel_after_completion_only_affects_later_calls() {
    let ctx = QrContext::new(2).unwrap();
    let plan = plan();
    let a = &mats(1, 120)[0];
    let f = ctx.factorize(&plan, a).expect("uncancelled call succeeds");
    let handle = ctx.cancel_handle();
    handle.cancel();
    // The already-produced factorization is unaffected; the next call fails.
    assert!(f.residual(a) < 1e-11);
    assert_eq!(ctx.factorize(&plan, a).err(), Some(QrError::Cancelled));
    handle.reset();
    assert!(ctx.factorize(&plan, a).is_ok());
}

#[test]
fn mid_batch_cancellation_yields_partial_results_and_a_reusable_context() {
    let ctx = QrContext::new(4).unwrap();
    let plan = plan();
    let k = 8;
    let inputs = mats(k, 130);
    let references: Vec<_> = inputs
        .iter()
        .map(|a| qr_factorize(a, QrConfig::new(NB)))
        .collect();

    let handle = ctx.cancel_handle();
    let canceller = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            // Land somewhere inside the batch; either race outcome (all done
            // or some cancelled) is legal, the assertions below accept both.
            std::thread::sleep(Duration::from_micros(500));
            handle.cancel();
        })
    };
    let batch = ctx.factorize_batch(&plan, &inputs);
    canceller.join().unwrap();
    assert_eq!(batch.len(), k);
    let mut cancelled = 0;
    for (item, reference) in batch.into_iter().zip(&references) {
        match item {
            // Items that finished before the token was observed must be
            // bitwise identical to their fault-free factorization.
            Ok(f) => assert_eq!(f.factored_tiles(), reference.factored_tiles()),
            Err(QrError::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected error from a cancelled batch: {other}"),
        }
    }
    // Sticky until reset; then the same context serves full batches again.
    assert_eq!(
        ctx.factorize(&plan, &inputs[0]).err(),
        Some(QrError::Cancelled)
    );
    handle.reset();
    for (a, item) in inputs.iter().zip(ctx.factorize_batch(&plan, &inputs)) {
        let f = item.expect("batch after reset succeeds");
        let reference = qr_factorize(a, QrConfig::new(NB));
        assert_eq!(f.factored_tiles(), reference.factored_tiles());
    }
    let _ = cancelled; // may be 0..=k depending on the race — both are fine
}

#[test]
fn expired_deadline_rejects_deterministically_with_buffers_untouched() {
    for threads in [1usize, 3] {
        let ctx = QrContext::new(threads).unwrap();
        let plan = plan();
        let inputs = mats(2, 140);
        // A zero timeout has always expired by the pre-submission check, so
        // the outcome is deterministic even on an arbitrarily fast machine.
        let late = ctx.clone().with_deadline(Duration::ZERO);
        let batch = late.factorize_batch(&plan, &inputs);
        assert!(batch
            .iter()
            .all(|r| r.as_ref().err() == Some(&QrError::DeadlineExceeded)));

        let mut tiles: Vec<TiledMatrix<f64>> = inputs
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, NB))
            .collect();
        let before = tiles.clone();
        let out = late.factorize_batch_into(&plan, &mut tiles);
        assert!(out
            .iter()
            .all(|r| r.as_ref().err() == Some(&QrError::DeadlineExceeded)));
        assert_eq!(tiles, before, "pre-expired buffers must be untouched");

        // A deadline failure is per-call, never sticky.
        assert!(ctx.factorize(&plan, &inputs[0]).is_ok());
    }
}

#[test]
fn mid_run_deadline_returns_partial_results() {
    // The caller alone, and the caller beside three helpers: every worker
    // checks the deadline itself.
    for threads in [1usize, 4] {
        let ctx = QrContext::new(threads).unwrap();
        let plan = plan();
        let k = 8;
        let inputs = mats(k, 150);
        let references: Vec<_> = inputs
            .iter()
            .map(|a| qr_factorize(a, QrConfig::new(NB)))
            .collect();
        // Tight but non-zero: whichever items complete must be bitwise right,
        // the rest must report DeadlineExceeded — and the call must return.
        let tight = ctx.clone().with_deadline(Duration::from_micros(300));
        let batch = tight.factorize_batch(&plan, &inputs);
        for (item, reference) in batch.into_iter().zip(&references) {
            match item {
                Ok(f) => assert_eq!(f.factored_tiles(), reference.factored_tiles()),
                Err(QrError::DeadlineExceeded) => {}
                Err(other) => panic!("unexpected error from a deadlined batch: {other}"),
            }
        }
        // Single-matrix deadline variants share the plumbing.
        let relaxed = ctx.clone().with_deadline(Duration::from_secs(60));
        match relaxed.factorize(&plan, &inputs[0]) {
            Ok(f) => assert_eq!(f.factored_tiles(), references[0].factored_tiles()),
            Err(e) => panic!("a 60 s deadline should not fire: {e}"),
        }
    }
}

#[test]
fn a_timeout_beyond_the_clock_means_no_deadline() {
    // `Duration::MAX` from now is no representable instant; it must mean
    // "no deadline", not a panic, and the calls must factor bitwise right.
    for threads in [1usize, 3] {
        let ctx = QrContext::new(threads).unwrap();
        let plan = plan();
        let inputs = mats(2, 220);
        let references: Vec<_> = inputs
            .iter()
            .map(|a| qr_factorize(a, QrConfig::new(NB)))
            .collect();
        let ctx = ctx.with_deadline(Duration::MAX);
        let f = ctx.factorize(&plan, &inputs[0]).expect("no deadline fires");
        assert_eq!(f.factored_tiles(), references[0].factored_tiles());

        let mut tiles: Vec<TiledMatrix<f64>> = inputs
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, NB))
            .collect();
        let out = ctx.factorize_batch_into(&plan, &mut tiles);
        for ((r, t), reference) in out.into_iter().zip(&tiles).zip(&references) {
            r.expect("no deadline fires");
            assert_eq!(t, reference.factored_tiles());
        }
    }
}

#[test]
fn context_teardown_with_a_call_in_flight_does_not_hang() {
    let ctx = Arc::new(QrContext::new(4).unwrap());
    let plan = Arc::new(plan());
    let inputs = mats(4, 160);
    let worker = {
        let ctx = Arc::clone(&ctx);
        let plan = Arc::clone(&plan);
        let inputs = inputs.clone();
        std::thread::spawn(move || {
            ctx.factorize_batch(&plan, &inputs)
                .into_iter()
                .map(|r| r.is_ok())
                .collect::<Vec<_>>()
        })
    };
    // Drop the main handle while the batch is (likely) in flight: the pool
    // tears down only after the last Arc — inside the worker thread — goes
    // away, so the join must complete and every item must have factored.
    drop(ctx);
    let oks = worker.join().expect("in-flight call survives teardown");
    assert!(oks.into_iter().all(|ok| ok));
}

#[test]
fn service_teardown_with_in_flight_submissions_resolves_every_ticket() {
    use tileqr_runtime::service::{QrService, ServiceConfig};
    // A single-threaded context runs fused jobs on the dispatcher thread,
    // so shutting down right after a burst guarantees a mix of in-flight,
    // queued and never-dispatched items.
    for threads in [1usize, 4] {
        let ctx = QrContext::new(threads).unwrap();
        let plan = Arc::new(plan());
        let service = QrService::new(
            ctx,
            ServiceConfig::default()
                .with_queue_capacity(64)
                .with_shed_threshold(64),
        )
        .unwrap();
        let client = service.client();
        let tickets: Vec<_> = mats(24, 400)
            .into_iter()
            .map(|a| client.submit(&plan, a).unwrap())
            .collect();
        // Tear down with most of the burst still pending. Every ticket must
        // resolve — items the dispatcher already ran return their real
        // outcome, the rest drain with the typed shutdown error — and the
        // whole sequence must terminate (no hang, no dropped receiver).
        service.shutdown();
        let mut drained = 0usize;
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Ok(_) => {}
                Err(QrError::ServiceShutdown) => drained += 1,
                Err(e) => panic!("ticket {i}: expected Ok or ServiceShutdown, got {e:?}"),
            }
        }
        // Post-shutdown bookkeeping: everything accounted for, nothing
        // queued, new submissions typed-rejected (no panic, no hang).
        let stats = service.stats();
        assert_eq!(stats.completed + stats.failed, 24);
        assert_eq!(stats.failed as usize, drained);
        assert_eq!(service.queue_depth(), 0);
        assert!(matches!(
            client.submit(&plan, mats(1, 500).pop().unwrap()),
            Err(QrError::ServiceShutdown)
        ));
    }
}

#[test]
fn check_finite_rejects_non_finite_inputs_before_any_kernel() {
    let config = QrConfig::new(NB).with_check_finite(true);
    let plan: QrPlan<f64> = QrPlan::new(M, N, config).unwrap();
    for threads in [1usize, 3] {
        let ctx = QrContext::new(threads).unwrap();
        let mut bad = random_matrix::<f64>(M, N, 170);
        bad.set(2, 1, f64::NAN);
        assert_eq!(
            ctx.factorize(&plan, &bad).err(),
            Some(QrError::NonFiniteInput { row: 2, col: 1 })
        );

        // Batch isolation: the bad item is rejected, its siblings factor.
        let good = mats(2, 180);
        let batch = ctx.factorize_batch(&plan, &[good[0].clone(), bad.clone(), good[1].clone()]);
        assert!(batch[0].is_ok());
        assert_eq!(
            batch[1].as_ref().err(),
            Some(&QrError::NonFiniteInput { row: 2, col: 1 })
        );
        assert!(batch[2].is_ok());

        // In-place path: the offending buffer is rejected bitwise-untouched;
        // infinities count as non-finite too.
        let mut tiles: Vec<TiledMatrix<f64>> = good
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, NB))
            .collect();
        let mut poisoned = random_matrix::<f64>(M, N, 190);
        poisoned.set(7, 0, f64::INFINITY);
        tiles.insert(1, TiledMatrix::from_dense_padded(&poisoned, NB));
        let before = tiles[1].clone();
        let out = ctx.factorize_batch_into(&plan, &mut tiles);
        assert!(out[0].is_ok());
        assert_eq!(
            out[1].as_ref().err(),
            Some(&QrError::NonFiniteInput { row: 7, col: 0 })
        );
        assert!(out[2].is_ok());
        assert_eq!(tiles[1], before, "rejected buffer must be untouched");
    }
    // The scan is opt-in: the same NaN input sails through a default plan.
    let lax: QrPlan<f64> = QrPlan::new(M, N, QrConfig::new(NB)).unwrap();
    let ctx = QrContext::new(1).unwrap();
    let mut bad = random_matrix::<f64>(M, N, 200);
    bad.set(0, 0, f64::NAN);
    assert!(ctx.factorize(&lax, &bad).is_ok());
}

#[test]
fn deadline_and_cancel_errors_are_not_confused() {
    // A pre-expired deadline must never surface as Cancelled or Stalled.
    let ctx = QrContext::new(2).unwrap();
    let plan = plan();
    let a = &mats(1, 210)[0];
    assert_eq!(
        ctx.clone()
            .with_deadline(Duration::ZERO)
            .factorize(&plan, a)
            .err(),
        Some(QrError::DeadlineExceeded)
    );
    ctx.cancel_handle().cancel();
    assert_eq!(ctx.factorize(&plan, a).err(), Some(QrError::Cancelled));
}

#[test]
fn clones_share_the_pool_and_the_cancel_token() {
    for threads in [1usize, 3] {
        let ctx = QrContext::new(threads).unwrap();
        let twin = ctx.clone();
        assert_eq!(twin.threads(), threads);
        let plan = plan();
        let a = &mats(1, 230)[0];
        assert!(twin.factorize(&plan, a).is_ok());
        // Cancelling through one handle stops the other's next call.
        ctx.cancel_handle().cancel();
        assert_eq!(twin.factorize(&plan, a).err(), Some(QrError::Cancelled));
        twin.cancel_handle().reset();
        assert!(ctx.factorize(&plan, a).is_ok());
    }
}

#[test]
fn a_deadline_on_a_clone_leaves_the_original_unbounded() {
    let ctx = QrContext::new(2).unwrap();
    let plan = plan();
    let a = &mats(1, 240)[0];
    let late = ctx.clone().with_deadline(Duration::ZERO);
    assert_eq!(
        late.factorize(&plan, a).err(),
        Some(QrError::DeadlineExceeded)
    );
    let f = ctx
        .factorize(&plan, a)
        .expect("the original has no deadline");
    assert_eq!(
        f.factored_tiles(),
        qr_factorize(a, QrConfig::new(NB)).factored_tiles()
    );
    // The clone's bound is per job, not spent: it still rejects.
    assert_eq!(
        late.factorize(&plan, a).err(),
        Some(QrError::DeadlineExceeded)
    );
}

#[test]
fn solve_honours_the_deadline_and_an_unbounded_clone_still_solves_bitwise() {
    use tileqr_runtime::solve::least_squares_with_factorization;
    let plan = plan();
    let a = &mats(1, 250)[0];
    let b: Matrix<f64> = random_matrix(M, 1, 251);
    let ctx = QrContext::new(2).unwrap();
    let late = ctx.clone().with_deadline(Duration::ZERO);
    assert_eq!(
        late.solve(&plan, a, &b).err(),
        Some(QrError::DeadlineExceeded)
    );
    // The rejected solve parked its tile buffer back in the plan; the next
    // solve refills it.
    let x = ctx.clone().solve(&plan, a, &b).expect("full rank");
    let f = qr_factorize(a, QrConfig::new(NB));
    assert_eq!(
        x.as_slice(),
        least_squares_with_factorization(&f, b.as_slice())
    );
}
