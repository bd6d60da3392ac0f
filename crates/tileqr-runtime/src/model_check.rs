//! Model-check suites for the runtime's lock-free core.
//!
//! Compiled only under `RUSTFLAGS="--cfg tileqr_verify"` (plus `cargo
//! test`): every suite runs a small closed protocol body through the
//! `tileqr-verify` interleaving explorer — preemption-bounded exhaustive
//! DFS first, seeded random sampling beyond it — and asserts the protocol
//! invariant in every explored schedule. The primitives under test are the
//! *real* ones from [`crate::sync`]: the shim alias layer means the deque
//! verified here is byte-for-byte the deque the executor runs.
//!
//! Budgets are overridable from the environment, so CI can dial exploration
//! up without code changes:
//!
//! * `TILEQR_VERIFY_PREEMPTIONS` — preemption bound for the DFS phase
//! * `TILEQR_VERIFY_DFS_MAX` — execution cap for the DFS phase
//! * `TILEQR_VERIFY_SAMPLES` — seeded random schedules after the DFS
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg tileqr_verify" cargo test -p tileqr-runtime --lib model_check
//! ```

use std::sync::Arc;

use tileqr_core::KernelFamily;
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_verify::cell::RaceCell;
use tileqr_verify::model::{Model, Report};
use tileqr_verify::thread;

use crate::context::{ItemSink, QrError, QrPlan, StreamEntry, StreamInput};
use crate::driver::QrConfig;
use crate::job::{FusedJob, JobCopy, RunCtl};
use crate::pool::Job;
use crate::state::{FactoredParts, FactorizationState};
use crate::sync::shim::AtomicUsize;
use crate::sync::{
    CancelCause, CancelToken, ClaimFlag, LazyCondvar, Mutex, OnceSlot, Steal, WorkerDeque,
};

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A model with the environment-configured budgets applied.
fn model(name: &str) -> Model {
    Model::new(name)
        .with_preemption_bound(env_or("TILEQR_VERIFY_PREEMPTIONS", 2) as usize)
        .with_max_dfs_executions(env_or("TILEQR_VERIFY_DFS_MAX", 50_000))
        .with_random_samples(env_or("TILEQR_VERIFY_SAMPLES", 2_000))
}

/// Asserts the exploration did real work and prints the volume (visible
/// with `--nocapture`; the aggregate test below enforces the global floor).
fn summarize(report: &Report) {
    assert!(report.executions > 0);
    println!(
        "model-check: {} executions, {} distinct interleavings, dfs_complete={}",
        report.executions, report.distinct_interleavings, report.dfs_complete
    );
}

// ---------------------------------------------------------------- deque --

/// SPSC handoff with payload: the owner writes a payload cell, then pushes
/// the index; a stealer that obtains the index reads the payload. The
/// deque's fences must carry the happens-before edge — a missing fence
/// shows up as a `RaceCell` data race, a protocol bug as a lost or
/// duplicated index.
#[test]
fn deque_spsc_steal_handoff() {
    const N: usize = 3;
    let report = model("deque-spsc-handoff").check(|| {
        let deque = Arc::new(WorkerDeque::with_capacity(4));
        let payload: Arc<Vec<RaceCell<usize>>> =
            Arc::new((0..N).map(|_| RaceCell::new(0)).collect());
        let (d2, p2) = (Arc::clone(&deque), Arc::clone(&payload));
        let stealer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 * N {
                match d2.steal() {
                    Steal::Success(i) => {
                        // The payload write must be visible (checker
                        // verifies the happens-before edge on the cell).
                        got.push((i, p2[i].get()));
                    }
                    Steal::Retry | Steal::Empty => {}
                }
            }
            got
        });
        for i in 0..N {
            payload[i].set(100 + i);
            deque.push(i);
        }
        let mut taken: Vec<(usize, usize)> = Vec::new();
        while let Some(i) = deque.pop() {
            taken.push((i, payload[i].get()));
        }
        taken.extend(stealer.join().unwrap());
        // Exactly once, nothing lost, payloads intact.
        let mut ids: Vec<usize> = taken.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..N).collect::<Vec<_>>(), "lost or duplicated index");
        for (i, v) in taken {
            assert_eq!(v, 100 + i, "torn or stale payload for index {i}");
        }
    });
    summarize(&report);
}

/// The classic Chase–Lev corner: one element left, the owner's `pop` races
/// a stealer's `steal`. Exactly one side may win it.
#[test]
fn deque_last_element_pop_vs_steal() {
    let report = model("deque-last-element").check(|| {
        let deque = Arc::new(WorkerDeque::with_capacity(2));
        deque.push(7);
        let d2 = Arc::clone(&deque);
        let stealer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Steal::Success(v) = d2.steal() {
                    got.push(v);
                }
            }
            got
        });
        let mut got = Vec::new();
        if let Some(v) = deque.pop() {
            got.push(v);
        }
        got.extend(stealer.join().unwrap());
        assert_eq!(
            got,
            vec![7],
            "the single element must be taken exactly once"
        );
    });
    summarize(&report);
}

/// Two concurrent stealers against an owner interleaving pushes and pops.
#[test]
fn deque_two_stealers_exactly_once() {
    const N: usize = 4;
    let report = model("deque-two-stealers").check(|| {
        let deque = Arc::new(WorkerDeque::with_capacity(8));
        let mut stealers = Vec::new();
        for _ in 0..2 {
            let d = Arc::clone(&deque);
            stealers.push(thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..N {
                    if let Steal::Success(v) = d.steal() {
                        got.push(v);
                    }
                }
                got
            }));
        }
        let mut taken = Vec::new();
        for i in 0..N {
            deque.push(i);
            if i % 2 == 1 {
                if let Some(v) = deque.pop() {
                    taken.push(v);
                }
            }
        }
        while let Some(v) = deque.pop() {
            taken.push(v);
        }
        for s in stealers {
            taken.extend(s.join().unwrap());
        }
        taken.sort_unstable();
        assert_eq!(
            taken,
            (0..N).collect::<Vec<_>>(),
            "lost or duplicated index"
        );
    });
    summarize(&report);
}

/// Ring wraparound under concurrent stealing: more indices cycle through
/// than the ring holds, so top/bottom wrap the mask while a stealer races.
#[test]
fn deque_wraparound_under_steal() {
    let report = model("deque-wraparound").check(|| {
        let deque = Arc::new(WorkerDeque::with_capacity(2));
        let d2 = Arc::clone(&deque);
        let stealer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..6 {
                if let Steal::Success(v) = d2.steal() {
                    got.push(v);
                }
            }
            got
        });
        let mut taken = Vec::new();
        deque.push(0);
        deque.push(1);
        // Pop before each further push so at most 2 ids are ever live and
        // the capacity-2 ring (mask 1) wraps repeatedly. Steals only shrink
        // the deque, so the owner-side bound holds under any interleaving.
        for i in 2..5usize {
            if let Some(v) = deque.pop() {
                taken.push(v);
            }
            deque.push(i);
        }
        while let Some(v) = deque.pop() {
            taken.push(v);
        }
        taken.extend(stealer.join().unwrap());
        taken.sort_unstable();
        assert_eq!(
            taken,
            (0..5).collect::<Vec<_>>(),
            "wraparound lost an index"
        );
    });
    summarize(&report);
}

// --------------------------------------------------------- cancel token --

/// Two racing causes: exactly one `trigger` wins and `cause` reports the
/// winner, never a mix.
#[test]
fn cancel_token_first_cause_wins() {
    let report = model("cancel-first-cause").check(|| {
        let token = CancelToken::new();
        let t2 = token.clone();
        let racer = thread::spawn(move || t2.trigger(CancelCause::DeadlineExceeded));
        let won_stall = token.trigger(CancelCause::Stalled);
        let won_deadline = racer.join().unwrap();
        assert!(
            won_stall ^ won_deadline,
            "exactly one cause must win the trigger race"
        );
        let cause = token.cause().expect("token must be cancelled");
        let expected = if won_stall {
            CancelCause::Stalled
        } else {
            CancelCause::DeadlineExceeded
        };
        assert_eq!(cause, expected, "cause does not match the CAS winner");
        assert!(token.is_cancelled());
    });
    summarize(&report);
}

/// `reset` racing a `trigger`: the token must end in a coherent state —
/// live, or cancelled with the racer's cause — and a trigger after the
/// dust settles must still work.
#[test]
fn cancel_token_reset_vs_trigger() {
    let report = model("cancel-reset-vs-trigger").check(|| {
        let token = CancelToken::new();
        token.cancel();
        let t2 = token.clone();
        let resetter = thread::spawn(move || t2.reset());
        let won = token.trigger(CancelCause::Stalled);
        resetter.join().unwrap();
        match token.cause() {
            None => {
                // The reset landed last; the token is live again.
                assert!(!token.is_cancelled());
            }
            Some(c) => {
                // Either the original user cancel (reset lost to it? no —
                // reset overwrites unconditionally, so a surviving cause
                // means a trigger landed after the reset) or the stall.
                assert!(
                    c == CancelCause::Stalled || c == CancelCause::Cancelled,
                    "unexpected cause {c:?}"
                );
                if won {
                    // The stall trigger only succeeds after the reset; its
                    // cause must then survive to the end.
                    assert_eq!(c, CancelCause::Stalled);
                }
            }
        }
    });
    summarize(&report);
}

// ------------------------------------------------------------ once slot --

/// Producer vs consumer: the untimed `wait` must always be woken — a lost
/// wakeup in the lazy-notify protocol deadlocks the model and is reported
/// with the exact schedule.
#[test]
fn once_slot_set_vs_wait() {
    let report = model("once-slot-set-vs-wait").check(|| {
        let slot: Arc<OnceSlot<usize>> = Arc::new(OnceSlot::new());
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            s2.set(42);
        });
        let v = slot.wait();
        assert_eq!(v, 42);
        producer.join().unwrap();
    });
    summarize(&report);
}

/// The timed variant with a far-future deadline: the scheduler may fire
/// spurious timeout wakes (bounded), after which the waiter re-checks and
/// waits again; the value must still arrive in every schedule.
#[test]
fn once_slot_set_vs_wait_deadline() {
    let report = model("once-slot-wait-deadline").check(|| {
        let slot: Arc<OnceSlot<usize>> = Arc::new(OnceSlot::new());
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            s2.set(9);
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let v = slot.wait_deadline(deadline);
        assert_eq!(v, Some(9), "value lost despite a never-expiring deadline");
        producer.join().unwrap();
    });
    summarize(&report);
}

/// Two producers racing `set`: exactly one wins (the loser's value is
/// dropped), and a waiting consumer sees the winner's value. `set` is
/// guarded by a [`ClaimFlag`] as in the service's resolve paths, mirroring
/// the completion-vs-shutdown race.
#[test]
fn once_slot_competing_producers_exactly_once() {
    let report = model("once-slot-claim-race").check(|| {
        let slot: Arc<OnceSlot<&'static str>> = Arc::new(OnceSlot::new());
        let claim = Arc::new(ClaimFlag::new());
        let (s2, c2) = (Arc::clone(&slot), Arc::clone(&claim));
        let worker = thread::spawn(move || {
            if c2.claim() {
                s2.set("done");
                true
            } else {
                false
            }
        });
        let drained = if claim.claim() {
            slot.set("shutdown");
            true
        } else {
            false
        };
        let resolved = worker.join().unwrap();
        assert!(
            drained ^ resolved,
            "exactly one path must resolve the ticket"
        );
        let v = slot.wait();
        assert!(v == "done" || v == "shutdown");
    });
    summarize(&report);
}

// --------------------------------------------- backpressure handshake --

/// The admission backpressure handshake of the service layer, reduced to
/// its synchronisation skeleton: a submitter blocks (untimed — a lost
/// wakeup is a deadlock, not a slow retry) until a resolver frees a slot
/// and calls `notify_all_if_waiting` *after* leaving the critical section.
#[test]
fn lazy_condvar_backpressure_handshake() {
    struct State {
        space: bool,
        shutdown: bool,
    }
    let report = model("lazy-condvar-backpressure").check(|| {
        let shared = Arc::new((
            Mutex::new(State {
                space: false,
                shutdown: false,
            }),
            LazyCondvar::new(),
        ));
        let s2 = Arc::clone(&shared);
        let resolver = thread::spawn(move || {
            let (lock, cv) = &*s2;
            {
                let mut st = lock.lock();
                st.space = true;
            }
            cv.notify_all_if_waiting();
        });
        let (lock, cv) = &*shared;
        let mut st = lock.lock();
        while !st.space && !st.shutdown {
            st = cv.wait(st);
        }
        assert!(st.space, "submitter woke without space or shutdown");
        st.space = false; // admit
        drop(st);
        resolver.join().unwrap();
    });
    summarize(&report);
}

/// The shutdown-vs-submit race: shutdown flips the flag under the lock and
/// notifies conditionally; a waiting submitter must always wake and observe
/// it (the service returns `ServiceShutdown`), never sleep forever.
#[test]
fn lazy_condvar_shutdown_wakes_submitter() {
    struct State {
        space: bool,
        shutdown: bool,
    }
    let report = model("lazy-condvar-shutdown").check(|| {
        let shared = Arc::new((
            Mutex::new(State {
                space: false,
                shutdown: false,
            }),
            LazyCondvar::new(),
        ));
        let s2 = Arc::clone(&shared);
        let shutter = thread::spawn(move || {
            let (lock, cv) = &*s2;
            lock.lock().shutdown = true;
            cv.notify_all_if_waiting();
        });
        let (lock, cv) = &*shared;
        let mut st = lock.lock();
        while !st.space && !st.shutdown {
            st = cv.wait(st);
        }
        assert!(
            st.shutdown,
            "no space was ever granted, so this is shutdown"
        );
        drop(st);
        shutter.join().unwrap();
    });
    summarize(&report);
}

// ------------------------------------------------------------ claim flag --

/// Three threads race a [`ClaimFlag`]: exactly one wins.
#[test]
fn claim_flag_exactly_once() {
    let report = model("claim-flag").check(|| {
        let flag = Arc::new(ClaimFlag::new());
        let mut racers = Vec::new();
        for _ in 0..2 {
            let f = Arc::clone(&flag);
            racers.push(thread::spawn(move || f.claim()));
        }
        let mut wins = usize::from(flag.claim());
        for r in racers {
            wins += usize::from(r.join().unwrap());
        }
        assert_eq!(wins, 1, "a ClaimFlag must have exactly one winner");
    });
    summarize(&report);
}

// ------------------------------------------------------------ job models --

/// Tile order of the job models' problem: the smallest whose `GEQRT` is not
/// the identity.
const NB: usize = 2;

/// The factored tiles of the `4 × 2` problem (a `2 × 1` grid: two `GEQRT`s
/// and the `TTQRT` joining them) the job models below run, from a plain
/// in-order walk of its three tasks.
fn tiny_reference(plan: &QrPlan<f64>, a: &Matrix<f64>) -> TiledMatrix<f64> {
    let state = FactorizationState::with_inner_block(TiledMatrix::from_dense_padded(a, NB), NB);
    let mut ws = Workspace::with_inner_block(NB, NB);
    for task in &plan.core.dag.tasks {
        state.run_ws(task.kind, &mut ws);
    }
    state.into_parts().tiles
}

/// The plan names Greedy/TT: the default config's plan depends on the host's
/// core count, and the models below hand-run this plan's three tasks.
fn tiny_problem() -> (QrPlan<f64>, Matrix<f64>) {
    let config = QrConfig::new(NB).with_family(KernelFamily::TT);
    let plan = QrPlan::new(4, 2, config).expect("4 × 2 is tall");
    let a = Matrix::from_col_major(4, 2, vec![3.0, 4.0, 1.0, 2.0, 5.0, -1.0, 2.0, 6.0]);
    (plan, a)
}

// -------------------------------------------------- finish exactly once --

/// Counts deliveries and keeps the outcome; the exactly-once oracle of the
/// finish model.
struct CountingSink {
    calls: AtomicUsize,
    outcome: Mutex<Option<(FactoredParts<f64>, Option<QrError>)>>,
}

impl ItemSink<f64> for CountingSink {
    fn item_done(&self, _index: usize, parts: FactoredParts<f64>, err: Option<QrError>) {
        self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        *self.outcome.lock() = Some((parts, err));
    }
}

/// The real [`FusedJob`] — state, tracker, work-stealing scheduler,
/// `drive_worker`, job controls — shaped as the pool runs it: the main
/// thread is worker 0, one spawned helper is worker 1, and a third thread
/// cancels the user token at an arbitrary point, which the workers forward
/// into the job token between tasks. Once the helper is joined, the main
/// thread runs the job-end sweep. The worker performing the copy's last
/// retire and the sweep compete for the copy; the sink must fire exactly
/// once, with `Ok` only for a fully factored copy (tiles bitwise equal to
/// the reference walk — a drain that overtook a running task, or a task that
/// met a drained tile, shows as a mismatch or a panic) and with the
/// cancellation cause otherwise, the tile grid intact either way.
#[test]
fn finish_exactly_once_last_retire_vs_sweep_under_abort() {
    let (plan, a) = tiny_problem();
    let reference = tiny_reference(&plan, &a);
    let report = model("finish-exactly-once")
        .with_max_dfs_executions(env_or("TILEQR_VERIFY_DFS_MAX", 50_000).min(20_000))
        .check(|| {
            let sink = Arc::new(CountingSink {
                calls: AtomicUsize::new(0),
                outcome: Mutex::new(None),
            });
            let entry = StreamEntry {
                plan: &plan,
                input: StreamInput {
                    tiles: Some(TiledMatrix::from_dense_padded(&a, NB)),
                    dense: None,
                    rhs: Vec::new(),
                },
                probe: 0,
            };
            let slots = (0..2)
                .map(|_| {
                    (
                        Workspace::with_inner_block(NB, NB),
                        crate::trace::WorkerTrace::disabled(),
                    )
                })
                .collect();
            let control = RunCtl {
                job_cancel: CancelToken::new(),
                user_cancel: CancelToken::new(),
                deadline: None,
                stall_bound: None,
            };
            let user = control.user_cancel.clone();
            let job = Arc::new(FusedJob::new(
                vec![JobCopy::new(entry)],
                slots,
                control,
                Arc::clone(&sink) as Arc<dyn ItemSink<f64>>,
            ));
            let helper = {
                let job = Arc::clone(&job);
                thread::spawn(move || job.run(1))
            };
            let aborter = thread::spawn(move || user.cancel());
            job.run(0);
            helper.join().unwrap();
            aborter.join().unwrap();
            let job = Arc::into_inner(job).expect("the helper dropped its reference");
            job.finish();
            assert_eq!(
                sink.calls.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "the sink must fire exactly once per copy"
            );
            let (parts, err) = sink.outcome.lock().take().expect("delivered");
            assert_eq!(
                (parts.tiles.tile_rows(), parts.tiles.tile_cols()),
                (2, 1),
                "the caller gets the grid back in every outcome"
            );
            match err {
                None => assert_eq!(parts.tiles, reference, "Ok for a half-factored copy"),
                Some(e) => assert_eq!(e, QrError::Cancelled),
            }
        });
    summarize(&report);
}

// ------------------------------------------------------------ aggregate --

/// Enforces the exploration-volume floor: the combined suites must explore
/// at least 10⁵ distinct interleavings (the checker's coverage claim in the
/// docs). The small protocol models above have tiny *complete* bounded-DFS
/// spaces — re-sampling them cannot yield new schedules — so the floor is
/// carried by a richer model: an owner interleaving pushes and pops against
/// two concurrent stealers under a raised preemption bound, whose bounded
/// schedule space comfortably exceeds the floor; the DFS execution cap,
/// not the space, is the binding limit.
#[test]
fn interleaving_volume_floor() {
    let floor = env_or("TILEQR_VERIFY_VOLUME_FLOOR", 100_000);
    let mut total: u64 = 0;

    let r = Model::new("volume-deque")
        .with_preemption_bound(env_or("TILEQR_VERIFY_PREEMPTIONS", 2) as usize + 2)
        .with_max_dfs_executions(env_or("TILEQR_VERIFY_DFS_MAX", 50_000).max(110_000))
        .with_random_samples(env_or("TILEQR_VERIFY_SAMPLES", 2_000))
        .explore(|| {
            let deque = Arc::new(WorkerDeque::with_capacity(4));
            let stealers: Vec<_> = (0..2)
                .map(|_| {
                    let d = Arc::clone(&deque);
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        for _ in 0..4 {
                            if let Steal::Success(v) = d.steal() {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut taken = Vec::new();
            for i in 0..4usize {
                deque.push(i);
                if i % 2 == 1 {
                    if let Some(v) = deque.pop() {
                        taken.push(v);
                    }
                }
            }
            while let Some(v) = deque.pop() {
                taken.push(v);
            }
            for s in stealers {
                taken.extend(s.join().unwrap());
            }
            taken.sort_unstable();
            assert_eq!(
                taken,
                (0..4).collect::<Vec<_>>(),
                "an index was lost or duplicated"
            );
        });
    assert!(r.failure.is_none(), "{:?}", r.failure);
    summarize(&r);
    total += r.distinct_interleavings;

    let heavy = |name: &str| {
        Model::new(name)
            .with_preemption_bound(env_or("TILEQR_VERIFY_PREEMPTIONS", 2) as usize + 1)
            .with_max_dfs_executions(env_or("TILEQR_VERIFY_DFS_MAX", 50_000))
            .with_random_samples(env_or("TILEQR_VERIFY_SAMPLES", 2_000))
    };

    let r = heavy("volume-once-slot").check(|| {
        let slot: Arc<OnceSlot<usize>> = Arc::new(OnceSlot::new());
        let s2 = Arc::clone(&slot);
        let producer = thread::spawn(move || {
            s2.set(1);
        });
        assert_eq!(slot.wait(), 1);
        producer.join().unwrap();
    });
    summarize(&r);
    total += r.distinct_interleavings;

    let r = heavy("volume-cancel").check(|| {
        let token = CancelToken::new();
        let t2 = token.clone();
        let racer = thread::spawn(move || t2.trigger(CancelCause::DeadlineExceeded));
        let mine = token.trigger(CancelCause::Stalled);
        let theirs = racer.join().unwrap();
        assert!(mine ^ theirs);
    });
    summarize(&r);
    total += r.distinct_interleavings;

    assert!(
        total >= floor,
        "explored {total} distinct interleavings, below the 10^5 floor \
         (raise TILEQR_VERIFY_SAMPLES)"
    );
}
