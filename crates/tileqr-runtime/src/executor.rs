//! The engine-independent reference executors of a task DAG.
//!
//! * [`execute_sequential_with`] walks the tasks in topological order — the
//!   reference for correctness tests;
//! * [`execute_parallel_with_scheduler`] runs the DAG on a scoped set of
//!   worker threads, each driving the crate's one worker loop (`job.rs`)
//!   with no deadline and no stall bound.
//!
//! No factorization path of this crate calls either (every job runs on the
//! persistent pool, `job.rs`); they stay public as the reference that tests
//! compare against and the benchmark ledger times.
//!
//! Both executors thread a per-worker **workspace** through the task
//! closure: `make_ws` is called once per worker thread (and once for the
//! sequential path), and every task executed by that worker receives a
//! mutable reference to its worker's workspace. With
//! [`tileqr_kernels::Workspace`] as the workspace type this makes the hot
//! loop allocation-free: all kernel scratch is preallocated before the first
//! task runs.

use std::any::Any;

use crate::sync::shim::{AtomicBool, AtomicUsize};

use tileqr_core::dag::TaskDag;
use tileqr_core::TaskKind;

use crate::job::{
    dependency_counters, drive_worker, initial_roots, DriveCtl, ItemMap, RunCtl, WorkStealing,
};
use crate::sync::Mutex;

/// Executes every task in topological order, threading a caller-provided
/// workspace through the task closure.
pub fn execute_sequential_with<W, F>(dag: &TaskDag, ws: &mut W, mut run: F)
where
    F: FnMut(TaskKind, &mut W),
{
    for task in &dag.tasks {
        run(task.kind, ws);
    }
}

/// The ready-task policy argument of [`execute_parallel_with_scheduler`].
/// Work stealing is the only policy. The type stays only because the
/// benchmark package passes `SchedulerKind::default()` to that function;
/// it goes once that call drops the argument.
///
/// Why one policy: LIFO owner pops walk the DAG depth-first over the tiles a
/// worker just touched. A critical-path priority order, paired against it on
/// the five benchmark workloads at two workers (2-vCPU AVX-512 host, ten
/// alternating pairs each), lost `tall_factor` throughput in 9 of 10 pairs
/// and won no workload in 9 of 10: there `T / cp` is 5–30, so the critical
/// path never binds the makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Per-worker Chase–Lev deques + global injector; LIFO owner pop, FIFO
    /// steal.
    #[default]
    WorkStealing,
}

/// Executes the DAG on `num_threads` worker threads with one workspace per
/// worker, under the work-stealing scheduler (the one [`SchedulerKind`]).
///
/// Every worker builds its own workspace with `make_ws` when it starts, then
/// repeatedly pops a ready task, runs it against its workspace, and
/// decrements the dependency counters of the task's successors, handing the
/// scheduler every task whose counter reaches zero. The closure must be safe
/// to call concurrently for tasks that are not ordered by the DAG — the
/// state module guarantees this by protecting each tile, with its `T` pair,
/// by its own lock.
///
/// A panicking task stops the other workers and is re-raised here with its
/// own payload once every worker has returned.
///
/// After the setup phase (scheduler buffers and counters sized to the DAG,
/// workspaces built per worker) the loop performs no heap allocations.
pub fn execute_parallel_with_scheduler<W, M, F>(
    dag: &TaskDag,
    num_threads: usize,
    _scheduler: SchedulerKind,
    make_ws: M,
    run: F,
) where
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(TaskKind, &mut W) + Sync,
{
    let n = dag.tasks.len();
    if n == 0 {
        return;
    }
    let num_threads = num_threads.max(1);
    if num_threads == 1 {
        let mut ws = make_ws();
        for task in &dag.tasks {
            run(task.kind, &mut ws);
        }
        return;
    }
    let succ = dag.successors_csr();
    let sched = WorkStealing::new(n, num_threads, initial_roots(dag));
    let remaining = dependency_counters(dag);
    let completed = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let map = ItemMap::from_counts([n]);
    let control = RunCtl::unbounded();
    let ctl = DriveCtl {
        map: &map,
        succ: &[&succ],
        remaining: &remaining,
        completed: &completed,
        aborted: &aborted,
        max_out_degree: succ.max_out_degree(),
        sched: &sched,
        control: &control,
    };
    // The first task panic, re-raised once every worker returned (a scope
    // would replace it with a generic "a scoped thread panicked").
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..num_threads {
            let (ctl, make_ws, run, panic) = (&ctl, &make_ws, &run, &panic);
            scope.spawn(move || {
                let mut ws = make_ws();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    drive_worker(ctl, w, &mut |_copy, local| {
                        run(dag.tasks[local].kind, &mut ws)
                    })
                }));
                if let Err(payload) = result {
                    panic.lock().get_or_insert(payload);
                }
            });
        }
    });
    if let Some(payload) = panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;

    fn sample_dag(p: usize, q: usize) -> TaskDag {
        TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT)
    }

    #[test]
    fn sequential_visits_every_task_once() {
        let dag = sample_dag(6, 3);
        let mut seen = Vec::new();
        execute_sequential_with(&dag, &mut (), |k, _ws| seen.push(k));
        assert_eq!(seen.len(), dag.len());
        let unique: HashSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), dag.len());
    }

    #[test]
    fn parallel_visits_every_task_once() {
        let dag = sample_dag(8, 4);
        let seen = Mutex::new(HashSet::new());
        execute_parallel_with_scheduler(
            &dag,
            4,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| {
                assert!(seen.lock().insert(k), "task executed twice: {k:?}");
            },
        );
        assert_eq!(seen.lock().len(), dag.len());
    }

    #[test]
    fn parallel_respects_dependencies() {
        // Record completion order and verify that every dependency finished
        // before its dependent started. We log positions under a lock.
        let dag = sample_dag(7, 3);
        let order = Mutex::new(Vec::new());
        execute_parallel_with_scheduler(
            &dag,
            3,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| {
                order.lock().push(k);
            },
        );
        let order = order.into_inner();
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        for task in &dag.tasks {
            let me = position[&task.kind];
            for &d in &task.deps {
                let dep = position[&dag.tasks[d].kind];
                assert!(
                    dep < me,
                    "dependency ran after dependent: {:?} -> {:?}",
                    dag.tasks[d].kind,
                    task.kind
                );
            }
        }
    }

    #[test]
    fn empty_dag_is_a_noop() {
        let dag = TaskDag::build(
            &Algorithm::FlatTree.elimination_list(1, 1),
            KernelFamily::TT,
        );
        // a 1x1 grid has a single GEQRT; build a truly empty DAG by filtering
        let empty = TaskDag {
            p: 0,
            q: 0,
            trailing: 0,
            family: KernelFamily::TT,
            tasks: Vec::new(),
        };
        let mut count = 0;
        execute_sequential_with(&empty, &mut (), |_, _ws| count += 1);
        execute_parallel_with_scheduler(
            &empty,
            4,
            SchedulerKind::default(),
            || (),
            |_, _ws: &mut ()| panic!("should not run"),
        );
        assert_eq!(count, 0);
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn single_thread_parallel_falls_back_to_sequential_order() {
        let dag = sample_dag(5, 2);
        let seen = Mutex::new(Vec::new());
        execute_parallel_with_scheduler(
            &dag,
            1,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| seen.lock().push(k),
        );
        let seen = seen.into_inner();
        let sequential: Vec<_> = dag.tasks.iter().map(|t| t.kind).collect();
        assert_eq!(seen, sequential);
    }

    #[test]
    fn each_worker_gets_its_own_workspace() {
        // Workspaces are identified by a creation counter; every task records
        // which workspace it ran with, and the number of distinct workspaces
        // must not exceed the worker count.
        let dag = sample_dag(8, 4);
        let counter = AtomicUsize::new(0);
        let used = Mutex::new(HashSet::new());
        let tasks = Mutex::new(0usize);
        execute_parallel_with_scheduler(
            &dag,
            4,
            SchedulerKind::default(),
            || counter.fetch_add(1, Ordering::SeqCst),
            |_task, ws_id| {
                used.lock().insert(*ws_id);
                *tasks.lock() += 1;
            },
        );
        assert_eq!(*tasks.lock(), dag.len());
        let created = counter.load(Ordering::SeqCst);
        assert_eq!(created, 4, "one workspace per worker");
        assert!(!used.lock().is_empty() && used.lock().len() <= 4);
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        // A panicking task must flag the other workers to exit so the thread
        // scope can join and re-raise the panic (previously the pool spun
        // forever on `completed < n`).
        let dag = sample_dag(8, 4);
        let poison = dag.tasks[dag.len() / 2].kind;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel_with_scheduler(
                &dag,
                4,
                SchedulerKind::default(),
                || (),
                |k, _ws: &mut ()| {
                    if k == poison {
                        panic!("injected task failure");
                    }
                },
            );
        }));
        let payload = result.expect_err("panic was swallowed");
        assert_eq!(
            crate::pool::payload_message(&*payload),
            "injected task failure",
            "the task's own payload is re-raised"
        );
    }

    #[test]
    fn sequential_with_reuses_one_workspace() {
        let dag = sample_dag(5, 2);
        let mut ws = 0usize;
        let mut count = 0usize;
        execute_sequential_with(&dag, &mut ws, |_k, ws| {
            *ws += 1;
            count += 1;
        });
        assert_eq!(ws, dag.len());
        assert_eq!(count, dag.len());
    }
}
