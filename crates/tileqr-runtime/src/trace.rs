//! Execution tracing: per-task start/finish timestamps collected while the
//! runtime executes a factorization.
//!
//! The paper's analysis lives entirely in the abstract time unit `nb³/3`;
//! tracing the real execution lets a user check how closely the machine
//! follows the model — per-kernel time breakdowns, the measured makespan,
//! the longest chain actually observed, and a simple parallelism profile.
//! The `schedule_trace` example prints such a report.
//!
//! Tracing stays off the engine's hot path: each worker of a job records
//! into its own local [`WorkerTrace`] buffer (no lock, no allocation once the
//! buffer is reserved) and the buffers are merged into the shared
//! [`ExecutionTrace`] exactly once, when the job ends and drops them. A
//! [`WorkerTrace::disabled`] handle makes every `record` call a true no-op —
//! not even a timestamp is taken — so untraced runs pay nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::Mutex;
use tileqr_core::dag::TaskDag;
use tileqr_core::TaskKind;

/// One traced task execution.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpan {
    /// The kernel that ran.
    pub kind: TaskKind,
    /// Start time, relative to the trace origin.
    pub start: Duration,
    /// End time, relative to the trace origin.
    pub end: Duration,
}

impl TaskSpan {
    /// Wall-clock duration of the task.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A collector of [`TaskSpan`]s, safe to share across the runtime's worker
/// threads. The span storage is reference-counted, so the per-worker buffers
/// of a pool job (which outlive any borrow) can hold on to it.
pub struct ExecutionTrace {
    origin: Instant,
    spans: Arc<Mutex<Vec<TaskSpan>>>,
}

impl Default for ExecutionTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionTrace {
    /// Creates an empty trace whose clock starts now.
    pub fn new() -> Self {
        ExecutionTrace {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` for `kind`, recording its start and end times directly into
    /// the shared span list (one lock per call — fine for sequential or
    /// one-off use; worker threads should use [`ExecutionTrace::worker`]
    /// buffers instead).
    pub fn record<R>(&self, kind: TaskKind, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.lock().push(TaskSpan { kind, start, end });
        out
    }

    /// Creates a lock-free per-worker recording buffer that merges itself
    /// into this trace when dropped (i.e. when its job ends).
    pub fn worker(&self) -> WorkerTrace {
        self.worker_with_capacity(0)
    }

    /// Like [`ExecutionTrace::worker`], but preallocates room for
    /// `capacity` spans so recording never reallocates on the hot path
    /// (size it to the DAG length).
    pub fn worker_with_capacity(&self, capacity: usize) -> WorkerTrace {
        WorkerTrace {
            sink: Some(ExecutionTrace {
                origin: self.origin,
                spans: Arc::clone(&self.spans),
            }),
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Returns the recorded spans. Spans recorded via [`ExecutionTrace::record`]
    /// appear in completion order; spans from [`WorkerTrace`] buffers arrive
    /// as one contiguous batch per worker at job end (completion order
    /// *within* each worker, workers interleaved arbitrarily) — sort by
    /// [`TaskSpan::end`] if a global completion order is needed.
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.spans.lock().clone()
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Builds the summary report.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_spans(&self.spans())
    }
}

/// A per-worker trace buffer: records spans locally without taking any lock,
/// and merges them into the parent [`ExecutionTrace`] when dropped.
///
/// When built with [`WorkerTrace::disabled`] (no sink installed), `record`
/// is a complete no-op — it neither reads the clock nor touches the buffer —
/// so the same task closure serves traced and untraced executions without a
/// hot-path penalty.
pub struct WorkerTrace {
    sink: Option<ExecutionTrace>,
    buf: Vec<TaskSpan>,
}

impl WorkerTrace {
    /// A no-op recorder: every `record` call just runs the closure.
    pub fn disabled() -> Self {
        WorkerTrace {
            sink: None,
            buf: Vec::new(),
        }
    }

    /// Runs `f` for `kind`; when a sink is installed, buffers the span
    /// locally (no lock).
    #[inline]
    pub fn record<R>(&mut self, kind: TaskKind, f: impl FnOnce() -> R) -> R {
        let Some(trace) = &self.sink else {
            return f();
        };
        let start = trace.origin.elapsed();
        let out = f();
        let end = trace.origin.elapsed();
        self.buf.push(TaskSpan { kind, start, end });
        out
    }

    /// Number of spans buffered locally (not yet merged).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl Drop for WorkerTrace {
    fn drop(&mut self) {
        if let Some(trace) = &self.sink {
            trace.spans.lock().append(&mut self.buf);
        }
    }
}

/// Aggregated view of a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total number of tasks.
    pub tasks: usize,
    /// Wall-clock makespan (latest end time).
    pub makespan: Duration,
    /// Sum of the individual task durations (the "work").
    pub total_busy: Duration,
    /// Per-kernel (name, count, total time) breakdown, sorted by total time
    /// descending.
    pub per_kernel: Vec<(&'static str, usize, Duration)>,
}

impl TraceSummary {
    /// Aggregates a list of spans.
    pub fn from_spans(spans: &[TaskSpan]) -> Self {
        let mut makespan = Duration::ZERO;
        let mut total_busy = Duration::ZERO;
        let mut per: std::collections::HashMap<&'static str, (usize, Duration)> =
            std::collections::HashMap::new();
        for s in spans {
            makespan = makespan.max(s.end);
            total_busy += s.duration();
            let e = per
                .entry(s.kind.kernel_name())
                .or_insert((0, Duration::ZERO));
            e.0 += 1;
            e.1 += s.duration();
        }
        let mut per_kernel: Vec<(&'static str, usize, Duration)> =
            per.into_iter().map(|(k, (c, d))| (k, c, d)).collect();
        per_kernel.sort_by_key(|k| std::cmp::Reverse(k.2));
        TraceSummary {
            tasks: spans.len(),
            makespan,
            total_busy,
            per_kernel,
        }
    }

    /// Average parallelism actually achieved: work / makespan.
    pub fn average_parallelism(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_busy.as_secs_f64() / self.makespan.as_secs_f64()
        }
    }
}

/// Compares the traced execution to the abstract model: returns
/// `(measured_parallelism, model_parallelism)` where the model value is
/// `total_weight / critical_path` of the DAG — the speed-up an unbounded
/// machine could reach with the paper's weights.
pub fn parallelism_vs_model(summary: &TraceSummary, dag: &TaskDag) -> (f64, f64) {
    let cp = tileqr_core::sim::simulate_unbounded(dag).critical_path;
    let model = if cp == 0 {
        0.0
    } else {
        dag.total_weight() as f64 / cp as f64
    };
    (summary.average_parallelism(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;

    fn fake_kind(i: usize) -> TaskKind {
        TaskKind::Geqrt { row: i, col: 0 }
    }

    #[test]
    fn record_collects_spans_in_order() {
        let trace = ExecutionTrace::new();
        assert!(trace.is_empty());
        for i in 0..5 {
            let out = trace.record(fake_kind(i), || i * 2);
            assert_eq!(out, i * 2);
        }
        assert_eq!(trace.len(), 5);
        let spans = trace.spans();
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].end, "completion order violated");
        }
        for s in &spans {
            assert!(s.end >= s.start);
        }
    }

    #[test]
    fn summary_aggregates_per_kernel() {
        let trace = ExecutionTrace::new();
        trace.record(TaskKind::Geqrt { row: 0, col: 0 }, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        trace.record(
            TaskKind::Ttqrt {
                row: 1,
                piv: 0,
                col: 0,
            },
            || std::thread::sleep(Duration::from_millis(1)),
        );
        trace.record(TaskKind::Geqrt { row: 1, col: 0 }, || ());
        let s = trace.summary();
        assert_eq!(s.tasks, 3);
        assert!(s.makespan >= Duration::from_millis(3));
        assert!(s.total_busy >= Duration::from_millis(3));
        let geqrt = s.per_kernel.iter().find(|(k, _, _)| *k == "GEQRT").unwrap();
        assert_eq!(geqrt.1, 2);
        assert!(s.average_parallelism() > 0.0);
    }

    #[test]
    fn worker_buffers_merge_on_drop() {
        let trace = ExecutionTrace::new();
        {
            let mut w0 = trace.worker_with_capacity(4);
            let mut w1 = trace.worker();
            for i in 0..3 {
                w0.record(fake_kind(i), || ());
            }
            w1.record(fake_kind(9), || ());
            assert_eq!(w0.buffered(), 3);
            assert_eq!(w1.buffered(), 1);
            // Nothing visible in the shared trace until the workers drop.
            assert!(trace.is_empty());
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.summary().tasks, 4);
    }

    #[test]
    fn disabled_worker_trace_is_a_noop() {
        let mut w = WorkerTrace::disabled();
        let out = w.record(fake_kind(0), || 17);
        assert_eq!(out, 17);
        assert_eq!(w.buffered(), 0);
    }

    #[test]
    fn worker_recording_does_not_lock_the_shared_trace() {
        // Record from a worker while the shared span list is locked: if the
        // worker path took the lock this would deadlock.
        let trace = ExecutionTrace::new();
        let mut w = trace.worker_with_capacity(1);
        let guard = trace.spans.lock();
        w.record(fake_kind(1), || ());
        drop(guard);
        drop(w);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn empty_summary_is_well_defined() {
        let s = TraceSummary::from_spans(&[]);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.average_parallelism(), 0.0);
    }

    #[test]
    fn model_parallelism_matches_weight_over_cp() {
        let dag = tileqr_core::dag::TaskDag::build(
            &Algorithm::Greedy.elimination_list(8, 4),
            KernelFamily::TT,
        );
        let (_, model) = parallelism_vs_model(&TraceSummary::default(), &dag);
        let cp = tileqr_core::sim::simulate_unbounded(&dag).critical_path;
        assert!((model - dag.total_weight() as f64 / cp as f64).abs() < 1e-12);
    }
}
