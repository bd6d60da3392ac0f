//! [`QrError`]: the typed errors of the session API and the service layer.

#[cfg(doc)]
use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::TaskKind;

#[cfg(doc)]
use crate::context::{QrContext, QrPlan, MAX_THREADS};
#[cfg(doc)]
use crate::driver::QrConfig;
use crate::sync::CancelCause;

/// Typed errors of the session API ([`QrContext`] / [`QrPlan`]).
///
/// The legacy free functions ([`crate::driver::qr_factorize`] & co.) keep
/// their documented panicking behavior; the context API reports the same
/// conditions as values.
///
/// # Retry safety
///
/// Service clients ([`crate::service::QrService`]) classify every variant as
/// either **transient** — resubmitting the *same* input later can reasonably
/// succeed — or **deterministic** — the same input will fail the same way, so
/// a retry only burns capacity. [`QrError::is_transient`] encodes the
/// classification, and the service's retry layer consults it: transient
/// failures are retried (bounded attempts, decorrelated backoff),
/// deterministic ones are surfaced immediately. Per-variant docs note which
/// side each lands on; the transient set is [`QrError::TaskPanicked`],
/// [`QrError::Stalled`] and [`QrError::QueueFull`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QrError {
    /// The matrix is wide (`m < n`); tiled QR requires tall or square.
    WideMatrix {
        /// Row count of the offending matrix.
        m: usize,
        /// Column count of the offending matrix.
        n: usize,
    },
    /// The configured tile size is zero.
    ZeroTileSize,
    /// The configured algorithm is a domain tree
    /// ([`Algorithm::PlasmaTree`] or [`Algorithm::HadriTree`]) with domain
    /// size `bs = 0`.
    ZeroDomainSize,
    /// A context with zero worker threads was requested.
    ZeroThreads,
    /// More worker threads than [`MAX_THREADS`] were requested.
    TooManyThreads {
        /// The requested thread count.
        requested: usize,
        /// The maximum the context accepts.
        max: usize,
    },
    /// The dense matrix handed to [`QrContext::factorize`] does not have the
    /// shape the plan was built for.
    ShapeMismatch {
        /// `(m, n)` the plan was built for.
        expected: (usize, usize),
        /// `(m, n)` of the matrix actually supplied.
        got: (usize, usize),
    },
    /// The tiled matrix handed to [`QrContext::factorize_into`] does not
    /// match the plan's tile grid.
    PlanMismatch {
        /// `(p, q, nb)` the plan was built for.
        expected: (usize, usize, usize),
        /// `(p, q, nb)` of the tiles actually supplied.
        got: (usize, usize, usize),
    },
    /// A right-hand side's length does not match the factored matrix.
    RhsLength {
        /// Expected length (`m` of the factored matrix).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A kernel task panicked while factorizing this item. The panic was
    /// contained: only this batch item failed, its sibling items completed
    /// normally, and the pool survived. The item's output (tiles, `T`
    /// factors) holds partial garbage and must be refilled before reuse.
    ///
    /// **Transient** (retry-safe): a contained panic is environmental from
    /// the submitter's point of view (a wedged worker, an injected fault) —
    /// re-running the same input is reasonable and is what the service's
    /// retry layer does.
    TaskPanicked {
        /// The kernel task that panicked.
        kind: TaskKind,
        /// The panic message (string payloads verbatim, a placeholder for
        /// non-string payloads).
        message: String,
    },
    /// The factorization was cancelled through
    /// [`QrContext::cancel_handle`]. Batch items that had already finished
    /// when the cancellation was observed still return `Ok`.
    ///
    /// **Deterministic** (never auto-retried): cancellation is a caller
    /// decision; silently re-running cancelled work would defeat it.
    Cancelled,
    /// The job ran past its context's deadline
    /// ([`QrContext::with_deadline`]). Batch items that had already
    /// finished still return `Ok`.
    ///
    /// **Deterministic** (never auto-retried): the deadline belongs to the
    /// caller; retrying past it cannot make the result arrive in time.
    DeadlineExceeded,
    /// The watchdog ([`QrContext::with_watchdog`]) cancelled the job: a
    /// worker wanted work and no task retired for longer than the configured
    /// bound.
    ///
    /// **Transient** (retry-safe): a stall is a scheduling/environment
    /// pathology, not a property of the input — the chance it recurs on a
    /// fresh run is exactly what bounded retries with backoff are for.
    Stalled,
    /// Spawning a pool worker thread failed ([`QrContext::new`]).
    ThreadSpawn {
        /// The underlying OS error, rendered.
        details: String,
    },
    /// The opt-in [`QrConfig::check_finite`] pre-submission scan found a NaN
    /// or infinity; the input was rejected before any kernel ran and the
    /// caller's buffers are untouched.
    ///
    /// **Deterministic** (never auto-retried): the NaN is in the data; it
    /// will still be there on the next attempt.
    ///
    /// [`QrContext::solve`] scans the right-hand side too: `a` first, then
    /// `b`, so the coordinates may be those of an entry of `b`.
    NonFiniteInput {
        /// Row of the first non-finite entry (column-major scan order).
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
    /// The triangular factor `R` of a least-squares solve has an exactly
    /// zero diagonal entry: `A` is rank deficient and `R·x = Qᴴ·b` has no
    /// unique solution. Reported by [`QrContext::solve`] and the fallible
    /// solves of [`crate::solve`].
    ///
    /// **Deterministic** (never auto-retried): the zero is a property of
    /// the input.
    SingularR {
        /// Index of the first zero diagonal entry met by the back
        /// substitution (which runs from the last row up).
        index: usize,
    },
    /// The service's bounded admission queue rejected the submission: the
    /// queue was at capacity ([`ServiceConfig::queue_capacity`]), the client
    /// was at its in-flight quota, a blocking submit's wait deadline expired
    /// before space appeared, or a low-priority submission was shed under
    /// saturation.
    ///
    /// **Transient** (retry-safe): nothing about the *input* is wrong — the
    /// service is telling the caller to back off and resubmit later. This is
    /// the typed backpressure signal of
    /// [`QrClient::submit`](crate::service::QrClient::submit).
    ///
    /// [`ServiceConfig::queue_capacity`]: crate::service::ServiceConfig::queue_capacity
    QueueFull,
    /// The service was shut down (dropped, or [`QrService::shutdown`] was
    /// called) before this item could run; queued and delayed-for-retry
    /// items are drained with this error rather than left hanging.
    ///
    /// **Deterministic** (never auto-retried by the service — it no longer
    /// exists): the caller may resubmit to a *different* service instance.
    ///
    /// [`QrService::shutdown`]: crate::service::QrService::shutdown
    ServiceShutdown,
}

impl QrError {
    /// Maps a triggered cancel token's cause to the error the affected items
    /// report.
    pub(crate) fn from_cancel(cause: CancelCause) -> QrError {
        match cause {
            CancelCause::Cancelled => QrError::Cancelled,
            CancelCause::DeadlineExceeded => QrError::DeadlineExceeded,
            CancelCause::Stalled => QrError::Stalled,
        }
    }

    /// True for errors where resubmitting the *same* input later can
    /// reasonably succeed — the classification the service's retry layer
    /// and callers' own backoff loops key on (see the
    /// [enum-level docs](QrError#retry-safety)).
    ///
    /// Transient: [`TaskPanicked`](QrError::TaskPanicked),
    /// [`Stalled`](QrError::Stalled), [`QueueFull`](QrError::QueueFull).
    /// Everything else — shape/configuration errors, non-finite inputs,
    /// cancellation, deadlines, shutdown — is deterministic and must not be
    /// blindly retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QrError::TaskPanicked { .. } | QrError::Stalled | QrError::QueueFull
        )
    }
}

impl std::fmt::Display for QrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrError::WideMatrix { m, n } => write!(
                f,
                "tiled QR requires a tall or square matrix (m ≥ n), got {m} × {n}"
            ),
            QrError::ZeroTileSize => write!(f, "tile size must be at least 1"),
            QrError::ZeroDomainSize => write!(f, "domain size BS must be at least 1"),
            QrError::ZeroThreads => write!(f, "a context needs at least one worker thread"),
            QrError::TooManyThreads { requested, max } => {
                write!(f, "{requested} worker threads requested, maximum is {max}")
            }
            QrError::ShapeMismatch { expected, got } => write!(
                f,
                "plan built for a {} × {} matrix, got {} × {}",
                expected.0, expected.1, got.0, got.1
            ),
            QrError::PlanMismatch { expected, got } => write!(
                f,
                "plan built for a {} × {} grid of nb = {} tiles, got {} × {} of nb = {}",
                expected.0, expected.1, expected.2, got.0, got.1, got.2
            ),
            QrError::RhsLength { expected, got } => write!(
                f,
                "right-hand side length {got} does not match the factored row count {expected}"
            ),
            QrError::TaskPanicked { kind, message } => {
                write!(f, "kernel task {kind:?} panicked: {message}")
            }
            QrError::Cancelled => write!(f, "the factorization was cancelled"),
            QrError::DeadlineExceeded => write!(f, "the factorization deadline expired"),
            QrError::Stalled => write!(
                f,
                "a pool worker stalled past the watchdog bound; the job was cancelled"
            ),
            QrError::ThreadSpawn { details } => {
                write!(f, "failed to spawn a pool worker thread: {details}")
            }
            QrError::NonFiniteInput { row, col } => write!(
                f,
                "input contains a non-finite value at row {row}, column {col}"
            ),
            QrError::SingularR { index } => write!(
                f,
                "singular triangular factor: R[{index}, {index}] is exactly zero (rank-deficient A)"
            ),
            QrError::QueueFull => write!(
                f,
                "the service admission queue is full (or the submission was shed); \
                 back off and resubmit"
            ),
            QrError::ServiceShutdown => {
                write!(f, "the service was shut down before this item could run")
            }
        }
    }
}

impl std::error::Error for QrError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MAX_THREADS;

    #[test]
    fn error_messages_are_displayable() {
        let e = QrError::WideMatrix { m: 2, n: 5 };
        assert!(e.to_string().contains("m ≥ n"));
        let e = QrError::TooManyThreads {
            requested: 9999,
            max: MAX_THREADS,
        };
        assert!(e.to_string().contains("9999"));
        let e = QrError::TaskPanicked {
            kind: TaskKind::Geqrt { row: 0, col: 2 },
            message: "boom".into(),
        };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("boom"));
        assert!(QrError::Cancelled.to_string().contains("cancelled"));
        assert!(QrError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(QrError::Stalled.to_string().contains("stalled"));
        let e = QrError::ThreadSpawn {
            details: "out of threads".into(),
        };
        assert!(e.to_string().contains("out of threads"));
        let e = QrError::NonFiniteInput { row: 3, col: 1 };
        assert!(e.to_string().contains("row 3"));
        let e = QrError::SingularR { index: 7 };
        assert!(e.to_string().contains("R[7, 7]"));
        assert!(!e.is_transient());
    }
}
