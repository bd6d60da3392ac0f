//! Streaming multi-tenant factorization service on top of the session API.
//!
//! A [`QrService`] owns one [`QrContext`] and accepts submissions from many
//! concurrent [`QrClient`] handles. Each accepted submission returns a
//! [`Ticket`] that resolves with that matrix's `Result` **the moment its
//! last task retires** — items stream out of fused pool jobs individually
//! instead of joining at batch boundaries (the job hands each finished copy
//! to the service's sink from the worker that retired its last task).
//!
//! # Admission & backpressure
//!
//! The submission queue is bounded ([`ServiceConfig::queue_capacity`]).
//! [`QrClient::submit_within`] waits for admission up to a timeout,
//! returning [`QrError::QueueFull`] — a *retriable* signal to back off and
//! resubmit — only if space never opened in time; with a zero timeout it is
//! the fast-fail path, and [`QrClient::submit`] is exactly that call at
//! [`Priority::Normal`]: a full queue, a shed priority class or an
//! exhausted per-client quota returns `QueueFull` immediately.
//! Deterministic input errors are split across the two natural boundaries:
//! a wrong shape is rejected **at submit** (it is metadata, checked in
//! O(1)), while the opt-in non-finite scan runs at dispatch and resolves the
//! ticket with [`QrError::NonFiniteInput`] — never retried.
//!
//! # Fairness & shedding
//!
//! Every client handle created by [`QrService::client`] is an independent
//! tenant with its own FIFO lane and in-flight quota
//! ([`ServiceConfig::per_client_quota`] bounds queued + running + awaiting
//! retry). The dispatcher dequeues lanes with a deficit round-robin: each
//! non-empty lane accrues a quantum equal to **its own** head-of-line task
//! count (so every lane can always afford its next item, and a tenant
//! running large plans never inflates a small-plan tenant's budget) and
//! spends it on its queued items' DAG sizes — a tenant flooding the queue
//! gets a proportional share, not the whole pool.
//! Under saturation ([`ServiceConfig::shed_threshold`] queued or more),
//! new [`Priority::Low`] work is shed at admission with `QueueFull`
//! (counted in [`ServiceStats::shed`]) so latency-sensitive work keeps a
//! bounded queue ahead of it; `Normal` admission is bounded only by
//! `queue_capacity` (and the quota).
//!
//! # Deadlines
//!
//! Admission has its own bound, the `submit_within` timeout. The run of a
//! fused group is bounded like every job of the service's context: by its
//! deadline ([`QrContext::with_deadline`], measured from the group's start),
//! its stall watchdog and its cancellation token.
//!
//! # Mixed-plan fused groups
//!
//! A fused group may span **different plans** — shapes, tile sizes and
//! elimination trees. The runtime maps each global task id `g` to
//! `(copy, local)` through a per-item offset table: copy `i` owns the
//! contiguous id range `[offset[i], offset[i+1])` where `offset` is the
//! prefix sum of the items' DAG sizes, so `copy = partition_point(offset,
//! ≤ g) − 1` and `local = g − offset[copy]`. Successor release and
//! `T`-factor recycling both follow that per-copy contract,
//! and the group's worker workspaces are sized by its largest tile order.
//! Same-plan groups run on the same map and execute bitwise-identically
//! to the single-plan service. Per-item tiling happens *inside* the fused job
//! (each tile is filled from the dense input by the first task that names
//! it, on whichever worker runs that task), so the dispatcher thread stays
//! responsive regardless of group size.
//!
//! # Retry
//!
//! Items that fail with a *transient* error ([`QrError::is_transient`]:
//! `TaskPanicked`, `Stalled`) are re-run up to
//! [`RetryPolicy::max_retries`] times with decorrelated-jitter backoff
//! (`delay = min(max_delay, rand(base_delay, 3 × previous))`). The dense
//! input is retained until resolution, so every attempt re-tiles from the
//! pristine matrix. Deterministic errors (`ShapeMismatch`,
//! `NonFiniteInput`, cancellation causes) are **never** retried. Each
//! attempt runs under fresh fault-injection probe coordinates
//! ([`probe_id`]), so a seeded chaos schedule can fault attempt 0 and
//! spare attempt 1.
//!
//! # Shutdown ordering
//!
//! [`QrService::shutdown`] (also run on drop) marks the service closed,
//! wakes every blocked submitter (they return
//! [`QrError::ServiceShutdown`]), lets the in-flight fused job drain —
//! running items resolve with their real outcome — and then resolves every
//! still-queued or awaiting-retry item with `ServiceShutdown`. No ticket
//! is ever leaked: every accepted submission's ticket resolves exactly
//! once, in every outcome, including a dispatcher panic (a drain guard
//! performs the same sweep on unwind).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tileqr_matrix::rng::Rng;
use tileqr_matrix::{Matrix, Scalar};

use crate::context::{deadline_in, ItemSink, QrContext, QrError, QrPlan, StreamEntry, StreamInput};
use crate::driver::QrFactorization;
use crate::state::FactoredParts;
use crate::sync::shim::{AtomicU64, AtomicUsize};
use crate::sync::{Condvar, LazyCondvar, Mutex, OnceSlot};

/// Probe-id stride between retry attempts of one submission.
///
/// Attempt `k` of the submission with sequence number `seq` probes the
/// fault-injection plan at copy coordinate [`probe_id`]`(seq, k)` `= seq +
/// k · RETRY_PROBE_STRIDE`, so a seeded chaos schedule can fault specific
/// attempts of specific items (e.g. fail attempts 0 and 1, let attempt 2
/// succeed) even though concurrent submission order is nondeterministic.
pub const RETRY_PROBE_STRIDE: u64 = 1 << 40;

/// The fault-injection probe coordinate of attempt `attempt` of the
/// submission with sequence number `seq` (see [`RETRY_PROBE_STRIDE`]).
pub fn probe_id(seq: u64, attempt: u32) -> usize {
    (seq + u64::from(attempt) * RETRY_PROBE_STRIDE) as usize
}

/// Admission priority of a submission. Priority affects **load shedding
/// only** — it never reorders execution among admitted items (fairness is
/// per-client, not per-priority).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first: rejected at admission once the queue reaches
    /// [`ServiceConfig::shed_threshold`].
    Low,
    /// Admitted until the queue is full; use with
    /// [`QrClient::submit_within`] for work that should wait out a burst
    /// rather than shed.
    #[default]
    Normal,
}

/// Bounded-retry policy for transient faults (see the
/// [module docs](self#retry)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-runs after the initial attempt (0 disables retry). An item that
    /// exhausts its retries resolves with the *last* attempt's error.
    pub max_retries: u32,
    /// Lower bound of every backoff draw.
    pub base_delay: Duration,
    /// Upper bound of every backoff draw.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Tuning knobs of a [`QrService`]; start from `ServiceConfig::default()`
/// and override with the `with_*` builders. Out-of-range values are
/// clamped to sane bounds at service construction (capacity and quota to
/// at least 1, the shed threshold to at most the capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Hard bound on queued (admitted, not yet dispatched) submissions.
    pub queue_capacity: usize,
    /// Queue depth at which new [`Priority::Low`] work is shed.
    pub shed_threshold: usize,
    /// Per-client bound on unresolved items (queued + running + awaiting
    /// retry).
    pub per_client_quota: usize,
    /// Largest number of same-plan items fused into one pool job per
    /// dispatch round — bounds how long a round can keep the dispatcher
    /// busy before it re-examines the queue.
    pub max_group: usize,
    /// Transient-fault retry policy.
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            shed_threshold: 192,
            per_client_quota: 128,
            max_group: 8,
            retry: RetryPolicy::default(),
        }
    }
}

impl ServiceConfig {
    /// [`ServiceConfig::queue_capacity`] builder.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// [`ServiceConfig::shed_threshold`] builder. Setting it equal to the
    /// queue capacity disables priority shedding.
    pub fn with_shed_threshold(mut self, threshold: usize) -> Self {
        self.shed_threshold = threshold;
        self
    }

    /// [`ServiceConfig::per_client_quota`] builder.
    pub fn with_client_quota(mut self, quota: usize) -> Self {
        self.per_client_quota = quota;
        self
    }

    /// [`ServiceConfig::max_group`] builder.
    pub fn with_max_group(mut self, max_group: usize) -> Self {
        self.max_group = max_group;
        self
    }

    /// [`ServiceConfig::retry`] builder.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    fn clamped(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.shed_threshold = self.shed_threshold.min(self.queue_capacity);
        self.per_client_quota = self.per_client_quota.max(1);
        self.max_group = self.max_group.max(1);
        self
    }
}

/// Monotonic lifetime counters of a [`QrService`]
/// ([`QrService::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected at admission (full queue, shed, quota,
    /// blocking-submit deadline) — [`ServiceStats::shed`] is the
    /// priority-shed subset.
    pub rejected: u64,
    /// Rejections due to priority shedding specifically.
    pub shed: u64,
    /// Tickets resolved `Ok`.
    pub completed: u64,
    /// Tickets resolved `Err` (including `ServiceShutdown` drains).
    pub failed: u64,
    /// Retry attempts scheduled after transient faults.
    pub retries: u64,
    /// Fused groups launched by the dispatcher.
    pub groups: u64,
    /// Items those groups carried (`group_items / groups` = average fused
    /// width — the mixed-plan fusing payoff in one number).
    pub group_items: u64,
    /// Groups that fused items of at least two distinct plans.
    pub mixed_groups: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
}

/// The streaming result handle of one accepted submission: resolves
/// exactly once with the matrix's [`QrFactorization`] or its typed error.
/// Dropping an unresolved ticket is safe — the service still runs (or
/// drains) the item; only the result is discarded.
pub struct Ticket<T: Scalar<Real = f64>> {
    seq: u64,
    slot: Arc<OnceSlot<Result<QrFactorization<T>, QrError>>>,
}

impl<T: Scalar<Real = f64>> Ticket<T> {
    /// The submission's service-wide sequence number (assigned at
    /// admission, dense over accepted submissions) — the key fault
    /// schedules use to address this item ([`probe_id`]).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True once the result is available ([`Ticket::wait`] will not
    /// block).
    pub fn is_ready(&self) -> bool {
        self.slot.is_set()
    }

    /// Blocks until the item resolves and returns its outcome.
    pub fn wait(self) -> Result<QrFactorization<T>, QrError> {
        self.slot.wait()
    }

    /// [`Ticket::wait`] bounded by `timeout`: the outcome if the item
    /// resolved in time, otherwise the ticket itself back, still valid. A
    /// `timeout` too large to represent as an [`Instant`] (e.g.
    /// [`Duration::MAX`]) waits like [`Ticket::wait`].
    #[allow(clippy::result_large_err)]
    pub fn wait_for(
        self,
        timeout: Duration,
    ) -> Result<Result<QrFactorization<T>, QrError>, Ticket<T>> {
        let Some(deadline) = deadline_in(timeout) else {
            return Ok(self.slot.wait());
        };
        match self.slot.wait_deadline(deadline) {
            Some(outcome) => Ok(outcome),
            None => Err(self),
        }
    }
}

impl<T: Scalar<Real = f64>> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("seq", &self.seq)
            .field("ready", &self.slot.is_set())
            .finish()
    }
}

/// One accepted submission, retained until its ticket resolves (the dense
/// input survives across retry attempts so every attempt re-tiles from
/// pristine values).
struct PendingItem<T: Scalar<Real = f64>> {
    seq: u64,
    client: u64,
    attempt: u32,
    prev_delay: Duration,
    /// Shared with the in-flight job (each tile's first task fills the tile
    /// from it — see [`run_group`]) while the service retains it for
    /// potential retries.
    a: Arc<Matrix<T>>,
    plan: Arc<QrPlan<T>>,
    slot: Arc<OnceSlot<Result<QrFactorization<T>, QrError>>>,
}

/// One tenant's FIFO lane plus its deficit-round-robin balance.
struct ClientLane<T: Scalar<Real = f64>> {
    client: u64,
    deficit: usize,
    items: VecDeque<PendingItem<T>>,
}

/// Everything guarded by the service's one mutex.
struct ServiceInner<T: Scalar<Real = f64>> {
    lanes: Vec<ClientLane<T>>,
    /// Round-robin scan position over `lanes` (modulo the current length).
    rr_cursor: usize,
    /// Total queued items across lanes (admission-bounded).
    depth: usize,
    /// Items awaiting a retry attempt, with their due time. Not counted
    /// against `depth` — they were admitted once and re-enter their lane
    /// without a second admission check — but still held against their
    /// client's quota.
    delayed: Vec<(Instant, PendingItem<T>)>,
    /// Unresolved items per client (queued + running + awaiting retry);
    /// the quota denominator.
    outstanding: HashMap<u64, usize>,
    shutdown: bool,
}

impl<T: Scalar<Real = f64>> ServiceInner<T> {
    /// `client`'s lane, opened at the back of the rotation on first use.
    fn lane(&mut self, client: u64) -> &mut ClientLane<T> {
        let lanes = &mut self.lanes;
        let at = lanes.iter().position(|l| l.client == client);
        let at = at.unwrap_or_else(|| {
            lanes.push(ClientLane {
                client,
                deficit: 0,
                items: VecDeque::new(),
            });
            lanes.len() - 1
        });
        &mut lanes[at]
    }
}

struct StatCells {
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    groups: AtomicU64,
    group_items: AtomicU64,
    mixed_groups: AtomicU64,
    max_queue_depth: AtomicUsize,
}

struct Shared<T: Scalar<Real = f64>> {
    ctx: QrContext,
    cfg: ServiceConfig,
    inner: Mutex<ServiceInner<T>>,
    /// Wakes the dispatcher: new work, a due retry, or shutdown.
    work_cv: Condvar,
    /// Wakes blocked [`QrClient::submit_within`] callers: freed queue
    /// space or quota, or shutdown. Notified only when someone is waiting
    /// (the waiter counter lives inside the [`LazyCondvar`]).
    space_cv: LazyCondvar,
    next_client: AtomicU64,
    next_seq: AtomicU64,
    /// Backoff jitter source (deterministic seed: backoff spread needs no
    /// entropy, and reproducible delays keep the chaos suite replayable).
    rng: Mutex<Rng>,
    stats: StatCells,
}

/// Why an admission attempt did not accept the submission.
enum AdmitErr {
    /// Queue at capacity (or the blocking path timed out there).
    Full,
    /// Priority-shed: `Low` work while the queue is at or past the shed
    /// threshold.
    Shed,
    /// The client's unresolved-item quota is exhausted.
    Quota,
    /// The service is shutting down.
    Shutdown,
}

impl<T: Scalar<Real = f64>> Shared<T> {
    /// Admission check under the inner lock; does not enqueue.
    fn check_admission(
        &self,
        inner: &ServiceInner<T>,
        client: u64,
        priority: Priority,
    ) -> Result<(), AdmitErr> {
        if inner.shutdown {
            return Err(AdmitErr::Shutdown);
        }
        if inner.depth >= self.cfg.queue_capacity {
            return Err(AdmitErr::Full);
        }
        if priority == Priority::Low && inner.depth >= self.cfg.shed_threshold {
            return Err(AdmitErr::Shed);
        }
        if inner.outstanding.get(&client).copied().unwrap_or(0) >= self.cfg.per_client_quota {
            return Err(AdmitErr::Quota);
        }
        Ok(())
    }

    /// Enqueues an admitted submission and returns its ticket. Caller must
    /// have passed [`Shared::check_admission`] under the same lock guard.
    fn enqueue(
        &self,
        inner: &mut ServiceInner<T>,
        client: u64,
        a: Matrix<T>,
        plan: Arc<QrPlan<T>>,
    ) -> Ticket<T> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(OnceSlot::new());
        let item = PendingItem {
            seq,
            client,
            attempt: 0,
            prev_delay: self.cfg.retry.base_delay,
            a: Arc::new(a),
            plan,
            slot: Arc::clone(&slot),
        };
        inner.lane(client).items.push_back(item);
        inner.depth += 1;
        *inner.outstanding.entry(client).or_insert(0) += 1;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .max_queue_depth
            .fetch_max(inner.depth, Ordering::Relaxed);
        Ticket { seq, slot }
    }

    /// Maps an admission failure to its client-facing error and counts it.
    fn reject(&self, err: AdmitErr) -> QrError {
        match err {
            AdmitErr::Shutdown => QrError::ServiceShutdown,
            AdmitErr::Shed => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                QrError::QueueFull
            }
            AdmitErr::Full | AdmitErr::Quota => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                QrError::QueueFull
            }
        }
    }

    /// Delivers an item's final outcome: resolves the ticket, releases the
    /// quota slot and wakes blocked submitters.
    fn resolve(&self, item: PendingItem<T>, outcome: Result<QrFactorization<T>, QrError>) {
        match &outcome {
            Ok(_) => self.stats.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        {
            let mut inner = self.inner.lock();
            if let Some(count) = inner.outstanding.get_mut(&item.client) {
                *count -= 1;
                if *count == 0 {
                    inner.outstanding.remove(&item.client);
                }
            }
        }
        item.slot.set(outcome);
        self.space_cv.notify_all_if_waiting();
    }

    /// Outcome routing of a finished attempt: transient failures with
    /// retries left re-enter the delayed list with decorrelated backoff;
    /// everything else resolves the ticket. During shutdown nothing is
    /// retried — the item surfaces its original fault.
    fn finish_attempt(
        &self,
        mut item: PendingItem<T>,
        outcome: Result<QrFactorization<T>, QrError>,
    ) {
        if let Err(e) = &outcome {
            if e.is_transient() && item.attempt < self.cfg.retry.max_retries {
                let mut inner = self.inner.lock();
                if !inner.shutdown {
                    let delay = self.next_delay(item.prev_delay);
                    item.prev_delay = delay;
                    item.attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    inner.delayed.push((Instant::now() + delay, item));
                    drop(inner);
                    self.work_cv.notify_one();
                    return;
                }
            }
        }
        self.resolve(item, outcome);
    }

    /// One decorrelated-jitter draw:
    /// `min(max_delay, rand(base_delay, 3 × prev))`.
    fn next_delay(&self, prev: Duration) -> Duration {
        let lo = self.cfg.retry.base_delay.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let draw = lo + self.rng.lock().next_u64() % (hi - lo);
        Duration::from_nanos(draw).min(self.cfg.retry.max_delay)
    }

    fn stats_snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            groups: self.stats.groups.load(Ordering::Relaxed),
            group_items: self.stats.group_items.load(Ordering::Relaxed),
            mixed_groups: self.stats.mixed_groups.load(Ordering::Relaxed),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// The per-group [`ItemSink`]: adapts the job's worker-thread completion
/// hook ([`QrContext::run`]) to the service's retry/resolve routing.
struct GroupSink<T: Scalar<Real = f64>> {
    shared: Arc<Shared<T>>,
    items: Vec<Mutex<Option<PendingItem<T>>>>,
}

impl<T: Scalar<Real = f64>> ItemSink<T> for GroupSink<T> {
    fn item_done(&self, index: usize, parts: FactoredParts<T>, err: Option<QrError>) {
        let item = self.items[index]
            .lock()
            .take()
            .expect("the job delivers each item exactly once");
        let (tiles, reflectors) = item.plan.conclude(parts, err);
        let outcome = reflectors.map(|r| r.into_factorization(tiles));
        self.shared.finish_attempt(item, outcome);
    }
}

/// A streaming, multi-tenant factorization service (see the
/// [module docs](self)). Owns a [`QrContext`] and a dispatcher thread;
/// hand out per-tenant [`QrClient`]s with [`QrService::client`].
pub struct QrService<T: Scalar<Real = f64>> {
    shared: Arc<Shared<T>>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<T: Scalar<Real = f64>> std::fmt::Debug for QrService<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrService")
            .field("config", &self.shared.cfg)
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar<Real = f64>> QrService<T> {
    /// Starts the service: takes ownership of `ctx` (its pool executes
    /// every submission) and spawns the dispatcher thread. Fails with
    /// [`QrError::ThreadSpawn`] if the dispatcher thread cannot start.
    pub fn new(ctx: QrContext, config: ServiceConfig) -> Result<Self, QrError> {
        let shared = Arc::new(Shared {
            ctx,
            cfg: config.clamped(),
            inner: Mutex::new(ServiceInner {
                lanes: Vec::new(),
                rr_cursor: 0,
                depth: 0,
                delayed: Vec::new(),
                outstanding: HashMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            space_cv: LazyCondvar::new(),
            next_client: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            rng: Mutex::new(Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15)),
            stats: StatCells {
                submitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                groups: AtomicU64::new(0),
                group_items: AtomicU64::new(0),
                mixed_groups: AtomicU64::new(0),
                max_queue_depth: AtomicUsize::new(0),
            },
        });
        let for_thread = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("tileqr-service".into())
            .spawn(move || dispatch_loop(for_thread))
            .map_err(|e| QrError::ThreadSpawn {
                details: e.to_string(),
            })?;
        Ok(QrService {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// A new client handle — an independent tenant with its own fair-share
    /// lane and quota. Clone the handle to share one tenant identity
    /// across threads.
    pub fn client(&self) -> QrClient<T> {
        QrClient {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Snapshot of the service's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats_snapshot()
    }

    /// Currently queued (admitted, not yet dispatched) submissions.
    pub fn queue_depth(&self) -> usize {
        self.shared.inner.lock().depth
    }

    /// Shuts the service down (see the [module docs](self#shutdown-ordering)):
    /// in-flight items drain with their real outcomes, queued and
    /// awaiting-retry items resolve with [`QrError::ServiceShutdown`], and
    /// the dispatcher thread is joined before this returns. Idempotent;
    /// dropping the service does the same. The handle stays usable
    /// afterwards for post-shutdown inspection ([`QrService::stats`],
    /// [`QrService::queue_depth`]).
    pub fn shutdown(&self) {
        self.shared.inner.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all_if_waiting();
        if let Some(handle) = self.dispatcher.lock().take() {
            // A panicked dispatcher already ran its drain guard; the
            // service is still safe to drop.
            let _ = handle.join();
        }
    }
}

impl<T: Scalar<Real = f64>> Drop for QrService<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A tenant handle of a [`QrService`]. Cheap to clone (clones share the
/// tenant's lane and quota); safe to use from many threads at once.
pub struct QrClient<T: Scalar<Real = f64>> {
    shared: Arc<Shared<T>>,
    id: u64,
}

impl<T: Scalar<Real = f64>> Clone for QrClient<T> {
    fn clone(&self) -> Self {
        QrClient {
            shared: Arc::clone(&self.shared),
            id: self.id,
        }
    }
}

impl<T: Scalar<Real = f64>> std::fmt::Debug for QrClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrClient").field("id", &self.id).finish()
    }
}

impl<T: Scalar<Real = f64>> QrClient<T> {
    /// Fast-fail submission at [`Priority::Normal`]: returns a [`Ticket`]
    /// immediately, or a typed rejection without blocking —
    /// [`QrError::ShapeMismatch`] if `a` does not match the plan,
    /// [`QrError::QueueFull`] on a full queue or exhausted quota (retriable:
    /// back off and resubmit), [`QrError::ServiceShutdown`] after shutdown.
    /// The same as [`QrClient::submit_within`] with a zero timeout.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, plan: &Arc<QrPlan<T>>, a: Matrix<T>) -> Result<Ticket<T>, QrError> {
        self.submit_within(plan, a, Priority::Normal, Duration::ZERO)
    }

    /// Submission at `priority` that waits up to `timeout` for admission
    /// (queue space, shed pressure below threshold, quota), returning
    /// [`QrError::QueueFull`] if admission never opened in time and
    /// [`QrError::ServiceShutdown`] if the service closed while waiting.
    /// Shape mismatches still fail immediately. A zero `timeout` never
    /// blocks: it is the fast-fail path, and a rejection counts in
    /// [`ServiceStats::rejected`] (and [`ServiceStats::shed`] for shed
    /// `Low` work) like every other. A `timeout` too large to represent as
    /// an [`Instant`] (e.g. [`Duration::MAX`]) waits for admission without a
    /// deadline.
    #[allow(clippy::result_large_err)]
    pub fn submit_within(
        &self,
        plan: &Arc<QrPlan<T>>,
        a: Matrix<T>,
        priority: Priority,
        timeout: Duration,
    ) -> Result<Ticket<T>, QrError> {
        plan.check_shape(&a)?;
        let deadline = deadline_in(timeout);
        let mut inner = self.shared.inner.lock();
        let ticket = loop {
            match self.shared.check_admission(&inner, self.id, priority) {
                Ok(()) => {
                    break self
                        .shared
                        .enqueue(&mut inner, self.id, a, Arc::clone(plan))
                }
                Err(AdmitErr::Shutdown) => return Err(QrError::ServiceShutdown),
                Err(e) => match deadline {
                    None => inner = self.shared.space_cv.wait(inner),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(self.shared.reject(e));
                        }
                        let (guard, _timed_out) =
                            self.shared.space_cv.wait_timeout(inner, deadline - now);
                        inner = guard;
                    }
                },
            }
        };
        drop(inner);
        self.shared.work_cv.notify_one();
        Ok(ticket)
    }

    /// Snapshot of the service's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats_snapshot()
    }
}

/// Resolves every still-queued and awaiting-retry item with
/// [`QrError::ServiceShutdown`] when the dispatcher exits — normally *or*
/// by panic — so no ticket is ever leaked.
struct DrainGuard<T: Scalar<Real = f64>> {
    shared: Arc<Shared<T>>,
}

impl<T: Scalar<Real = f64>> Drop for DrainGuard<T> {
    fn drop(&mut self) {
        let orphans: Vec<PendingItem<T>> = {
            let mut inner = self.shared.inner.lock();
            // Close admission even on the panic path, so nothing re-enters
            // the queue after the sweep.
            inner.shutdown = true;
            let mut orphans = Vec::with_capacity(inner.depth + inner.delayed.len());
            for lane in &mut inner.lanes {
                orphans.extend(lane.items.drain(..));
            }
            inner.depth = 0;
            orphans.extend(inner.delayed.drain(..).map(|(_, item)| item));
            orphans
        };
        for item in orphans {
            self.shared.resolve(item, Err(QrError::ServiceShutdown));
        }
        self.shared.space_cv.notify_all_if_waiting();
    }
}

/// What one trip through the dispatcher's wait loop decided.
enum Round<T: Scalar<Real = f64>> {
    Run(Vec<PendingItem<T>>),
    Exit,
}

/// The dispatcher thread: waits for work, collects a fair same-plan group,
/// and runs it as one fused streaming job. Single-threaded by design — it
/// is the only pool submitter, so fused jobs never contend, and all
/// fairness state lives under one lock.
fn dispatch_loop<T: Scalar<Real = f64>>(shared: Arc<Shared<T>>) {
    let _drain = DrainGuard {
        shared: Arc::clone(&shared),
    };
    loop {
        let round = {
            let mut inner = shared.inner.lock();
            loop {
                let now = Instant::now();
                promote_due_retries(&mut inner, now);
                // Shutdown wins over queued work: the backlog is *drained*
                // (every queued and delayed item resolves with
                // `ServiceShutdown` via the guard), not run to completion —
                // only the group already in flight finishes with real
                // outcomes.
                if inner.shutdown {
                    break Round::Exit;
                }
                if inner.depth > 0 {
                    break Round::Run(collect_group(&mut inner, shared.cfg.max_group));
                }
                let next_due = inner.delayed.iter().map(|&(due, _)| due).min();
                inner = match next_due {
                    Some(due) => {
                        let (guard, _timed_out) = shared
                            .work_cv
                            .wait_timeout(inner, due.saturating_duration_since(now));
                        guard
                    }
                    None => shared.work_cv.wait(inner),
                };
            }
        };
        match round {
            Round::Exit => break,
            Round::Run(group) => {
                // The dequeue freed queue space; let blocked submitters at
                // it before the (potentially long) fused job runs.
                shared.space_cv.notify_all_if_waiting();
                run_group(&shared, group);
            }
        }
    }
}

/// Moves retry items whose backoff expired back to the *front* of their
/// client's lane (a retry has already waited; new submissions queue behind
/// it). Bypasses admission — the item was admitted once and never left its
/// quota slot.
fn promote_due_retries<T: Scalar<Real = f64>>(inner: &mut ServiceInner<T>, now: Instant) {
    let mut i = 0;
    while i < inner.delayed.len() {
        if inner.delayed[i].0 <= now {
            let (_, item) = inner.delayed.swap_remove(i);
            inner.lane(item.client).items.push_front(item);
            inner.depth += 1;
        } else {
            i += 1;
        }
    }
}

/// Deficit-round-robin dequeue of up to `max_group` items — across
/// plans: the fused job maps global ids through per-item DAG offsets, so
/// lanes with different shapes coalesce into one wide job instead of
/// fragmenting into narrow per-plan rounds. Each visited non-empty lane
/// accrues one quantum equal to **its own** head-of-line task count (so
/// every lane can always afford its next item, and no lane's budget is
/// inflated by another tenant's large plan) and spends it on its items'
/// DAG sizes; unspent deficit carries, capped at two quanta. The scan
/// stops after a full fruitless rotation.
fn collect_group<T: Scalar<Real = f64>>(
    inner: &mut ServiceInner<T>,
    max_group: usize,
) -> Vec<PendingItem<T>> {
    let mut group: Vec<PendingItem<T>> = Vec::new();
    let mut fruitless = 0;
    while group.len() < max_group && inner.depth > 0 && fruitless < inner.lanes.len() {
        let lane_count = inner.lanes.len();
        let lane = &mut inner.lanes[inner.rr_cursor % lane_count];
        inner.rr_cursor = inner.rr_cursor.wrapping_add(1);
        let Some(head) = lane.items.front() else {
            // Standard DRR: an idle lane keeps no balance.
            lane.deficit = 0;
            fruitless += 1;
            continue;
        };
        let quantum = head.plan.task_count().max(1);
        lane.deficit = (lane.deficit + quantum).min(2 * quantum);
        let mut took = false;
        while group.len() < max_group {
            let Some(head) = lane.items.front() else {
                break;
            };
            let cost = head.plan.task_count();
            if lane.deficit < cost {
                break;
            }
            let item = lane.items.pop_front().expect("head exists");
            lane.deficit -= cost;
            inner.depth -= 1;
            group.push(item);
            took = true;
        }
        fruitless = if took { 0 } else { fruitless + 1 };
    }
    inner.lanes.retain(|lane| !lane.items.is_empty());
    group
}

/// Runs one (possibly mixed-plan) group as a fused streaming job.
/// Deterministic input errors (the opt-in non-finite scan, O(m·n) but
/// scan-only) resolve immediately without touching the pool; the rest
/// enter the job as **dense** inputs — each tile is filled by the first task
/// that names it, on the workers, so the dispatcher returns to admission in
/// O(group) instead of blocking for the whole group's tiling time — and
/// stream their outcomes through the [`GroupSink`].
fn run_group<T: Scalar<Real = f64>>(shared: &Arc<Shared<T>>, group: Vec<PendingItem<T>>) {
    let mut runnable: Vec<PendingItem<T>> = Vec::with_capacity(group.len());
    for item in group {
        match item.plan.non_finite_in(&item.a) {
            Some((row, col)) => {
                shared.resolve(item, Err(QrError::NonFiniteInput { row, col }));
            }
            None => runnable.push(item),
        }
    }
    let Some(first) = runnable.first() else {
        return;
    };
    shared.stats.groups.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .group_items
        .fetch_add(runnable.len() as u64, Ordering::Relaxed);
    if runnable
        .iter()
        .any(|item| !Arc::ptr_eq(&item.plan, &first.plan))
    {
        shared.stats.mixed_groups.fetch_add(1, Ordering::Relaxed);
    }
    // The job borrows the plans and the inputs; the items (and their own
    // handles on both) move into the sink and resolve while it runs.
    let plans: Vec<Arc<QrPlan<T>>> = runnable.iter().map(|i| Arc::clone(&i.plan)).collect();
    let inputs: Vec<Arc<Matrix<T>>> = runnable.iter().map(|i| Arc::clone(&i.a)).collect();
    let entries: Vec<StreamEntry<'_, '_, T>> = runnable
        .iter()
        .zip(plans.iter().zip(&inputs))
        .map(|(item, (plan, a))| StreamEntry {
            plan,
            input: StreamInput {
                tiles: None,
                dense: Some(a),
                rhs: Vec::new(),
            },
            probe: probe_id(item.seq, item.attempt),
        })
        .collect();
    let sink = Arc::new(GroupSink {
        shared: Arc::clone(shared),
        items: runnable.into_iter().map(|i| Mutex::new(Some(i))).collect(),
    });
    // The run is bounded like every job of the context: its deadline
    // (measured from the group's start), its stall watchdog, cancellation.
    shared.ctx.run(entries, None, sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamping_keeps_bounds_sane() {
        let cfg = ServiceConfig::default()
            .with_queue_capacity(0)
            .with_shed_threshold(10)
            .with_client_quota(0)
            .with_max_group(0)
            .clamped();
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.shed_threshold, 1);
        assert_eq!(cfg.per_client_quota, 1);
        assert_eq!(cfg.max_group, 1);
    }

    #[test]
    fn probe_ids_separate_attempts() {
        assert_eq!(probe_id(7, 0), 7);
        assert_eq!(probe_id(7, 1), 7 + RETRY_PROBE_STRIDE as usize);
        assert_ne!(probe_id(7, 1), probe_id(8, 0));
    }

    #[test]
    fn basic_submit_resolves_with_a_correct_factorization() {
        use tileqr_matrix::generate::random_matrix;
        let ctx = QrContext::new(2).unwrap();
        let plan = Arc::new(QrPlan::<f64>::new(24, 16, crate::driver::QrConfig::new(8)).unwrap());
        let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
        let client = service.client();
        let a = random_matrix(24, 16, 7);
        let reference = {
            let ctx = QrContext::new(1).unwrap();
            ctx.factorize(&plan, &a).unwrap()
        };
        let ticket = client.submit(&plan, a).unwrap();
        let f = ticket.wait().unwrap();
        assert_eq!(f.r().as_slice(), reference.r().as_slice());
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn shape_mismatch_is_rejected_at_submit() {
        use tileqr_matrix::generate::random_matrix;
        let ctx = QrContext::new(1).unwrap();
        let plan = Arc::new(QrPlan::<f64>::new(24, 16, crate::driver::QrConfig::new(8)).unwrap());
        let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
        let client = service.client();
        let wrong = random_matrix(16, 16, 1);
        match client.submit(&plan, wrong) {
            Err(QrError::ShapeMismatch { expected, got }) => {
                assert_eq!(expected, (24, 16));
                assert_eq!(got, (16, 16));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(service.stats().submitted, 0);
    }

    #[test]
    fn shutdown_drains_queued_items_with_service_shutdown() {
        use tileqr_matrix::generate::random_matrix;
        let ctx = QrContext::new(1).unwrap();
        let plan = Arc::new(QrPlan::<f64>::new(24, 16, crate::driver::QrConfig::new(8)).unwrap());
        let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
        let client = service.client();
        let tickets: Vec<_> = (0..8)
            .map(|s| client.submit(&plan, random_matrix(24, 16, s)).unwrap())
            .collect();
        service.shutdown();
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) | Err(QrError::ServiceShutdown) => {}
                Err(e) => panic!("expected Ok or ServiceShutdown, got {e:?}"),
            }
        }
    }
}
