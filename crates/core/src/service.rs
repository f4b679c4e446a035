//! The long-lived scan service: a fault-tolerant query front end over
//! the supervised top-k scan pipeline.
//!
//! [`ScanService`] owns a worker thread (and, optionally, a watchdog
//! thread) and turns the one-shot supervised [`scan`] into a resilient
//! control plane with four pillars:
//!
//! - **Resumable queries** — every query runs as a chain of supervised
//!   *segments*; an early stop yields a
//!   [`ResumeToken`] the caller can
//!   feed back through [`ScanService::resume`], and the final top-k is
//!   byte-identical to an uninterrupted scan (see `docs/ROBUSTNESS.md`
//!   for the ratchet-monotonicity soundness argument).
//! - **Retry with bounded backoff** — pairs lost to unrecovered worker
//!   faults, and segments cut short by the watchdog, are requeued with
//!   a deterministic exponential backoff ([`backoff_delay`]) up to
//!   three segment attempts per query. The pause goes
//!   through an injectable [`BackoffTimer`], so tests verify the
//!   schedule without sleeping. Each retry stamps a
//!   [`Fault`](crate::supervisor::Fault) with its attempt number and
//!   backoff into the query's cumulative ledger.
//! - **Admission control + overload shedding** — [`ScanService::try_submit`]
//!   bounds the queue by entry count *and* by total estimated DP cells
//!   (the [`crate::early_termination::estimate_scan_cells`] pricing,
//!   over the pending pairs of a resumed query), answering with typed
//!   [`SubmitError::Overloaded`] / [`SubmitError::Rejected`]
//!   backpressure instead of blocking; past the high watermark the
//!   costliest *queued* queries (never the running one, never the next
//!   to run) are shed.
//! - **Watchdog** — the running segment's `cells_spent` counter doubles
//!   as a progress heartbeat (every supervision checkpoint charges it,
//!   so polling it costs the kernels nothing); a watchdog thread that
//!   sees it stall for [`ServiceConfig::watchdog_timeout`] while a
//!   segment is published trips the segment's [`ScanControl`], which
//!   surfaces as [`StopReason::Watchdog`] and is retried like a fault.
//!
//! Submitted queries are tracked through a [`QueryHandle`] with
//! `cancel` / `poll` / `wait`.
//!
//! ```
//! use std::sync::Arc;
//! use race_logic::alignment::RaceWeights;
//! use race_logic::engine::AlignConfig;
//! use race_logic::service::{ScanRequest, ScanService, ServiceConfig};
//! use rl_bio::{PackedSeq, Seq, alphabet::Dna};
//!
//! let q: Seq<Dna> = "ACTGAGA".parse()?;
//! let db: Arc<Vec<PackedSeq<Dna>>> = Arc::new(
//!     ["GATTCGA", "ACTGAGA", "TTTTTTT"]
//!         .iter()
//!         .map(|s| PackedSeq::from_seq(&s.parse::<Seq<Dna>>().unwrap()))
//!         .collect(),
//! );
//! let service = ScanService::new(ServiceConfig::default());
//! let cfg = AlignConfig::new(RaceWeights::fig4());
//! let handle = service
//!     .try_submit(ScanRequest::new(cfg, PackedSeq::from_seq(&q), db, 1))
//!     .expect("admitted");
//! let report = handle.wait().expect("completed");
//! assert_eq!(report.outcome.hits[0].0, 1); // exact match wins the race
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rl_bio::{alphabet::Symbol, PackedSeq};

use crate::early_termination::{admit, estimate_cells, scan, ScanEntries};
use crate::engine::AlignConfig;
use crate::error::AlignError;
use crate::store::StoreTarget;
use crate::supervisor::{fp_hit, panic_message, ResumeToken, ScanControl, ScanOutcome, StopReason};
use crate::telemetry::{self, flight, Counter, Gauge, QueryTrace, TraceEvent, TraceHandle};

/// Most supervised segments one query runs. Retries happen on
/// unrecovered faults and watchdog trips; deadline, budget and cancel
/// stops finalize immediately.
const MAX_ATTEMPTS: u32 = 3;

/// Tuning knobs of a [`ScanService`]. The defaults admit generously and
/// never shed; production deployments should bound
/// [`max_queued_cells`](ServiceConfig::max_queued_cells) and set a
/// shed watermark below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Most queries the submission queue holds (the running query does
    /// not count). Further submissions get [`SubmitError::Overloaded`].
    pub max_queue: usize,
    /// Most total estimated DP cells the queue may hold.
    pub max_queued_cells: u64,
    /// High watermark: after an admission pushes the queued total past
    /// this, the costliest queued queries (never the running one, never
    /// the front of the queue) are shed until back under.
    pub shed_watermark_cells: u64,
    /// First retry backoff; attempt `n` waits `base · 2^(n-1)`.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff pause.
    pub backoff_cap: Duration,
    /// Progress stall tolerance. `Some(t)`: a watchdog thread trips the
    /// running segment once its `cells_spent` counter stalls for `t`
    /// while a query is executing. `None`: no watchdog thread.
    pub watchdog_timeout: Option<Duration>,
    /// Worker threads per scan segment, the service's own included
    /// (`None` = one per available thread, or `RAYON_NUM_THREADS`).
    pub workers: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue: 64,
            max_queued_cells: u64::MAX,
            shed_watermark_cells: u64::MAX,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            watchdog_timeout: None,
            workers: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the queue-length bound.
    #[must_use]
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the queued-cells admission bound.
    #[must_use]
    pub fn with_max_queued_cells(mut self, cells: u64) -> Self {
        self.max_queued_cells = cells;
        self
    }

    /// Sets the shedding high watermark.
    #[must_use]
    pub fn with_shed_watermark(mut self, cells: u64) -> Self {
        self.shed_watermark_cells = cells;
        self
    }

    /// Sets the backoff schedule: `base · 2^(attempt-1)`, capped.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Enables the watchdog with the given stall tolerance.
    #[must_use]
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog_timeout = Some(timeout);
        self
    }

    /// Pins the scan worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }
}

/// The deterministic backoff schedule: attempt `n` (1-based) waits
/// `base · 2^(n-1)`, saturating at `cap`.
#[must_use]
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    base.saturating_mul(1_u32 << shift).min(cap)
}

/// The clock a [`ScanService`] pauses on between retry attempts.
/// Injectable so tests can record the schedule instead of sleeping.
pub trait BackoffTimer: Send + Sync {
    /// Waits out one backoff pause.
    fn pause(&self, delay: Duration);
}

/// The production [`BackoffTimer`]: `std::thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SleepTimer;

impl BackoffTimer for SleepTimer {
    fn pause(&self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

/// What a scan query races against: an in-memory packed database, or a
/// persistent [`StoreTarget`] (a validated [`crate::store::PackedStore`]
/// plus optional replicas). Both are shared (`Arc`) so many queries can
/// race the same corpus without cloning it per submission.
#[derive(Debug, Clone)]
pub enum ScanSource<S: Symbol> {
    /// An in-memory packed database.
    Memory(Arc<Vec<PackedSeq<S>>>),
    /// A persistent store target: lazily verified and decoded shards,
    /// corruption quarantine, replica fallback, token↔DB content-hash
    /// binding.
    Store(Arc<StoreTarget<S>>),
}

impl<S: Symbol> ScanSource<S> {
    /// Entries in the source.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// `true` when the source holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lends the source as the borrowed view [`scan`] races against.
    #[must_use]
    pub fn entries(&self) -> ScanEntries<'_, S> {
        match self {
            ScanSource::Memory(db) => ScanEntries::Memory(db),
            ScanSource::Store(target) => ScanEntries::Store(target),
        }
    }
}

/// One scan query: the full configuration plus optional per-query
/// bounds.
#[derive(Debug, Clone)]
pub struct ScanRequest<S: Symbol> {
    /// Alignment configuration (mode, band, weights, threshold).
    pub cfg: AlignConfig,
    /// The packed query sequence.
    pub query: PackedSeq<S>,
    /// What to scan: an in-memory database or a persistent store.
    pub source: ScanSource<S>,
    /// How many best hits to keep.
    pub k: usize,
    /// Wall-clock bound, measured from execution start (queue wait does
    /// not count), spanning every segment of the query.
    pub deadline: Option<Duration>,
    /// Total grid-cell budget across every segment of the query.
    pub cells_budget: Option<u64>,
}

impl<S: Symbol> ScanRequest<S> {
    /// An unbounded request over an in-memory database.
    #[must_use]
    pub fn new(
        cfg: AlignConfig,
        query: PackedSeq<S>,
        database: Arc<Vec<PackedSeq<S>>>,
        k: usize,
    ) -> Self {
        ScanRequest {
            cfg,
            query,
            source: ScanSource::Memory(database),
            k,
            deadline: None,
            cells_budget: None,
        }
    }

    /// An unbounded request over a persistent store target.
    #[must_use]
    pub fn from_store(
        cfg: AlignConfig,
        query: PackedSeq<S>,
        target: Arc<StoreTarget<S>>,
        k: usize,
    ) -> Self {
        ScanRequest {
            cfg,
            query,
            source: ScanSource::Store(target),
            k,
            deadline: None,
            cells_budget: None,
        }
    }

    /// Bounds the query by wall-clock time from execution start.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the query by total grid cells.
    #[must_use]
    pub fn with_cells_budget(mut self, cells: u64) -> Self {
        self.cells_budget = Some(cells);
        self
    }
}

/// Typed backpressure from [`ScanService::try_submit`]: the request was
/// **not** enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full (by entry count or by estimated cells). Retry
    /// later, against a less loaded service, or with a cheaper query.
    Overloaded {
        /// Queries currently queued.
        queued: usize,
        /// Estimated DP cells currently queued.
        queued_cells: u64,
        /// Estimated DP cells of the rejected request.
        estimated_cells: u64,
    },
    /// The request itself is invalid (failed the same validation as the
    /// direct scan entry points) — retrying it verbatim cannot succeed.
    Rejected {
        /// Why the request was refused.
        reason: AlignError,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                queued,
                queued_cells,
                estimated_cells,
            } => write!(
                f,
                "scan service overloaded: {queued} queries / {queued_cells} cells queued, \
                 request estimated at {estimated_cells} cells"
            ),
            SubmitError::Rejected { reason } => write!(f, "scan request rejected: {reason}"),
            SubmitError::ShuttingDown => write!(f, "scan service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a submitted query produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query was shed from the queue under overload before running.
    Shed {
        /// The estimated cost that made it the shedding victim.
        estimated_cells: u64,
    },
    /// Every attempt failed in the service control plane itself (only
    /// reachable through injected `service-*` failpoints — the scan
    /// path proper degrades to a partial [`ScanOutcome`] instead).
    Failed {
        /// The final attempt's panic payload or error.
        message: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Shed { estimated_cells } => {
                write!(
                    f,
                    "query shed under overload ({estimated_cells} estimated cells)"
                )
            }
            QueryError::Failed { message } => write!(f, "query failed: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Where a submitted query currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Admitted, waiting for the worker.
    Queued,
    /// Executing a supervised segment.
    Running,
    /// Finished — [`QueryHandle::wait`] returns immediately.
    Done,
    /// Shed from the queue under overload.
    Shed,
}

/// What a finished query returns: the cumulative (possibly partial)
/// scan outcome plus the service-level execution history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// The cumulative scan outcome across every segment; upholds
    /// `completed + faulted + remaining == total`.
    pub outcome: ScanOutcome,
    /// The checkpoint to continue from ([`ScanService::resume`]) when
    /// the query stopped early; `None` when nothing is left to run.
    pub resume: Option<ResumeToken>,
    /// Supervised segments executed (1 = no retries were needed).
    pub attempts: u32,
    /// Watchdog trips absorbed while this query ran.
    pub watchdog_trips: u32,
    /// The query's event timeline: admission, queueing, every segment
    /// start/stop, quarantines, retries, store loads — see
    /// `docs/OBSERVABILITY.md` for the schema.
    pub trace: QueryTrace,
}

enum QueryState {
    Queued,
    Running(Arc<ScanControl>),
    // Boxed: a report (hits, ledger, token) dwarfs the other variants.
    Done(Box<Result<QueryReport, QueryError>>),
    Shed,
}

struct QueryShared {
    id: u64,
    est_cells: u64,
    cancelled: AtomicBool,
    state: Mutex<QueryState>,
    cv: Condvar,
    /// The query's live timeline; snapshotted into the final report.
    trace: TraceHandle,
}

impl QueryShared {
    fn lock(&self) -> MutexGuard<'_, QueryState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn finish(&self, state: QueryState) {
        *self.lock() = state;
        self.cv.notify_all();
    }
}

/// A caller's handle to one submitted query.
pub struct QueryHandle {
    shared: Arc<QueryShared>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.shared.id)
            .field("estimated_cells", &self.shared.est_cells)
            .field("status", &self.poll())
            .finish()
    }
}

impl QueryHandle {
    /// A service-unique query id (submission order).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The admission-control cost estimate of this query, in DP cells.
    #[must_use]
    pub fn estimated_cells(&self) -> u64 {
        self.shared.est_cells
    }

    /// Requests cancellation. A queued query finalizes with a
    /// pre-cancelled (empty) outcome when the worker reaches it; a
    /// running query stops at its next supervision checkpoint with
    /// [`StopReason::Cancelled`] and a resume token. Idempotent.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
        if let QueryState::Running(ctrl) = &*self.shared.lock() {
            ctrl.cancel();
        }
    }

    /// The query's current state, without blocking.
    #[must_use]
    pub fn poll(&self) -> QueryStatus {
        match &*self.shared.lock() {
            QueryState::Queued => QueryStatus::Queued,
            QueryState::Running(_) => QueryStatus::Running,
            QueryState::Done(_) => QueryStatus::Done,
            QueryState::Shed => QueryStatus::Shed,
        }
    }

    /// Blocks until the query finishes (or is shed) and returns its
    /// report.
    pub fn wait(&self) -> Result<QueryReport, QueryError> {
        let mut state = self.shared.lock();
        loop {
            match &*state {
                QueryState::Done(result) => return (**result).clone(),
                QueryState::Shed => {
                    return Err(QueryError::Shed {
                        estimated_cells: self.shared.est_cells,
                    })
                }
                _ => {
                    state = self
                        .shared
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

/// A live snapshot of service counters (see [`ScanService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries waiting in the queue right now.
    pub queued: usize,
    /// Their total estimated DP cells.
    pub queued_cells: u64,
    /// Queries finished (successfully or not) since startup.
    pub completed: u64,
    /// Queries shed under overload since startup.
    pub shed: u64,
    /// Watchdog trips since startup.
    pub watchdog_trips: u64,
    /// The deepest the queue has ever been since startup.
    pub queue_depth_hwm: usize,
    /// Total backoff delay requested between retries since startup.
    pub cumulative_backoff: Duration,
}

struct Job<S: Symbol> {
    req: ScanRequest<S>,
    resume: Option<ResumeToken>,
    shared: Arc<QueryShared>,
}

struct ServiceState<S: Symbol> {
    queue: VecDeque<Job<S>>,
    queued_cells: u64,
    /// The control of the currently executing segment, published for
    /// the watchdog. `None` while the worker is idle or between
    /// segments.
    current: Option<Arc<ScanControl>>,
    /// Bumped at every segment publish so the watchdog can tell a new
    /// segment from the previous one even if the allocator reuses the
    /// control's address.
    segment_seq: u64,
    shutdown: bool,
}

/// The service's lifetime counters, held as telemetry instruments so
/// [`ScanService::stats`] is a registry-backed view: every field is a
/// [`Counter`]/[`Gauge`] of the same kind the global catalog exposes,
/// kept per-instance so concurrent services (tests) don't share state.
/// Each recording also mirrors into the global catalog (gated by
/// [`telemetry::enabled`]).
struct ServiceMetrics {
    completed: Counter,
    shed: Counter,
    watchdog_trips: Counter,
    backoff_nanos: Counter,
    queue_depth_hwm: Gauge,
}

impl ServiceMetrics {
    const fn new() -> Self {
        ServiceMetrics {
            completed: Counter::new("service_completed", "queries completed"),
            shed: Counter::new("service_shed", "queries shed"),
            watchdog_trips: Counter::new("service_watchdog_trips", "watchdog trips"),
            backoff_nanos: Counter::new("service_backoff_nanos", "cumulative backoff ns"),
            queue_depth_hwm: Gauge::new("service_queue_depth_hwm", "queue depth high-water"),
        }
    }
}

struct Inner<S: Symbol> {
    cfg: ServiceConfig,
    timer: Arc<dyn BackoffTimer>,
    state: Mutex<ServiceState<S>>,
    work_cv: Condvar,
    next_id: AtomicU64,
    metrics: ServiceMetrics,
}

impl<S: Symbol> Inner<S> {
    fn lock(&self) -> MutexGuard<'_, ServiceState<S>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The long-lived scan service front end; see the [module docs](self).
///
/// Dropping the service shuts it down gracefully: no new submissions
/// are admitted, already queued queries still run to completion, and
/// both threads are joined.
pub struct ScanService<S: Symbol> {
    inner: Arc<Inner<S>>,
    worker: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl<S: Symbol> ScanService<S> {
    /// Starts a service with the production [`SleepTimer`].
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_timer(cfg, Arc::new(SleepTimer))
    }

    /// Starts a service pausing on an injected [`BackoffTimer`]
    /// (deterministic retry tests).
    #[must_use]
    pub fn with_timer(cfg: ServiceConfig, timer: Arc<dyn BackoffTimer>) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            timer,
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                queued_cells: 0,
                current: None,
                segment_seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            metrics: ServiceMetrics::new(),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        };
        let watchdog = cfg.watchdog_timeout.map(|timeout| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || watchdog_loop(&inner, timeout))
        });
        ScanService {
            inner,
            worker: Some(worker),
            watchdog,
        }
    }

    /// Validates and enqueues a fresh scan query without blocking.
    /// Typed backpressure: [`SubmitError::Overloaded`] when the queue
    /// is full (by count or estimated cells), [`SubmitError::Rejected`]
    /// when the request can never run.
    pub fn try_submit(&self, req: ScanRequest<S>) -> Result<QueryHandle, SubmitError> {
        self.submit_inner(req, None)
    }

    /// Enqueues the continuation of an interrupted query from its
    /// [`ResumeToken`] (carried hits, cumulative ledger, remaining
    /// pairs). The token passes the same check as a direct [`scan`]
    /// resume: it must have been issued for this source and this `k` —
    /// for a store source the token's content hash must match the
    /// target's, so a token can never resume against a rebuilt or
    /// corrupted DB. The admission cost is estimated over the *pending*
    /// pairs only.
    pub fn resume(
        &self,
        req: ScanRequest<S>,
        token: ResumeToken,
    ) -> Result<QueryHandle, SubmitError> {
        self.submit_inner(req, Some(token))
    }

    fn submit_inner(
        &self,
        req: ScanRequest<S>,
        resume: Option<ResumeToken>,
    ) -> Result<QueryHandle, SubmitError> {
        // An injected `service-enqueue` panic surfaces as typed
        // backpressure; the queue and counters are untouched.
        if let Err(payload) = catch_unwind(|| fp_hit("service-enqueue")) {
            telemetry::count(&telemetry::metrics::SERVICE_REJECTED, 1);
            flight::dump("worker-fault");
            return Err(SubmitError::Rejected {
                reason: AlignError::WorkerFault {
                    site: "service-enqueue".into(),
                    message: panic_message(&*payload),
                },
            });
        }
        let entries = req.source.entries();
        if let Err(reason) = admit(&req.cfg, &req.query, entries, req.k, resume.as_ref()) {
            telemetry::count(&telemetry::metrics::SERVICE_REJECTED, 1);
            return Err(SubmitError::Rejected { reason });
        }
        // Admission costing: for a store source every length comes from
        // the manifest, so a cold (just-opened) DB is priced without a
        // single payload chunk touch (regression-tested).
        let pending: Option<Vec<usize>> = resume.as_ref().map(|t| t.pending_indices().collect());
        let est_cells = estimate_cells(&req.cfg, &req.query, entries, pending.as_deref());
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.inner.cfg.max_queue
            || state.queued_cells.saturating_add(est_cells) > self.inner.cfg.max_queued_cells
        {
            telemetry::count(&telemetry::metrics::SERVICE_OVERLOADED, 1);
            return Err(SubmitError::Overloaded {
                queued: state.queue.len(),
                queued_cells: state.queued_cells,
                estimated_cells: est_cells,
            });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = TraceHandle::new(id);
        trace.record(TraceEvent::AdmissionPriced {
            estimated_cells: est_cells,
        });
        let shared = Arc::new(QueryShared {
            id,
            est_cells,
            cancelled: AtomicBool::new(false),
            state: Mutex::new(QueryState::Queued),
            cv: Condvar::new(),
            trace,
        });
        state.queue.push_back(Job {
            req,
            resume,
            shared: Arc::clone(&shared),
        });
        state.queued_cells += est_cells;
        shared.trace.record(TraceEvent::Queued {
            depth: state.queue.len() as u64,
        });
        telemetry::count(&telemetry::metrics::SERVICE_SUBMITTED, 1);
        self.inner
            .metrics
            .queue_depth_hwm
            .set_max(state.queue.len() as u64);
        telemetry::gauge_set(
            &telemetry::metrics::SERVICE_QUEUE_DEPTH,
            state.queue.len() as u64,
        );
        telemetry::gauge_set_max(
            &telemetry::metrics::SERVICE_QUEUE_DEPTH_HWM,
            state.queue.len() as u64,
        );
        let cells_at_admission = state.queued_cells;
        let considered = cells_at_admission > self.inner.cfg.shed_watermark_cells;
        let shed_before = self.inner.metrics.shed.get();
        self.shed_over_watermark(&mut state);
        if considered {
            shared.trace.record(TraceEvent::ShedConsidered {
                queued_cells: cells_at_admission,
                victims: self.inner.metrics.shed.get() - shed_before,
            });
        }
        telemetry::gauge_set(
            &telemetry::metrics::SERVICE_QUEUED_CELLS,
            state.queued_cells,
        );
        drop(state);
        self.inner.work_cv.notify_one();
        Ok(QueryHandle { shared })
    }

    /// Sheds the costliest queued queries (ties: the newest) until the
    /// queued total is back under the watermark. The front of the queue
    /// — the next query to run — is never shed, so admission always
    /// makes progress.
    fn shed_over_watermark(&self, state: &mut ServiceState<S>) {
        while state.queued_cells > self.inner.cfg.shed_watermark_cells && state.queue.len() > 1 {
            let victim = state
                .queue
                .iter()
                .enumerate()
                .skip(1)
                .max_by_key(|(pos, job)| (job.shared.est_cells, *pos))
                .map(|(pos, _)| pos)
                .expect("len > 1");
            let job = state.queue.remove(victim).expect("victim in range");
            state.queued_cells -= job.shared.est_cells;
            self.inner.metrics.shed.inc();
            telemetry::count(&telemetry::metrics::SERVICE_SHED, 1);
            job.shared.trace.record(TraceEvent::Shed {
                estimated_cells: job.shared.est_cells,
            });
            job.shared.finish(QueryState::Shed);
        }
    }

    /// A live snapshot of the queue and lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let state = self.inner.lock();
        let m = &self.inner.metrics;
        ServiceStats {
            queued: state.queue.len(),
            queued_cells: state.queued_cells,
            completed: m.completed.get(),
            shed: m.shed.get(),
            watchdog_trips: m.watchdog_trips.get(),
            queue_depth_hwm: m.queue_depth_hwm.get() as usize,
            cumulative_backoff: Duration::from_nanos(m.backoff_nanos.get()),
        }
    }

    /// Shuts the service down: stops admissions, drains the queue, and
    /// joins both threads. Equivalent to dropping it.
    pub fn shutdown(self) {}
}

impl<S: Symbol> Drop for ScanService<S> {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.work_cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

fn worker_loop<S: Symbol>(inner: &Inner<S>) {
    loop {
        let job = {
            let mut state = inner.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.queued_cells -= job.shared.est_cells;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_job(inner, job);
    }
}

/// Executes one query as a chain of supervised segments with
/// backoff-retried faults; see the module docs for the policy.
fn run_job<S: Symbol>(inner: &Inner<S>, job: Job<S>) {
    let Job {
        req,
        resume,
        shared,
    } = job;
    let service_cfg = &inner.cfg;
    let deadline = req.deadline.map(|d| Instant::now() + d);
    let mut token = resume;
    let mut spent = 0_u64;
    let mut attempts = 0_u32;
    let mut trips_before = inner.metrics.watchdog_trips.get();
    let mut trips = 0_u32;

    let result: Result<QueryReport, QueryError> = loop {
        let mut ctrl = ScanControl::new().with_tracer(shared.trace.clone());
        if let Some(d) = deadline {
            ctrl = ctrl.with_deadline(d);
        }
        if let Some(budget) = req.cells_budget {
            ctrl = ctrl.with_cells_budget(budget.saturating_sub(spent));
        }
        let ctrl = Arc::new(ctrl);
        if shared.cancelled.load(Ordering::Relaxed) {
            ctrl.cancel();
        }
        {
            let mut st = inner.lock();
            st.segment_seq += 1;
            st.current = Some(Arc::clone(&ctrl));
        }
        shared.finish(QueryState::Running(Arc::clone(&ctrl)));
        if let Some(tok) = &token {
            shared.trace.record(TraceEvent::ResumeTokenConsumed {
                pending: tok.pending_indices().count() as u64,
            });
        }
        shared.trace.record(TraceEvent::SegmentStart {
            attempt: u64::from(attempts) + 1,
        });
        // `watchdog-heartbeat` models a worker stuck *outside* the
        // kernels: a Sleep here leaves `cells_spent` frozen at zero with
        // a segment published, so the watchdog trips it before any pair
        // runs.
        let segment = catch_unwind(AssertUnwindSafe(|| {
            fp_hit("watchdog-heartbeat");
            if token.is_some() {
                fp_hit("service-resume");
            }
            scan(
                &req.cfg,
                &req.query,
                req.source.entries(),
                req.k,
                token.clone(),
                service_cfg.workers,
                ctrl.as_ref(),
            )
        }));
        inner.lock().current = None;
        let segment_cells = ctrl.cells_spent();
        spent += segment_cells;
        attempts += 1;
        telemetry::observe(&telemetry::metrics::QUERY_SEGMENT_CELLS, segment_cells);
        let trips_now = inner.metrics.watchdog_trips.get();
        trips += (trips_now - trips_before) as u32;
        trips_before = trips_now;

        let (outcome, next_token) = match segment {
            Ok(Ok(pair)) => pair,
            Ok(Err(err)) => {
                // Unreachable in practice: the request was validated at
                // admission and the token is service-built.
                break Err(QueryError::Failed {
                    message: err.to_string(),
                });
            }
            Err(payload) => {
                // A control-plane panic (injected `service-resume` /
                // `watchdog-heartbeat` failpoint): a failed attempt.
                // The token is untouched, so backoff and re-run it.
                let message = panic_message(&*payload);
                if attempts >= MAX_ATTEMPTS {
                    break Err(QueryError::Failed { message });
                }
                let delay =
                    backoff_delay(service_cfg.backoff_base, service_cfg.backoff_cap, attempts);
                if let Some(tok) = &mut token {
                    tok.push_service_fault("service-resume", Vec::new(), &message, delay, None);
                    tok.retry_faulted();
                }
                shared.trace.record(TraceEvent::Retry {
                    attempt: u64::from(attempts) + 1,
                    backoff: delay,
                });
                telemetry::count(&telemetry::metrics::SERVICE_RETRIES, 1);
                note_backoff(inner, delay);
                inner.timer.pause(delay);
                continue;
            }
        };
        shared.trace.record(TraceEvent::SegmentStop {
            stop: outcome.stop,
            cells: segment_cells,
        });

        let retryable = next_token.as_ref().is_some_and(|t| t.retryable_pairs() > 0)
            || outcome.stop == Some(StopReason::Watchdog);
        if !retryable || attempts >= MAX_ATTEMPTS {
            // Complete, or stopped by deadline/budget/cancel (the
            // caller's bound — honor it), or out of attempts.
            if let Some(tok) = &next_token {
                shared.trace.record(TraceEvent::ResumeTokenIssued {
                    pending: tok.pending_indices().count() as u64,
                });
            }
            break Ok(QueryReport {
                outcome,
                resume: next_token,
                attempts,
                watchdog_trips: trips,
                trace: QueryTrace::default(),
            });
        }
        let Some(mut tok) = next_token else {
            // A stop recorded after the last pair finished: complete.
            break Ok(QueryReport {
                outcome,
                resume: None,
                attempts,
                watchdog_trips: trips,
                trace: QueryTrace::default(),
            });
        };
        // An injected `service-retry` panic abandons the retry and
        // finalizes with the partial outcome instead of wedging.
        if catch_unwind(|| fp_hit("service-retry")).is_err() {
            shared.trace.record(TraceEvent::ResumeTokenIssued {
                pending: tok.pending_indices().count() as u64,
            });
            break Ok(QueryReport {
                outcome,
                resume: Some(tok),
                attempts,
                watchdog_trips: trips,
                trace: QueryTrace::default(),
            });
        }
        let requeued = tok.retryable_indices().to_vec();
        let delay = backoff_delay(service_cfg.backoff_base, service_cfg.backoff_cap, attempts);
        let cause = match outcome.stop {
            Some(StopReason::Watchdog) => "watchdog trip".to_string(),
            _ => format!("{} pair(s) lost to worker faults", requeued.len()),
        };
        tok.push_service_fault(
            "service-retry",
            requeued,
            &format!("{cause}; requeued after {delay:?} backoff"),
            delay,
            outcome.stop,
        );
        tok.retry_faulted();
        token = Some(tok);
        shared.trace.record(TraceEvent::Retry {
            attempt: u64::from(attempts) + 1,
            backoff: delay,
        });
        telemetry::count(&telemetry::metrics::SERVICE_RETRIES, 1);
        note_backoff(inner, delay);
        inner.timer.pause(delay);
    };

    // Snapshot the timeline into the report after its final event.
    let result = result.map(|mut report| {
        report.trace = shared.trace.finish();
        report
    });
    telemetry::observe(&telemetry::metrics::QUERY_ATTEMPTS, u64::from(attempts));
    // Count before publishing so `stats()` is consistent with `wait()`.
    inner.metrics.completed.inc();
    telemetry::count(&telemetry::metrics::SERVICE_COMPLETED, 1);
    shared.finish(QueryState::Done(Box::new(result)));
}

/// Accounts one backoff pause in the service's cumulative-backoff view
/// and the global registry.
fn note_backoff<S: Symbol>(inner: &Inner<S>, delay: Duration) {
    let nanos = delay.as_nanos() as u64;
    inner.metrics.backoff_nanos.add(nanos);
    telemetry::count(&telemetry::metrics::SERVICE_BACKOFF_NANOS, nanos);
}

/// Polls the published segment's `cells_spent` counter — the kernels
/// already charge it at every supervision checkpoint, so it doubles as a
/// free progress heartbeat — and trips the segment's control once the
/// counter stalls for `timeout`. The `segment_seq` key distinguishes a
/// fresh segment from the previous one even when the allocator reuses
/// the control's address.
fn watchdog_loop<S: Symbol>(inner: &Inner<S>, timeout: Duration) {
    // The poll interval is computed once for the thread's lifetime — not
    // per published segment — and every poll is counted, so an armed but
    // idle watchdog is visible in the telemetry snapshot.
    let poll = (timeout / 4).max(Duration::from_millis(1));
    let mut last_progress: Option<(u64, u64)> = None;
    let mut stalled_since: Option<Instant> = None;
    loop {
        std::thread::sleep(poll);
        telemetry::count(&telemetry::metrics::SERVICE_WATCHDOG_POLLS, 1);
        let (shutdown, seq, current) = {
            let state = inner.lock();
            (state.shutdown, state.segment_seq, state.current.clone())
        };
        if shutdown {
            telemetry::gauge_set(&telemetry::metrics::SERVICE_WATCHDOG_ARMED, 0);
            return;
        }
        let Some(ctrl) = current else {
            telemetry::gauge_set(&telemetry::metrics::SERVICE_WATCHDOG_ARMED, 0);
            last_progress = None;
            stalled_since = None;
            continue;
        };
        telemetry::gauge_set(&telemetry::metrics::SERVICE_WATCHDOG_ARMED, 1);
        let progress = (seq, ctrl.cells_spent());
        if last_progress != Some(progress) {
            last_progress = Some(progress);
            stalled_since = None;
            continue;
        }
        let since = *stalled_since.get_or_insert_with(Instant::now);
        if since.elapsed() >= timeout && !ctrl.watchdog_tripped() {
            ctrl.trip_watchdog();
            ctrl.trace(|| TraceEvent::WatchdogTrip);
            inner.metrics.watchdog_trips.inc();
            telemetry::count(&telemetry::metrics::SERVICE_WATCHDOG_TRIPS, 1);
            flight::dump("watchdog");
            stalled_since = None;
        }
    }
}
