//! Supervised scan execution: cancellation, deadlines, budgets, panic
//! isolation, and a deterministic fault-injection harness.
//!
//! The batch and scan pipelines ([`crate::engine::align_batch`],
//! [`crate::early_termination::scan`]) are built to run as
//! long-lived services over co-batched tenants. This module is the
//! robustness substrate that makes that safe:
//!
//! - [`ScanControl`] — a shared handle carrying a cancellation flag, a
//!   wall-clock deadline, a grid-cell budget, and an optional scratch
//!   memory budget. Supervised entry points check it cooperatively: at
//!   **anti-diagonal granularity** inside the per-pair kernels, at
//!   **stripe-sweep granularity** in the batch pipeline, and between
//!   pairs in the bit-parallel scan units.
//! - [`StopReason`] / [`Fault`] / [`ScanOutcome`] / [`BatchReport`] — the
//!   typed partial-result surface. A stopped or faulted scan returns a
//!   ledger of what completed, what faulted, and why, instead of
//!   panicking or blocking. Invariant (tested): `completed_pairs +
//!   faulted_pairs + remaining_pairs() == total_pairs`.
//! - **Panic isolation** — every work unit (a stripe or a per-pair chunk)
//!   runs under `catch_unwind`. A poisoned stripe is quarantined and its
//!   member pairs are retried one by one on the scalar rolling-row
//!   fallback kernel; when every retry succeeds the scan's output is
//!   byte-identical to the unfaulted run (tested under injected panics).
//! - [`ResumeToken`] — the checkpoint of an interrupted scan: remaining
//!   pairs plus the carried top-k bound, passed back to
//!   [`crate::early_termination::scan`] so a stopped scan continues to a
//!   final top-k byte-identical to an uninterrupted run.
//! - `failpoint` — a feature-gated (`failpoints`), zero-cost-when-off
//!   registry of named injection sites (`packer`, `stripe-sweep`,
//!   `bitpar-sweep`, `ratchet`, `affine`, `simd-diag`, `service-*`) so
//!   the fault paths
//!   above — and the [`crate::service`] control plane on top of them —
//!   are deterministically testable.
//!
//! See `docs/ROBUSTNESS.md` for the full semantics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::engine::EngineOutcome;
use crate::telemetry::{self, TraceEvent, TraceHandle};

/// Why a supervised run stopped before completing all pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`ScanControl::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The grid-cell budget was spent.
    BudgetExhausted,
    /// A watchdog observed a stalled worker heartbeat and tripped the
    /// control (see [`ScanControl::trip_watchdog`] and
    /// [`crate::service::ScanService`]).
    Watchdog,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExpired => write!(f, "deadline expired"),
            StopReason::BudgetExhausted => write!(f, "cell budget exhausted"),
            StopReason::Watchdog => write!(f, "watchdog tripped"),
        }
    }
}

/// A shared control handle for supervised batch and scan execution.
///
/// Construct one, optionally bound it with the `with_*` builders, and
/// pass it to a `*_supervised` entry point. The handle can be shared
/// across threads (`&ScanControl` is `Sync`); calling [`cancel`] from
/// another thread stops the run at its next checkpoint.
///
/// Checkpoints are cooperative: per-pair kernels check between
/// anti-diagonals (rows, for the rolling-row kernels), the batch
/// pipeline checks between work units. Cancellation, the watchdog and
/// the cell budget are checked at every checkpoint, in that order; the
/// deadline clock is read last, every [`DEADLINE_CHECK_INTERVAL`]
/// checkpoints — except the *first*, which always reads it, so a
/// deadline already in the past (e.g. 0 ms) stops the run
/// deterministically before any real work. A batch or scan spends the
/// cell budget on a plan prefix chosen before any worker starts
/// ([`with_cells_budget`](ScanControl::with_cells_budget)).
///
/// [`cancel`]: ScanControl::cancel
#[derive(Debug, Default)]
pub struct ScanControl {
    cancel: AtomicBool,
    watchdog: AtomicBool,
    deadline: Option<Instant>,
    cells_budget: Option<u64>,
    scratch_budget: Option<usize>,
    cells_spent: AtomicU64,
    tracer: Option<TraceHandle>,
}

/// How many supervision checkpoints pass between deadline clock reads
/// (the first checkpoint always reads it).
pub const DEADLINE_CHECK_INTERVAL: u32 = 16;

impl ScanControl {
    /// An unconstrained control: never stops on its own, still counts
    /// cells and still isolates worker panics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the run by an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the run by a timeout from now.
    #[must_use]
    pub fn with_deadline_after(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Bounds the run by a total grid-cell budget across all pairs. A
    /// batch or scan admits, before any worker starts, the plan prefix
    /// whose planned cells stay below the budget left (always its first
    /// stripe or pair), so the same pairs run at every worker count, and
    /// only a first item larger than the budget can overshoot it
    /// (`docs/ROBUSTNESS.md` gives the rule and its cost).
    #[must_use]
    pub fn with_cells_budget(mut self, cells: u64) -> Self {
        self.cells_budget = Some(cells);
        self
    }

    /// Bounds the scratch arena a single striped work unit may claim, in
    /// bytes. Stripes whose estimated scratch exceeds the budget are not
    /// swept; their members degrade to the per-pair fallback kernel
    /// (recorded in the fault ledger as a recovered `scratch-budget`
    /// fault).
    #[must_use]
    pub fn with_scratch_budget(mut self, bytes: usize) -> Self {
        self.scratch_budget = Some(bytes);
        self
    }

    /// Attaches a per-query trace: supervised layers below (the striped
    /// kernel and the store) record [`TraceEvent`]s into the same timeline
    /// the service uses for its `QueryReport`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached trace handle, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&TraceHandle> {
        self.tracer.as_ref()
    }

    /// Records a trace event if a tracer is attached (the closure is not
    /// evaluated otherwise, keeping untraced runs free of event building).
    pub(crate) fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(event());
        }
    }

    /// Requests cancellation: the run stops at its next checkpoint.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](ScanControl::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Trips the watchdog flag: the run stops at its next checkpoint
    /// with [`StopReason::Watchdog`]. Called by a supervising thread
    /// when the progress heartbeat — the [`cells_spent`] counter of the
    /// published control — stalls; like [`cancel`], the flag is sticky
    /// for the lifetime of this control.
    ///
    /// [`cells_spent`]: ScanControl::cells_spent
    ///
    /// [`cancel`]: ScanControl::cancel
    pub fn trip_watchdog(&self) {
        self.watchdog.store(true, Ordering::Relaxed);
    }

    /// Whether [`trip_watchdog`](ScanControl::trip_watchdog) was called.
    #[must_use]
    pub fn watchdog_tripped(&self) -> bool {
        self.watchdog.load(Ordering::Relaxed)
    }

    /// Grid cells charged so far across every worker.
    #[must_use]
    pub fn cells_spent(&self) -> u64 {
        self.cells_spent.load(Ordering::Relaxed)
    }

    /// The per-stripe scratch budget, if any.
    pub(crate) fn scratch_budget(&self) -> Option<usize> {
        self.scratch_budget
    }

    /// Charges `cells` against the budget (always counted, budget or
    /// not). The counter doubles as the progress heartbeat an external
    /// watchdog polls, at zero extra cost on this hot path.
    pub(crate) fn charge(&self, cells: u64) {
        self.cells_spent.fetch_add(cells, Ordering::Relaxed);
    }

    /// The cell budget still left, if there is a budget.
    pub(crate) fn cells_left(&self) -> Option<u64> {
        self.cells_budget
            .map(|budget| budget.saturating_sub(self.cells_spent()))
    }

    /// Checks every stop condition, including an immediate deadline
    /// clock read. Used at work-unit granularity; the hot kernel loops
    /// go through `SupCursor::tick` instead, which amortizes the
    /// clock read.
    #[must_use]
    pub fn should_stop(&self) -> Option<StopReason> {
        self.stop_reason(true)
    }

    /// The one stop order: cancellation, the watchdog, a spent budget,
    /// then (when `read_clock`) an expired deadline.
    fn stop_reason(&self, read_clock: bool) -> Option<StopReason> {
        if self.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.watchdog_tripped() {
            Some(StopReason::Watchdog)
        } else if self.cells_budget.is_some_and(|b| self.cells_spent() >= b) {
            Some(StopReason::BudgetExhausted)
        } else if read_clock && self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }
}

/// A per-kernel-invocation supervision cursor: wraps an optional
/// [`ScanControl`] and amortizes the deadline clock read over
/// [`DEADLINE_CHECK_INTERVAL`] ticks. With no control attached, a tick
/// is a single branch.
pub(crate) struct SupCursor<'c> {
    ctrl: Option<&'c ScanControl>,
    countdown: u32,
}

impl<'c> SupCursor<'c> {
    /// A cursor over `ctrl` (or a free-running cursor for `None`). The
    /// countdown starts at 1 so the first tick reads the deadline clock.
    pub(crate) fn new(ctrl: Option<&'c ScanControl>) -> Self {
        SupCursor { ctrl, countdown: 1 }
    }

    /// One checkpoint: charge `cells`, then check the stop conditions in
    /// [`ScanControl::should_stop`]'s order, reading the deadline clock
    /// every [`DEADLINE_CHECK_INTERVAL`] ticks and always on the first.
    #[inline]
    pub(crate) fn tick(&mut self, cells: u64) -> Result<(), StopReason> {
        let Some(ctrl) = self.ctrl else {
            return Ok(());
        };
        ctrl.charge(cells);
        telemetry::count(&telemetry::metrics::CHECKPOINTS, 1);
        self.countdown -= 1;
        let read_clock = self.countdown == 0;
        if read_clock {
            self.countdown = DEADLINE_CHECK_INTERVAL;
        }
        ctrl.stop_reason(read_clock).map_or(Ok(()), Err)
    }
}

/// One entry in the fault ledger: a worker panic (or budget-driven
/// degradation) that the supervisor absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault surfaced: `packer`, `stripe-sweep`,
    /// `bitpar-sweep`, `ratchet`, `scratch-budget`, `per-pair`, or a
    /// `service-*` control-plane site.
    pub site: String,
    /// The database/batch indices of the pairs the fault touched.
    pub pairs: Vec<usize>,
    /// Whether every touched pair that the fallback *reached* still
    /// produced its result (via the per-pair fallback kernel, or
    /// because the fault was harmless). Pairs the fallback never
    /// reached because the run was interrupted are reported through
    /// [`interrupted`](Fault::interrupted), not counted as lost.
    pub recovered: bool,
    /// The panic payload (or a description of the degradation).
    pub message: String,
    /// Which retry attempt recorded this fault: `0` for the in-scan
    /// immediate fallback, `1..` for service-level backoff retries.
    pub attempt: u32,
    /// The backoff pause the service slept before the retry that
    /// recorded this fault (`0` for in-scan faults).
    pub backoff: Duration,
    /// Set when a deadline/cancel/budget/watchdog trip cut the fallback
    /// short mid-stripe: the untouched member pairs stay *remaining*
    /// (resumable), and the stop surfaces here instead of being folded
    /// into the worker-fault message.
    pub interrupted: Option<StopReason>,
}

impl Fault {
    /// A ledger entry with no retry history: attempt 0, zero backoff,
    /// not interrupted.
    pub(crate) fn new(
        site: impl Into<String>,
        pairs: Vec<usize>,
        recovered: bool,
        message: impl Into<String>,
    ) -> Self {
        Fault {
            site: site.into(),
            pairs,
            recovered,
            message: message.into(),
            attempt: 0,
            backoff: Duration::ZERO,
            interrupted: None,
        }
    }
}

/// The typed partial result of a supervised top-k scan
/// ([`crate::early_termination::scan`]).
///
/// Accounting invariant: `completed_pairs + faulted_pairs +
/// remaining_pairs() == total_pairs`, with no pair counted twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// The best `(index, score)` hits among **completed** pairs, sorted
    /// by `(score, index)` ascending, at most `k`. When the scan ran to
    /// completion with every fault recovered, this is byte-identical to
    /// an unfaulted run's hits.
    pub hits: Vec<(usize, u64)>,
    /// Pairs that finished (scored or soundly abandoned by the ratchet).
    pub completed_pairs: usize,
    /// Pairs lost to an unrecovered worker fault.
    pub faulted_pairs: usize,
    /// Total pairs submitted.
    pub total_pairs: usize,
    /// Completed pairs the ratchet abandoned early (advisory: depends on
    /// worker interleaving).
    pub abandoned: usize,
    /// Grid cells computed by completed pairs.
    pub cells_computed: u64,
    /// Every fault the supervisor absorbed, recovered or not.
    pub faults: Vec<Fault>,
    /// Why the scan stopped early, if it did.
    pub stop: Option<StopReason>,
}

impl ScanOutcome {
    /// Pairs never started or abandoned mid-flight by an early stop.
    #[must_use]
    pub fn remaining_pairs(&self) -> usize {
        self.total_pairs - self.completed_pairs - self.faulted_pairs
    }

    /// Whether the scan stopped because its cell budget ran out.
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.stop == Some(StopReason::BudgetExhausted)
    }

    /// Whether every pair completed (the hits are then the exact top-k).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed_pairs == self.total_pairs
    }
}

/// A checkpoint of an interrupted top-k scan, produced by
/// [`crate::early_termination::scan`] alongside a partial
/// [`ScanOutcome`] and consumed by passing it back as `scan`'s `resume`
/// argument over the same [`crate::early_termination::ScanEntries`].
///
/// The token carries the pair indices still to run, the cumulative
/// accounting of every earlier segment, and the carried top-k hits that
/// re-seed the ratchet. Re-seeding is sound because the ratchet bound
/// only ever tightens: the k-th best score among *completed* pairs is an
/// upper bound on the k-th best among *all* pairs, so any pair a resumed
/// segment abandons against the carried bound is provably outside the
/// final top-k. See `docs/ROBUSTNESS.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeToken {
    pub(crate) k: usize,
    pub(crate) total_pairs: usize,
    /// Original database indices never started (or interrupted
    /// mid-flight before scoring), ascending.
    pub(crate) remaining: Vec<usize>,
    /// Original database indices lost to unrecovered worker faults;
    /// eligible for a service-level retry via
    /// [`retry_faulted`](ResumeToken::retry_faulted).
    pub(crate) retryable: Vec<usize>,
    /// Carried best hits among completed pairs: `(index, score)` sorted
    /// ascending, at most `k`.
    pub(crate) hits: Vec<(usize, u64)>,
    pub(crate) completed_pairs: usize,
    pub(crate) abandoned: usize,
    pub(crate) cells_computed: u64,
    pub(crate) faults: Vec<Fault>,
    pub(crate) attempt: u32,
    /// The content hash of the [`crate::store`] database this token was
    /// issued against (`None` for in-memory scans). A token can only
    /// resume against a store with identical content: a rebuilt or
    /// corrupted database gets a typed rejection, never a silently
    /// inconsistent merge.
    pub(crate) db_hash: Option<u64>,
}

impl ResumeToken {
    /// The starting state of a fresh scan: every one of `total_pairs`
    /// pairs remaining, nothing carried, bound to `db_hash`.
    pub(crate) fn fresh(k: usize, total_pairs: usize, db_hash: Option<u64>) -> Self {
        ResumeToken {
            k,
            total_pairs,
            remaining: (0..total_pairs).collect(),
            retryable: Vec::new(),
            hits: Vec::new(),
            completed_pairs: 0,
            abandoned: 0,
            cells_computed: 0,
            faults: Vec::new(),
            attempt: 0,
            db_hash,
        }
    }

    /// The `k` the interrupted scan was submitted with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total pairs in the scanned database.
    #[must_use]
    pub fn total_pairs(&self) -> usize {
        self.total_pairs
    }

    /// Pairs still to run on resume.
    #[must_use]
    pub fn remaining_pairs(&self) -> usize {
        self.remaining.len()
    }

    /// Pairs lost to unrecovered faults, not yet requeued.
    #[must_use]
    pub fn retryable_pairs(&self) -> usize {
        self.retryable.len()
    }

    /// How many times the faulted set has been requeued so far.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The content hash of the persistent store this token is bound to,
    /// or `None` for a token issued by an in-memory scan. See
    /// [`crate::store::PackedStore::content_hash`].
    #[must_use]
    pub fn db_hash(&self) -> Option<u64> {
        self.db_hash
    }

    /// Original indices of every pair still to run: remaining, then
    /// retryable. The service prices a resumed query's admission on them.
    pub fn pending_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.remaining.iter().chain(&self.retryable).copied()
    }

    /// Original indices of the pairs lost to unrecovered faults.
    pub(crate) fn retryable_indices(&self) -> &[usize] {
        &self.retryable
    }

    /// Records a service-level retry decision in the cumulative ledger,
    /// stamped with the attempt about to run (`attempt + 1`) and its
    /// backoff pause. Call before [`retry_faulted`](Self::retry_faulted).
    pub(crate) fn push_service_fault(
        &mut self,
        site: &str,
        pairs: Vec<usize>,
        message: &str,
        backoff: Duration,
        interrupted: Option<StopReason>,
    ) {
        self.faults.push(Fault {
            site: site.into(),
            pairs,
            recovered: true,
            message: message.into(),
            attempt: self.attempt + 1,
            backoff,
            interrupted,
        });
    }

    /// Moves the faulted pairs back into the remaining set so the next
    /// resume retries them, bumps the attempt counter, and returns how
    /// many pairs were requeued. Safe to call repeatedly. Sound because
    /// faulted pairs never contributed a hit or an observation: running
    /// them again cannot double-count.
    pub fn retry_faulted(&mut self) -> usize {
        let n = self.retryable.len();
        if n > 0 {
            self.remaining.append(&mut self.retryable);
            self.remaining.sort_unstable();
        }
        self.attempt += 1;
        n
    }
}

/// The typed partial result of a batch alignment
/// ([`crate::engine::align_batch`]). Same
/// accounting invariant as [`ScanOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-pair outcomes in input order: `Some` for completed pairs,
    /// `None` for pairs that faulted or were never reached.
    pub outcomes: Vec<Option<EngineOutcome>>,
    /// Pairs that finished.
    pub completed_pairs: usize,
    /// Pairs lost to an unrecovered worker fault.
    pub faulted_pairs: usize,
    /// Every fault the supervisor absorbed, recovered or not.
    pub faults: Vec<Fault>,
    /// Why the batch stopped early, if it did.
    pub stop: Option<StopReason>,
}

impl BatchReport {
    /// Total pairs submitted.
    #[must_use]
    pub fn total_pairs(&self) -> usize {
        self.outcomes.len()
    }

    /// Pairs never reached before an early stop.
    #[must_use]
    pub fn remaining_pairs(&self) -> usize {
        self.total_pairs() - self.completed_pairs - self.faulted_pairs
    }

    /// Whether every pair completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed_pairs == self.total_pairs()
    }

    /// One outcome per pair, in input order.
    ///
    /// # Panics
    ///
    /// Panics, naming the first such pair, if any pair faulted or was
    /// never reached.
    #[must_use]
    pub fn expect_complete(self) -> Vec<EngineOutcome> {
        self.outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or_else(|| {
                    panic!(
                        "batch pair {i} did not complete (stop {:?}, faults {:?})",
                        self.stop, self.faults
                    )
                })
            })
            .collect()
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(feature = "failpoints")]
pub mod failpoint {
    //! Deterministic fault injection (compiled only under the
    //! `failpoints` feature; the crate-internal `fp_hit` site hook is an
    //! empty inline stub
    //! otherwise, so production builds pay nothing).
    //!
    //! The engine compiles named sites into its failure-critical paths:
    //!
    //! | site | location | what an injected panic exercises |
    //! |------|----------|----------------------------------|
    //! | `packer` | top of the batch planner | degraded all-per-pair plan |
    //! | `stripe-sweep` | top of a striped work unit | stripe quarantine + per-pair retry |
    //! | `bitpar-sweep` | each pair of a bit-parallel scan unit, before its sweep | unit quarantine + rolling-row retry of its unfinished members |
    //! | `ratchet` | top-k observation, before the heap lock | lost observation (sound: only loosens the ratchet) |
    //! | `affine` | `AlignEngine`'s per-pair affine wavefront, before its 1-lane sweep | per-pair fallback on the rolling-row kernel |
    //! | `affine-stripe` | a striped affine unit, before its three-plane sweep (never per pair) | stripe quarantine + per-pair Gotoh retry |
    //! | `simd-diag` | top of the linear wavefront diagonal update | per-pair fallback on the rolling-row kernel |
    //! | `service-enqueue` | service admission, before validation | typed `Rejected` backpressure, queue stays intact |
    //! | `service-retry` | service retry decision, before the backoff | finalize-with-partial instead of a wedged query |
    //! | `service-resume` | service resume segment, before the scan | failed attempt → backoff → clean re-resume |
    //! | `watchdog-heartbeat` | service worker, before each segment | heartbeat stall → watchdog trip → `StopReason::Watchdog` |
    //! | `store-write` | store build, between payload and manifest write | torn write: temp file abandoned, destination untouched |
    //! | `store-open` | top of `PackedStore::open_validated` | EIO on open → typed `StoreError::Io` |
    //! | `store-chunk-read` | lazy shard load, before each chunk's file read | EIO on read → shard quarantine → replica/retry ladder |
    //! | `store-mmap` | lazy shard load, once per shard decode, before its chunk reads | mapping failure → shard quarantine → replica/retry ladder |
    //!
    //! The registry is process-global: tests that arm sites must
    //! serialize on [`lock_for_test`] and disarm in every exit path
    //! (or use [`arm_times`] so the site disarms itself).

    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint does when execution reaches it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Panic with a `failpoint: <site>` payload.
        Panic,
        /// Sleep for the given duration (deadline-expiry injection).
        Sleep(Duration),
    }

    #[derive(Debug, Clone, Copy)]
    struct Armed {
        action: Action,
        left: Option<usize>,
        /// The one thread the site fires on; `None` fires on every thread.
        thread: Option<std::thread::ThreadId>,
    }

    static ANY_ARMED: AtomicBool = AtomicBool::new(false);

    fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
        static REG: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn reg_lock() -> MutexGuard<'static, HashMap<&'static str, Armed>> {
        // Poison-tolerant: a failpoint panic while holding the lock must
        // not wedge the registry for the rest of the process.
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arms `site` to run `action` on every hit until disarmed.
    pub fn arm(site: &'static str, action: Action) {
        reg_lock().insert(
            site,
            Armed {
                action,
                left: None,
                thread: None,
            },
        );
        ANY_ARMED.store(true, Ordering::Relaxed);
    }

    /// Arms `site` for exactly `n` hits, then self-disarms.
    pub fn arm_times(site: &'static str, action: Action, n: usize) {
        arm_times_on(site, action, n, None);
    }

    /// [`arm_times`] for hits on the calling thread only: other threads
    /// pass the site untouched, so a unit test can inject a fault while
    /// the other tests of its binary run the same site concurrently.
    pub fn arm_times_here(site: &'static str, action: Action, n: usize) {
        arm_times_on(site, action, n, Some(std::thread::current().id()));
    }

    fn arm_times_on(
        site: &'static str,
        action: Action,
        n: usize,
        thread: Option<std::thread::ThreadId>,
    ) {
        if n == 0 {
            return;
        }
        reg_lock().insert(
            site,
            Armed {
                action,
                left: Some(n),
                thread,
            },
        );
        ANY_ARMED.store(true, Ordering::Relaxed);
    }

    /// Disarms `site` (no-op if it was not armed).
    pub fn disarm(site: &'static str) {
        let mut reg = reg_lock();
        reg.remove(site);
        if reg.is_empty() {
            ANY_ARMED.store(false, Ordering::Relaxed);
        }
    }

    /// Disarms every site.
    pub fn disarm_all() {
        reg_lock().clear();
        ANY_ARMED.store(false, Ordering::Relaxed);
    }

    /// Serializes failpoint tests: the registry is process-global, so
    /// concurrent tests arming sites would interfere. Hold the guard for
    /// the whole arm → run → disarm span.
    pub fn lock_for_test() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Installs (once) a panic hook that silences the default backtrace
    /// spew for expected `failpoint: …` panics, keeping fault-path test
    /// output readable. All other panics still print normally.
    pub fn quiet_failpoint_panics() {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                if msg.is_some_and(|m| m.contains("failpoint")) {
                    return;
                }
                prev(info);
            }));
        });
    }

    /// The compiled-in site hook. One relaxed atomic load when nothing
    /// is armed.
    pub(crate) fn fp_hit(site: &str) {
        if !ANY_ARMED.load(Ordering::Relaxed) {
            return;
        }
        let action = {
            let mut reg = reg_lock();
            let Some(armed) = reg.get_mut(site) else {
                return;
            };
            if armed
                .thread
                .is_some_and(|t| t != std::thread::current().id())
            {
                return;
            }
            let action = armed.action;
            if let Some(left) = &mut armed.left {
                *left -= 1;
                if *left == 0 {
                    reg.remove(site);
                    if reg.is_empty() {
                        ANY_ARMED.store(false, Ordering::Relaxed);
                    }
                }
            }
            action
        };
        match action {
            Action::Panic => panic!("failpoint: {site}"),
            Action::Sleep(d) => std::thread::sleep(d),
        }
    }
}

#[cfg(feature = "failpoints")]
pub(crate) use failpoint::fp_hit;

/// No-op stub compiled when the `failpoints` feature is off.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn fp_hit(_site: &str) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_control_never_stops() {
        let ctrl = ScanControl::new();
        assert_eq!(ctrl.should_stop(), None);
        ctrl.charge(1 << 40);
        assert_eq!(ctrl.should_stop(), None);
        let mut cursor = SupCursor::new(Some(&ctrl));
        for _ in 0..100 {
            assert!(cursor.tick(17).is_ok());
        }
        assert_eq!(ctrl.cells_spent(), (1 << 40) + 1700);
    }

    #[test]
    fn cancel_and_budget_stop_immediately() {
        let ctrl = ScanControl::new();
        ctrl.cancel();
        assert_eq!(ctrl.should_stop(), Some(StopReason::Cancelled));

        let ctrl = ScanControl::new().with_cells_budget(10);
        let mut cursor = SupCursor::new(Some(&ctrl));
        assert!(cursor.tick(4).is_ok());
        assert_eq!(cursor.tick(6), Err(StopReason::BudgetExhausted));
        assert_eq!(ctrl.should_stop(), Some(StopReason::BudgetExhausted));
    }

    #[test]
    fn zero_deadline_stops_on_first_tick() {
        let ctrl = ScanControl::new().with_deadline(Instant::now());
        let mut cursor = SupCursor::new(Some(&ctrl));
        assert_eq!(cursor.tick(1), Err(StopReason::DeadlineExpired));
        assert_eq!(ctrl.should_stop(), Some(StopReason::DeadlineExpired));
    }

    #[test]
    fn detached_cursor_is_free_running() {
        let mut cursor = SupCursor::new(None);
        for _ in 0..1000 {
            assert!(cursor.tick(u64::MAX).is_ok());
        }
    }

    #[test]
    fn outcome_accounting_helpers() {
        let o = ScanOutcome {
            hits: vec![(3, 7)],
            completed_pairs: 5,
            faulted_pairs: 1,
            total_pairs: 9,
            abandoned: 2,
            cells_computed: 123,
            faults: vec![],
            stop: Some(StopReason::BudgetExhausted),
        };
        assert_eq!(o.remaining_pairs(), 3);
        assert!(o.budget_exhausted());
        assert!(!o.is_complete());
        let r = BatchReport {
            outcomes: vec![None, Some(EngineOutcome::default())],
            completed_pairs: 1,
            faulted_pairs: 0,
            faults: vec![],
            stop: Some(StopReason::Cancelled),
        };
        assert_eq!(r.total_pairs(), 2);
        assert_eq!(r.remaining_pairs(), 1);
        assert!(!r.is_complete());
    }

    #[test]
    fn stop_reason_displays() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert!(StopReason::DeadlineExpired.to_string().contains("deadline"));
        assert!(StopReason::BudgetExhausted.to_string().contains("budget"));
        assert!(StopReason::Watchdog.to_string().contains("watchdog"));
    }

    #[test]
    fn watchdog_trip_stops_at_next_checkpoint() {
        let ctrl = ScanControl::new();
        assert!(!ctrl.watchdog_tripped());
        assert_eq!(ctrl.should_stop(), None);
        ctrl.trip_watchdog();
        assert!(ctrl.watchdog_tripped());
        assert_eq!(ctrl.should_stop(), Some(StopReason::Watchdog));
        let mut cursor = SupCursor::new(Some(&ctrl));
        assert_eq!(cursor.tick(1), Err(StopReason::Watchdog));
        // Cancellation outranks the watchdog at a checkpoint.
        ctrl.cancel();
        assert_eq!(ctrl.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn cells_spent_is_the_progress_heartbeat() {
        // The watchdog polls `cells_spent` for progress: every charging
        // checkpoint advances it, so only a genuinely wedged worker
        // (no charges) reads as stalled.
        let ctrl = ScanControl::new();
        let mut cursor = SupCursor::new(Some(&ctrl));
        let mut last = ctrl.cells_spent();
        for _ in 0..5 {
            cursor.tick(3).unwrap();
            assert!(ctrl.cells_spent() > last);
            last = ctrl.cells_spent();
        }
    }

    #[test]
    fn resume_token_retry_faulted_requeues_and_bumps_attempt() {
        let mut tok = ResumeToken {
            k: 3,
            total_pairs: 10,
            remaining: vec![4, 7],
            retryable: vec![2, 9],
            hits: vec![(1, 5)],
            completed_pairs: 6,
            abandoned: 1,
            cells_computed: 99,
            faults: vec![Fault::new("stripe-sweep", vec![2, 9], false, "boom")],
            attempt: 0,
            db_hash: None,
        };
        assert_eq!(tok.remaining_pairs(), 2);
        assert_eq!(tok.retryable_pairs(), 2);
        assert_eq!(tok.retry_faulted(), 2);
        assert_eq!(tok.remaining, vec![2, 4, 7, 9]);
        assert_eq!(tok.retryable_pairs(), 0);
        assert_eq!(tok.attempt(), 1);
        assert_eq!(tok.retry_faulted(), 0);
        assert_eq!(tok.attempt(), 2);
        assert_eq!(tok.k(), 3);
        assert_eq!(tok.total_pairs(), 10);
    }
}
