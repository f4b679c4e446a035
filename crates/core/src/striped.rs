//! The inter-pair **striped batch kernel** behind
//! [`crate::engine::align_batch`].
//!
//! The Race Logic array's economics come from evaluating many
//! independent race cells per clock. The per-pair wavefront kernel
//! ([`crate::engine`]) captures the *intra*-pair version of that claim —
//! the cells of one anti-diagonal are SIMD lanes. That per-pair kernel
//! is this module's sweep at one lane ([`mode_sweep`] with `L = 1`,
//! called from [`AlignEngine::align`]), in every mode. This module captures
//! the *inter*-pair version: a cohort of shape-compatible pairs is
//! transposed into interleaved code planes
//! ([`rl_bio::StripedCodes`]) and swept by **one** wavefront in which
//! each SIMD lane is a *different pair* — exactly how the hardware would
//! tile many small alignments onto one array.
//!
//! Why this wins on short reads: the per-pair wavefront pays its
//! per-diagonal overhead (range computation, buffer rotation, padding
//! stores, the horizontal min reduction) once per pair per diagonal, and
//! its blocks fray into scalar tails whenever a diagonal's span is not a
//! multiple of the block width. The striped sweep pays the overhead once
//! per *cohort* per diagonal, and its lane dimension is always exactly
//! full — every vector op updates `L` pairs, no tails, contiguous loads
//! from the planes by construction.
//!
//! **Packing** is the throughput lever on ragged batches. The
//! length-aware packer sorts the batch's pairs by `(n, m)` and
//! greedily grows each stripe while the padding stays under
//! [`STRIPE_PAD_BUDGET_PCT`] of the members' own (banded) cell counts —
//! so pairs of *different* lengths share a sweep, shorter lanes
//! retiring early instead of padding to a bucket ceiling.
//!
//! Correctness is *mirroring*, not approximation: each lane runs the
//! per-pair wavefront recurrence over its own `(n, m)` geometry —
//! per-lane frontier minima (masked to the lane's own in-band cells),
//! per-lane early-termination checks at the same diagonal the per-pair
//! kernel checks, per-lane cell counting over the lane's own band
//! ranges, and independent lane retirement at each lane's final
//! diagonal. The batch outcome is therefore **byte-identical** to a
//! sequential [`crate::engine::AlignEngine::align`] loop (scores, cell
//! counts and verdicts alike — property-tested in `tests/engine.rs`).
//! Padded cells (shorter lanes inside a shared sweep) are harmless by
//! construction: a lane's real cells only ever read real cells (cell
//! dependencies never increase indices), padding codes are sentinels
//! outside every alphabet, and padded positions are masked out of the
//! lane's minima and counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use rl_bio::{alphabet::Symbol, PackedSeq, StripedCodes};
use rl_temporal::Time;

use crate::bitpar::QueryMasks;
use crate::engine::{
    applied_bias, classify_outcome, diag_range, raw_to_time, rotate_bufs, score_lower_bound,
    u8_bias_rate, AlignConfig, AlignEngine, AlignMode, BatchPlanStats, DiagScratch, DiagWord,
    EngineOutcome, KernelStrategy, LaneWidth, RawWeights, NEVER, STRIPE_MIN_PAIRS,
    STRIPE_PAD_BUDGET_PCT,
};
use crate::simd::{self, KernelWord, LaneWeights};
use crate::supervisor::{
    fp_hit, panic_message, BatchReport, Fault, ScanControl, StopReason, SupCursor,
};
use crate::telemetry::{self, flight, TraceEvent};

/// Sentinel code for padded query-plane cells; outside every alphabet's
/// code range, and distinct from [`P_PAD`] so a padded position can
/// never read as a symbol match.
const Q_PAD: u8 = 0xFE;
/// Sentinel code for padded pattern-plane cells.
const P_PAD: u8 = 0xFF;

/// Lanes per stripe at each kernel word width: one stripe fills vector
/// registers at every width (32 × u8 = 16 × u16 = 8 × u32 = 256 bits),
/// so the narrower the word, the more pairs ride one sweep.
const fn stripe_lanes(width: LaneWidth) -> usize {
    match width {
        LaneWidth::U8 => 32,
        LaneWidth::U16 => 16,
        LaneWidth::U32 | LaneWidth::U64 => 8,
    }
}

/// Lane count of the **half-width** `u16` stripe monomorphization: a
/// partially filled `u16` stripe with at most this many members sweeps
/// 8 lanes instead of 16, so the sparse tails the ragged workload's
/// plan exposes (e.g. a 5-member leftover) stop paying for 11 empty
/// lanes. 8 `u16` words still fill a 128-bit register, so the vector
/// body stays full-width on the x86-64-v2 floor.
pub(crate) const HALF_STRIPE_LANES: usize = 8;

/// Lane count of the half-width `u8` stripe monomorphization — the same
/// tail-occupancy trick one rung down: a `u8` stripe with at most 16
/// members sweeps 16 lanes (a full 128-bit register) instead of 32.
pub(crate) const HALF_U8_STRIPE_LANES: usize = 16;

/// The lane count a stripe of `members` pairs actually sweeps at
/// `width` — [`stripe_lanes`], halved for under-filled `u8`/`u16`
/// stripes.
pub(crate) const fn effective_stripe_lanes(width: LaneWidth, members: usize) -> usize {
    if matches!(width, LaneWidth::U16) && members <= HALF_STRIPE_LANES {
        HALF_STRIPE_LANES
    } else if matches!(width, LaneWidth::U8) && members <= HALF_U8_STRIPE_LANES {
        HALF_U8_STRIPE_LANES
    } else {
        stripe_lanes(width)
    }
}

/// Cells of an `(n + 1) × (m + 1)` grid inside a Ukkonen band of
/// half-width `k` (all cells when unbanded) — the packer's padding
/// currency. Matches the engine's `band_range` row clipping exactly
/// (tested against the per-diagonal sum), in O(1): the full grid minus
/// the two clipped corner triangles `j − i > k` and `i − j > k`.
pub(crate) fn grid_cells(n: usize, m: usize, band: Option<usize>) -> u64 {
    let full = (n as u64 + 1) * (m as u64 + 1);
    let Some(k) = band else { return full };
    // Σ_{r=0}^{rows} max(0, excess − r): the corner triangle, clipped
    // to the grid (`c` nonzero terms, arithmetic series).
    let triangle = |excess: usize, rows: usize| -> u64 {
        if excess == 0 {
            return 0;
        }
        let c = excess.min(rows + 1) as u64;
        c * excess as u64 - c * (c - 1) / 2
    };
    full - triangle(m.saturating_sub(k), n) - triangle(n.saturating_sub(k), m)
}

/// How a work unit's members are swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitKind {
    /// One striped cohort sweep, each SIMD lane a different pair.
    Striped,
    /// One per-pair DP alignment after another.
    PerPair,
    /// One bit-parallel score after another, against the scan
    /// segment's shared query masks ([`QueryMasks`]).
    BitParallel,
}

/// One schedulable unit of batch work: a striped cohort sweep, a run of
/// per-pair alignments, or a run of bit-parallel scores. `members` are
/// indices into the batch; the worker that claims the unit fills one
/// slot per member, scattered back afterwards.
struct WorkUnit {
    kind: UnitKind,
    /// Stripe lane width, resolved **once** by the planner from the
    /// members' union shape — `run_stripe` must not re-resolve, so the
    /// shape the stripe was budgeted and chunked at is the shape it is
    /// swept at.
    width: LaneWidth,
    members: Vec<usize>,
    slots: Vec<Slot>,
}

/// Per-pair result slot of a supervised run: `Done` carries the
/// outcome; `Pending` marks pairs an early stop never reached;
/// `Faulted` marks pairs lost to an unrecovered worker panic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Slot {
    /// Never reached before an early stop.
    #[default]
    Pending,
    /// Completed with this outcome.
    Done(EngineOutcome),
    /// Lost to an unrecovered worker fault.
    Faulted,
}

impl Slot {
    /// The outcome of a completed pair.
    pub(crate) fn outcome(&self) -> Option<&EngineOutcome> {
        match self {
            Slot::Done(o) => Some(o),
            _ => None,
        }
    }
}

/// Shared fault/stop ledger of one `run_units` execution. Poison-
/// tolerant locks: a worker panic between lock and unlock (possible
/// only via injected failpoints) must not wedge the other workers'
/// accounting.
struct ExecLedger {
    faults: Mutex<Vec<Fault>>,
    stop: Mutex<Option<StopReason>>,
}

impl ExecLedger {
    fn new() -> Self {
        ExecLedger {
            faults: Mutex::new(Vec::new()),
            stop: Mutex::new(None),
        }
    }

    fn note_fault(&self, fault: Fault) {
        self.faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(fault);
    }

    /// First stop wins: later workers noticing the same (or a different)
    /// condition do not overwrite the original reason.
    fn note_stop(&self, stop: StopReason) {
        let mut slot = self
            .stop
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.get_or_insert(stop);
    }

    fn into_report(self) -> RunReport {
        let mut faults = self
            .faults
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Worker interleaving scrambles ledger order; sort it into a
        // deterministic (site, first pair) presentation.
        faults.sort_by(|a, b| (a.pairs.first(), &a.site).cmp(&(b.pairs.first(), &b.site)));
        RunReport {
            faults,
            stop: self
                .stop
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }
}

/// What a supervised `run_units` pass absorbed: the fault ledger and
/// the first stop reason any worker hit.
pub(crate) struct RunReport {
    pub(crate) faults: Vec<Fault>,
    pub(crate) stop: Option<StopReason>,
}

/// Per-worker scratch of one `run_units` pass: a per-pair engine, the
/// striped-sweep arena and the outcomes a stripe sweeps into, and the
/// bit-parallel state words, reused across the worker's units.
struct WorkerScratch {
    engine: AlignEngine,
    stripe: StripeScratch,
    outcomes: Vec<EngineOutcome>,
    bits: Vec<u64>,
}

/// The batch pipeline behind [`crate::engine::align_batch`]: worker
/// panics are isolated (quarantine + per-pair fallback retry) and the
/// [`ScanControl`] is honored between work units and inside the
/// per-pair kernels.
pub(crate) fn run_batch<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    ctrl: &ScanControl,
) -> BatchReport {
    let mut faults = Vec::new();
    let mut slots = vec![Slot::Pending; pairs.len()];
    let mut stop = None;
    if !pairs.is_empty() {
        let units = plan_units_guarded(cfg, pairs, false, &mut faults);
        let mut report = run_units(cfg, pairs, units, None, None, None, ctrl, &mut slots);
        faults.append(&mut report.faults);
        stop = report.stop;
    }
    let outcomes: Vec<Option<EngineOutcome>> = slots.iter().map(|s| s.outcome().copied()).collect();
    let completed_pairs = outcomes.iter().filter(|o| o.is_some()).count();
    let faulted_pairs = slots.iter().filter(|s| matches!(s, Slot::Faulted)).count();
    BatchReport {
        outcomes,
        completed_pairs,
        faulted_pairs,
        faults,
        stop,
    }
}

/// The ratcheted scan pipeline behind [`crate::early_termination::scan`]:
/// stripes stream through the workers with a shared top-`k` score
/// ratchet that tightens each unit's fused early-termination threshold
/// as hits land — the scan accelerates as it goes — under panic
/// isolation and cooperative stops. Score-only: abandoned entries
/// report [`Time::NEVER`] with `early_terminated` set.
///
/// A segment whose configuration reduces to a bit-parallel recurrence
/// ([`QueryMasks::for_scan`]: unbanded, `Auto`, LCS-reducible global or
/// unit-edit-distance weights) builds the query's match masks once and
/// sweeps every pair on the bit-parallel kernel instead of the striped
/// and per-pair DP kernels.
///
/// Runs over a pair *subset* (`pairs[pos]` is original database entry
/// `ids[pos]`; a fresh scan passes the identity) under a ratchet
/// pre-seeded with `seed`, the carried best hits of every pair completed
/// by earlier segments. All slot positions and ledger fault `pairs` in
/// the return are **subset positions**; the caller remaps them through
/// `ids` when it merges the segment into the cumulative
/// [`crate::supervisor::ScanOutcome`]. The ratchet itself remaps
/// internally so score tie-breaks match the uninterrupted run.
///
/// The *final top-k* (the `k` smallest `(score, index)` pairs among
/// finished entries) is deterministic regardless of worker
/// interleaving: the ratchet is always at least the true k-th smallest
/// score, and the fused abandon rule is a strict `score > threshold`
/// proof, so every true top-k entry finishes with its exact score.
/// Which *non*-hits get abandoned (and therefore per-entry
/// `cells_computed`) does depend on interleaving.
pub(crate) fn scan_topk_resume_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    ids: &[usize],
    k: usize,
    seed: &[(usize, u64)],
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> (Vec<Slot>, RunReport) {
    debug_assert_eq!(pairs.len(), ids.len());
    let mut faults = Vec::new();
    let mut slots = vec![Slot::Pending; pairs.len()];
    if pairs.is_empty() {
        return (slots, RunReport { faults, stop: None });
    }
    let masks = QueryMasks::for_scan(cfg, pairs);
    let units = plan_units_guarded(cfg, pairs, masks.is_some(), &mut faults);
    let ratchet = Ratchet::seeded(k, cfg.threshold, seed, ids.to_vec());
    let mut report = run_units(
        cfg,
        pairs,
        units,
        Some(&ratchet),
        masks.as_ref(),
        workers,
        ctrl,
        &mut slots,
    );
    faults.append(&mut report.faults);
    (
        slots,
        RunReport {
            faults,
            stop: report.stop,
        },
    )
}

/// Shared top-k score ratchet: a bounded worst-first heap of the best
/// `(score, index)` pairs seen so far, plus an atomic cache of the
/// abandon threshold it implies (the k-th best score once `k` hits have
/// landed; the configured threshold — or `+∞` — before that). The
/// threshold only ever tightens, and an entry is only ever abandoned on
/// a strict `score > threshold` proof, so no true top-k entry can be
/// lost to any interleaving.
struct Ratchet {
    k: usize,
    limit: AtomicU64,
    /// Max-heap on `(score, index)`: the root is the *worst* of the
    /// current best-k, i.e. exactly the entry the next hit must beat.
    heap: Mutex<std::collections::BinaryHeap<(u64, usize)>>,
    /// Position → original-database-index remap: a resumed scan runs
    /// over a pair *subset*, and tie-breaks and reported hits must use
    /// original indices or its `(score, index)` order — and therefore
    /// its top-k at score ties — would diverge from the uninterrupted
    /// run. A fresh scan passes the identity.
    ids: Vec<usize>,
}

impl Ratchet {
    /// Pre-folds the carried hits of every completed pair (original
    /// indices), so the bound starts exactly as tight as an interrupted
    /// run left it (a fresh scan carries none), and remaps subsequent
    /// observations through `ids`. Sound because the carried k-th best
    /// among completed pairs is ≥ the true final k-th best — the bound
    /// only ever tightens from there.
    fn seeded(k: usize, initial: Option<u64>, seed: &[(usize, u64)], ids: Vec<usize>) -> Self {
        let r = Ratchet {
            k,
            limit: AtomicU64::new(initial.unwrap_or(NEVER)),
            heap: Mutex::new(std::collections::BinaryHeap::with_capacity(k + 1)),
            ids,
        };
        for &(index, score) in seed {
            r.fold(score, index);
        }
        r
    }

    /// The threshold units should currently run under (`None` = no
    /// abandoning yet).
    fn current(&self) -> Option<u64> {
        let t = self.limit.load(Ordering::Relaxed);
        (t != NEVER).then_some(t)
    }

    /// Folds a finished entry into the best-k and tightens the cached
    /// threshold when the k-th best improves. The lock is
    /// poison-tolerant: the heap is only ever mutated through this
    /// method, whose critical section cannot panic partway, so a
    /// poisoned heap (an injected failpoint panic) is still consistent.
    fn observe(&self, score: u64, index: usize) {
        fp_hit("ratchet");
        telemetry::count(&telemetry::metrics::RATCHET_OBSERVATIONS, 1);
        self.fold(score, self.ids[index]);
    }

    /// The lock-and-fold half of [`observe`](Ratchet::observe), in
    /// original-index space (seeding calls it directly, bypassing the
    /// failpoint and the remap).
    fn fold(&self, score: u64, index: usize) {
        let mut heap = self
            .heap
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if heap.len() < self.k {
            heap.push((score, index));
        } else if let Some(&worst) = heap.peek() {
            if (score, index) < worst {
                heap.pop();
                heap.push((score, index));
            }
        }
        if heap.len() == self.k {
            if let Some(&(kth, _)) = heap.peek() {
                self.limit.fetch_min(kth, Ordering::Relaxed);
            }
        }
    }
}

/// How a striped sweep applies an early-termination threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StripeThreshold {
    /// No abandoning; every lane runs to its final diagonal.
    None,
    /// The byte-identical contract: per-lane frontier minima masked to
    /// each lane's own in-band cells, per-lane abandon at exactly the
    /// diagonal the per-pair kernel would. Costs a second pass over
    /// every interior cell each diagonal, except at one lane, whose
    /// fused interior minimum is already exact.
    Exact(u64),
    /// The ratchet's mode: one **whole-stripe** lower bound per
    /// diagonal — the unmasked interior minimum
    /// [`simd::diag_update_lanes`] or [`simd::affine_diag_update_lanes`]
    /// already returns (a min over a *superset* of every lane's in-band
    /// cells, so it is ≤ every lane's true frontier minimum and
    /// `bound > t` soundly proves `score > t` for **all** live lanes at
    /// once), plus the shared boundary value. Near-zero overhead; the
    /// trade is that the stripe only abandons when *every* lane is
    /// provably out, and retired-lane residue (which keeps growing
    /// under positive weights, but can stall under a zero matched
    /// weight) can delay that further — fine for the ratchet, whose
    /// abandons are an optimization, never a correctness requirement.
    /// Global and affine sweeps add a second whole-stripe rule at every
    /// [`REMAINING_BOUND_EVERY`]-th diagonal: the elapsed cost plus a
    /// bound on the cost still ahead ([`SuffixBound`]).
    Coarse(u64),
}

impl StripeThreshold {
    /// The raw threshold for end-of-lane classification (`score > t` ⇒
    /// reported as exceeded), identical in both thresholded modes.
    fn classify_raw(self) -> Option<u64> {
        match self {
            StripeThreshold::None => None,
            StripeThreshold::Exact(t) | StripeThreshold::Coarse(t) => Some(t),
        }
    }
}

/// Executes planned units across workers and scatters results back
/// into input order. The units form one queue, claimed in plan order
/// through a shared cursor: the calling thread is worker 0 and sweeps
/// units itself beside `n − 1` scoped helpers, each worker with its own
/// scratch set, each taking the next unclaimed unit until the queue is
/// empty. With a `ratchet`, each unit runs under the ratchet's
/// threshold at the moment the unit starts, and finished scores feed
/// back into it. Bit-parallel units need the ratchet and the segment's
/// `masks`.
///
/// A cell budget is decided here alone, before any worker starts. The
/// [`ScanControl`] is consulted before every unit and every member of a
/// per-pair, bit-parallel or quarantined unit, and inside the per-pair
/// kernels per row/diagonal. Every stop is permanent, so a worker whose
/// unit stops claims no more; pairs the budget refuses or a stop never
/// reaches stay `Pending`. Worker panics are isolated per unit: a
/// poisoned unit is quarantined and its members retried on the
/// rolling-row fallback ([`UnitRun::quarantine`]).
#[allow(clippy::too_many_arguments)]
fn run_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    mut units: Vec<WorkUnit>,
    ratchet: Option<&Ratchet>,
    masks: Option<&QueryMasks>,
    workers: Option<usize>,
    ctrl: &ScanControl,
    out: &mut [Slot],
) -> RunReport {
    let run = UnitRun {
        cfg,
        pairs,
        ratchet,
        masks,
        ctrl,
        ledger: ExecLedger::new(),
    };
    // The budget's one rule: in plan order, admit items (a stripe whole,
    // or one member of another unit) while their planned cells, which
    // bound the cells swept, stay below the budget left; and always the
    // first item, so every resume segment progresses.
    if let Some(mut left) = ctrl.cells_left() {
        let mut first = left > 0;
        let mut admit = |cells: u64| {
            let admitted = std::mem::take(&mut first) || cells < left;
            left = left.saturating_sub(cells);
            admitted
        };
        let planned = |&i: &usize| grid_cells(pairs[i].0.len(), pairs[i].1.len(), cfg.band);
        let refused = units.iter_mut().position(|unit| {
            let members = &mut unit.members;
            let kept = if unit.kind == UnitKind::Striped {
                members.len() * usize::from(admit(members.iter().map(planned).sum()))
            } else {
                members.iter().take_while(|&i| admit(planned(i))).count()
            };
            members.drain(kept..).count() > 0
        });
        if let Some(u) = refused {
            units.truncate(u + usize::from(!units[u].members.is_empty()));
            run.stopped(StopReason::BudgetExhausted);
        }
    }
    let n_workers = resolve_workers(workers).min(units.len()).max(1);
    // One lock per unit: exactly one worker claims each index, so the
    // locks never contend; they hand the unit to whichever thread
    // claimed it and back to this one after the scope.
    let queue: Vec<Mutex<WorkUnit>> = units.into_iter().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let sweep = || {
        let worker = &mut WorkerScratch {
            engine: AlignEngine::new(*cfg),
            stripe: StripeScratch::new(),
            outcomes: Vec::new(),
            bits: Vec::new(),
        };
        while let Some(unit) = queue.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let unit = &mut *unit
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            unit.slots.resize(unit.members.len(), Slot::Pending);
            // Each unit boundary is a checkpoint: the only place a batch
            // evaluates stop conditions between whole work units.
            telemetry::count(&telemetry::metrics::CHECKPOINTS, 1);
            if run.check_stop().is_err() || run.unit(unit, worker).is_err() {
                break;
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..n_workers {
            s.spawn(sweep);
        }
        sweep();
    });
    for unit in queue {
        let unit = unit
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (&i, &slot) in unit.members.iter().zip(&unit.slots) {
            out[i] = slot;
        }
    }
    run.ledger.into_report()
}

/// The supervision of one `run_units` pass, shared by its workers: the
/// batch, the scan's ratchet and query masks (if any), the control and
/// the fault/stop ledger. Every member of a per-pair, bit-parallel or
/// quarantined unit runs through [`drain`](UnitRun::drain), and every
/// finished member through [`finish`](UnitRun::finish), so the stop
/// check, the length prune and the ratchet observation are each written
/// once.
struct UnitRun<'a, S: Symbol> {
    cfg: &'a AlignConfig,
    pairs: &'a [(&'a PackedSeq<S>, &'a PackedSeq<S>)],
    ratchet: Option<&'a Ratchet>,
    masks: Option<&'a QueryMasks>,
    ctrl: &'a ScanControl,
    ledger: ExecLedger,
}

impl<S: Symbol> UnitRun<'_, S> {
    /// The threshold a unit or member starts under: the ratchet's
    /// current value in a scan, the configured one in a batch.
    fn threshold(&self) -> Option<u64> {
        match self.ratchet {
            Some(r) => r.current(),
            None => self.cfg.threshold,
        }
    }

    /// Checks the stop conditions, ledgering a stop it finds.
    fn check_stop(&self) -> Result<(), StopReason> {
        match self.ctrl.should_stop() {
            Some(stop) => Err(self.stopped(stop)),
            None => Ok(()),
        }
    }

    /// Ledgers `stop` (the first stop of a run wins) and hands it back.
    fn stopped(&self, stop: StopReason) -> StopReason {
        self.ledger.note_stop(stop);
        stop
    }

    /// Runs one claimed unit; `Err` carries the stop that cut it short.
    fn unit(&self, unit: &mut WorkUnit, worker: &mut WorkerScratch) -> Result<(), StopReason> {
        match unit.kind {
            UnitKind::Striped => self.stripe(unit, worker),
            UnitKind::PerPair => self.per_pair(unit, worker),
            UnitKind::BitParallel => {
                let masks = self
                    .masks
                    .expect("bit-parallel units run only in a ratcheted scan with masks");
                let bits = &mut worker.bits;
                // AssertUnwindSafe: a panic leaves only the worker's
                // bit-parallel state words stale, and the kernel
                // re-initializes them per pair.
                let drained = catch_unwind(AssertUnwindSafe(|| {
                    self.drain(unit, |i, t| {
                        let (q, p) = self.pairs[i];
                        fp_hit("bitpar-sweep");
                        let (score, columns) = masks.score(p, t, bits);
                        // The whole grid once every column is swept.
                        let swept = (q.len() as u64 + 1) * (columns as u64 + 1);
                        self.ctrl.charge(swept);
                        telemetry::count(&telemetry::metrics::BITPAR_PAIRS, 1);
                        // A score above `t`, computed or proved by the
                        // kernel's early stop, is reported as abandoned.
                        let finished = score.filter(|&s| t.is_none_or(|t| s <= t));
                        Ok(Some(EngineOutcome {
                            score: finished.map_or(Time::NEVER, raw_to_time),
                            cells_computed: swept,
                            early_terminated: finished.is_none(),
                        }))
                    })
                }));
                drained.unwrap_or_else(|payload| {
                    self.quarantine(unit, worker, "bitpar-sweep", panic_message(&*payload))
                })
            }
        }
    }

    /// The member loop of every per-pair, bit-parallel and quarantined
    /// unit. Per member not yet `Done`, in order: check the stop
    /// conditions, read the [`threshold`](UnitRun::threshold), apply
    /// the length prune (ratcheted runs only: the fixed-threshold batch
    /// promises the per-pair kernel's exact cell counts), then
    /// `sweep(pair, t)` and [`finish`](UnitRun::finish). `sweep` returns
    /// the outcome, `None` for a pair lost to a fault, or the stop that
    /// cut it short; a stop ends the unit.
    fn drain(
        &self,
        unit: &mut WorkUnit,
        mut sweep: impl FnMut(usize, Option<u64>) -> Result<Option<EngineOutcome>, StopReason>,
    ) -> Result<(), StopReason> {
        for idx in 0..unit.members.len() {
            if matches!(unit.slots[idx], Slot::Done(_)) {
                continue;
            }
            let i = unit.members[idx];
            self.check_stop()?;
            let t = self.threshold();
            if self.ratchet.is_some()
                && t.is_some_and(|t| length_prunes(self.cfg, self.pairs[i], t))
            {
                telemetry::count(&telemetry::metrics::PAIRS_PRUNED, 1);
                self.finish(unit, idx, PRUNED);
                continue;
            }
            match sweep(i, t).map_err(|stop| self.stopped(stop))? {
                Some(outcome) => self.finish(unit, idx, outcome),
                None => unit.slots[idx] = Slot::Faulted,
            }
        }
        Ok(())
    }

    /// Marks member `idx` `Done` with `outcome` and, in a scan, feeds a
    /// finished score to the ratchet. This is the only place either
    /// happens, so every score is observed exactly once: a repeat
    /// observation of the same `(score, index)` would occupy two of the
    /// heap's k slots and tighten the ratchet below the true k-th best,
    /// breaking the abandon proof. The observation runs under
    /// `catch_unwind`: an injected `ratchet` failpoint panic loses it,
    /// which is sound, since a missed observation only leaves the
    /// ratchet looser than it could be.
    fn finish(&self, unit: &mut WorkUnit, idx: usize, outcome: EngineOutcome) {
        unit.slots[idx] = Slot::Done(outcome);
        let (Some(r), Some(score)) = (self.ratchet, outcome.finished_score()) else {
            return;
        };
        let index = unit.members[idx];
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| r.observe(score, index))) {
            self.ledger.note_fault(Fault::new(
                "ratchet",
                vec![index],
                true,
                panic_message(&*payload),
            ));
        }
    }

    /// The rolling-row retry of pair `i` under threshold `t`, under its
    /// own `catch_unwind`: the outcome, the stop that cut it short, or
    /// `None` when the retry panicked too (ledgered as a lost `per-pair`
    /// fault).
    fn fallback(
        &self,
        engine: &mut AlignEngine,
        i: usize,
        t: Option<u64>,
    ) -> Result<Option<EngineOutcome>, StopReason> {
        let mut cfg = *self.cfg;
        cfg.strategy = KernelStrategy::RollingRow;
        cfg.threshold = t;
        engine.set_config(cfg);
        telemetry::count(&telemetry::metrics::PAIR_FALLBACKS, 1);
        let (q, p) = self.pairs[i];
        let recovered = catch_unwind(AssertUnwindSafe(|| {
            engine.align_ctrl(q, p, Some(self.ctrl))
        }));
        self.ctrl.trace(|| TraceEvent::PairFallback {
            pair: i as u64,
            recovered: recovered.is_ok(),
        });
        match recovered {
            Ok(res) => res.map(Some),
            Err(payload) => {
                telemetry::count(&telemetry::metrics::WORKER_FAULTS, 1);
                self.ledger.note_fault(Fault::new(
                    "per-pair",
                    vec![i],
                    false,
                    panic_message(&*payload),
                ));
                Ok(None)
            }
        }
    }

    /// A per-pair unit: [`drain`](UnitRun::drain) with the engine's own
    /// kernel, each alignment under its own `catch_unwind`; a panicked
    /// pair is retried once on the [`fallback`](UnitRun::fallback)
    /// before it is declared lost.
    ///
    /// In a scan the threshold is re-read per pair, not per unit —
    /// per-pair units can hold a large share of the batch (e.g.
    /// short-read databases where nothing stripes), so the threshold
    /// keeps tightening while the unit drains; the per-pair plan
    /// re-resolves lane width from the live threshold, so the fused
    /// abandon stays exact.
    fn per_pair(&self, unit: &mut WorkUnit, worker: &mut WorkerScratch) -> Result<(), StopReason> {
        let engine = &mut worker.engine;
        self.drain(unit, |i, t| {
            let mut cfg = *self.cfg;
            cfg.threshold = t;
            engine.set_config(cfg);
            let (q, p) = self.pairs[i];
            match catch_unwind(AssertUnwindSafe(|| {
                engine.align_ctrl(q, p, Some(self.ctrl))
            })) {
                Ok(res) => res.map(Some),
                Err(payload) => {
                    let retry = self.fallback(engine, i, t);
                    if matches!(retry, Ok(None)) {
                        flight::dump("worker-fault");
                    } else {
                        self.ledger.note_fault(Fault::new(
                            "per-pair",
                            vec![i],
                            true,
                            panic_message(&*payload),
                        ));
                    }
                    retry
                }
            }
        })
    }

    /// A striped unit: under the ratchet, the whole-stripe length prune;
    /// then the scratch-budget gate (a stripe over it degrades to a
    /// [`per_pair`](UnitRun::per_pair) unit) and one sweep under
    /// `catch_unwind` into the worker's outcome buffer.
    /// Every member then ends in [`finish`](UnitRun::finish), or a
    /// panicked sweep is [quarantined](UnitRun::quarantine).
    fn stripe(&self, unit: &mut WorkUnit, worker: &mut WorkerScratch) -> Result<(), StopReason> {
        let (cfg, pairs) = (self.cfg, self.pairs);
        let threshold = match (self.threshold(), self.ratchet) {
            (None, _) => StripeThreshold::None,
            (Some(t), Some(_)) => StripeThreshold::Coarse(t),
            (Some(t), None) => StripeThreshold::Exact(t),
        };
        // Under the ratchet, a stripe whose every member the length
        // bound already proves out is abandoned whole, before a single
        // cell is swept.
        if let StripeThreshold::Coarse(t) = threshold {
            if unit
                .members
                .iter()
                .all(|&i| length_prunes(cfg, pairs[i], t))
            {
                telemetry::count(&telemetry::metrics::PAIRS_PRUNED, unit.members.len() as u64);
                for idx in 0..unit.members.len() {
                    self.finish(unit, idx, PRUNED);
                }
                return Ok(());
            }
        }
        if let Some(budget) = self.ctrl.scratch_budget() {
            let need = stripe_scratch_bytes(cfg, pairs, unit);
            if need > budget {
                self.ledger.note_fault(Fault::new(
                    "scratch-budget",
                    unit.members.clone(),
                    true,
                    format!(
                        "stripe scratch estimate {need} B exceeds budget {budget} B; \
                         members degraded to the per-pair kernel"
                    ),
                ));
                return self.per_pair(unit, worker);
            }
        }
        worker.outcomes.clear();
        worker
            .outcomes
            .resize(unit.members.len(), EngineOutcome::default());
        // AssertUnwindSafe: on panic the stripe scratch holds stale sweep
        // state, but every field is re-packed or re-sized from scratch by
        // the next sweep, so no torn state can leak into later results.
        let sweep = catch_unwind(AssertUnwindSafe(|| {
            run_stripe(
                cfg,
                pairs,
                &unit.members,
                unit.width,
                threshold,
                &mut worker.stripe,
                &mut worker.outcomes,
            );
        }));
        if let Err(payload) = sweep {
            return self.quarantine(unit, worker, "stripe-sweep", panic_message(&*payload));
        }
        let cells: u64 = worker.outcomes.iter().map(|r| r.cells_computed).sum();
        self.ctrl.charge(cells);
        telemetry::count(&telemetry::metrics::STRIPE_UNITS, 1);
        telemetry::count(&telemetry::metrics::UNIT_PAIRS, unit.members.len() as u64);
        telemetry::observe(&telemetry::metrics::UNIT_CELLS, cells);
        for (idx, &outcome) in worker.outcomes.iter().enumerate() {
            self.finish(unit, idx, outcome);
        }
        Ok(())
    }

    /// Quarantines a poisoned unit: records the fault and retries every
    /// member not yet `Done` through [`drain`](UnitRun::drain), with the
    /// [`fallback`](UnitRun::fallback) as its kernel. So a retried
    /// member runs under the live threshold — always at least the true
    /// k-th best score, so a retried true-top-k entry still finishes
    /// with its exact score and the final top-k stays byte-identical to
    /// the unfaulted run (property-tested in `tests/failpoints.rs`) —
    /// and, in a scan, is length-pruned like every other member.
    ///
    /// A deadline/cancel/budget/watchdog trip *during* the retry is an
    /// interruption, not a loss: the untouched members stay `Pending`
    /// (resumable) and the unit's ledger entry carries the stop in
    /// [`Fault::interrupted`] instead of folding it into the worker-fault
    /// message. `recovered` then still reflects only the pairs the
    /// fallback actually reached.
    fn quarantine(
        &self,
        unit: &mut WorkUnit,
        worker: &mut WorkerScratch,
        site: &str,
        message: String,
    ) -> Result<(), StopReason> {
        telemetry::count(&telemetry::metrics::QUARANTINES, 1);
        self.ctrl.trace(|| TraceEvent::StripeQuarantined {
            members: unit.members.len() as u64,
        });
        let engine = &mut worker.engine;
        let drained = self.drain(unit, |i, t| self.fallback(engine, i, t));
        let lost = unit.slots.iter().any(|s| matches!(s, Slot::Faulted));
        self.ledger.note_fault(Fault {
            interrupted: drained.err(),
            ..Fault::new(site, unit.members.clone(), !lost, message)
        });
        if lost {
            flight::dump("worker-fault");
        }
        drained
    }
}

/// The outcome of a pair the length-bound prune rules out: abandoned,
/// with no cell computed.
const PRUNED: EngineOutcome = EngineOutcome {
    score: Time::NEVER,
    cells_computed: 0,
    early_terminated: true,
};

/// The ratcheted scan's length-bound prune: `true` when the closed-form
/// [`score_lower_bound`] of `pair` alone proves `score > t`. Sound for
/// the same reason as every ratchet abandon — a strict proof against a
/// `t` that is always at least the true k-th best — and free: it reads
/// two lengths. Only the ratchet applies it; the fixed-threshold batch
/// path promises the per-pair kernel's exact cell counts.
fn length_prunes<S: Symbol>(
    cfg: &AlignConfig,
    (q, p): (&PackedSeq<S>, &PackedSeq<S>),
    t: u64,
) -> bool {
    score_lower_bound(
        cfg.mode,
        RawWeights::from_weights(cfg.weights),
        q.len(),
        p.len(),
    ) > t
}

/// Estimated bytes of striped-sweep scratch `unit` claims over its
/// members' union shape `(nn, mm)`: three rotating diagonal buffers of
/// `(nn + 1) · lanes` words per plane (1 plane for the linear modes, 3
/// for affine's M/Ix/Iy) plus the two interleaved `u8` code planes. A
/// gating estimate for [`ScanControl::with_scratch_budget`], not an
/// allocator contract.
fn stripe_scratch_bytes<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &WorkUnit,
) -> usize {
    let (nn, mm) = unit.members.iter().fold((0, 0), |(nn, mm), &i| {
        (nn.max(pairs[i].0.len()), mm.max(pairs[i].1.len()))
    });
    let lanes = effective_stripe_lanes(unit.width, unit.members.len());
    let planes = if matches!(cfg.mode, AlignMode::GlobalAffine(_)) {
        3
    } else {
        1
    };
    let word = unit.width.bits() as usize / 8;
    3 * planes * (nn + 1) * lanes * word + (nn + mm) * lanes
}

/// The worker count a run uses: the caller's, or one per available
/// thread. Only execution reads it; the plan is the same at every
/// worker count.
fn resolve_workers(workers: Option<usize>) -> usize {
    workers.unwrap_or_else(rayon::current_num_threads).max(1)
}

/// Whether the planner may put pairs on stripes under `cfg`: always,
/// unless the config pins [`KernelStrategy::RollingRow`]. A stripe beats
/// the rolling row at every shape, down to 1 × 1 (`short_pairs` in
/// `crates/bench/benches/batch_throughput.rs`), so no pair length keeps
/// a pair off the stripes.
fn stripes_allowed(cfg: &AlignConfig) -> bool {
    cfg.strategy != KernelStrategy::RollingRow
}

/// The planned cells ([`grid_cells`]) at which the planner closes a
/// per-pair or bit-parallel unit. Units are the grain the workers'
/// queue hands out, so a scan smaller than this is one unit and runs on
/// the calling thread alone, while a larger one splits into units a
/// helper can take. A pair at or above the target is a unit of its own.
/// Chosen from the `scan_workers` rows of
/// `crates/bench/benches/batch_throughput.rs` (`docs/KERNELS.md`,
/// "Work units").
const UNIT_CELLS: u64 = 1 << 20;

/// Groups the batch into work units with the length-aware packer
/// ([`pack_length_aware`]), which takes every pair unless the config
/// pins the rolling row. Stripes left under [`STRIPE_MIN_PAIRS`]
/// members, and every pair of a rolling-row-pinned plan, fall back to
/// per-pair runs ([`split_units`]); those resolve their kernel per pair
/// ([`AlignConfig::resolve_kernel`]). A `bit_parallel` plan (a scan
/// segment with query masks) instead splits every pair, in input order,
/// into bit-parallel units. The plan reads no worker count.
fn plan_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    bit_parallel: bool,
) -> Vec<WorkUnit> {
    fp_hit("packer");
    if bit_parallel || !stripes_allowed(cfg) {
        let kind = if bit_parallel {
            UnitKind::BitParallel
        } else {
            UnitKind::PerPair
        };
        let all: Vec<usize> = (0..pairs.len()).collect();
        return split_units(cfg, pairs, &all, kind);
    }
    let mut eligible: Vec<(usize, usize, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (q, p))| (q.len(), p.len(), i))
        .collect();
    let mut singles: Vec<usize> = Vec::new();
    let mut units = pack_length_aware(cfg, &mut eligible, &mut singles);
    singles.sort_unstable();
    units.extend(split_units(cfg, pairs, &singles, UnitKind::PerPair));
    units
}

/// Splits `members`, in order, into units of `kind`, closing each unit
/// once its planned cells reach [`UNIT_CELLS`] (none when `members` is
/// empty).
fn split_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    members: &[usize],
    kind: UnitKind,
) -> Vec<WorkUnit> {
    let unit = |members: &[usize]| WorkUnit {
        kind,
        width: LaneWidth::U64,
        members: members.to_vec(),
        slots: Vec::new(),
    };
    let mut units = Vec::new();
    let (mut start, mut cells) = (0, 0);
    for (end, &i) in members.iter().enumerate() {
        cells += grid_cells(pairs[i].0.len(), pairs[i].1.len(), cfg.band);
        if cells >= UNIT_CELLS {
            units.push(unit(&members[start..=end]));
            (start, cells) = (end + 1, 0);
        }
    }
    if start < members.len() {
        units.push(unit(&members[start..]));
    }
    units
}

/// Plans units under `catch_unwind`: an injected `packer` panic
/// degrades to an all-per-pair plan (recorded as a recovered fault in
/// `faults`) instead of killing a supervised scan.
fn plan_units_guarded<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    bit_parallel: bool,
    faults: &mut Vec<Fault>,
) -> Vec<WorkUnit> {
    match catch_unwind(AssertUnwindSafe(|| plan_units(cfg, pairs, bit_parallel))) {
        Ok(units) => units,
        Err(payload) => {
            let all: Vec<usize> = (0..pairs.len()).collect();
            let units = split_units(cfg, pairs, &all, UnitKind::PerPair);
            faults.push(Fault::new("packer", all, true, panic_message(&*payload)));
            units
        }
    }
}

/// The length-aware greedy packer. Pairs sorted by
/// `(n, m)` are packed into consecutive stripes; a stripe accepts its
/// next pair while
///
/// 1. the member count stays within the lane count of the union shape's
///    lane width (adding a pair can *widen* the union's kernel word and
///    thereby halve the lane count), and
/// 2. the padding stays within budget:
///    `Σ swept − Σ useful ≤ (STRIPE_PAD_BUDGET_PCT/100) · Σ useful`,
///    where `useful` is each member's own banded cell count and
///    `swept` is the union shape's banded cell count per member lane.
///
/// Sorting makes neighbours shape-similar, so realistic ragged batches
/// pack nearly full stripes; the budget bounds the worst case. Either
/// way the sweep itself is unchanged — per-lane geometry masks and
/// early lane retirement (PR 3) are what make cross-length stripes
/// cheap.
fn pack_length_aware(
    cfg: &AlignConfig,
    eligible: &mut [(usize, usize, usize)],
    singles: &mut Vec<usize>,
) -> Vec<WorkUnit> {
    eligible.sort_unstable();
    let mut units = Vec::new();
    let mut start = 0;
    while start < eligible.len() {
        let (n0, m0, _) = eligible[start];
        let (mut nn, mut mm) = (n0, m0);
        let mut width = cfg.resolve_stripe_lanes(nn, mm);
        let mut useful = u128::from(grid_cells(n0, m0, cfg.band));
        let mut count = 1_usize;
        while start + count < eligible.len() {
            let (n2, m2, _) = eligible[start + count];
            let cand_nn = nn.max(n2);
            let cand_mm = mm.max(m2);
            // Width is a function of the union shape alone: re-resolve
            // only when the candidate grows it.
            let cand_width = if (cand_nn, cand_mm) == (nn, mm) {
                width
            } else {
                cfg.resolve_stripe_lanes(cand_nn, cand_mm)
            };
            if count + 1 > stripe_lanes(cand_width) {
                break;
            }
            let cand_useful = useful + u128::from(grid_cells(n2, m2, cfg.band));
            let swept = u128::from(grid_cells(cand_nn, cand_mm, cfg.band)) * (count as u128 + 1);
            if (swept - cand_useful) * 100 > cand_useful * u128::from(STRIPE_PAD_BUDGET_PCT) {
                break;
            }
            (nn, mm, width, useful) = (cand_nn, cand_mm, cand_width, cand_useful);
            count += 1;
        }
        let members: Vec<usize> = eligible[start..start + count]
            .iter()
            .map(|&(_, _, i)| i)
            .collect();
        if count >= STRIPE_MIN_PAIRS {
            units.push(WorkUnit {
                kind: UnitKind::Striped,
                width,
                members,
                slots: Vec::new(),
            });
        } else {
            singles.extend(members);
        }
        start += count;
    }
    units
}

/// Static occupancy accounting for a batch plan; see
/// [`crate::engine::batch_plan_stats`].
pub(crate) fn plan_stats_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
) -> BatchPlanStats {
    let mut stats = BatchPlanStats {
        pairs: pairs.len(),
        ..BatchPlanStats::default()
    };
    if stripes_allowed(cfg) {
        stats.wavefront_eligible = pairs.len();
    }
    for unit in plan_units(cfg, pairs, false) {
        if unit.kind != UnitKind::Striped {
            continue;
        }
        stats.stripes += 1;
        stats.striped_pairs += unit.members.len();
        let (mut nn, mut mm) = (0_usize, 0_usize);
        for &i in &unit.members {
            let (q, p) = &pairs[i];
            nn = nn.max(q.len());
            mm = mm.max(p.len());
            stats.useful_cells += grid_cells(q.len(), p.len(), cfg.band);
        }
        // Swept cells count every lane the sweep will actually run,
        // members or not: vector ops are full-width regardless, so
        // empty lanes are honest waste. Under-filled u16 stripes run
        // the half-width (8-lane) monomorphization, which is exactly
        // what lifts their occupancy.
        let lanes = effective_stripe_lanes(unit.width, unit.members.len());
        if unit.width == LaneWidth::U16 && lanes == HALF_STRIPE_LANES {
            stats.half_width_stripes += 1;
        }
        stats.swept_cells += grid_cells(nn, mm, cfg.band) * lanes as u64;
    }
    stats
}

/// Reusable striped-sweep scratch: the two interleaved code planes,
/// diagonal buffers at every lane width, and the shape gather list — so
/// steady-state striping allocates nothing per stripe. `q_key`
/// identifies the query plane's current contents for many-vs-one scans
/// (one fixed query across every lane): when consecutive stripes share
/// the query and the plane geometry, the forward plane is packed once
/// and reused, not re-transposed per stripe.
struct StripeScratch {
    q_plane: StripedCodes,
    p_plane: StripedCodes,
    /// `(query address, lanes, positions)` of the query plane's current
    /// packing. Valid only within one `run_units` pass, which builds
    /// its scratch fresh: operand addresses are not stable across
    /// calls.
    q_key: Option<(usize, usize, usize)>,
    shapes: Vec<(usize, usize)>,
    diag: DiagScratch,
}

impl StripeScratch {
    fn new() -> Self {
        StripeScratch {
            q_plane: StripedCodes::new(),
            p_plane: StripedCodes::new(),
            q_key: None,
            shapes: Vec::new(),
            diag: DiagScratch::default(),
        }
    }
}

/// Packs one stripe's planes and dispatches the sweep at the stripe's
/// lane width.
fn run_stripe<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    members: &[usize],
    width: LaneWidth,
    threshold: StripeThreshold,
    scratch: &mut StripeScratch,
    results: &mut [EngineOutcome],
) {
    fp_hit("stripe-sweep");
    scratch.shapes.clear();
    let (mut nn, mut mm) = (0_usize, 0_usize);
    for &i in members {
        let (q, p) = &pairs[i];
        scratch.shapes.push((q.len(), p.len()));
        nn = nn.max(q.len());
        mm = mm.max(p.len());
    }
    let lanes = effective_stripe_lanes(width, members.len());
    debug_assert!(members.len() <= lanes, "stripe wider than its lane count");
    let q0 = pairs[members[0]].0;
    if members.iter().all(|&i| std::ptr::eq(pairs[i].0, q0)) {
        // Many-vs-one: every lane is the same query. Pack it into every
        // lane once (inactive lanes holding real codes are harmless —
        // they start retired and are masked from minima and counts) and
        // reuse the plane for every stripe with the same geometry.
        let key = (std::ptr::from_ref(q0) as usize, lanes, nn);
        if scratch.q_key != Some(key) {
            scratch
                .q_plane
                .pack_lanes_forward((0..lanes).map(|_| q0), lanes, nn, Q_PAD);
            scratch.q_key = Some(key);
        }
    } else {
        scratch
            .q_plane
            .pack_lanes_forward(members.iter().map(|&i| pairs[i].0), lanes, nn, Q_PAD);
        scratch.q_key = None;
    }
    scratch
        .p_plane
        .pack_lanes_reversed(members.iter().map(|&i| pairs[i].1), lanes, mm, P_PAD);
    let w = RawWeights::from_weights(cfg.weights);
    // The remaining-cost bound rides the ratchet's coarse mode only: the
    // fixed-threshold path keeps the per-pair kernel's exact cell counts.
    let suffix = match threshold {
        StripeThreshold::Coarse(_) => SuffixBound::new(cfg.mode, w, nn, mm),
        StripeThreshold::None | StripeThreshold::Exact(_) => None,
    };
    // The one `(width, lanes)` → `(W, L)` table: u16 and u8 stripes of
    // at most half their lanes run the half-width monomorphization.
    let sweep = match (width, lanes) {
        (LaneWidth::U8, HALF_U8_STRIPE_LANES) => sweep_at::<u8, HALF_U8_STRIPE_LANES>,
        (LaneWidth::U8, _) => sweep_at::<u8, 32>,
        (LaneWidth::U16, HALF_STRIPE_LANES) => sweep_at::<u16, HALF_STRIPE_LANES>,
        (LaneWidth::U16, _) => sweep_at::<u16, 16>,
        (LaneWidth::U32, _) => sweep_at::<u32, 8>,
        (LaneWidth::U64, _) => sweep_at::<u64, 8>,
    };
    sweep(cfg, (nn, mm), threshold, suffix, scratch, results);
}

/// Runs the configured mode's striped sweep at lane word `W` and `L`
/// lanes over the stripe packed into `scratch`.
fn sweep_at<W: DiagWord, const L: usize>(
    cfg: &AlignConfig,
    union: (usize, usize),
    threshold: StripeThreshold,
    suffix: Option<SuffixBound>,
    scratch: &mut StripeScratch,
    results: &mut [EngineOutcome],
) {
    if let AlignMode::GlobalAffine(_) = cfg.mode {
        fp_hit("affine-stripe");
    }
    let stripe = Stripe {
        shapes: &scratch.shapes,
        q: scratch.q_plane.as_slice(),
        p: scratch.p_plane.as_slice(),
        union,
        band: cfg.band,
    };
    let planes = W::planes(&mut scratch.diag);
    // Striped units are admitted whole and charged at their end, so the
    // sweeps run free here; only per-pair alignments checkpoint inside.
    let free = &mut SupCursor::new(None);
    mode_sweep::<W, L>(cfg, stripe, threshold, suffix, planes, results, free)
        .expect("a free-running sweep cannot stop early");
}

/// One stripe's operands: the lane shapes, the lane-interleaved code
/// planes (`q` forward, `p` reversed, both by absolute row) and the union
/// shape the sweep runs, under the shared band.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stripe<'a> {
    pub(crate) shapes: &'a [(usize, usize)],
    pub(crate) q: &'a [u8],
    pub(crate) p: &'a [u8],
    pub(crate) union: (usize, usize),
    pub(crate) band: Option<usize>,
}

/// The three rotating buffers of one plane on diagonal `d`: `(cur, d − 1,
/// d − 2)` (see [`rotate_bufs`]).
type Rotation<'a, W> = (&'a mut Vec<W>, &'a mut Vec<W>, &'a mut Vec<W>);

/// How a lane of [`stripe_sweep`] reads its score when it retires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Readout {
    /// The sink cell `(n_l, m_l)`: global and affine.
    Sink,
    /// The minimum over the lane's bottom-row cells, kept in its best
    /// register: the semi-global free end.
    BottomRowMin,
    /// The maximum over every cell the lane computed, kept in its best
    /// register: local.
    RunningMax,
}

/// A score model as [`stripe_sweep`] runs it: a cell has one state in
/// each of `P` planes (1 for the linear and local recurrences, 3 for
/// Gotoh's M / Ix / Iy), and each plane has its own three rotating
/// diagonal buffers. Everything else — the absolute-row layout, padding,
/// the u8 bias, both threshold kinds, the remaining-cost checkpoint,
/// lane retirement and cell counting — is the sweep's, written once.
/// The readout and the reset value are associated consts, so each
/// monomorphization compiles the other models' branches out.
pub(crate) trait Recurrence<W: KernelWord, const P: usize> {
    /// How a lane reads its score at retirement.
    const READOUT: Readout;

    /// The value of a cell no path enters: the buffers' initial fill,
    /// the one-row padding around each written span and the cells of a
    /// band-empty diagonal. `+∞` under min-plus; `0` under max-plus,
    /// where a missing neighbour is a fresh start.
    const RESET: W;

    /// Cell `(0, d)` and cell `(d, 0)` in each plane, less the running u8
    /// `bias`.
    fn boundary(&self, d: usize, bias: u64) -> ([W; P], [W; P]);

    /// Writes the interior cells `a..b` of the current diagonal in every
    /// plane from the two diagonals behind it, and returns the minimum
    /// written across planes and lanes. `q` and `p` are the cells' codes
    /// `q[i − 1]` and `p[j − 1]`. Only a [`Readout::RunningMax`] model
    /// writes the lanes' `best` registers, fused into the update.
    fn update<const L: usize>(
        &self,
        views: &mut [Rotation<'_, W>; P],
        a: usize,
        b: usize,
        q: &[u8],
        p: &[u8],
        best: &mut [W; L],
    ) -> W;

    /// The cross-plane minimum of the current diagonal's cell `t`: the
    /// cell's arrival time. Sound as a frontier value because a path
    /// visits one plane state per crossed cell and every weight is
    /// non-negative.
    fn cell(views: &[Rotation<'_, W>; P], t: usize) -> W {
        views.iter().fold(W::INF, |v, (cur, ..)| v.min(cur[t]))
    }
}

/// The linear recurrence of [`AlignMode::Global`] and, with `SEMI`,
/// [`AlignMode::SemiGlobal`]: one plane.
struct Linear<W, const SEMI: bool> {
    lw: LaneWeights<W>,
    indel: u64,
}

impl<W: KernelWord, const SEMI: bool> Recurrence<W, 1> for Linear<W, SEMI> {
    const READOUT: Readout = if SEMI {
        Readout::BottomRowMin
    } else {
        Readout::Sink
    };
    const RESET: W = W::INF;

    fn boundary(&self, d: usize, bias: u64) -> ([W; 1], [W; 1]) {
        // Indel chains from the root, except the semi-global top row,
        // which is a free injection point.
        let chain = W::clamp_raw((d as u64).saturating_mul(self.indel).saturating_sub(bias));
        ([if SEMI { W::ZERO } else { chain }], [chain])
    }

    #[inline]
    fn update<const L: usize>(
        &self,
        [(cur, d1, d2)]: &mut [Rotation<'_, W>; 1],
        a: usize,
        b: usize,
        q: &[u8],
        p: &[u8],
        _best: &mut [W; L],
    ) -> W {
        // Lane-interleaved storage makes the interior one flat
        // recurrence in `t = i·L + l`: `up` and `diag` sit one row back,
        // `left` at `t` on diagonal d − 1.
        let (up, left, diag) = (&d1[a - L..b - L], &d1[a..b], &d2[a - L..b - L]);
        if L == 1 {
            // One lane's segment is a plain run of cells, which the
            // unstriped form vectorizes at every length.
            simd::diag_update(up, left, diag, q, p, self.lw, &mut cur[a..b])
        } else {
            simd::diag_update_lanes::<W, L>(up, left, diag, q, p, self.lw, &mut cur[a..b])
        }
    }
}

/// Gotoh's affine-gap recurrence of [`AlignMode::GlobalAffine`]: the
/// M, Ix and Iy planes of [`simd::affine_diag_update_lanes`].
struct Affine<W> {
    lw: simd::AffineLaneWeights<W>,
    open: u64,
    indel: u64,
}

impl<W: KernelWord> Recurrence<W, 3> for Affine<W> {
    const READOUT: Readout = Readout::Sink;
    const RESET: W = W::INF;

    fn boundary(&self, d: usize, bias: u64) -> ([W; 3], [W; 3]) {
        // A single gap run from the root: one open plus d extensions, in
        // the plane that gap lives in — Iy (consuming P) for cell (0, d),
        // Ix (consuming Q) for cell (d, 0).
        let run = W::clamp_raw(
            self.open
                .saturating_add((d as u64).saturating_mul(self.indel))
                .saturating_sub(bias),
        );
        ([W::INF, W::INF, run], [W::INF, run, W::INF])
    }

    #[inline]
    fn update<const L: usize>(
        &self,
        [(mc, m1, m2), (xc, x1, x2), (yc, y1, y2)]: &mut [Rotation<'_, W>; 3],
        a: usize,
        b: usize,
        q: &[u8],
        p: &[u8],
        _best: &mut [W; L],
    ) -> W {
        let (up, left) = (a - L..b - L, a..b);
        simd::affine_diag_update_lanes::<W, L>(
            &m1[up.clone()],
            &x1[up.clone()],
            &y1[up.clone()],
            &m1[left.clone()],
            &x1[left.clone()],
            &y1[left.clone()],
            &m2[up.clone()],
            &x2[up.clone()],
            &y2[up],
            q,
            p,
            self.lw,
            &mut mc[left.clone()],
            &mut xc[left.clone()],
            &mut yc[left],
        )
    }
}

/// The max-plus Smith–Waterman recurrence of [`AlignMode::Local`], the
/// AND-type dual of the min-plus race, on one plane through
/// [`simd::diag_update_local_lanes`].
///
/// Boundary and reset values are `0`, not `+∞`: in Smith–Waterman a
/// missing neighbour *is* a fresh start (`H ≥ 0` everywhere, and
/// reading an out-of-band cell as `0` is the textbook banded convention
/// of treating unbuilt cells as empty alignments). The per-lane maxima
/// are accumulated **unmasked**: a lane's out-of-shape and padded cells
/// can never exceed its true in-shape best, because padding sentinels
/// never compare equal to any code (no match bonus is reachable) and
/// every other operation is non-increasing — so by induction every
/// out-of-shape value is bounded by an earlier in-shape value already
/// folded into the register. That makes the unmasked per-diagonal max
/// exact, not just conservative (property-tested: striped local ==
/// sequential [`AlignEngine::align`], byte-identical). Retired lanes keep
/// accumulating junk; their registers are never read again.
///
/// The readout is each lane's running maximum over its computed cells:
/// the best-cell register the hardware's paper-§6 threshold comparator
/// would watch. Local mode has no sound frontier abandon and runs
/// unbiased, so its sweep carries no threshold, bias or remaining-cost
/// code, and lanes only retire at their final diagonal.
struct Local<W> {
    lw: LaneWeights<W>,
}

impl<W: KernelWord> Recurrence<W, 1> for Local<W> {
    const READOUT: Readout = Readout::RunningMax;
    const RESET: W = W::ZERO;

    fn boundary(&self, _d: usize, _bias: u64) -> ([W; 1], [W; 1]) {
        ([W::ZERO], [W::ZERO]) // empty local alignments
    }

    #[inline]
    fn update<const L: usize>(
        &self,
        [(cur, d1, d2)]: &mut [Rotation<'_, W>; 1],
        a: usize,
        b: usize,
        q: &[u8],
        p: &[u8],
        best: &mut [W; L],
    ) -> W {
        let (up, left, diag) = (&d1[a - L..b - L], &d1[a..b], &d2[a - L..b - L]);
        simd::diag_update_local_lanes::<W, L>(up, left, diag, q, p, self.lw, &mut cur[a..b], best);
        W::INF // no frontier minimum: nothing abandons a max-plus race
    }
}

/// The sweep of `cfg`'s mode over the lane word's `planes`, the one place
/// a mode picks its [`Recurrence`]: the linear recurrence
/// ([`AlignMode::Global`], [`AlignMode::SemiGlobal`]) and the local one
/// on plane 0, the affine one on all three. The u8 word runs biased (see
/// `engine::u8_bias_rate`); wider words store raw values and the bias
/// machinery compiles out at rate 0. The per-pair wavefront is `L = 1`
/// under an [`StripeThreshold::Exact`] threshold (or none) and no
/// remaining-cost bound.
pub(crate) fn mode_sweep<W: DiagWord, const L: usize>(
    cfg: &AlignConfig,
    stripe: Stripe<'_>,
    threshold: StripeThreshold,
    suffix: Option<SuffixBound>,
    planes: &mut [[Vec<W>; 3]; 3],
    out: &mut [EngineOutcome],
    sup: &mut SupCursor<'_>,
) -> Result<(), StopReason> {
    let w = RawWeights::from_weights(cfg.weights);
    let bias_m2 = if W::BIASED {
        u8_bias_rate(cfg.mode, w)
    } else {
        0
    };
    let (lw, indel) = (w.lanes(), w.indel);
    let plane = std::array::from_mut(&mut planes[0]);
    match cfg.mode {
        AlignMode::Global => {
            let rec = Linear::<W, false> { lw, indel };
            stripe_sweep::<W, _, L, 1>(&rec, stripe, threshold, suffix, bias_m2, plane, out, sup)
        }
        AlignMode::SemiGlobal => {
            let rec = Linear::<W, true> { lw, indel };
            stripe_sweep::<W, _, L, 1>(&rec, stripe, threshold, suffix, bias_m2, plane, out, sup)
        }
        AlignMode::Local(s) => {
            let lw = LaneWeights {
                matched: W::clamp_raw(s.matched),
                mismatched: W::clamp_raw(s.mismatched),
                indel: W::clamp_raw(s.gap),
            };
            let rec = Local { lw };
            stripe_sweep::<W, _, L, 1>(&rec, stripe, threshold, suffix, bias_m2, plane, out, sup)
        }
        AlignMode::GlobalAffine(a) => {
            let lw = simd::AffineLaneWeights {
                matched: W::clamp_raw(w.matched),
                mismatched: W::clamp_raw(w.mismatched),
                indel: W::clamp_raw(w.indel),
                open: W::clamp_raw(a.open),
            };
            let rec = Affine {
                lw,
                open: a.open,
                indel: w.indel,
            };
            stripe_sweep::<W, _, L, 3>(&rec, stripe, threshold, suffix, bias_m2, planes, out, sup)
        }
    }
}

/// One striped anti-diagonal sweep of the recurrence `rec` over a
/// cohort: lane `l` of every vector op is pair `l`. The sweep runs the
/// **union** geometry (the members' max shape `nn × mm` under the shared
/// band); each lane mirrors the per-pair wavefront over its own
/// `(n_l, m_l)` via masks:
///
/// - **Values**: each plane's diagonal buffers hold `(nn + 1) × L` words,
///   row-major by absolute row `i` with lanes interleaved, so a lane's
///   cell `(i, j)` neighbours sit at the same lane offset one row over —
///   three rotating buffers per plane, vectorized across pairs instead of
///   rows. A buffer holding diagonal `d` is read while computing
///   diagonals `d + 1` and `d + 2`, and because `lo` and `hi` grow by at
///   most one per diagonal, every such read lands in `lo(d) − 1 ..=
///   hi(d) + 1`: a one-row padding of [`Recurrence::RESET`] around each
///   written span keeps stale values unread.
/// - **Minima**: a lane's frontier minimum includes exactly its own
///   in-band cells (`i ≤ n_l ∧ d − i ≤ m_l`, band shared) across every
///   plane; padded and out-of-shape cells contribute `+∞`. One lane's
///   in-band cells are the whole diagonal, so at `L = 1` the exact
///   minimum is the fused one the update returns (plus the boundary
///   cells), and the masked pass is skipped.
/// - **Early termination**: before each diagonal `d`, every live lane
///   applies the per-pair abandon rule to its own two-diagonal minima
///   and retires independently (the stripe stops early only when *all*
///   lanes have retired).
/// - **Retirement**: at `d = n_l + m_l` the lane reads its score by
///   [`Recurrence::READOUT`] — the sink cell from the current diagonal
///   (its cross-plane minimum, raised by the bias) or its best register —
///   and classifies exactly like the per-pair epilogue. Cells are counted
///   over grid *positions*, not plane states.
///
/// A `threshold` at or above the lane word's `+∞` sentinel is clamped
/// to it, which makes the in-lane abandon comparison `min > INF`
/// unsatisfiable — the sweep simply never abandons, while the `u64`
/// end-of-lane classification stays exact. Callers that need the
/// abandon to *fire* exactly (the fixed-threshold batch path) plan lane
/// widths with the threshold folded into eligibility; the ratcheted
/// scan instead starts from `+∞` and relies on this conservative
/// clamping until the ratchet tightens into range.
///
/// **Semi-global** ([`Readout::BottomRowMin`]) mirrors the per-pair
/// free-end semantics lane by lane: top-row boundary cells inject `0`,
/// a per-lane **best-score register** tracks each lane's bottom-row
/// minimum (one extra read per live lane per diagonal — the bottom row
/// meets each diagonal in exactly one cell), every abandon rule folds
/// the lane's best in (an in-threshold hit already seen must block the
/// abandon), and lanes retire on their best register instead of the
/// sink cell — which also gives band-excluded sinks the right verdict
/// for free. **Local** ([`Readout::RunningMax`], see [`Local`]) keeps the
/// register as a running maximum that its update writes, and its
/// instance drops the thresholds, the bias and the remaining-cost
/// checkpoint at compile time.
///
/// `sup` checkpoints once per diagonal: `tick(0)` on a band-empty one,
/// `tick(span)` after each computed one.
#[allow(clippy::too_many_arguments)]
fn stripe_sweep<W: KernelWord, R: Recurrence<W, P>, const L: usize, const P: usize>(
    rec: &R,
    stripe: Stripe<'_>,
    threshold: StripeThreshold,
    suffix: Option<SuffixBound>,
    bias_m2: u64,
    planes: &mut [[Vec<W>; 3]; P],
    out: &mut [EngineOutcome],
    sup: &mut SupCursor<'_>,
) -> Result<(), StopReason> {
    let Stripe {
        shapes,
        q: q_plane,
        p: p_plane,
        union: (nn, mm),
        band,
    } = stripe;
    let lanes = shapes.len();
    assert!(lanes <= L && lanes == out.len());
    let semi = matches!(R::READOUT, Readout::BottomRowMin);
    // A max-plus race has no sound frontier abandon and never runs
    // biased: fixing these here lets its instance compile them out.
    let (threshold, suffix, bias_m2) = match R::READOUT {
        Readout::RunningMax => (StripeThreshold::None, None, 0),
        Readout::Sink | Readout::BottomRowMin => (threshold, suffix, bias_m2),
    };
    debug_assert!(
        bias_m2 == 0 || !semi,
        "the bias rate is zero for semi-global"
    );
    let t_raw = threshold.classify_raw();
    // Every abandon register is dead without a threshold. Branching on
    // this loop invariant, rather than on the registers themselves, keeps
    // the unthresholded diagonal loop as lean as a dedicated kernel.
    let thresholded = t_raw.is_some();
    // `u8` is the only biased monomorphization, and the only one whose
    // plan can admit a threshold at/above the lane word's `+∞`
    // (`engine::u8_admits` proves the saturated-threshold abandon rule
    // exact there — see the abandon check below).
    let byte = std::mem::size_of::<W>() == 1;
    let mut bias = 0_u64;
    let mut front = Frontier::<W, L>::new(threshold);
    for b in planes.iter_mut().flatten() {
        b.clear();
        b.resize((nn + 1) * L, R::RESET);
    }

    // Per-lane shape masks as u32 (vectorizes the validity compares).
    // Inactive lanes keep (0, 0) but start retired.
    let mut n_arr = [0_u32; L];
    let mut m_arr = [0_u32; L];
    for (l, &(n, m)) in shapes.iter().enumerate() {
        n_arr[l] = u32::try_from(n).expect("sequence fits u32");
        m_arr[l] = u32::try_from(m).expect("sequence fits u32");
    }

    // Diagonal 0: the root cell (0, 0), real for every pair, in the
    // first plane (M for affine).
    planes[0][0][..L].fill(W::ZERO);
    let mut cells = [1_u64; L];
    let mut done = [true; L];
    // Per-lane best-score registers (semi-global and local readouts): the
    // running minimum over the lane's bottom-row cells, or the running
    // maximum over its cells. For n = 0 the semi-global root cell itself
    // sits on the bottom row; the local root is the reset value 0.
    let mut best = [R::RESET; L];
    let mut live = 0_usize;
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if semi && n == 0 {
            best[l] = W::ZERO;
        }
        if n + m == 0 {
            // Root-only pair: the per-pair loop body never runs.
            out[l] = classify_outcome(0, t_raw, 1);
        } else {
            done[l] = false;
            live += 1;
        }
    }

    for d in 1..=(nn + mm) {
        if live == 0 {
            break; // every lane retired — nothing left to sweep
        }
        // u8 bias rebase at a window boundary: subtract the constant
        // window delta from every stored value so the live range stays
        // inside the byte. `+∞` is preserved (a clamped or NEVER cell
        // must keep reading as `+∞`), and live in-band values cannot
        // underflow (they carry ≥ 15·m2 of slack at a boundary — see
        // [`crate::engine::applied_bias`]; gap opens only add cost, so
        // the bound holds on every plane). The registers and thresholds
        // shift here, before the abandon checks read them; the frontier
        // buffers shift after rotation (see `rebase_buf`), so only the
        // two readable diagonals of each plane pay the pass.
        let mut rebase_delta: Option<W> = None;
        if bias_m2 > 0 {
            let new_bias = applied_bias(d, bias_m2);
            if new_bias != bias {
                let delta = W::clamp_raw(new_bias - bias);
                bias = new_bias;
                front = front.rebased(delta, threshold, bias);
                rebase_delta = Some(delta);
            }
        }
        if thresholded {
            // Per-lane abandon check, before computing diagonal d (the
            // per-pair kernel's order). Semi-global folds the lane's best
            // bottom-row value in, exactly like the per-pair kernel. When
            // the (bias-adjusted) threshold saturates the lane word, the
            // byte kernel abandons on an all-`+∞` frontier: `u8_admits`
            // guarantees every value `≤ min(threshold, d·max_step)` is
            // stored exactly then, so an all-`+∞` lane frontier proves
            // the lane's true frontier minimum exceeds the threshold —
            // the same diagonal the per-pair `u64` kernel abandons at.
            if let Some(t) = front.exact {
                for l in 0..lanes {
                    let mut floor = front.lane1[l].min(front.lane2[l]);
                    if semi {
                        floor = floor.min(best[l]);
                    }
                    let abandon = if t < W::INF {
                        floor > t
                    } else {
                        byte && floor >= W::INF
                    };
                    if !done[l] && abandon {
                        out[l] = EngineOutcome {
                            score: Time::NEVER,
                            cells_computed: cells[l],
                            early_terminated: true,
                        };
                        done[l] = true;
                        live -= 1;
                    }
                }
                if live == 0 {
                    break;
                }
            }
            // Coarse whole-stripe abandon: the two-diagonal lower bound
            // is ≤ every live lane's true frontier minimum, so exceeding
            // the threshold proves score > t for every lane at once —
            // provided no live lane has already banked a bottom-row value
            // within the threshold (semi-global), hence the fold over
            // best registers.
            if let Some(t) = front.coarse {
                let mut floor = front.stripe1.min(front.stripe2);
                if semi {
                    for l in 0..lanes {
                        if !done[l] {
                            floor = floor.min(best[l]);
                        }
                    }
                }
                if floor > t {
                    abandon_live_lanes(&mut done, &mut live, &cells, out);
                    break;
                }
            }
        }
        let mut views = planes.each_mut().map(|bufs| rotate_bufs(bufs, d));
        if let Some(delta) = rebase_delta {
            for (_, d1, d2) in &mut views {
                rebase_buf(d1, delta);
                rebase_buf(d2, delta);
            }
        }
        // Remaining-cost checkpoint (coarse global and affine only):
        // elapsed cost plus Ukkonen's bound on each lane's suffix, over
        // d − 1 and d − 2.
        if let (Some(sb), StripeThreshold::Coarse(t)) = (suffix, threshold) {
            if d % REMAINING_BOUND_EVERY == 0
                && sb.proves_out(
                    views.each_ref().map(|(_, d1, _)| &d1[..]),
                    views.each_ref().map(|(_, _, d2)| &d2[..]),
                    d,
                    (nn, mm),
                    band,
                    shapes,
                    &done,
                    t.saturating_sub(bias),
                )
            {
                abandon_live_lanes(&mut done, &mut live, &cells, out);
                break;
            }
        }
        let (lo, hi) = diag_range(d, nn, mm, band);
        let mut span = 0;
        if lo > hi {
            // Band-empty union diagonal (empty for every lane, since
            // lane ranges are subsets): reset the cells later diagonals
            // may read, in every plane.
            let clo = lo.saturating_sub(1).min(nn);
            let chi = (hi + 1).min(nn);
            if clo <= chi {
                for (cur, ..) in &mut views {
                    cur[clo * L..(chi + 1) * L].fill(R::RESET);
                }
            }
            if thresholded {
                front.push([W::INF; L], W::INF);
            }
        } else {
            // One-row reset padding around the written span, then the
            // boundary cells, in every plane.
            for (cur, ..) in &mut views {
                if lo > 0 {
                    cur[(lo - 1) * L..lo * L].fill(R::RESET);
                }
                if hi < nn {
                    cur[(hi + 1) * L..(hi + 2) * L].fill(R::RESET);
                }
            }
            let (mut top, mut left) = (W::INF, W::INF);
            if lo == 0 || hi == d {
                let (tops, lefts) = rec.boundary(d, bias);
                for (k, (cur, ..)) in views.iter_mut().enumerate() {
                    if lo == 0 {
                        cur[..L].fill(tops[k]); // cell (0, d) — real where d ≤ m_l
                    }
                    if hi == d {
                        cur[d * L..(d + 1) * L].fill(lefts[k]); // cell (d, 0) — real where d ≤ n_l
                    }
                }
                if lo == 0 {
                    top = tops.into_iter().fold(W::INF, W::min);
                }
                if hi == d {
                    left = lefts.into_iter().fold(W::INF, W::min);
                }
            }
            // Interior rows: every operand of cell `t = i·L + l` sits at a
            // fixed offset (`up`/`diag`/`q` at `t − L`, `left` at `t`, `p` at
            // `t + (mm − d)·L`), so the interior is one update over
            // `(ihi − ilo + 1)·L` lanes, with no per-row temporaries and no
            // tails.
            let ilo = lo.max(1);
            let ihi = hi.min(d - 1);
            // The whole-stripe bound: the unmasked interior minimum (padding
            // and out-of-shape cells included — a superset, so only ever
            // conservative; retired lanes are reset to +∞ at retirement so
            // their residue cannot stall the bound) plus the boundary cells.
            let mut gdmin = W::INF;
            if ilo <= ihi {
                let (a, b) = (ilo * L, (ihi + 1) * L);
                gdmin = rec.update::<L>(
                    &mut views,
                    a,
                    b,
                    &q_plane[a - L..b - L],
                    &p_plane[(mm + ilo - d) * L..(mm + ihi + 1 - d) * L],
                    &mut best,
                );
            }
            gdmin = gdmin.min(top).min(left);

            // Per-lane frontier minima are only consumed by the exact abandon
            // rule. One lane's in-band cells are the whole diagonal, so its
            // exact minimum is the fused one.
            if thresholded {
                let lane_min = if L == 1 {
                    [gdmin; L]
                } else if front.exact.is_some() {
                    lane_minima::<W, R, L, P>(
                        &views,
                        d,
                        (ilo, ihi),
                        (top, left),
                        shapes,
                        &done,
                        &n_arr,
                        &m_arr,
                    )
                } else {
                    [W::INF; L]
                };
                front.push(lane_min, gdmin);
            }

            // Per-lane best-score registers (semi-global): each live lane's
            // bottom-row cell on this diagonal, if its own band admits one.
            if semi {
                for (l, &(n, m)) in shapes.iter().enumerate() {
                    if !done[l] && d >= n && d <= n + m {
                        // One lane's range is the union range.
                        let (llo, lhi) = if L == 1 {
                            (lo, hi)
                        } else {
                            diag_range(d, n, m, band)
                        };
                        if llo <= n && n <= lhi {
                            best[l] = best[l].min(R::cell(&views, n * L + l));
                        }
                    }
                }
            }

            span = (hi - lo + 1) as u64;
            count_lane_cells(&mut cells, span, d, shapes, &done, band);
        }

        // Retire lanes whose final diagonal this was. Semi-global and
        // local lanes read their best register (which has already folded
        // this diagonal's cells in); the others read the sink itself. On
        // a band-empty diagonal the lane's sink range is empty too, so
        // its score is the per-pair band-excluded-sink verdict.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d == n + m {
                let raw = match R::READOUT {
                    Readout::BottomRowMin | Readout::RunningMax => best[l].to_raw(),
                    Readout::Sink => {
                        let (flo, fhi) = diag_range(d, n, m, band);
                        if flo <= fhi {
                            raise_raw(R::cell(&views, n * L + l), bias)
                        } else {
                            NEVER // the band excludes the lane's sink cell
                        }
                    }
                };
                out[l] = classify_outcome(raw, t_raw, cells[l]);
                done[l] = true;
                live -= 1;
                if front.coarse.is_some() {
                    retire_lane_residue(l, nn, &mut views);
                }
            }
        }
        sup.tick(span)?;
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
    Ok(())
}

/// The abandon registers of a sweep, in the biased space: each lane's
/// frontier minimum and the whole-stripe lower bound over diagonals
/// `d − 1` (`*1`) and `d − 2` (`*2`), and the thresholds they are tested
/// against.
struct Frontier<W, const L: usize> {
    lane1: [W; L],
    lane2: [W; L],
    stripe1: W,
    stripe2: W,
    /// The [`StripeThreshold::Exact`] threshold in the lane word.
    exact: Option<W>,
    /// The [`StripeThreshold::Coarse`] threshold in the lane word.
    coarse: Option<W>,
}

impl<W: KernelWord, const L: usize> Frontier<W, L> {
    /// The registers after diagonal 0, which holds only the root at 0.
    fn new(threshold: StripeThreshold) -> Self {
        let mut front = Frontier {
            lane1: [W::ZERO; L],
            lane2: [W::INF; L],
            stripe1: W::ZERO,
            stripe2: W::INF,
            exact: None,
            coarse: None,
        };
        front.lower_thresholds(threshold, 0);
        front
    }

    fn lower_thresholds(&mut self, threshold: StripeThreshold, bias: u64) {
        match threshold {
            StripeThreshold::None => {}
            StripeThreshold::Exact(t) => self.exact = Some(W::clamp_raw(t.saturating_sub(bias))),
            StripeThreshold::Coarse(t) => self.coarse = Some(W::clamp_raw(t.saturating_sub(bias))),
        }
    }

    /// Moves past a diagonal whose lane minima are `lane` and whose
    /// whole-stripe bound is `stripe`.
    fn push(&mut self, lane: [W; L], stripe: W) {
        (self.lane2, self.lane1) = (self.lane1, lane);
        (self.stripe2, self.stripe1) = (self.stripe1, stripe);
    }

    /// Subtracts a u8 rebase `delta` from every finite register and
    /// lowers the thresholds to the new running `bias`. It runs once per
    /// bias window, so it stays out of the diagonal loop's body.
    #[cold]
    #[inline(never)]
    fn rebased(mut self, delta: W, threshold: StripeThreshold, bias: u64) -> Self {
        let lower = |v: &mut W| {
            if *v != W::INF {
                *v = v.sub_weight(delta);
            }
        };
        self.lane1.iter_mut().for_each(lower);
        self.lane2.iter_mut().for_each(lower);
        lower(&mut self.stripe1);
        lower(&mut self.stripe2);
        self.lower_thresholds(threshold, bias);
        self
    }
}

/// Each lane's frontier minimum over its own in-band cells of the
/// current diagonal, across planes: rows `ilo..=ihi` of the interior plus
/// the `top` and `left` boundary cells where the lane's shape holds them
/// (`i ≤ n_l` and `j = d − i ≤ m_l`; the band test is shared and already
/// satisfied by every swept row). Rows valid for *every live* lane — all
/// of them, for same-shape cohorts — take a branch-free vector min; only
/// the edge rows of ragged cohorts pay the per-lane mask. (Retired lanes
/// may accumulate junk in the core region; their minima are never read
/// again.)
#[allow(clippy::too_many_arguments)]
fn lane_minima<W: KernelWord, R: Recurrence<W, P>, const L: usize, const P: usize>(
    views: &[Rotation<'_, W>; P],
    d: usize,
    (ilo, ihi): (usize, usize),
    (top, left): (W, W),
    shapes: &[(usize, usize)],
    done: &[bool; L],
    n_arr: &[u32; L],
    m_arr: &[u32; L],
) -> [W; L] {
    let mut dmin = [W::INF; L];
    let du = u32::try_from(d).expect("diagonal fits u32");
    for l in 0..L {
        if du <= m_arr[l] {
            dmin[l] = dmin[l].min(top);
        }
        if du <= n_arr[l] {
            dmin[l] = dmin[l].min(left);
        }
    }
    let mut core_lo = ilo;
    let mut core_hi = ihi;
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if !done[l] {
            core_lo = core_lo.max(d.saturating_sub(m));
            core_hi = core_hi.min(n);
        }
    }
    let masked = |rows: std::ops::RangeInclusive<usize>, dmin: &mut [W; L]| {
        for i in rows {
            let iu = i as u32;
            let ju = (d - i) as u32;
            for l in 0..L {
                let v = if iu <= n_arr[l] && ju <= m_arr[l] {
                    R::cell(views, i * L + l)
                } else {
                    W::INF
                };
                dmin[l] = dmin[l].min(v);
            }
        }
    };
    if core_lo <= core_hi {
        masked(ilo..=core_lo.saturating_sub(1).min(ihi), &mut dmin);
        for i in core_lo..=core_hi {
            for (cur, ..) in views {
                let block = &cur[i * L..(i + 1) * L];
                for l in 0..L {
                    dmin[l] = dmin[l].min(block[l]);
                }
            }
        }
        masked((core_hi + 1).max(ilo)..=ihi, &mut dmin);
    } else {
        masked(ilo..=ihi, &mut dmin);
    }
    dmin
}

/// Ends every live lane of a stripe as abandoned at the current diagonal
/// — the whole-stripe verdict of both [`StripeThreshold::Coarse`] rules.
fn abandon_live_lanes<const L: usize>(
    done: &mut [bool; L],
    live: &mut usize,
    cells: &[u64; L],
    out: &mut [EngineOutcome],
) {
    for (l, o) in out.iter_mut().enumerate() {
        if !done[l] {
            *o = EngineOutcome {
                score: Time::NEVER,
                cells_computed: cells[l],
                early_terminated: true,
            };
            done[l] = true;
            *live -= 1;
        }
    }
}

/// Diagonals between the ratchet's remaining-cost checkpoints: before
/// every `REMAINING_BOUND_EVERY`-th diagonal, a coarse global or affine
/// sweep evaluates its [`SuffixBound`] over the two diagonals behind it.
/// Chosen from an 8/16/32 measurement on the `scan_long` workload (see
/// `docs/KERNELS.md`).
const REMAINING_BOUND_EVERY: usize = 16;

/// The largest `D(i, j)` the remaining-cost pass reads. Larger stored
/// values are clamped down to it, which only lowers the bound.
const SUFFIX_D_CAP: u32 = 1 << 29;

/// Rows the remaining-cost pass folds between two early-exit tests.
const SUFFIX_EXIT_ROWS: usize = 8;

/// The ratchet's **remaining-cost bound**: Ukkonen's length cutoff
/// ([`score_lower_bound`]) applied to the part of each lane's alignment
/// still ahead. Every path of lane `l` through cell `(i, j)` costs at
/// least `f = D(i, j) + score_lower_bound(n_l − i, m_l − j)` — the
/// suffix bound never exceeds the suffix's exact score — and every path
/// crosses one of any two consecutive anti-diagonals. So the minimum of
/// `f` over diagonals `d − 1` and `d − 2` and every live lane is a lower
/// bound on every live lane's final score: the admissible-heuristic test
/// of A*. When it exceeds the threshold, the whole stripe is out.
///
/// [`score_lower_bound`] is piecewise linear,
/// `lb(a, b) = |a − b| · lb(1, 0) + min(a, b) · lb(1, 1)`. On one
/// anti-diagonal a lane's suffix sum `s = a + b` is constant and the
/// difference `δ = a − b` falls by 2 per row, so the pass works in
/// doubled units, `2 · lb = s · step + |δ| · (2 · indel − step)`, with
/// no division and `|δ| ≤ s` as the in-shape test. All lane arithmetic
/// is `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SuffixBound {
    /// `lb(1, 1)`: the cost of each paired suffix residue.
    step: i32,
    /// `2 · lb(1, 0) − lb(1, 1)`: the doubled cost of each residue by
    /// which the suffix sides differ, beyond `step`.
    skew: i32,
}

impl SuffixBound {
    /// The bound for an `nn × mm` union sweep under `mode`, or `None`
    /// where the pass cannot prove anything the elapsed-time rule does
    /// not: the free-end modes (semi-global's suffix bound is 0, and
    /// local scans are never ratcheted) and all-zero weights. Also `None`
    /// when a suffix bound could reach `SUFFIX_D_CAP / 2`, so that every
    /// in-shape doubled `f` fits the `i32` lane arithmetic.
    fn new(mode: AlignMode, w: RawWeights, nn: usize, mm: usize) -> Option<Self> {
        if !matches!(mode, AlignMode::Global | AlignMode::GlobalAffine(_)) {
            return None;
        }
        let indel = score_lower_bound(mode, w, 1, 0);
        let step = score_lower_bound(mode, w, 1, 1);
        let worst = ((nn + mm) as u64).saturating_mul(indel.max(step));
        if worst == 0 || worst >= u64::from(SUFFIX_D_CAP / 2) {
            return None;
        }
        Some(SuffixBound {
            step: i32::try_from(step).ok()?,
            skew: i32::try_from((2 * indel).checked_sub(step)?).ok()?,
        })
    }

    /// `2 · lb(a, b)` from the suffix's side sum `a + b` and side
    /// difference `|a − b|`; the suffix is in shape when `|a − b| ≤ a + b`.
    /// Out-of-shape operands may wrap, hence the wrapping ops.
    #[inline(always)]
    fn doubled(self, sum: i32, abs_delta: i32) -> i32 {
        sum.wrapping_mul(self.step)
            .wrapping_add(abs_delta.wrapping_mul(self.skew))
    }

    /// `true` when the bound over diagonals `d − 1` (`prev`) and `d − 2`
    /// (`prev2`) exceeds `t_rem` for every live lane. `t_rem` is the
    /// threshold less the running u8 bias: the buffers hold biased
    /// values, so the comparison happens in the biased space.
    #[allow(clippy::too_many_arguments)]
    fn proves_out<W: KernelWord, const L: usize, const P: usize>(
        self,
        prev: [&[W]; P],
        prev2: [&[W]; P],
        d: usize,
        (nn, mm): (usize, usize),
        band: Option<usize>,
        shapes: &[(usize, usize)],
        done: &[bool; L],
        t_rem: u64,
    ) -> bool {
        // Every in-shape doubled `f` is below `2^31`, so a threshold at
        // or past `2^30` can never be exceeded.
        let Some(t2) = i32::try_from(t_rem).ok().and_then(|t| t.checked_mul(2)) else {
            return false;
        };
        [(prev, d - 1), (prev2, d - 2)]
            .into_iter()
            .all(|(planes, e)| {
                let (lo, hi) = diag_range(e, nn, mm, band);
                // A band-empty diagonal holds no cell, so no path crosses it.
                lo > hi || self.diagonal_exceeds(planes, e, lo..=hi, shapes, done, t2)
            })
    }

    /// `true` when every in-shape cell of anti-diagonal `e` (rows `rows`)
    /// of every live lane has a doubled `f` above `t2`. `D` is the
    /// minimum over `planes` (M, Ix and Iy for affine). Stops at the
    /// first block of rows that holds a cell within the threshold.
    fn diagonal_exceeds<W: KernelWord, const L: usize, const P: usize>(
        self,
        planes: [&[W]; P],
        e: usize,
        rows: std::ops::RangeInclusive<usize>,
        shapes: &[(usize, usize)],
        done: &[bool; L],
        t2: i32,
    ) -> bool {
        // Per lane: the suffix sum `s` (−1 for retired and empty lanes,
        // so no cell is in shape) and `δ` at row 0. Lengths fit `i32`
        // (see `new`).
        let mut sum = [-1_i32; L];
        let mut delta0 = [0_i32; L];
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] {
                let (n, m, e) = (n as i32, m as i32, e as i32);
                sum[l] = n + m - e;
                delta0[l] = n - m + e;
            }
        }
        let mut acc = [i32::MAX; L];
        for (k, i) in rows.enumerate() {
            let mut dv = [W::INF; L];
            for plane in planes {
                let block = &plane[i * L..(i + 1) * L];
                for l in 0..L {
                    dv[l] = dv[l].min(block[l]);
                }
            }
            let twice_i = 2 * i as i32;
            for l in 0..L {
                let delta = delta0[l].wrapping_sub(twice_i).wrapping_abs();
                let d2 = 2 * dv[l].floor_u32().min(SUFFIX_D_CAP) as i32;
                // In shape, `d2 ≤ 2^30` and `2 · lb < 2^29`: no wrap.
                let f2 = d2.wrapping_add(self.doubled(sum[l], delta));
                acc[l] = acc[l].min(if delta > sum[l] { i32::MAX } else { f2 });
            }
            if (k + 1) % SUFFIX_EXIT_ROWS == 0 && acc.iter().any(|&f2| f2 <= t2) {
                return false;
            }
        }
        acc.iter().all(|&f2| f2 > t2)
    }
}

/// Fills lane `l`'s column in all three diagonal buffers of every plane
/// with `+∞` — called at lane retirement in [`StripeThreshold::Coarse`]
/// mode so the whole-stripe lower bound (an *unmasked* minimum over the
/// interior) no longer sees the retired lane. Every plane needs it: a
/// retired lane's Ix/Iy residue would stall the bound just like the M
/// plane's. `+∞` is absorbing under every lane word's clamped
/// arithmetic, so the lane's cells stay at `+∞` for the rest of the
/// sweep.
fn retire_lane_residue<W: KernelWord, const P: usize>(
    l: usize,
    nn: usize,
    views: &mut [Rotation<'_, W>; P],
) {
    for (cur, d1, d2) in views {
        let lanes = cur.len() / (nn + 1);
        for buf in [cur, d1, d2] {
            for i in 0..=nn {
                buf[i * lanes + l] = W::INF;
            }
        }
    }
}

/// Subtracts a u8 rebase `delta` from every finite value in one
/// diagonal buffer, preserving `+∞` (a clamped or [`NEVER`] cell must
/// keep reading as `+∞`). Written as an unconditional select-store so
/// LLVM vectorizes it — the `if`-guarded in-place form compiles to a
/// per-element branch, and at one rebase per [`BIAS_WINDOW`] diagonals
/// that scalar pass dominated the whole byte sweep. Only the two
/// *readable* diagonal buffers (`d − 1`, `d − 2`) need the pass: the
/// buffer about to be overwritten holds stale diagonal `d − 3` values
/// that are never read before being rewritten.
///
/// [`BIAS_WINDOW`]: crate::engine::BIAS_WINDOW
#[inline]
fn rebase_buf<W: KernelWord>(buf: &mut [W], delta: W) {
    for v in buf.iter_mut() {
        let x = *v;
        *v = if x >= W::INF { x } else { x.sub_weight(delta) };
    }
}

/// Re-adds the running u8 bias to a stored lane word at lane readout:
/// finite stored values are exact biased representations of the true
/// race time; `+∞` stays [`NEVER`] — a genuinely unreachable cell, or
/// a value that clamped because it exceeded the plan's threshold (in
/// which case `classify_outcome` reports the same abandon verdict the
/// per-pair kernel's exact score would). With `bias = 0` this is
/// exactly [`KernelWord::to_raw`].
fn raise_raw<W: KernelWord>(s: W, bias: u64) -> u64 {
    if s >= W::INF {
        NEVER
    } else {
        s.to_raw().saturating_add(bias)
    }
}

/// Per-lane cell accounting for one computed diagonal, over each live
/// lane's own band range (grid positions). A single lane's shape is the
/// union shape, so at `L = 1` its count is the union `span` and the
/// per-lane [`diag_range`] is skipped.
fn count_lane_cells<const L: usize>(
    cells: &mut [u64; L],
    span: u64,
    d: usize,
    shapes: &[(usize, usize)],
    done: &[bool; L],
    band: Option<usize>,
) {
    if L == 1 {
        cells[0] += span;
        return;
    }
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if !done[l] && d <= n + m {
            let (llo, lhi) = diag_range(d, n, m, band);
            if llo <= lhi {
                cells[l] += (lhi - llo + 1) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::RaceWeights;
    use crate::engine::{align_batch, AlignEngine, LocalScores};
    use crate::supervisor::ScanControl;
    use rl_bio::alphabet::Dna;
    use rl_bio::Seq;

    fn pack(s: &Seq<Dna>) -> PackedSeq<Dna> {
        PackedSeq::from_seq(s)
    }

    fn random_pairs(
        count: usize,
        len_lo: usize,
        len_hi: usize,
    ) -> Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> {
        let mut rng = rl_dag::generate::seeded_rng(0x57121);
        (0..count)
            .map(|i| {
                let span = len_hi - len_lo;
                let ln = len_lo + if span == 0 { 0 } else { (i * 7) % (span + 1) };
                let lm = len_lo + if span == 0 { 0 } else { (i * 11) % (span + 1) };
                (
                    pack(&Seq::random(&mut rng, ln)),
                    pack(&Seq::random(&mut rng, lm)),
                )
            })
            .collect()
    }

    fn batch_outcomes(
        cfg: &AlignConfig,
        pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)],
    ) -> Vec<EngineOutcome> {
        align_batch(cfg, &ref_pairs(pairs), &ScanControl::new()).expect_complete()
    }

    fn assert_batch_matches_sequential(
        cfg: &AlignConfig,
        pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)],
    ) {
        let batch = batch_outcomes(cfg, pairs);
        let mut engine = AlignEngine::new(*cfg);
        for (i, (q, p)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], engine.align(q, p), "pair {i}");
        }
    }

    #[test]
    fn striped_full_stripe_matches_sequential() {
        let pairs = random_pairs(16, 64, 64);
        assert_batch_matches_sequential(&AlignConfig::new(RaceWeights::fig4()), &pairs);
    }

    #[test]
    fn striped_mixed_lengths_match_sequential() {
        // Lengths spread over several cohorts, ragged stripes included.
        let pairs = random_pairs(37, 32, 80);
        for w in [
            RaceWeights::fig4(),
            RaceWeights::fig2b(),
            RaceWeights::levenshtein(),
        ] {
            assert_batch_matches_sequential(&AlignConfig::new(w), &pairs);
        }
    }

    #[test]
    fn striped_banded_and_thresholded_match_sequential() {
        let pairs = random_pairs(21, 48, 64);
        let w = RaceWeights::fig4();
        for cfg in [
            AlignConfig::new(w).with_band(4),
            AlignConfig::new(w).with_band(12),
            AlignConfig::new(w).with_threshold(20),
            AlignConfig::new(w).with_band(6).with_threshold(30),
            AlignConfig::new(w).with_threshold(0),
        ] {
            assert_batch_matches_sequential(&cfg, &pairs);
        }
    }

    #[test]
    fn striped_u64_width_matches_sequential() {
        // Huge weights force the u64 stripe.
        let w = RaceWeights {
            matched: 1 << 40,
            mismatched: Some(1 << 41),
            indel: 1 << 40,
        };
        let pairs = random_pairs(9, 32, 40);
        assert_batch_matches_sequential(&AlignConfig::new(w), &pairs);
    }

    fn ref_pairs(
        pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)],
    ) -> Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> {
        pairs.iter().map(|(q, p)| (q, p)).collect()
    }

    #[test]
    fn small_cohorts_fall_back_to_per_pair() {
        // Three same-shape pairs < STRIPE_MIN_PAIRS: planner must not stripe.
        let pairs = random_pairs(STRIPE_MIN_PAIRS - 1, 64, 64);
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let units = plan_units(&cfg, &ref_pairs(&pairs), false);
        assert!(units.iter().all(|u| u.kind != UnitKind::Striped));
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn planner_buckets_and_stripes() {
        // 20 pairs of one shape at u16 width (floor-pinned: unfloored
        // 64×64 fig4 now rides u8's 32 lanes and packs a single stripe)
        // → one full 16-lane stripe + 4 leftovers (≥ STRIPE_MIN_PAIRS →
        // second stripe) — identical lengths are the degenerate case
        // where the length-aware packer reduces to fixed-size chunks.
        let pairs = random_pairs(20, 64, 64);
        let base = AlignConfig::new(RaceWeights::fig4()).with_lane_floor(LaneWidth::U16);
        let u8_units = plan_units(
            &AlignConfig::new(RaceWeights::fig4()),
            &ref_pairs(&pairs),
            false,
        );
        let u8_striped: Vec<_> = u8_units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(u8_striped.len(), 1, "u8's 32 lanes hold all 20 pairs");
        assert_eq!(u8_striped[0].width, LaneWidth::U8);
        assert_eq!(u8_striped[0].members.len(), 20);
        let units = plan_units(&base, &ref_pairs(&pairs), false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 2);
        assert_eq!(striped[0].members.len(), 16);
        assert_eq!(striped[1].members.len(), 4);
        // Short pairs stripe too: one full 16-lane stripe of 8×8 pairs.
        // Under the rolling-row pin they never stripe.
        let short = random_pairs(16, 8, 8);
        let units = plan_units(&base, &ref_pairs(&short), false);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].kind, UnitKind::Striped);
        assert_eq!(units[0].members.len(), 16);
        let pinned = base.with_strategy(KernelStrategy::RollingRow);
        assert!(plan_units(&pinned, &ref_pairs(&short), false)
            .iter()
            .all(|u| u.kind == UnitKind::PerPair));
    }

    #[test]
    fn length_aware_packer_crosses_buckets_within_budget() {
        // Lengths 200 + 7i, one pair each: every 16-rounded bucket holds
        // at most 3 pairs (< STRIPE_MIN_PAIRS), yet neighbours differ by
        // only ~3.5%, so the length-aware packer fills ~8-lane stripes
        // well within the 25% budget.
        let mut rng = rl_dag::generate::seeded_rng(0xACE);
        let pairs: Vec<_> = (0..40)
            .map(|i| {
                let len = 200 + 7 * i;
                (
                    pack(&Seq::random(&mut rng, len)),
                    pack(&Seq::random(&mut rng, len)),
                )
            })
            .collect();
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let aware = plan_stats_impl(&cfg, &ref_pairs(&pairs));
        assert_eq!(aware.wavefront_eligible, pairs.len());
        assert!(
            aware.striped_pairs * 10 >= pairs.len() * 8,
            "≥ 80% of eligible pairs must ride stripes (got {}/{})",
            aware.striped_pairs,
            pairs.len()
        );
        // Sanity on the occupancy accounting itself (swept counts every
        // lane, so it can only exceed the members' useful cells).
        assert!(aware.swept_cells >= aware.useful_cells);
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn padding_budget_boundary_is_exact() {
        // Unbanded areas: a 39×39 stripe member is (40·40) = 1600 useful
        // cells. Mixing one 49×49 pair (2500 cells) with seven 39×39:
        // useful = 7·1600 + 2500 = 13700, swept = 8·2500 = 20000,
        // padded = 6300 > 25% · 13700 = 3425 → must split. With 44×44
        // (2025): useful = 7·1600 + 2025 = 13225, swept = 8·2025 =
        // 16200, padded = 2975 ≤ 3306 → may merge.
        let mut rng = rl_dag::generate::seeded_rng(0xB0B);
        let mut mk = |len: usize| {
            (
                pack(&Seq::random(&mut rng, len)),
                pack(&Seq::random(&mut rng, len)),
            )
        };
        let cfg = AlignConfig::new(RaceWeights::fig4());

        let mut over: Vec<_> = (0..7).map(|_| mk(39)).collect();
        over.push(mk(49));
        let units = plan_units(&cfg, &ref_pairs(&over), false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 1, "over-budget outlier must not merge");
        assert_eq!(striped[0].members.len(), 7);
        assert_batch_matches_sequential(&cfg, &over);

        let mut under: Vec<_> = (0..7).map(|_| mk(39)).collect();
        under.push(mk(44));
        let units = plan_units(&cfg, &ref_pairs(&under), false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 1, "within-budget outlier must merge");
        assert_eq!(striped[0].members.len(), 8);
        assert_batch_matches_sequential(&cfg, &under);
    }

    #[test]
    fn single_pair_overflow_falls_back_to_per_pair() {
        // One giant outlier after a full stripe: it can never share a
        // stripe within budget, and alone it is below STRIPE_MIN_PAIRS —
        // the planner must route it per-pair, not force a 1-lane stripe.
        let mut rng = rl_dag::generate::seeded_rng(0xD0E);
        let mut pairs: Vec<_> = (0..16)
            .map(|_| {
                (
                    pack(&Seq::random(&mut rng, 40)),
                    pack(&Seq::random(&mut rng, 40)),
                )
            })
            .collect();
        pairs.push((
            pack(&Seq::random(&mut rng, 300)),
            pack(&Seq::random(&mut rng, 300)),
        ));
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let units = plan_units(&cfg, &ref_pairs(&pairs), false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 1);
        assert_eq!(striped[0].members.len(), 16);
        assert!(units
            .iter()
            .any(|u| u.kind != UnitKind::Striped && u.members.contains(&16)));
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn huge_threshold_stays_byte_identical() {
        // Review regression: a threshold at/above a narrow word's +∞
        // sentinel must push lane-width eligibility wider, or the
        // clamped abandon comparison `min > INF` could never fire and
        // the striped sweep would abandon later than the sequential
        // engine (diverging cells_computed). The leading mismatch under
        // fig4 (mismatch = ∞) with band 0 makes every frontier infinite
        // almost immediately, so an exact kernel abandons right away.
        let q: Seq<Dna> = ("C".to_string() + &"A".repeat(63)).parse().unwrap();
        let p: Seq<Dna> = "A".repeat(64).parse().unwrap();
        let pairs: Vec<_> = (0..8).map(|_| (pack(&q), pack(&p))).collect();
        for t in [32_766, 32_767, 40_000, u64::from(u32::MAX)] {
            let cfg = AlignConfig::new(RaceWeights::fig4())
                .with_band(0)
                .with_threshold(t);
            assert_batch_matches_sequential(&cfg, &pairs);
            let out = batch_outcomes(&cfg, &pairs);
            assert!(out[0].early_terminated, "t = {t}");
            assert!(
                out[0].cells_computed < 10,
                "abandon must fire within the first diagonals (t = {t}, cells = {})",
                out[0].cells_computed
            );
        }
    }

    #[test]
    fn striped_handles_disconnecting_band() {
        // |n − m| > band for some lanes: their sinks are unreachable.
        let mut rng = rl_dag::generate::seeded_rng(3);
        let pairs: Vec<_> = (0..8)
            .map(|i| {
                (
                    pack(&Seq::random(&mut rng, 64)),
                    pack(&Seq::random(&mut rng, 40 + 3 * i)),
                )
            })
            .collect();
        let w = RaceWeights::fig4();
        for cfg in [
            AlignConfig::new(w).with_band(5),
            AlignConfig::new(w).with_band(5).with_threshold(100),
        ] {
            assert_batch_matches_sequential(&cfg, &pairs);
        }
    }

    #[test]
    fn modes_stripe_and_match_sequential() {
        use crate::engine::{AffineWeights, AlignMode, LocalScores};
        let pairs = random_pairs(21, 40, 72);
        let w = RaceWeights::fig4();
        for mode in [
            AlignMode::SemiGlobal,
            AlignMode::Local(LocalScores::blast()),
            AlignMode::GlobalAffine(AffineWeights { open: 2 }),
        ] {
            assert_batch_matches_sequential(&AlignConfig::new(w).with_mode(mode), &pairs);
            assert_batch_matches_sequential(
                &AlignConfig::new(w).with_mode(mode).with_band(6),
                &pairs,
            );
        }
        // Semi-global with a fused threshold, exact per-lane mode.
        assert_batch_matches_sequential(
            &AlignConfig::new(w)
                .with_mode(AlignMode::SemiGlobal)
                .with_threshold(12),
            &pairs,
        );
    }

    #[test]
    fn affine_mode_plans_stripes() {
        // Affine pairs stripe like any other pairs
        // since the three-plane Gotoh sweep landed — and stay
        // byte-identical to the sequential per-pair Gotoh path.
        use crate::engine::{AffineWeights, AlignMode};
        let pairs = random_pairs(16, 64, 64);
        let cfg = AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 1 }));
        let units = plan_units(&cfg, &ref_pairs(&pairs), false);
        assert!(
            units.iter().any(|u| u.kind == UnitKind::Striped),
            "affine must stripe now"
        );
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn half_width_u16_stripes_lift_tail_occupancy() {
        // 21 same-shape u16-eligible pairs → one full 16-lane stripe and
        // a 5-member tail. The tail must plan as a half-width (8-lane)
        // stripe, halving its swept cells, and stay byte-identical.
        let pairs = random_pairs(21, 64, 64);
        let cfg = AlignConfig::new(RaceWeights::fig4()).with_lane_floor(LaneWidth::U16);
        let units = plan_units(&cfg, &ref_pairs(&pairs), false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 2);
        assert_eq!(striped[0].width, LaneWidth::U16);
        assert_eq!(
            effective_stripe_lanes(striped[1].width, striped[1].members.len()),
            HALF_STRIPE_LANES
        );
        let stats = plan_stats_impl(&cfg, &ref_pairs(&pairs));
        assert_eq!(stats.half_width_stripes, 1);
        // Swept = 16 full lanes + 8 half lanes of the 65×65 grid.
        assert_eq!(stats.swept_cells, 65 * 65 * (16 + 8));
        assert_batch_matches_sequential(&cfg, &pairs);

        // Forcing u32 keeps full 8-lane stripes (no half form there).
        let u32_stats = plan_stats_impl(&cfg.with_lane_floor(LaneWidth::U32), &ref_pairs(&pairs));
        assert_eq!(u32_stats.half_width_stripes, 0);
    }

    #[test]
    fn coarse_scan_abandons_under_zero_matched_weight() {
        // The ROADMAP stall scenario: Levenshtein weights (matched = 0),
        // mixed-length stripes whose shorter lanes retire mid-sweep. The
        // per-lane residue reset at retirement keeps the whole-stripe
        // coarse bound growing, so the ratchet (tightened to the planted
        // exact match's score 0) can still abandon the noise.
        let mut rng = rl_dag::generate::seeded_rng(0x1E5);
        let query = Seq::<Dna>::random(&mut rng, 64);
        let mut db: Vec<PackedSeq<Dna>> = vec![pack(&query)]; // exact hit, score 0
        for i in 0..24 {
            let len = 56 + (i * 5) % 17; // mixed lengths, shared stripes
            db.push(pack(&Seq::random(&mut rng, len)));
        }
        let scan = crate::early_termination::scan_packed_topk_with(
            &AlignConfig::new(RaceWeights::levenshtein()),
            &pack(&query),
            &db,
            1,
            Some(1),
        );
        assert_eq!(scan.hits, vec![(0, 0)], "the exact copy wins at distance 0");
        assert!(
            scan.abandoned > 0,
            "the coarse bound must outgrow the ratchet's 0 threshold \
             despite mid-sweep lane retirements"
        );
    }

    #[test]
    fn retired_affine_lane_cannot_loosen_coarse_bound() {
        // The PR 5 bug class, transposed to the three-plane kernel: a
        // retired affine lane must have its residue cleared in *all
        // three* planes. Lane 0 is an 8 bp exact self-match (retires at
        // d = 16 with M residue 0 and Ix/Iy residue as low as
        // open + indel = 2); lane 1 is a 10 bp all-mismatch pair whose
        // frontier is ≥ 8 from d = 17 on. Under Coarse(6) the stripe
        // must abandon lane 1 right after lane 0 retires — residue left
        // in *any* plane (M: 0, Ix/Iy: 2, growing ~1/diagonal through
        // the padded column) would hold the whole-stripe bound ≤ 6
        // until the sweep ends at d = 20 and lane 1 would finish
        // normally instead.
        use crate::engine::AffineWeights;
        let q0 = pack(&Seq::repeated(Dna::A, 8));
        let q1 = pack(&Seq::repeated(Dna::A, 10));
        let p1 = pack(&Seq::repeated(Dna::C, 10));
        let pairs: Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> = vec![(&q0, &q0), (&q1, &p1)];
        let cfg = AlignConfig::new(RaceWeights {
            matched: 0,
            mismatched: Some(1),
            indel: 1,
        })
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 1 }));
        let mut scratch = StripeScratch::new();
        let mut results = [EngineOutcome::default(); 2];
        run_stripe(
            &cfg,
            &pairs,
            &[0, 1],
            LaneWidth::U16,
            StripeThreshold::Coarse(6),
            &mut scratch,
            &mut results,
        );
        assert_eq!(
            results[0].score.cycles(),
            Some(0),
            "the exact lane retires normally at cost 0"
        );
        assert!(
            results[1].early_terminated,
            "the all-mismatch lane is over threshold: {:?}",
            results[1]
        );
        // The discriminating pin: a genuine mid-sweep abandon stops
        // lane 1 before its last diagonals. Residue left in any plane
        // would hold the coarse bound ≤ 6 to the end of the sweep, and
        // the lane would compute its full 11 × 11 grid (121 cells; a
        // completed over-threshold lane classifies as terminated too,
        // so the flag alone cannot tell the difference).
        assert!(
            results[1].cells_computed < grid_cells(10, 10, None),
            "lane 1 must be abandoned mid-sweep, not at its sink: {:?}",
            results[1]
        );
    }

    /// `(mode, lane width, members, band)` → `(total cells, abandoned
    /// lanes)` of one fixed-`Coarse` stripe: the work counts
    /// [`coarse_threshold_work_counts_are_pinned`] holds fixed.
    #[allow(clippy::type_complexity)]
    const COARSE_WORK: [(&str, LaneWidth, usize, Option<usize>, u64, usize); 72] = {
        use LaneWidth::{U16, U32, U64, U8};
        [
            ("global", U8, 12, None, 9510, 8),
            ("global", U8, 12, Some(0), 234, 11),
            ("global", U8, 12, Some(3), 1687, 9),
            ("global", U8, 12, Some(16), 6230, 8),
            ("global", U8, 24, None, 18230, 16),
            ("global", U8, 24, Some(0), 441, 24),
            ("global", U8, 24, Some(3), 3311, 23),
            ("global", U8, 24, Some(16), 12510, 16),
            ("global", U16, 6, None, 4524, 4),
            ("global", U16, 6, Some(0), 110, 6),
            ("global", U16, 6, Some(3), 878, 4),
            ("global", U16, 6, Some(16), 3237, 4),
            ("global", U16, 12, None, 9253, 8),
            ("global", U16, 12, Some(0), 203, 12),
            ("global", U16, 12, Some(3), 1642, 10),
            ("global", U16, 12, Some(16), 6109, 8),
            ("global", U32, 8, None, 6368, 5),
            ("global", U32, 8, Some(0), 146, 8),
            ("global", U32, 8, Some(3), 1124, 8),
            ("global", U32, 8, Some(16), 4226, 5),
            ("global", U64, 8, None, 6315, 5),
            ("global", U64, 8, Some(0), 168, 8),
            ("global", U64, 8, Some(3), 1205, 6),
            ("global", U64, 8, Some(16), 4481, 5),
            ("semi", U8, 12, None, 14289, 7),
            ("semi", U8, 12, Some(0), 234, 11),
            ("semi", U8, 12, Some(3), 1841, 9),
            ("semi", U8, 12, Some(16), 8422, 7),
            ("semi", U8, 24, None, 24040, 12),
            ("semi", U8, 24, Some(0), 441, 24),
            ("semi", U8, 24, Some(3), 3638, 23),
            ("semi", U8, 24, Some(16), 16370, 12),
            ("semi", U16, 6, None, 5693, 2),
            ("semi", U16, 6, Some(0), 110, 6),
            ("semi", U16, 6, Some(3), 944, 4),
            ("semi", U16, 6, Some(16), 4019, 2),
            ("semi", U16, 12, None, 13023, 8),
            ("semi", U16, 12, Some(0), 203, 12),
            ("semi", U16, 12, Some(3), 1750, 10),
            ("semi", U16, 12, Some(16), 7794, 8),
            ("semi", U32, 8, None, 9170, 4),
            ("semi", U32, 8, Some(0), 146, 8),
            ("semi", U32, 8, Some(3), 1209, 8),
            ("semi", U32, 8, Some(16), 5442, 4),
            ("semi", U64, 8, None, 8697, 4),
            ("semi", U64, 8, Some(0), 168, 8),
            ("semi", U64, 8, Some(3), 1284, 6),
            ("semi", U64, 8, Some(16), 5423, 4),
            ("affine", U8, 12, None, 8132, 8),
            ("affine", U8, 12, Some(0), 234, 11),
            ("affine", U8, 12, Some(3), 1543, 9),
            ("affine", U8, 12, Some(16), 5637, 8),
            ("affine", U8, 24, None, 17374, 16),
            ("affine", U8, 24, Some(0), 441, 24),
            ("affine", U8, 24, Some(3), 3199, 23),
            ("affine", U8, 24, Some(16), 12028, 16),
            ("affine", U16, 6, None, 3795, 4),
            ("affine", U16, 6, Some(0), 110, 6),
            ("affine", U16, 6, Some(3), 750, 4),
            ("affine", U16, 6, Some(16), 2817, 4),
            ("affine", U16, 12, None, 7177, 8),
            ("affine", U16, 12, Some(0), 203, 12),
            ("affine", U16, 12, Some(3), 1418, 10),
            ("affine", U16, 12, Some(16), 5095, 8),
            ("affine", U32, 8, None, 5497, 5),
            ("affine", U32, 8, Some(0), 146, 8),
            ("affine", U32, 8, Some(3), 1034, 8),
            ("affine", U32, 8, Some(16), 3818, 5),
            ("affine", U64, 8, None, 5719, 5),
            ("affine", U64, 8, Some(0), 168, 8),
            ("affine", U64, 8, Some(3), 1135, 6),
            ("affine", U64, 8, Some(16), 4187, 5),
        ]
    };

    #[test]
    fn coarse_threshold_work_counts_are_pinned() {
        // The ratchet's path through the linear and affine stripe sweeps:
        // a fixed `Coarse` threshold keeps both whole-stripe rules live
        // (the unmasked frontier bound and the remaining-cost bound), over
        // seeded ragged stripes at every `(W, L)` entry of `run_stripe`.
        // No benchmark workload runs the linear stripe under a ratchet,
        // so this table is where a change in its abandons shows.
        use crate::engine::AffineWeights;
        use rand::Rng;
        let modes = [
            ("global", AlignMode::Global),
            ("semi", AlignMode::SemiGlobal),
            ("affine", AlignMode::GlobalAffine(AffineWeights { open: 2 })),
        ];
        // Member counts that select each `(W, L)` monomorphization:
        // u8×16, u8×32, u16×8, u16×16, u32×8 and u64×8.
        let entries = [
            (LaneWidth::U8, 12),
            (LaneWidth::U8, 24),
            (LaneWidth::U16, 6),
            (LaneWidth::U16, 12),
            (LaneWidth::U32, 8),
            (LaneWidth::U64, 8),
        ];
        let mut got = Vec::new();
        for (label, mode) in modes {
            for (ci, &(width, members)) in entries.iter().enumerate() {
                for band in [None, Some(0), Some(3), Some(16)] {
                    let mut rng = rl_dag::generate::seeded_rng(0xC0A5 + ci as u64);
                    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..members)
                        .map(|l| {
                            // Every third lane is a short near copy that
                            // finishes under the threshold and retires
                            // mid-sweep; the longer random lanes score over
                            // it and are the ones the whole-stripe rules
                            // abandon once the copies have retired.
                            if l % 3 == 0 {
                                let n = rng.random_range(10..=24);
                                let q = Seq::<Dna>::random(&mut rng, n);
                                let keep = n - rng.random_range(0..=6_usize);
                                let p = q.as_slice()[..keep].iter().copied().collect();
                                (pack(&q), pack(&p))
                            } else {
                                let (n, m) = (rng.random_range(24..=48), rng.random_range(24..=48));
                                (
                                    pack(&Seq::random(&mut rng, n)),
                                    pack(&Seq::random(&mut rng, m)),
                                )
                            }
                        })
                        .collect();
                    let mut cfg = AlignConfig::new(RaceWeights::fig4()).with_mode(mode);
                    if let Some(k) = band {
                        cfg = cfg.with_band(k);
                    }
                    let idx: Vec<usize> = (0..members).collect();
                    let mut scratch = StripeScratch::new();
                    let mut results = vec![EngineOutcome::default(); members];
                    run_stripe(
                        &cfg,
                        &ref_pairs(&pairs),
                        &idx,
                        width,
                        StripeThreshold::Coarse(32),
                        &mut scratch,
                        &mut results,
                    );
                    let cells: u64 = results.iter().map(|o| o.cells_computed).sum();
                    let abandoned = results.iter().filter(|o| o.early_terminated).count();
                    got.push((label, width, members, band, cells, abandoned));
                }
            }
        }
        assert_eq!(got.len(), COARSE_WORK.len());
        for (g, want) in got.iter().zip(COARSE_WORK) {
            assert_eq!(*g, want, "(mode, width, members, band, cells, abandoned)");
        }
    }

    #[test]
    fn local_stripes_match_the_rolling_row_at_every_lane_word() {
        // Local (max-plus) alignment at every `(W, L)` entry of
        // `run_stripe` and on the 1-lane per-pair wavefront at every
        // lane word it runs: each lane's outcome must equal the scalar
        // rolling row's, byte for byte.
        use crate::engine::{LocalScores, U16_MIN_LEN};
        use rand::Rng;
        // A near copy of `q`: every `every`-th residue substituted.
        let near_copy = |q: &Seq<Dna>, every: usize| -> Seq<Dna> {
            let mut codes = q.as_slice().to_vec();
            for c in codes.iter_mut().skip(every / 2).step_by(every) {
                *c = Dna::from_index((c.index() + 1) % Dna::COUNT).expect("index in range");
            }
            codes.into_iter().collect()
        };
        // `(width, members, lanes swept)`: member counts that select
        // u8×16, u8×32, u16×8, u16×16, u32×8 and u64×8.
        let entries = [
            (LaneWidth::U8, 12, HALF_U8_STRIPE_LANES),
            (LaneWidth::U8, 24, 32),
            (LaneWidth::U16, 6, HALF_STRIPE_LANES),
            (LaneWidth::U16, 12, 16),
            (LaneWidth::U32, 8, 8),
            (LaneWidth::U64, 8, 8),
        ];
        let mut swept = Vec::new();
        let mut per_pair_words = Vec::new();
        for scores in [LocalScores::blast(), LocalScores::unit()] {
            for band in [None, Some(0), Some(3), Some(16)] {
                let mut cfg =
                    AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(scores));
                if let Some(k) = band {
                    cfg = cfg.with_band(k);
                }
                let mut rolling = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
                // One pair long enough for the per-pair u16 word, which
                // only an unbanded pair of at least `U16_MIN_LEN` runs.
                let mut rng = rl_dag::generate::seeded_rng(0x10CA1);
                let long = Seq::<Dna>::random(&mut rng, U16_MIN_LEN + 8);
                let mut per_pair = vec![(pack(&long), pack(&near_copy(&long, 40)))];
                for (ci, &(width, members, lanes)) in entries.iter().enumerate() {
                    assert_eq!(effective_stripe_lanes(width, members), lanes);
                    let mut rng = rl_dag::generate::seeded_rng(0x10CA1 + 1 + ci as u64);
                    // Ragged lanes short enough for the u8 word under the
                    // blast bonus; every third lane is a near copy, so its
                    // best local alignment spans most of the pair.
                    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..members)
                        .map(|l| {
                            let n = rng.random_range(0..=28);
                            let q = Seq::<Dna>::random(&mut rng, n);
                            let p = if l % 3 == 0 {
                                near_copy(&q, 9)
                            } else {
                                let m = rng.random_range(0..=28);
                                Seq::random(&mut rng, m)
                            };
                            (pack(&q), pack(&p))
                        })
                        .collect();
                    let want: Vec<EngineOutcome> =
                        pairs.iter().map(|(q, p)| rolling.align(q, p)).collect();
                    let idx: Vec<usize> = (0..members).collect();
                    let mut scratch = StripeScratch::new();
                    let mut results = vec![EngineOutcome::default(); members];
                    run_stripe(
                        &cfg,
                        &ref_pairs(&pairs),
                        &idx,
                        width,
                        StripeThreshold::None,
                        &mut scratch,
                        &mut results,
                    );
                    assert_eq!(results, want, "{width:?}×{lanes}, band {band:?}");
                    swept.push((width, lanes));
                    per_pair.extend(pairs);
                }
                for floor in [LaneWidth::U16, LaneWidth::U32, LaneWidth::U64] {
                    let pinned = cfg
                        .with_strategy(KernelStrategy::Wavefront)
                        .with_lane_floor(floor);
                    let mut engine = AlignEngine::new(pinned);
                    for (i, (q, p)) in per_pair.iter().enumerate() {
                        let plan = pinned.resolve_kernel(q.len(), p.len());
                        assert_eq!(plan.strategy, KernelStrategy::Wavefront);
                        assert!(plan.lanes >= floor);
                        per_pair_words.push(plan.lanes);
                        assert_eq!(
                            engine.align(q, p),
                            rolling.align(q, p),
                            "per pair at floor {floor:?}, band {band:?}, pair {i}"
                        );
                    }
                }
            }
        }
        for &(width, _, lanes) in &entries {
            assert!(
                swept.contains(&(width, lanes)),
                "{width:?}×{lanes} was never swept"
            );
        }
        for word in [LaneWidth::U16, LaneWidth::U32, LaneWidth::U64] {
            assert!(
                per_pair_words.contains(&word),
                "no per-pair alignment ran at {word:?}"
            );
        }
    }

    #[test]
    fn grid_cells_matches_diag_range_sum() {
        // The closed form (full grid minus corner triangles) must equal
        // the kernel's own per-diagonal ranges for every clipping shape:
        // band wider than either dimension, band 0, degenerate grids.
        for (n, m) in [(0, 0), (0, 9), (5, 3), (12, 12), (7, 20), (31, 2)] {
            for band in [None, Some(0), Some(1), Some(2), Some(8), Some(25), Some(40)] {
                let by_diag: u64 = (0..=(n + m))
                    .map(|d| {
                        let (lo, hi) = diag_range(d, n, m, band);
                        if lo <= hi {
                            (hi - lo + 1) as u64
                        } else {
                            0
                        }
                    })
                    .sum();
                assert_eq!(grid_cells(n, m, band), by_diag, "{n}x{m} band {band:?}");
            }
        }
    }

    /// A plan's unit list as `(kind, width, members)`.
    fn unit_list(units: &[WorkUnit]) -> Vec<(UnitKind, LaneWidth, Vec<usize>)> {
        units
            .iter()
            .map(|u| (u.kind, u.width, u.members.clone()))
            .collect()
    }

    #[test]
    fn plan_is_the_same_at_every_worker_count() {
        // The planners read no worker count: a run at any worker count,
        // or at the host's (`RAYON_NUM_THREADS`), executes one unit list.
        // Per-pair and bit-parallel units close on planned cells
        // (`UNIT_CELLS`), so a short batch is one unit however many
        // workers the run has.
        let short = random_pairs(12, 8, 12);
        let ragged = random_pairs(70, 40, 44);
        let fig4 = AlignConfig::new(RaceWeights::fig4());
        let pinned = fig4.with_strategy(KernelStrategy::RollingRow);
        // A bit-parallel plan is a scan segment: one query, many texts.
        let scan: Vec<_> = short.iter().map(|(_, p)| (&short[0].0, p)).collect();
        let plans = [
            ("rolling-row pin", pinned, ref_pairs(&short), false),
            ("bit-parallel", fig4, scan, true),
            ("striped", fig4, ref_pairs(&ragged), false),
        ];
        let mut faults = Vec::new();
        for (label, cfg, refs, bits) in plans {
            let reference = unit_list(&plan_units(&cfg, &refs, bits));
            for workers in [1, 2, 3, 5, 12, 40, resolve_workers(None)] {
                let units = plan_units_guarded(&cfg, &refs, bits, &mut faults);
                assert_eq!(unit_list(&units), reference, "{label} at {workers} workers");
                // A run at `workers` finishes every pair of that list.
                let mut slots = vec![Slot::Pending; refs.len()];
                let masks = QueryMasks::for_scan(&cfg, &refs);
                let ratchet = Ratchet::seeded(3, None, &[], (0..refs.len()).collect());
                let ratchet = masks.as_ref().map(|_| &ratchet);
                let ctrl = ScanControl::new();
                let report = run_units(
                    &cfg,
                    &refs,
                    units,
                    ratchet,
                    masks.as_ref(),
                    Some(workers),
                    &ctrl,
                    &mut slots,
                );
                assert!(report.faults.is_empty() && report.stop.is_none());
                assert!(slots.iter().all(|s| s.outcome().is_some()), "{label}");
            }
            // Each kind keeps its members in input order.
            for kind in [UnitKind::PerPair, UnitKind::BitParallel] {
                let order: Vec<usize> = reference
                    .iter()
                    .filter(|u| u.0 == kind)
                    .flat_map(|u| u.2.clone())
                    .collect();
                assert!(order.windows(2).all(|w| w[0] < w[1]), "{label} {kind:?}");
            }
            let striped = reference.iter().filter(|u| u.0 == UnitKind::Striped);
            for (_, _, members) in striped {
                let shapes: Vec<(usize, usize, usize)> = members
                    .iter()
                    .map(|&i| (refs[i].0.len(), refs[i].1.len(), i))
                    .collect();
                assert!(
                    shapes.windows(2).all(|w| w[0] < w[1]),
                    "{label}: sorted by (n, m)"
                );
            }
        }
        assert!(faults.is_empty());
        let short_refs = ref_pairs(&short);
        assert_eq!(plan_units(&pinned, &short_refs, false).len(), 1);
        assert_eq!(plan_units(&fig4, &short_refs, true).len(), 1);
        assert!(plan_units(&fig4, &ref_pairs(&ragged), false)
            .iter()
            .any(|u| u.kind == UnitKind::Striped));

        // A pinned batch of a few long pairs still spreads over workers:
        // each pair reaches the cell target alone.
        let side = (UNIT_CELLS as f64).sqrt() as usize;
        let long = random_pairs(3, side, side);
        let units = plan_units(&pinned, &ref_pairs(&long), false);
        assert!(units.len() > 1);
        assert_eq!(units.len(), 3);
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
        assert_eq!(resolve_workers(None), rayon::current_num_threads().max(1));
    }

    /// The `k` best `(score, index)` pairs among finished slots.
    fn slot_hits(slots: &[Slot], k: usize) -> Vec<(u64, usize)> {
        let mut hits: Vec<(u64, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((s.outcome()?.finished_score()?, i)))
            .collect();
        hits.sort_unstable();
        hits.truncate(k);
        hits
    }

    #[test]
    fn queue_runs_every_pair_exactly_once() {
        // Many more units than workers: a bit-parallel scan of about 35
        // cell-target units, and a striped affine scan of about 40
        // stripes. Every worker count must finish each pair in its own
        // slot, with the 1-worker run's hits and counts, and a cancel
        // that lands mid-run must leave each pair `Done` or `Pending`.
        let mut rng = rl_dag::generate::seeded_rng(0xE1AC);
        let bit_query = pack(&Seq::random(&mut rng, 64));
        let per_pair = grid_cells(64, 120, None);
        let bit_db: Vec<PackedSeq<Dna>> = (0..36 * UNIT_CELLS.div_ceil(per_pair) as usize)
            .map(|i| pack(&Seq::random(&mut rng, 120 + i % 13)))
            .collect();
        let affine_query = pack(&Seq::random(&mut rng, 32));
        let affine_db: Vec<PackedSeq<Dna>> = (0..1280)
            .map(|i| pack(&Seq::random(&mut rng, 24 + i % 17)))
            .collect();
        let fig4 = AlignConfig::new(RaceWeights::fig4());
        let affine = fig4.with_mode(AlignMode::GlobalAffine(crate::engine::AffineWeights {
            open: 2,
        }));
        let scans = [
            ("bit-parallel", fig4, &bit_query, &bit_db),
            ("striped affine", affine, &affine_query, &affine_db),
        ];
        for (label, cfg, query, db) in scans {
            let pairs: Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> =
                db.iter().map(|p| (query, p)).collect();
            let ids: Vec<usize> = (0..pairs.len()).collect();
            let refs = &pairs[..];
            let units = plan_units(&cfg, refs, QueryMasks::for_scan(&cfg, refs).is_some());
            assert!(units.len() >= 32, "{label}: {} units", units.len());
            let k = 5;
            let scan = |w: usize, ctrl: &ScanControl| {
                scan_topk_resume_impl(&cfg, refs, &ids, k, &[], Some(w), ctrl)
            };
            let (one, report) = scan(1, &ScanControl::new());
            assert!(report.faults.is_empty() && report.stop.is_none(), "{label}");
            assert!(one.iter().all(|s| s.outcome().is_some()), "{label}");
            let hits = slot_hits(&one, k);
            let outcome = |w: usize| {
                let (outcome, _) = crate::early_termination::scan(
                    &cfg,
                    query,
                    crate::early_termination::ScanEntries::Memory(db),
                    k,
                    None,
                    Some(w),
                    &ScanControl::new(),
                )
                .expect("admitted");
                (outcome.hits, outcome.completed_pairs, outcome.faulted_pairs)
            };
            let reference = outcome(1);
            assert_eq!(reference.1, pairs.len(), "{label}");
            for workers in [1, 2, 4, 8] {
                let (slots, report) = scan(workers, &ScanControl::new());
                assert!(report.faults.is_empty() && report.stop.is_none(), "{label}");
                assert_eq!(slots.len(), pairs.len());
                // A finished score is exact, so a pair finished in both
                // runs agrees: no result landed in another pair's slot.
                for (i, (s, r)) in slots.iter().zip(&one).enumerate() {
                    let (s, r) = (s.outcome().expect("done"), r.outcome().expect("done"));
                    if let (Some(a), Some(b)) = (s.finished_score(), r.finished_score()) {
                        assert_eq!(a, b, "{label} pair {i} at {workers} workers");
                    }
                }
                assert_eq!(slot_hits(&slots, k), hits, "{label} at {workers} workers");
                assert_eq!(outcome(workers), reference, "{label} at {workers} workers");

                // Cancel once the first cells are charged. The poller may
                // lose the race on a loaded host, so retry until a run is
                // cut with pairs on both sides.
                let mut cut = false;
                for _ in 0..200 {
                    let ctrl = ScanControl::new();
                    let running = std::sync::atomic::AtomicBool::new(true);
                    let (slots, report) = std::thread::scope(|s| {
                        s.spawn(|| {
                            while running.load(Ordering::Relaxed) {
                                if ctrl.cells_spent() > 0 {
                                    ctrl.cancel();
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        });
                        let run = scan(workers, &ctrl);
                        running.store(false, Ordering::Relaxed);
                        run
                    });
                    assert!(report.faults.is_empty(), "{label}");
                    let done = slots.iter().filter(|s| matches!(s, Slot::Done(_))).count();
                    let pending = slots.iter().filter(|s| matches!(s, Slot::Pending)).count();
                    assert_eq!(done + pending, pairs.len(), "{label}: no pair faulted");
                    for (i, (s, r)) in slots.iter().zip(&one).enumerate() {
                        let (Some(s), Some(r)) = (s.outcome(), r.outcome()) else {
                            continue;
                        };
                        if let (Some(a), Some(b)) = (s.finished_score(), r.finished_score()) {
                            assert_eq!(a, b, "{label} pair {i} cancelled at {workers} workers");
                        }
                    }
                    if report.stop == Some(StopReason::Cancelled) && done > 0 && pending > 0 {
                        cut = true;
                        break;
                    }
                }
                assert!(cut, "{label}: no run cut mid-way at {workers} workers");
            }
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn quarantined_stripe_members_are_length_pruned() {
        use crate::supervisor::failpoint::{self, Action};
        // One global fig4 stripe under a ratchet seeded at `t`, the
        // survivor's exact score. Its other members' length bound alone
        // proves `score > t` (under fig4 it is the longer length), but
        // the survivor keeps the stripe from being pruned whole.
        let mut rng = rl_dag::generate::seeded_rng(0x9A2E);
        let query = pack(&Seq::random(&mut rng, 32));
        let survivor = pack(&Seq::random(&mut rng, 32));
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let exact = AlignEngine::new(cfg).align(&query, &survivor);
        let t = exact.finished_score().expect("unthresholded");
        let db: Vec<PackedSeq<Dna>> = std::iter::once(survivor)
            .chain((1..6).map(|d| pack(&Seq::random(&mut rng, t as usize + d))))
            .collect();
        let pairs: Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> =
            db.iter().map(|p| (&query, p)).collect();
        assert!(!length_prunes(&cfg, pairs[0], t));
        assert!(pairs[1..].iter().all(|&pair| length_prunes(&cfg, pair, t)));
        let unit = WorkUnit {
            kind: UnitKind::Striped,
            width: cfg.resolve_stripe_lanes(32, t as usize + 5),
            members: (0..pairs.len()).collect(),
            slots: Vec::new(),
        };
        let ratchet = Ratchet::seeded(1, Some(t), &[], (0..pairs.len()).collect());
        let mut slots = vec![Slot::Pending; pairs.len()];
        let _guard = failpoint::lock_for_test();
        failpoint::quiet_failpoint_panics();
        // Armed on this thread only, and the run has one worker: the
        // calling thread.
        failpoint::arm_times_here("stripe-sweep", Action::Panic, 1);
        let report = run_units(
            &cfg,
            &pairs,
            vec![unit],
            Some(&ratchet),
            None,
            Some(1),
            &ScanControl::new(),
            &mut slots,
        );
        failpoint::disarm("stripe-sweep");
        assert_eq!(report.stop, None);
        assert_eq!(report.faults.len(), 1, "{:?}", report.faults);
        let fault = &report.faults[0];
        assert_eq!(fault.site, "stripe-sweep");
        assert!(fault.recovered && fault.interrupted.is_none());
        assert_eq!(fault.pairs, (0..pairs.len()).collect::<Vec<_>>());
        // The retry prunes as every other member path does: no cell of a
        // pruned member is swept, and the survivor keeps its exact score.
        assert_eq!(slots[0].outcome(), Some(&exact));
        for (i, slot) in slots.iter().enumerate().skip(1) {
            let outcome = slot.outcome().expect("done");
            assert_eq!(*outcome, PRUNED, "member {i}");
            assert!(outcome.early_terminated && outcome.cells_computed == 0);
        }
    }

    #[test]
    fn suffix_bound_lane_arithmetic_is_score_lower_bound() {
        use crate::engine::AffineWeights;
        let affine = AlignMode::GlobalAffine(AffineWeights { open: 2 });
        let skewless = RaceWeights {
            matched: 3,
            mismatched: Some(2),
            indel: 1,
        };
        for weights in [
            RaceWeights::fig4(),
            RaceWeights::fig2b(),
            RaceWeights::levenshtein(),
            skewless,
        ] {
            let w = RawWeights::from_weights(weights);
            for mode in [AlignMode::Global, affine] {
                let sb = SuffixBound::new(mode, w, 40, 40).expect("global modes get the pass");
                for a in 0..40_usize {
                    for b in 0..40_usize {
                        let lb = score_lower_bound(mode, w, a, b);
                        let (sum, delta) = ((a + b) as i32, a.abs_diff(b) as i32);
                        assert_eq!(sb.doubled(sum, delta), 2 * lb as i32, "{a} x {b}");
                    }
                }
            }
        }
        let w = RawWeights::from_weights(RaceWeights::fig4());
        // Skipped by mode: semi-global's suffix bound is 0 and local
        // scans are never ratcheted.
        assert_eq!(SuffixBound::new(AlignMode::SemiGlobal, w, 40, 40), None);
        assert_eq!(
            SuffixBound::new(AlignMode::Local(LocalScores::blast()), w, 40, 40),
            None
        );
        // All-zero weights prove nothing; a huge grid would overflow.
        let zero = RawWeights::from_weights(RaceWeights {
            matched: 0,
            mismatched: Some(0),
            indel: 0,
        });
        assert_eq!(SuffixBound::new(AlignMode::Global, zero, 40, 40), None);
        assert_eq!(
            SuffixBound::new(AlignMode::Global, w, 1 << 28, 1 << 28),
            None
        );
    }

    /// The full `(n + 1) × (m + 1)` matrix of the min-plus recurrence in
    /// plain `u64`, `min(M, Ix, Iy)` per cell (`open = 0` is the linear
    /// recurrence): the rolling-row kernel's cell rules, kept whole.
    fn full_matrix(
        q: &Seq<Dna>,
        p: &Seq<Dna>,
        w: RawWeights,
        open: u64,
        band: Option<usize>,
    ) -> Vec<Vec<u64>> {
        let (n, m) = (q.len(), p.len());
        let (q, p) = (q.as_slice(), p.as_slice());
        let mut mm = vec![vec![NEVER; m + 1]; n + 1];
        let mut xx = mm.clone();
        let mut yy = mm.clone();
        let in_band = |i: usize, j: usize| band.is_none_or(|k| i.abs_diff(j) <= k);
        let open_ext = open.saturating_add(w.indel);
        for i in 0..=n {
            for j in 0..=m {
                if !in_band(i, j) {
                    continue;
                }
                if i == 0 && j == 0 {
                    mm[0][0] = 0;
                    continue;
                }
                if i > 0 && j > 0 {
                    let dw = if q[i - 1] == p[j - 1] {
                        w.matched
                    } else {
                        w.mismatched
                    };
                    mm[i][j] = mm[i - 1][j - 1]
                        .min(xx[i - 1][j - 1])
                        .min(yy[i - 1][j - 1])
                        .saturating_add(dw);
                }
                if i > 0 {
                    xx[i][j] = mm[i - 1][j]
                        .min(yy[i - 1][j])
                        .saturating_add(open_ext)
                        .min(xx[i - 1][j].saturating_add(w.indel));
                }
                if j > 0 {
                    yy[i][j] = mm[i][j - 1]
                        .min(xx[i][j - 1])
                        .saturating_add(open_ext)
                        .min(yy[i][j - 1].saturating_add(w.indel));
                }
            }
        }
        (0..=n)
            .map(|i| {
                (0..=m)
                    .map(|j| mm[i][j].min(xx[i][j]).min(yy[i][j]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn remaining_cost_bound_never_exceeds_the_final_score() {
        // The scalar statement of the ratchet's remaining-cost abandon:
        // for every pair of consecutive anti-diagonals, the minimum of
        // D(i, j) + score_lower_bound(n − i, m − j) over their cells is
        // at most the final score.
        use crate::engine::AffineWeights;
        let mut rng = rl_dag::generate::seeded_rng(0x5_0FF1);
        let affine = |open| AlignMode::GlobalAffine(AffineWeights { open });
        let settings = [
            ("fig4", RaceWeights::fig4(), AlignMode::Global, None),
            ("fig2b", RaceWeights::fig2b(), AlignMode::Global, None),
            (
                "levenshtein",
                RaceWeights::levenshtein(),
                AlignMode::Global,
                None,
            ),
            ("banded", RaceWeights::fig4(), AlignMode::Global, Some(3)),
            (
                "banded/levenshtein",
                RaceWeights::levenshtein(),
                AlignMode::Global,
                Some(2),
            ),
            ("affine", RaceWeights::fig4(), affine(2), None),
            ("affine/fig2b", RaceWeights::fig2b(), affine(3), None),
            (
                "affine/banded",
                RaceWeights::levenshtein(),
                affine(1),
                Some(4),
            ),
        ];
        for (label, weights, mode, band) in settings {
            let w = RawWeights::from_weights(weights);
            let open = match mode {
                AlignMode::GlobalAffine(a) => a.open,
                _ => 0,
            };
            let mut cfg = AlignConfig::new(weights).with_mode(mode);
            if let Some(k) = band {
                cfg = cfg.with_band(k);
            }
            let mut engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
            for trial in 0..40 {
                let q = Seq::<Dna>::random(&mut rng, 1 + trial % 17);
                // Half the entries are near copies, so scores run low
                // and the bound is tested where it is tight.
                let p = if trial % 2 == 0 {
                    let keep = q.len().saturating_sub(trial % 4).max(1);
                    q.as_slice()[..keep].iter().copied().collect()
                } else {
                    Seq::random(&mut rng, 1 + (trial * 7) % 19)
                };
                let (n, m) = (q.len(), p.len());
                let dp = full_matrix(&q, &p, w, open, band);
                let score = dp[n][m];
                assert_eq!(
                    engine.align(&pack(&q), &pack(&p)).score.cycles(),
                    (score != NEVER).then_some(score),
                    "{label}: the reference matrix must agree with the kernel"
                );
                if score == NEVER {
                    continue;
                }
                let f = |i: usize, j: usize| {
                    dp[i][j].saturating_add(score_lower_bound(mode, w, n - i, m - j))
                };
                for e in 1..=(n + m) {
                    let floor = (e - 1..=e)
                        .flat_map(|diag| {
                            (diag.saturating_sub(m)..=diag.min(n)).map(move |i| (i, diag - i))
                        })
                        .map(|(i, j)| f(i, j))
                        .min()
                        .unwrap_or(NEVER);
                    assert!(
                        floor <= score,
                        "{label}: {n}x{m} diagonals {}..={e} bound {floor} > score {score}",
                        e - 1
                    );
                }
            }
        }
    }

    #[test]
    fn remaining_cost_bound_abandons_long_ratcheted_stripes() {
        // The `scan_long` regime in miniature: entry 0 is the query's
        // first 199 bp, which scores exactly 256 under fig4 and sorts
        // into the first stripe, so the ratchet holds t = 256 from the
        // second stripe on. The 63 random 200–256 bp entries pass the
        // length prune (their bound is exactly 256) and their
        // elapsed-time frontier only passes 256 near anti-diagonal 512;
        // the remaining-cost bound proves them out far earlier. The
        // Wavefront pin keeps the global scan on the striped kernel
        // (`Auto` sweeps it bit-parallel).
        use crate::early_termination::{estimate_scan_cells, scan_packed_topk_with};
        use crate::engine::AffineWeights;
        let mut rng = rl_dag::generate::seeded_rng(0x5_CA17);
        let query = Seq::<Dna>::random(&mut rng, 256);
        let mut db = vec![pack(&query.as_slice()[..199].iter().copied().collect())];
        for i in 0..63 {
            db.push(pack(&Seq::random(&mut rng, 200 + (i * 29) % 57)));
        }
        let query = pack(&query);
        let affine = AlignMode::GlobalAffine(AffineWeights { open: 2 });
        for (label, mode, score) in [("global", AlignMode::Global, 256), ("affine", affine, 258)] {
            let cfg = AlignConfig::new(RaceWeights::fig4())
                .with_mode(mode)
                .with_strategy(KernelStrategy::Wavefront);
            let scan = scan_packed_topk_with(&cfg, &query, &db, 1, Some(1));
            assert_eq!(scan.hits, vec![(0, score)], "{label}");
            let planned = estimate_scan_cells(&cfg, &query, &db);
            assert!(
                scan.cells_computed * 3 <= planned,
                "{label}: computed {} of {planned} planned cells",
                scan.cells_computed
            );
        }
    }
}
