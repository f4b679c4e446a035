//! The inter-pair **striped batch kernel** behind
//! [`crate::engine::align_batch`].
//!
//! The Race Logic array's economics come from evaluating many
//! independent race cells per clock. The per-pair wavefront kernel
//! ([`crate::engine`]) captures the *intra*-pair version of that claim —
//! the cells of one anti-diagonal are SIMD lanes. For the local and
//! affine modes that per-pair kernel is this module's sweep at one lane
//! ([`stripe_sweep_local`], [`stripe_sweep_affine`] with `L = 1`, called
//! from [`AlignEngine::align`]). This module captures
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;
use rl_bio::{alphabet::Symbol, PackedSeq, StripedCodes};
use rl_temporal::Time;

use crate::bitpar::QueryMasks;
use crate::engine::{
    applied_bias, classify_outcome, diag_range, raw_to_time, rotate_bufs, score_lower_bound,
    u8_bias_rate, AffineDiagScratch, AlignConfig, AlignEngine, AlignMode, BatchPlanStats,
    DiagScratch, DiagWord, EngineOutcome, KernelStrategy, LaneWidth, LocalScores, RawWeights,
    NEVER, STRIPE_MIN_PAIRS, STRIPE_PAD_BUDGET_PCT,
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
/// indices into the batch; `results`/`states` are filled by the worker
/// and scattered back afterwards.
struct WorkUnit {
    kind: UnitKind,
    /// Stripe lane width, resolved **once** by the planner from the
    /// members' union shape — `run_stripe` must not re-resolve, so the
    /// shape the stripe was budgeted and chunked at is the shape it is
    /// swept at.
    width: LaneWidth,
    members: Vec<usize>,
    results: Vec<EngineOutcome>,
    states: Vec<SlotState>,
}

/// Completion state of one pair inside a work unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Never reached: an early stop drained the queue first.
    Pending,
    /// Finished; the matching `results` entry is valid.
    Done,
    /// Lost to an unrecovered worker fault.
    Faulted,
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

/// Per-worker scratch of one `run_units` pass: a per-pair fallback
/// engine, the striped-sweep arena and the bit-parallel state words,
/// reused across the worker's units.
struct WorkerScratch {
    engine: AlignEngine,
    stripe: StripeScratch,
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
        let units = plan_units_guarded(cfg, pairs, resolve_workers(None), false, &mut faults);
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
    let units = plan_units_guarded(
        cfg,
        pairs,
        resolve_workers(workers),
        masks.is_some(),
        &mut faults,
    );
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
    /// every interior cell each diagonal, except in the 1-lane affine
    /// sweep, whose fused interior minimum is already exact.
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

/// Executes planned units across workers (round-robin, one scratch set
/// per worker) and scatters results back into input order. With a
/// `ratchet`, each unit runs under the ratchet's threshold at the
/// moment the unit starts, and finished scores feed back into it.
/// Bit-parallel units need the ratchet and the segment's `masks`.
///
/// The [`ScanControl`] is consulted before every work unit (and inside
/// the per-pair kernels at row/diagonal granularity); units an early
/// stop never reaches leave their slots `Pending`. Worker panics are
/// isolated per unit: a poisoned stripe is quarantined and its members
/// retried on the scalar fallback kernel (see [`run_striped_unit`]).
#[allow(clippy::too_many_arguments)]
fn run_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    units: Vec<WorkUnit>,
    ratchet: Option<&Ratchet>,
    masks: Option<&QueryMasks>,
    workers: Option<usize>,
    ctrl: &ScanControl,
    out: &mut [Slot],
) -> RunReport {
    let n_workers = resolve_workers(workers).min(units.len()).max(1);
    let ledger = ExecLedger::new();
    // Round-robin units across workers: the planner emits all striped
    // units first and the (at most one-per-worker) per-pair units last,
    // so contiguous chunking would pile every per-pair unit onto the
    // final worker. Round-robin spreads both kinds.
    struct WorkSlot {
        units: Vec<WorkUnit>,
        scratch: WorkerScratch,
    }
    let mut slots: Vec<WorkSlot> = (0..n_workers)
        .map(|_| WorkSlot {
            units: Vec::new(),
            scratch: WorkerScratch {
                engine: AlignEngine::new(*cfg),
                stripe: StripeScratch::new(),
                bits: Vec::new(),
            },
        })
        .collect();
    for (i, unit) in units.into_iter().enumerate() {
        slots[i % n_workers].units.push(unit);
    }
    slots.par_chunks_mut(1).for_each(|slot| {
        let slot = &mut slot[0];
        let worker = &mut slot.scratch;
        for unit in &mut slot.units {
            unit.results
                .resize(unit.members.len(), EngineOutcome::default());
            unit.states.resize(unit.members.len(), SlotState::Pending);
            // Each unit boundary is a checkpoint: the only place a batch
            // evaluates stop conditions between whole work units.
            telemetry::count(&telemetry::metrics::CHECKPOINTS, 1);
            if let Some(stop) = ctrl.should_stop() {
                ledger.note_stop(stop);
                break;
            }
            match unit.kind {
                UnitKind::BitParallel => {
                    let (Some(r), Some(masks)) = (ratchet, masks) else {
                        unreachable!("bit-parallel units run only in a ratcheted scan with masks")
                    };
                    run_bitpar_unit(cfg, pairs, unit, masks, worker, r, ctrl, &ledger);
                }
                UnitKind::PerPair => {
                    run_per_pair_unit(cfg, pairs, unit, worker, ratchet, ctrl, &ledger);
                }
                UnitKind::Striped => {
                    let threshold = match ratchet {
                        Some(r) => match r.current() {
                            Some(t) => StripeThreshold::Coarse(t),
                            None => StripeThreshold::None,
                        },
                        None => match cfg.threshold {
                            Some(t) => StripeThreshold::Exact(t),
                            None => StripeThreshold::None,
                        },
                    };
                    // Under the ratchet, a stripe whose every member the
                    // length bound already proves out is abandoned whole,
                    // before a single cell is swept.
                    if let StripeThreshold::Coarse(t) = threshold {
                        if unit
                            .members
                            .iter()
                            .all(|&i| length_prunes(cfg, pairs[i], t))
                        {
                            unit.results.fill(PRUNED);
                            unit.states.fill(SlotState::Done);
                            telemetry::count(
                                &telemetry::metrics::PAIRS_PRUNED,
                                unit.members.len() as u64,
                            );
                            continue;
                        }
                    }
                    let planned = || {
                        unit.members
                            .iter()
                            .map(|&i| grid_cells(pairs[i].0.len(), pairs[i].1.len(), cfg.band))
                            .sum()
                    };
                    if !ctrl.reserve(planned()) {
                        ledger.note_stop(StopReason::BudgetExhausted);
                        break;
                    }
                    run_striped_unit(cfg, pairs, unit, threshold, worker, ratchet, ctrl, &ledger);
                }
            }
        }
    });
    for unit in slots.iter().flat_map(|s| &s.units) {
        for ((&i, &r), &state) in unit.members.iter().zip(&unit.results).zip(&unit.states) {
            out[i] = match state {
                SlotState::Done => Slot::Done(r),
                SlotState::Pending => Slot::Pending,
                SlotState::Faulted => Slot::Faulted,
            };
        }
    }
    ledger.into_report()
}

/// Executes one striped unit: scratch-budget gate, `catch_unwind`
/// isolation around the sweep, quarantine + per-pair fallback retry on
/// a panic.
///
/// Every finished score is observed by the ratchet **exactly once** —
/// a repeat observation of the same `(score, index)` would occupy two
/// of the heap's k slots and tighten the ratchet below the true k-th
/// best, breaking the abandon proof. A panicked sweep skips the
/// observation loop entirely; retried members observe only on retry
/// success.
#[allow(clippy::too_many_arguments)]
fn run_striped_unit<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &mut WorkUnit,
    threshold: StripeThreshold,
    worker: &mut WorkerScratch,
    ratchet: Option<&Ratchet>,
    ctrl: &ScanControl,
    ledger: &ExecLedger,
) {
    if let Some(budget) = ctrl.scratch_budget() {
        let (mut nn, mut mm) = (0_usize, 0_usize);
        for &i in &unit.members {
            let (q, p) = &pairs[i];
            nn = nn.max(q.len());
            mm = mm.max(p.len());
        }
        let lanes = effective_stripe_lanes(unit.width, unit.members.len());
        let planes = if matches!(cfg.mode, AlignMode::GlobalAffine(_)) {
            3
        } else {
            1
        };
        let need = stripe_scratch_bytes(nn, mm, lanes, unit.width, planes);
        if need > budget {
            ledger.note_fault(Fault::new(
                "scratch-budget",
                unit.members.clone(),
                true,
                format!(
                    "stripe scratch estimate {need} B exceeds budget {budget} B; \
                     members degraded to the per-pair kernel"
                ),
            ));
            run_per_pair_unit(cfg, pairs, unit, worker, ratchet, ctrl, ledger);
            return;
        }
    }
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
            &mut unit.results,
        );
    }));
    match sweep {
        Ok(()) => {
            unit.states.fill(SlotState::Done);
            let cells: u64 = unit.results.iter().map(|r| r.cells_computed).sum();
            ctrl.charge(cells);
            telemetry::count(&telemetry::metrics::STRIPE_UNITS, 1);
            telemetry::count(&telemetry::metrics::UNIT_PAIRS, unit.members.len() as u64);
            telemetry::observe(&telemetry::metrics::UNIT_CELLS, cells);
            if let Some(r) = ratchet {
                for (&i, res) in unit.members.iter().zip(&unit.results) {
                    if let Some(score) = res.finished_score() {
                        observe_guarded(r, score, i, ledger);
                    }
                }
            }
        }
        Err(payload) => quarantine_and_retry(
            cfg,
            pairs,
            unit,
            worker,
            ratchet,
            ctrl,
            ledger,
            "stripe-sweep",
            panic_message(&*payload),
        ),
    }
}

/// Quarantines a poisoned stripe: records the fault and retries every
/// member on the scalar rolling-row fallback kernel, each retry under
/// its own `catch_unwind`. The retry threshold is the ratchet's
/// *current* value (or the configured threshold) — always at least the
/// true k-th best score, so a retried true-top-k entry still finishes
/// with its exact score and the final top-k stays byte-identical to
/// the unfaulted run (property-tested in `tests/failpoints.rs`).
///
/// A deadline/cancel/budget/watchdog trip *during* the fallback is an
/// interruption, not a loss: the untouched members stay `Pending`
/// (resumable) and the stripe's ledger entry carries the stop in
/// [`Fault::interrupted`] instead of folding it into the worker-fault
/// message. `recovered` then still reflects only the pairs the
/// fallback actually reached.
#[allow(clippy::too_many_arguments)]
fn quarantine_and_retry<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &mut WorkUnit,
    worker: &mut WorkerScratch,
    ratchet: Option<&Ratchet>,
    ctrl: &ScanControl,
    ledger: &ExecLedger,
    site: &str,
    message: String,
) {
    telemetry::count(&telemetry::metrics::QUARANTINES, 1);
    ctrl.trace(|| TraceEvent::StripeQuarantined {
        members: unit.members.len() as u64,
    });
    let mut lost = false;
    let mut interrupted = None;
    for idx in 0..unit.members.len() {
        if unit.states[idx] == SlotState::Done {
            continue;
        }
        let i = unit.members[idx];
        if let Some(stop) = ctrl.should_stop() {
            ledger.note_stop(stop);
            interrupted = Some(stop);
            break;
        }
        let mut fallback = *cfg;
        fallback.strategy = KernelStrategy::RollingRow;
        if let Some(r) = ratchet {
            fallback.threshold = r.current().or(cfg.threshold);
        }
        worker.engine.set_config(fallback);
        let (q, p) = &pairs[i];
        telemetry::count(&telemetry::metrics::PAIR_FALLBACKS, 1);
        match catch_unwind(AssertUnwindSafe(|| {
            worker.engine.align_ctrl(q, p, Some(ctrl))
        })) {
            Ok(Ok(o)) => {
                unit.results[idx] = o;
                unit.states[idx] = SlotState::Done;
                ctrl.trace(|| TraceEvent::PairFallback {
                    pair: i as u64,
                    recovered: true,
                });
                if let Some(r) = ratchet {
                    if let Some(score) = o.finished_score() {
                        observe_guarded(r, score, i, ledger);
                    }
                }
            }
            Ok(Err(stop)) => {
                ledger.note_stop(stop);
                interrupted = Some(stop);
                break;
            }
            Err(retry_payload) => {
                unit.states[idx] = SlotState::Faulted;
                lost = true;
                telemetry::count(&telemetry::metrics::WORKER_FAULTS, 1);
                ctrl.trace(|| TraceEvent::PairFallback {
                    pair: i as u64,
                    recovered: false,
                });
                ledger.note_fault(Fault::new(
                    "per-pair",
                    vec![i],
                    false,
                    panic_message(&*retry_payload),
                ));
            }
        }
    }
    worker.engine.set_config(*cfg);
    ledger.note_fault(Fault {
        interrupted,
        ..Fault::new(site, unit.members.clone(), !lost, message)
    });
    if lost {
        flight::dump("worker-fault");
    }
}

/// Executes one per-pair unit: each alignment under its own
/// `catch_unwind`; a panicked pair is retried
/// once on the rolling-row fallback kernel before being declared lost.
///
/// With a ratchet, the threshold is re-read per pair, not per unit —
/// per-pair units can hold a large share of the batch (e.g. short-read
/// databases where nothing stripes), so the threshold keeps tightening
/// while the unit drains; the per-pair plan re-resolves lane width
/// from the live threshold, so the fused abandon stays exact. Every
/// finished score observes the ratchet exactly once.
fn run_per_pair_unit<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &mut WorkUnit,
    worker: &mut WorkerScratch,
    ratchet: Option<&Ratchet>,
    ctrl: &ScanControl,
    ledger: &ExecLedger,
) {
    for idx in 0..unit.members.len() {
        let i = unit.members[idx];
        if let Some(stop) = ctrl.should_stop() {
            ledger.note_stop(stop);
            break;
        }
        let mut run_cfg = *cfg;
        if let Some(r) = ratchet {
            run_cfg.threshold = r.current();
            if run_cfg
                .threshold
                .is_some_and(|t| length_prunes(cfg, pairs[i], t))
            {
                unit.results[idx] = PRUNED;
                unit.states[idx] = SlotState::Done;
                telemetry::count(&telemetry::metrics::PAIRS_PRUNED, 1);
                continue;
            }
        }
        worker.engine.set_config(run_cfg);
        let (q, p) = &pairs[i];
        let first = catch_unwind(AssertUnwindSafe(|| {
            worker.engine.align_ctrl(q, p, Some(ctrl))
        }));
        let result = match first {
            Ok(res) => res,
            Err(payload) => {
                let mut fallback = run_cfg;
                fallback.strategy = KernelStrategy::RollingRow;
                worker.engine.set_config(fallback);
                telemetry::count(&telemetry::metrics::PAIR_FALLBACKS, 1);
                match catch_unwind(AssertUnwindSafe(|| {
                    worker.engine.align_ctrl(q, p, Some(ctrl))
                })) {
                    Ok(res) => {
                        ctrl.trace(|| TraceEvent::PairFallback {
                            pair: i as u64,
                            recovered: true,
                        });
                        ledger.note_fault(Fault::new(
                            "per-pair",
                            vec![i],
                            true,
                            panic_message(&*payload),
                        ));
                        res
                    }
                    Err(retry_payload) => {
                        unit.states[idx] = SlotState::Faulted;
                        telemetry::count(&telemetry::metrics::WORKER_FAULTS, 1);
                        ctrl.trace(|| TraceEvent::PairFallback {
                            pair: i as u64,
                            recovered: false,
                        });
                        ledger.note_fault(Fault::new(
                            "per-pair",
                            vec![i],
                            false,
                            panic_message(&*retry_payload),
                        ));
                        flight::dump("worker-fault");
                        continue;
                    }
                }
            }
        };
        match result {
            Ok(o) => {
                unit.results[idx] = o;
                unit.states[idx] = SlotState::Done;
                if let Some(r) = ratchet {
                    if let Some(score) = o.finished_score() {
                        observe_guarded(r, score, i, ledger);
                    }
                }
            }
            Err(stop) => {
                ledger.note_stop(stop);
                break;
            }
        }
    }
}

/// Executes one bit-parallel unit of a ratcheted scan. Per pair, in
/// order: check the stop conditions, read the ratchet's current `t`,
/// apply the length prune, reserve the pair's grid cells, sweep it on
/// the bit-parallel kernel, charge the cells of the columns swept. A
/// score above `t` — computed, or proved by the kernel's early stop —
/// is reported as abandoned ([`Time::NEVER`], `early_terminated`), and
/// every other score is observed by the ratchet exactly once.
///
/// A panic anywhere in the loop quarantines the unit: the members not
/// yet `Done` are retried on the scalar rolling row
/// ([`quarantine_and_retry`], site `bitpar-sweep`).
#[allow(clippy::too_many_arguments)]
fn run_bitpar_unit<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &mut WorkUnit,
    masks: &QueryMasks,
    worker: &mut WorkerScratch,
    ratchet: &Ratchet,
    ctrl: &ScanControl,
    ledger: &ExecLedger,
) {
    // AssertUnwindSafe: a panic leaves only the worker's bit-parallel
    // state words stale, and the kernel re-initializes them per pair.
    let sweep = catch_unwind(AssertUnwindSafe(|| {
        for idx in 0..unit.members.len() {
            let i = unit.members[idx];
            if let Some(stop) = ctrl.should_stop() {
                ledger.note_stop(stop);
                return;
            }
            let t = ratchet.current();
            if t.is_some_and(|t| length_prunes(cfg, pairs[i], t)) {
                unit.results[idx] = PRUNED;
                unit.states[idx] = SlotState::Done;
                telemetry::count(&telemetry::metrics::PAIRS_PRUNED, 1);
                continue;
            }
            let (q, p) = pairs[i];
            let cells = grid_cells(q.len(), p.len(), None);
            if !ctrl.reserve(cells) {
                ledger.note_stop(StopReason::BudgetExhausted);
                return;
            }
            fp_hit("bitpar-sweep");
            let (score, columns) = masks.score(p, t, &mut worker.bits);
            // The whole grid, `cells`, once every column is swept.
            let swept = (q.len() as u64 + 1) * (columns as u64 + 1);
            ctrl.charge(swept);
            telemetry::count(&telemetry::metrics::BITPAR_PAIRS, 1);
            let finished = score.filter(|&s| t.is_none_or(|t| s <= t));
            unit.results[idx] = EngineOutcome {
                score: finished.map_or(Time::NEVER, raw_to_time),
                cells_computed: swept,
                early_terminated: finished.is_none(),
            };
            unit.states[idx] = SlotState::Done;
            if let Some(score) = finished {
                observe_guarded(ratchet, score, i, ledger);
            }
        }
    }));
    if let Err(payload) = sweep {
        quarantine_and_retry(
            cfg,
            pairs,
            unit,
            worker,
            Some(ratchet),
            ctrl,
            ledger,
            "bitpar-sweep",
            panic_message(&*payload),
        );
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

/// Feeds a finished score into the ratchet under `catch_unwind`: an
/// injected `ratchet` failpoint panic loses the observation, which is
/// sound — a missed observation only leaves the ratchet looser than it
/// could be, and abandons stay strict `score > threshold` proofs.
fn observe_guarded(r: &Ratchet, score: u64, index: usize, ledger: &ExecLedger) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| r.observe(score, index))) {
        ledger.note_fault(Fault::new(
            "ratchet",
            vec![index],
            true,
            panic_message(&*payload),
        ));
    }
}

/// Estimated bytes of striped-sweep scratch a `(nn, mm)` union shape
/// claims at `lanes` lanes of `width`-word diagonals: three rotating
/// diagonal buffers of `(nn + 1) · lanes` words per plane (`planes` is
/// 1 for the linear modes, 3 for affine's M/Ix/Iy) plus the two
/// interleaved `u8` code planes. A gating estimate for
/// [`ScanControl::with_scratch_budget`], not an allocator contract.
fn stripe_scratch_bytes(
    nn: usize,
    mm: usize,
    lanes: usize,
    width: LaneWidth,
    planes: usize,
) -> usize {
    let word = width.bits() as usize / 8;
    3 * planes * (nn + 1) * lanes * word + (nn + mm) * lanes
}

/// The worker count a run uses: the caller's, or one per available
/// thread. Planning and execution both read it, so a `Some(n)` run plans
/// the same units on every host.
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

/// Groups the batch into work units with the length-aware packer
/// ([`pack_length_aware`]), which takes every pair unless the config
/// pins the rolling row. Stripes left under [`STRIPE_MIN_PAIRS`]
/// members, and every pair of a rolling-row-pinned plan, fall back to
/// per-pair runs split evenly across `workers` (the count
/// [`resolve_workers`] gives the run); those resolve their kernel per
/// pair ([`AlignConfig::resolve_kernel`]). A `bit_parallel` plan (a
/// scan segment with query masks) instead splits every pair, in input
/// order, evenly into bit-parallel units.
fn plan_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    workers: usize,
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
        return split_units(&all, workers, kind);
    }
    let mut eligible: Vec<(usize, usize, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (q, p))| (q.len(), p.len(), i))
        .collect();
    let mut singles: Vec<usize> = Vec::new();
    let mut units = pack_length_aware(cfg, &mut eligible, &mut singles);
    singles.sort_unstable();
    units.extend(split_units(&singles, workers, UnitKind::PerPair));
    units
}

/// Splits `members` evenly, in order, into at most `workers` units of
/// `kind` (none when `members` is empty).
fn split_units(members: &[usize], workers: usize, kind: UnitKind) -> Vec<WorkUnit> {
    if members.is_empty() {
        return Vec::new();
    }
    members
        .chunks(members.len().div_ceil(workers))
        .map(|chunk| WorkUnit {
            kind,
            width: LaneWidth::U64,
            members: chunk.to_vec(),
            results: Vec::new(),
            states: Vec::new(),
        })
        .collect()
}

/// Plans units under `catch_unwind`: an injected `packer` panic
/// degrades to an all-per-pair plan (recorded as a recovered fault in
/// `faults`) instead of killing a supervised scan.
fn plan_units_guarded<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    workers: usize,
    bit_parallel: bool,
    faults: &mut Vec<Fault>,
) -> Vec<WorkUnit> {
    match catch_unwind(AssertUnwindSafe(|| {
        plan_units(cfg, pairs, workers, bit_parallel)
    })) {
        Ok(units) => units,
        Err(payload) => {
            let all: Vec<usize> = (0..pairs.len()).collect();
            let units = split_units(&all, workers, UnitKind::PerPair);
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
                results: Vec::new(),
                states: Vec::new(),
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
    for unit in plan_units(cfg, pairs, resolve_workers(None), false) {
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
    let (shapes, q, p) = (
        &scratch.shapes[..],
        scratch.q_plane.as_slice(),
        scratch.p_plane.as_slice(),
    );
    let (bufs, affine) = W::split(&mut scratch.diag);
    let w = RawWeights::from_weights(cfg.weights);
    // The u8 sweep runs biased (see `engine::u8_bias_rate`); wider words
    // store raw values and the bias machinery compiles out at rate 0.
    let bias_m2 = if W::BIASED {
        u8_bias_rate(cfg.mode, w)
    } else {
        0
    };
    // Striped units are charged per unit (reserve, then charge), so the
    // sweeps run free here; only per-pair alignments checkpoint inside.
    let free = &mut SupCursor::new(None);
    let swept = match cfg.mode {
        AlignMode::Local(s) => {
            stripe_sweep_local::<W, L>(shapes, q, p, union, s, cfg.band, bufs, results, free)
        }
        AlignMode::GlobalAffine(a) => {
            fp_hit("affine-stripe");
            stripe_sweep_affine::<W, L>(
                shapes, q, p, union, w, a.open, cfg.band, threshold, suffix, bias_m2, affine,
                results, free,
            )
        }
        AlignMode::Global | AlignMode::SemiGlobal => {
            let semi = cfg.mode == AlignMode::SemiGlobal;
            stripe_sweep::<W, L>(
                shapes, q, p, union, w, cfg.band, threshold, suffix, semi, bias_m2, bufs, results,
            );
            Ok(())
        }
    };
    swept.expect("a free-running sweep cannot stop early");
}

/// One striped anti-diagonal sweep over a cohort: lane `l` of every
/// vector op is pair `l`. The sweep runs the **union** geometry (the
/// members' max shape `nn × mm` under the shared band); each lane
/// mirrors the per-pair wavefront kernel over its own `(n_l, m_l)` via
/// masks:
///
/// - **Values**: the diagonal buffers hold `(nn + 1) × L` words,
///   row-major by absolute row `i` with lanes interleaved, so a lane's
///   cell `(i, j)` neighbours sit at the same lane offset one row over —
///   the same three-buffer rotation as the per-pair kernel, vectorized
///   across pairs instead of rows.
/// - **Minima**: a lane's frontier minimum includes exactly its own
///   in-band cells (`i ≤ n_l ∧ d − i ≤ m_l`, band shared); padded and
///   out-of-shape cells contribute `+∞`.
/// - **Early termination**: before each diagonal `d`, every live lane
///   applies the per-pair abandon rule to its own two-diagonal minima
///   and retires independently (the stripe stops early only when *all*
///   lanes have retired).
/// - **Retirement**: at `d = n_l + m_l` the lane's sink cell is read
///   from the current diagonal and the lane classifies exactly like the
///   per-pair kernel's epilogue.
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
/// **Semi-global** (`semi = true`) mirrors the per-pair kernel's
/// free-end semantics lane by lane: top-row boundary cells inject `0`,
/// a per-lane **best-score register** tracks each lane's bottom-row
/// minimum (one extra read per live lane per diagonal — the bottom row
/// meets each diagonal in exactly one cell), every abandon rule folds
/// the lane's best in (an in-threshold hit already seen must block the
/// abandon), and lanes retire on their best register instead of the
/// sink cell — which also gives band-excluded sinks the right verdict
/// for free.
#[allow(clippy::too_many_arguments)]
fn stripe_sweep<W: KernelWord, const L: usize>(
    shapes: &[(usize, usize)],
    q_plane: &[u8],
    p_plane: &[u8],
    (nn, mm): (usize, usize),
    w: RawWeights,
    band: Option<usize>,
    threshold: StripeThreshold,
    suffix: Option<SuffixBound>,
    semi: bool,
    bias_m2: u64,
    bufs: &mut [Vec<W>; 3],
    out: &mut [EngineOutcome],
) {
    let lanes = shapes.len();
    assert!(lanes <= L && lanes == out.len());
    debug_assert!(
        bias_m2 == 0 || !semi,
        "the bias rate is zero for semi-global"
    );
    let lw: LaneWeights<W> = w.lanes();
    let t_raw = threshold.classify_raw();
    // `u8` is the only biased monomorphization, and the only one whose
    // plan can admit a threshold at/above the lane word's `+∞`
    // (`engine::u8_admits` proves the saturated-threshold abandon rule
    // exact there — see the abandon check below).
    let byte = std::mem::size_of::<W>() == 1;
    let mut bias = 0_u64;
    let mut t_w = match threshold {
        StripeThreshold::Exact(t) => Some(W::clamp_raw(t)),
        _ => None,
    };
    let mut t_c = match threshold {
        StripeThreshold::Coarse(t) => Some(W::clamp_raw(t)),
        _ => None,
    };
    for b in bufs.iter_mut() {
        b.clear();
        b.resize((nn + 1) * L, W::INF);
    }

    // Per-lane shape masks as u32 (vectorizes the validity compares).
    let mut n_arr = [0_u32; L];
    let mut m_arr = [0_u32; L];
    for (l, &(n, m)) in shapes.iter().enumerate() {
        n_arr[l] = u32::try_from(n).expect("sequence fits u32");
        m_arr[l] = u32::try_from(m).expect("sequence fits u32");
    }
    // Inactive lanes keep (0, 0) but start retired.

    // Diagonal 0: the root cell (0, 0), real for every pair.
    bufs[0][..L].fill(W::ZERO);
    let mut min1 = [W::ZERO; L]; // per-lane min over diagonal d − 1
    let mut min2 = [W::INF; L]; // per-lane min over diagonal d − 2
    let mut gmin1 = W::ZERO; // whole-stripe lower bound, diagonal d − 1
    let mut gmin2 = W::INF; // whole-stripe lower bound, diagonal d − 2
    let mut cells = [1_u64; L];
    let mut done = [true; L];
    // Per-lane best-score registers (semi-global readout): the running
    // minimum over the lane's bottom-row cells. For n = 0 the root cell
    // itself sits on the bottom row.
    let mut best = [W::INF; L];
    let mut live = 0_usize;
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if semi && n == 0 {
            best[l] = W::ZERO;
        }
        if n + m == 0 {
            // Root-only pair: the per-pair kernel's loop body never runs.
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
        // [`crate::engine::applied_bias`]). The registers and
        // thresholds shift here, before the abandon checks read them;
        // the frontier buffers shift after rotation (see `rebase_buf`),
        // so only the two readable diagonals pay the pass.
        let mut rebase_delta: Option<W> = None;
        if bias_m2 > 0 {
            let new_bias = applied_bias(d, bias_m2);
            if new_bias != bias {
                let delta = W::clamp_raw(new_bias - bias);
                rebase_delta = Some(delta);
                for l in 0..L {
                    if min1[l] != W::INF {
                        min1[l] = min1[l].sub_weight(delta);
                    }
                    if min2[l] != W::INF {
                        min2[l] = min2[l].sub_weight(delta);
                    }
                }
                if gmin1 != W::INF {
                    gmin1 = gmin1.sub_weight(delta);
                }
                if gmin2 != W::INF {
                    gmin2 = gmin2.sub_weight(delta);
                }
                bias = new_bias;
                if let StripeThreshold::Exact(t) = threshold {
                    t_w = Some(W::clamp_raw(t.saturating_sub(bias)));
                }
                if let StripeThreshold::Coarse(t) = threshold {
                    t_c = Some(W::clamp_raw(t.saturating_sub(bias)));
                }
            }
        }
        // Per-lane abandon check, before computing diagonal d (the
        // per-pair kernel's order). Semi-global folds the lane's best
        // bottom-row value in, exactly like the per-pair kernel. When
        // the (bias-adjusted) threshold saturates the lane word, the
        // byte kernel abandons on an all-`+∞` frontier: `u8_admits`
        // guarantees every value `≤ min(threshold, d·max_step)` is
        // stored exactly then, so an all-`+∞` lane frontier proves the
        // lane's true frontier minimum exceeds the threshold — the
        // same diagonal the per-pair `u64` kernel abandons at.
        if let Some(t) = t_w {
            for l in 0..lanes {
                let mut floor = min1[l].min(min2[l]);
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
        // Coarse whole-stripe abandon: the two-diagonal lower bound is
        // ≤ every live lane's true frontier minimum, so exceeding the
        // threshold proves score > t for every lane at once — provided
        // no live lane has already banked a bottom-row value within the
        // threshold (semi-global), hence the fold over best registers.
        if let Some(t) = t_c {
            let mut floor = gmin1.min(gmin2);
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
        let (cur, d1, d2) = rotate_bufs(bufs, d);
        if let Some(delta) = rebase_delta {
            rebase_buf(d1, delta);
            rebase_buf(d2, delta);
        }
        // Remaining-cost checkpoint (coarse global only): elapsed cost
        // plus Ukkonen's bound on each lane's suffix, over d − 1, d − 2.
        if let (Some(sb), StripeThreshold::Coarse(t)) = (suffix, threshold) {
            if d % REMAINING_BOUND_EVERY == 0
                && sb.proves_out(
                    [&d1[..]],
                    [&d2[..]],
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
        if lo > hi {
            // Band-empty union diagonal (empty for every lane, since
            // lane ranges are subsets): reset the cells later diagonals
            // may read, exactly like the per-pair kernel.
            let clo = lo.saturating_sub(1).min(nn);
            let chi = (hi + 1).min(nn);
            if clo <= chi {
                cur[clo * L..(chi + 1) * L].fill(W::INF);
            }
            min2 = min1;
            min1 = [W::INF; L];
            (gmin2, gmin1) = (gmin1, W::INF);
            // A lane whose final diagonal this was still retires: its
            // sink range is empty too, so its score is the per-pair
            // kernel's band-excluded-sink verdict — or, semi-global,
            // whatever its best register already holds.
            for (l, &(n, m)) in shapes.iter().enumerate() {
                if !done[l] && d == n + m {
                    let raw = if semi { best[l].to_raw() } else { NEVER };
                    out[l] = classify_outcome(raw, t_raw, cells[l]);
                    done[l] = true;
                    live -= 1;
                    if t_c.is_some() {
                        retire_lane_residue(l, nn, cur, d1, d2);
                    }
                }
            }
            continue;
        }
        // One-row +∞ padding around the written span.
        if lo > 0 {
            cur[(lo - 1) * L..lo * L].fill(W::INF);
        }
        if hi < nn {
            cur[(hi + 1) * L..(hi + 2) * L].fill(W::INF);
        }

        let boundary = W::clamp_raw((d as u64).saturating_mul(w.indel).saturating_sub(bias));
        let top_boundary = if semi { W::ZERO } else { boundary };
        if lo == 0 {
            cur[..L].fill(top_boundary); // cell (0, d) — real where d ≤ m_l
        }
        if hi == d {
            cur[d * L..(d + 1) * L].fill(boundary); // cell (d, 0) — real where d ≤ n_l
        }
        // Interior rows: lane-interleaved storage makes the whole
        // `(rows × lanes)` interior one *flat contiguous* recurrence in
        // `t = i·L + l` — every operand of cell `t` sits at a fixed
        // offset (`up`/`diag`/`q` at `t − L`, `left` at `t`, `p` at
        // `t + (mm − d)·L`), so the interior is literally one
        // [`crate::simd::diag_update_lanes`] call over
        // `(ihi − ilo + 1)·L` lanes, with no per-row temporaries and no
        // tails.
        let ilo = lo.max(1);
        let ihi = hi.min(d - 1);
        let mut interior_min = W::INF;
        if ilo <= ihi {
            let (a, b) = (ilo * L, (ihi + 1) * L);
            interior_min = simd::diag_update_lanes::<W, L>(
                &d1[a - L..b - L],                                    // up: (i − 1, j)
                &d1[a..b],                                            // left: (i, j − 1)
                &d2[a - L..b - L],                                    // diag: (i − 1, j − 1)
                &q_plane[a - L..b - L],                               // q[i − 1], lane-major
                &p_plane[(mm + ilo - d) * L..(mm + ihi + 1 - d) * L], // p[j − 1], right-aligned reversed
                lw,
                &mut cur[a..b],
            );
        }
        if t_c.is_some() {
            // The whole-stripe bound: the unmasked interior minimum
            // (padding and out-of-shape cells included — a superset, so
            // only ever conservative; retired lanes are reset to +∞ at
            // retirement so their residue cannot stall the bound) plus
            // the shared boundary values when any boundary cell exists.
            let mut gdmin = interior_min;
            if lo == 0 {
                gdmin = gdmin.min(top_boundary);
            }
            if hi == d {
                gdmin = gdmin.min(boundary);
            }
            (gmin2, gmin1) = (gmin1, gdmin);
        }

        // Per-lane frontier minima are only consumed by the abandon
        // rule; without a threshold the whole accumulation is skipped.
        if t_w.is_some() {
            let mut dmin = [W::INF; L];
            let du = u32::try_from(d).expect("diagonal fits u32");
            if lo == 0 {
                for l in 0..L {
                    if du <= m_arr[l] {
                        dmin[l] = dmin[l].min(top_boundary);
                    }
                }
            }
            if hi == d {
                for l in 0..L {
                    if du <= n_arr[l] {
                        dmin[l] = dmin[l].min(boundary);
                    }
                }
            }
            // Accumulation over the interior: only a lane's own in-band
            // cells count (i ≤ n_l and j = d − i ≤ m_l; the band test is
            // shared and already satisfied by every swept row). Rows
            // valid for *every live* lane — all of them, for same-shape
            // cohorts — take a branch-free vector min; only the edge
            // rows of ragged cohorts pay the per-lane mask. (Retired
            // lanes may accumulate junk in the core region; their
            // minima are never read again.)
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
                    let block = &cur[i * L..(i + 1) * L];
                    let iu = i as u32;
                    let ju = (d - i) as u32;
                    for l in 0..L {
                        let v = if iu <= n_arr[l] && ju <= m_arr[l] {
                            block[l]
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
                    let block = &cur[i * L..(i + 1) * L];
                    for l in 0..L {
                        dmin[l] = dmin[l].min(block[l]);
                    }
                }
                masked((core_hi + 1).max(ilo)..=ihi, &mut dmin);
            } else {
                masked(ilo..=ihi, &mut dmin);
            }
            min2 = min1;
            min1 = dmin;
        }

        // Per-lane best-score registers (semi-global): each live lane's
        // bottom-row cell on this diagonal, if its own band admits one.
        if semi {
            for (l, &(n, m)) in shapes.iter().enumerate() {
                if !done[l] && d >= n && d <= n + m {
                    let (llo, lhi) = diag_range(d, n, m, band);
                    if llo <= n && n <= lhi {
                        best[l] = best[l].min(cur[n * L + l]);
                    }
                }
            }
        }

        count_lane_cells(&mut cells, (hi - lo + 1) as u64, d, shapes, &done, band);

        // Retire lanes whose final diagonal this was. Semi-global lanes
        // read their best register (which has already folded this
        // diagonal's sink cell in); global lanes read the sink itself.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d == n + m {
                let raw = if semi {
                    best[l].to_raw()
                } else {
                    let (flo, fhi) = diag_range(d, n, m, band);
                    if flo <= fhi {
                        raise_raw(cur[n * L + l], bias)
                    } else {
                        NEVER // the band excludes the lane's sink cell
                    }
                };
                out[l] = classify_outcome(raw, t_raw, cells[l]);
                done[l] = true;
                live -= 1;
                if t_c.is_some() {
                    // Coarse-bound hygiene: a retired lane's cells keep
                    // evolving from stale values, and under a zero
                    // matched weight that residue stops growing — which
                    // would freeze the whole-stripe lower bound below
                    // the live lanes' true frontiers forever. Resetting
                    // the lane's columns to +∞ drops it out of the
                    // unmasked minimum, keeping the coarse abandon
                    // tight for levenshtein-style weights too.
                    retire_lane_residue(l, nn, cur, d1, d2);
                }
            }
        }
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
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

/// Fills lane `l`'s column in all three diagonal buffers with `+∞` —
/// called at lane retirement in [`StripeThreshold::Coarse`] mode so the
/// whole-stripe lower bound (an *unmasked* minimum over the interior)
/// no longer sees the retired lane. `+∞` is absorbing under every lane
/// word's clamped arithmetic, so the lane's cells stay at `+∞` for the
/// rest of the sweep.
fn retire_lane_residue<W: KernelWord>(
    l: usize,
    nn: usize,
    cur: &mut [W],
    d1: &mut [W],
    d2: &mut [W],
) {
    let lanes = cur.len() / (nn + 1);
    for buf in [cur, d1, d2] {
        for i in 0..=nn {
            buf[i * lanes + l] = W::INF;
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

/// The **striped three-plane affine** (Gotoh) sweep: the
/// [`stripe_sweep`] lane-interleaved layout applied to the M / Ix / Iy
/// planes of [`crate::simd::affine_diag_update_lanes`] — nine rotating
/// diagonal buffers advanced in lockstep, each lane racing Gotoh's
/// recurrence over its own `(n_l, m_l)` geometry. Every plane follows
/// the absolute-row padding and hygiene rules of
/// [`stripe_sweep_local`], padding with `+∞`.
///
/// Everything lane-shaped is inherited from the linear sweep: per-lane
/// frontier minima masked to each lane's own in-band cells (taken
/// across all three planes — sound because an alignment path visits
/// exactly one plane state per crossed cell and every weight, `open`
/// included, is non-negative), the per-lane abandon rule before each
/// diagonal, per-lane cell accounting over grid
/// *positions* (not plane states, keeping counts comparable across
/// modes), independent lane retirement reading `min(M, Ix, Iy)` at the
/// lane's sink, and the coarse-mode residue reset — which here must
/// cover **all nine** buffers, or a retired lane's Ix/Iy residue could
/// stall the whole-stripe lower bound exactly like the PR 5 M-plane
/// bug. Affine is global-only (no `semi` readout), and the u8 `bias`
/// schedule applies unchanged: gap opens only *add* cost, so the
/// per-diagonal lower bound behind [`crate::engine::applied_bias`]
/// holds on every plane.
///
/// At `L = 1` this is the per-pair affine wavefront
/// ([`AlignEngine::align`]): the lane's shape is the union shape, so its
/// exact frontier minimum is the interior minimum
/// [`simd::affine_diag_update_lanes`] returns plus the boundary cells,
/// and the masked second pass is skipped. `sup` checkpoints once per
/// diagonal: `tick(0)` on a band-empty one, `tick(span)` after each
/// computed one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stripe_sweep_affine<W: KernelWord, const L: usize>(
    shapes: &[(usize, usize)],
    q_plane: &[u8],
    p_plane: &[u8],
    (nn, mm): (usize, usize),
    w: RawWeights,
    open: u64,
    band: Option<usize>,
    threshold: StripeThreshold,
    suffix: Option<SuffixBound>,
    bias_m2: u64,
    planes: &mut AffineDiagScratch<W>,
    out: &mut [EngineOutcome],
    sup: &mut SupCursor<'_>,
) -> Result<(), StopReason> {
    let lanes = shapes.len();
    assert!(lanes <= L && lanes == out.len());
    let lw = simd::AffineLaneWeights {
        matched: W::clamp_raw(w.matched),
        mismatched: W::clamp_raw(w.mismatched),
        indel: W::clamp_raw(w.indel),
        open: W::clamp_raw(open),
    };
    let t_raw = threshold.classify_raw();
    let byte = std::mem::size_of::<W>() == 1;
    let mut bias = 0_u64;
    let mut t_w = match threshold {
        StripeThreshold::Exact(t) => Some(W::clamp_raw(t)),
        _ => None,
    };
    let mut t_c = match threshold {
        StripeThreshold::Coarse(t) => Some(W::clamp_raw(t)),
        _ => None,
    };
    for b in planes
        .m
        .iter_mut()
        .chain(planes.x.iter_mut())
        .chain(planes.y.iter_mut())
    {
        b.clear();
        b.resize((nn + 1) * L, W::INF);
    }

    let mut n_arr = [0_u32; L];
    let mut m_arr = [0_u32; L];
    for (l, &(n, m)) in shapes.iter().enumerate() {
        n_arr[l] = u32::try_from(n).expect("sequence fits u32");
        m_arr[l] = u32::try_from(m).expect("sequence fits u32");
    }

    // Diagonal 0: only the substitution plane holds the root.
    planes.m[0][..L].fill(W::ZERO);
    let mut min1 = [W::ZERO; L];
    let mut min2 = [W::INF; L];
    let mut gmin1 = W::ZERO;
    let mut gmin2 = W::INF;
    let mut cells = [1_u64; L];
    let mut done = [true; L];
    let mut live = 0_usize;
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if n + m == 0 {
            out[l] = classify_outcome(0, t_raw, 1);
        } else {
            done[l] = false;
            live += 1;
        }
    }

    for d in 1..=(nn + mm) {
        if live == 0 {
            break;
        }
        // u8 bias rebase — identical to the linear sweep's split form:
        // registers and thresholds shift here, the six readable
        // diagonal buffers (every plane stores biased values) shift
        // after rotation via the vectorized `rebase_buf` pass.
        let mut rebase_delta: Option<W> = None;
        if bias_m2 > 0 {
            let new_bias = applied_bias(d, bias_m2);
            if new_bias != bias {
                let delta = W::clamp_raw(new_bias - bias);
                rebase_delta = Some(delta);
                for l in 0..L {
                    if min1[l] != W::INF {
                        min1[l] = min1[l].sub_weight(delta);
                    }
                    if min2[l] != W::INF {
                        min2[l] = min2[l].sub_weight(delta);
                    }
                }
                if gmin1 != W::INF {
                    gmin1 = gmin1.sub_weight(delta);
                }
                if gmin2 != W::INF {
                    gmin2 = gmin2.sub_weight(delta);
                }
                bias = new_bias;
                if let StripeThreshold::Exact(t) = threshold {
                    t_w = Some(W::clamp_raw(t.saturating_sub(bias)));
                }
                if let StripeThreshold::Coarse(t) = threshold {
                    t_c = Some(W::clamp_raw(t.saturating_sub(bias)));
                }
            }
        }
        // Per-lane abandon, before computing diagonal d — the per-pair
        // affine kernel's order and rule (cross-plane frontier minima;
        // saturated-threshold byte rule as in the linear sweep).
        if let Some(t) = t_w {
            for l in 0..lanes {
                let floor = min1[l].min(min2[l]);
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
        // Coarse whole-stripe abandon: the unmasked cross-plane lower
        // bound, exactly as in the linear sweep.
        if let Some(t) = t_c {
            if gmin1.min(gmin2) > t {
                abandon_live_lanes(&mut done, &mut live, &cells, out);
                break;
            }
        }
        let (mc, m1, m2) = rotate_bufs(&mut planes.m, d);
        let (xc, x1, x2) = rotate_bufs(&mut planes.x, d);
        let (yc, y1, y2) = rotate_bufs(&mut planes.y, d);
        if let Some(delta) = rebase_delta {
            for buf in [&mut *m1, &mut *m2, &mut *x1, &mut *x2, &mut *y1, &mut *y2] {
                rebase_buf(buf, delta);
            }
        }
        // Remaining-cost checkpoint, `D` taken across the three planes.
        if let (Some(sb), StripeThreshold::Coarse(t)) = (suffix, threshold) {
            if d % REMAINING_BOUND_EVERY == 0
                && sb.proves_out(
                    [&m1[..], &x1[..], &y1[..]],
                    [&m2[..], &x2[..], &y2[..]],
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
        if lo > hi {
            // Band-empty union diagonal: reset the cells later
            // diagonals may read, in every plane.
            let clo = lo.saturating_sub(1).min(nn);
            let chi = (hi + 1).min(nn);
            if clo <= chi {
                mc[clo * L..(chi + 1) * L].fill(W::INF);
                xc[clo * L..(chi + 1) * L].fill(W::INF);
                yc[clo * L..(chi + 1) * L].fill(W::INF);
            }
            min2 = min1;
            min1 = [W::INF; L];
            (gmin2, gmin1) = (gmin1, W::INF);
            for (l, &(n, m)) in shapes.iter().enumerate() {
                if !done[l] && d == n + m {
                    // The lane's sink range is empty too: the per-pair
                    // kernel's band-excluded-sink verdict.
                    out[l] = classify_outcome(NEVER, t_raw, cells[l]);
                    done[l] = true;
                    live -= 1;
                    if t_c.is_some() {
                        retire_lane_residue(l, nn, mc, m1, m2);
                        retire_lane_residue(l, nn, xc, x1, x2);
                        retire_lane_residue(l, nn, yc, y1, y2);
                    }
                }
            }
            sup.tick(0)?;
            continue;
        }
        // One-row +∞ padding around the written span, per plane.
        for plane in [&mut *mc, &mut *xc, &mut *yc] {
            if lo > 0 {
                plane[(lo - 1) * L..lo * L].fill(W::INF);
            }
            if hi < nn {
                plane[(hi + 1) * L..(hi + 2) * L].fill(W::INF);
            }
        }

        // Boundary cells: a single gap run from the root — one open
        // plus d extensions, in the plane that gap lives in.
        let boundary = W::clamp_raw(
            open.saturating_add((d as u64).saturating_mul(w.indel))
                .saturating_sub(bias),
        );
        if lo == 0 {
            // Cell (0, d): a run of horizontal gaps (Iy consumes P).
            mc[..L].fill(W::INF);
            xc[..L].fill(W::INF);
            yc[..L].fill(boundary);
        }
        if hi == d {
            // Cell (d, 0): a run of vertical gaps (Ix consumes Q).
            mc[d * L..(d + 1) * L].fill(W::INF);
            xc[d * L..(d + 1) * L].fill(boundary);
            yc[d * L..(d + 1) * L].fill(W::INF);
        }
        let ilo = lo.max(1);
        let ihi = hi.min(d - 1);
        let mut interior_min = W::INF;
        if ilo <= ihi {
            let (a, b) = (ilo * L, (ihi + 1) * L);
            interior_min = simd::affine_diag_update_lanes::<W, L>(
                &m1[a - L..b - L], // up: (i − 1, j)
                &x1[a - L..b - L],
                &y1[a - L..b - L],
                &m1[a..b], // left: (i, j − 1)
                &x1[a..b],
                &y1[a..b],
                &m2[a - L..b - L], // diag: (i − 1, j − 1)
                &x2[a - L..b - L],
                &y2[a - L..b - L],
                &q_plane[a - L..b - L], // q[i − 1], lane-major
                &p_plane[(mm + ilo - d) * L..(mm + ihi + 1 - d) * L], // p[j − 1], reversed
                lw,
                &mut mc[a..b],
                &mut xc[a..b],
                &mut yc[a..b],
            );
        }
        let mut gdmin = interior_min;
        if lo == 0 || hi == d {
            gdmin = gdmin.min(boundary);
        }
        if t_c.is_some() {
            (gmin2, gmin1) = (gmin1, gdmin);
        }

        // Per-lane frontier minima across the three planes, masked to
        // each lane's own in-band cells — consumed only by the exact
        // abandon rule. One lane's in-band cells are the whole diagonal,
        // so its exact minimum is the fused one.
        if L == 1 && t_w.is_some() {
            (min2, min1) = (min1, [gdmin; L]);
        } else if t_w.is_some() {
            let mut dmin = [W::INF; L];
            let du = u32::try_from(d).expect("diagonal fits u32");
            if lo == 0 {
                for l in 0..L {
                    if du <= m_arr[l] {
                        dmin[l] = dmin[l].min(boundary); // Iy boundary
                    }
                }
            }
            if hi == d {
                for l in 0..L {
                    if du <= n_arr[l] {
                        dmin[l] = dmin[l].min(boundary); // Ix boundary
                    }
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
                    let mb = &mc[i * L..(i + 1) * L];
                    let xb = &xc[i * L..(i + 1) * L];
                    let yb = &yc[i * L..(i + 1) * L];
                    let iu = i as u32;
                    let ju = (d - i) as u32;
                    for l in 0..L {
                        let v = if iu <= n_arr[l] && ju <= m_arr[l] {
                            mb[l].min(xb[l]).min(yb[l])
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
                    let mb = &mc[i * L..(i + 1) * L];
                    let xb = &xc[i * L..(i + 1) * L];
                    let yb = &yc[i * L..(i + 1) * L];
                    for l in 0..L {
                        dmin[l] = dmin[l].min(mb[l]).min(xb[l]).min(yb[l]);
                    }
                }
                masked((core_hi + 1).max(ilo)..=ihi, &mut dmin);
            } else {
                masked(ilo..=ihi, &mut dmin);
            }
            min2 = min1;
            min1 = dmin;
        }

        let span = (hi - lo + 1) as u64;
        count_lane_cells(&mut cells, span, d, shapes, &done, band);

        // Retire lanes whose final diagonal this was: the sink value is
        // the minimum across all three planes, raised by the bias.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d == n + m {
                let (flo, fhi) = diag_range(d, n, m, band);
                let raw = if flo <= fhi {
                    let s = mc[n * L + l].min(xc[n * L + l]).min(yc[n * L + l]);
                    raise_raw(s, bias)
                } else {
                    NEVER // the band excludes the lane's sink cell
                };
                out[l] = classify_outcome(raw, t_raw, cells[l]);
                done[l] = true;
                live -= 1;
                if t_c.is_some() {
                    // Coarse-bound hygiene across *all three* planes: a
                    // retired lane's Ix/Iy residue can stall the
                    // whole-stripe bound exactly like the M plane's
                    // (the PR 5 bug class).
                    retire_lane_residue(l, nn, mc, m1, m2);
                    retire_lane_residue(l, nn, xc, x1, x2);
                    retire_lane_residue(l, nn, yc, y1, y2);
                }
            }
        }
        sup.tick(span)?;
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
    Ok(())
}

/// The **local** (max-plus Smith–Waterman) striped sweep: the same
/// lane-interleaved anti-diagonal layout as [`stripe_sweep`], racing
/// the AND-type dual with per-lane **best-score (maximum) registers**.
///
/// The buffers hold `(nn + 1) × L` words by absolute row `i`. A buffer
/// holding diagonal `d` is read while computing diagonals `d + 1` (rows
/// `lo(d+1) − 1 ..= hi(d+1)`) and `d + 2` (rows `lo(d+2) − 1 ..=
/// hi(d+2) − 1`). Because `lo` and `hi` are non-decreasing in `d` and
/// grow by at most one per diagonal, every such read lands in
/// `lo(d) − 1 ..= hi(d) + 1`, so resetting that one-row padding around
/// the written span suffices (stale values further out are never read).
///
/// Boundary and padding values are `0`, not `+∞`: in Smith–Waterman a
/// missing neighbour *is* a fresh start (`H ≥ 0` everywhere, and
/// reading an out-of-band cell as `0` is the textbook banded convention
/// of treating unbuilt cells as empty alignments). The per-lane maxima
/// are accumulated **unmasked**: a lane's out-of-shape and padded cells
/// can never exceed its true in-shape best, because padding sentinels
/// never compare equal to any code (no match bonus is reachable) and
/// every other operation is non-increasing — so by induction every
/// out-of-shape value is bounded by an earlier in-shape value already
/// folded into the register. That makes the unmasked per-diagonal max
/// pass exact, not just conservative (property-tested: striped local
/// == sequential [`AlignEngine::align`], byte-identical). No
/// thresholds: local mode has no sound frontier abandon, so lanes only
/// retire at their final diagonal.
///
/// The readout is each lane's running maximum over its computed cells:
/// the best-cell register the hardware's paper-§6 threshold comparator
/// would watch. At `L = 1` this is the per-pair local wavefront
/// ([`AlignEngine::align`]), and `sup` checkpoints once per diagonal:
/// `tick(0)` on a band-empty one, `tick(span)` after each computed one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stripe_sweep_local<W: KernelWord, const L: usize>(
    shapes: &[(usize, usize)],
    q_plane: &[u8],
    p_plane: &[u8],
    (nn, mm): (usize, usize),
    s: LocalScores,
    band: Option<usize>,
    bufs: &mut [Vec<W>; 3],
    out: &mut [EngineOutcome],
    sup: &mut SupCursor<'_>,
) -> Result<(), StopReason> {
    let lanes = shapes.len();
    assert!(lanes <= L && lanes == out.len());
    let lw = LaneWeights {
        matched: W::clamp_raw(s.matched),
        mismatched: W::clamp_raw(s.mismatched),
        indel: W::clamp_raw(s.gap),
    };
    for b in bufs.iter_mut() {
        b.clear();
        b.resize((nn + 1) * L, W::ZERO);
    }

    let mut best = [W::ZERO; L];
    let mut cells = [1_u64; L];
    let mut done = [true; L];
    let mut live = 0_usize;
    for (l, &(n, m)) in shapes.iter().enumerate() {
        if n + m == 0 {
            out[l] = EngineOutcome {
                score: Time::ZERO,
                cells_computed: 1,
                early_terminated: false,
            };
        } else {
            done[l] = false;
            live += 1;
        }
    }

    for d in 1..=(nn + mm) {
        if live == 0 {
            break;
        }
        let (cur, d1, d2) = rotate_bufs(bufs, d);
        let (lo, hi) = diag_range(d, nn, mm, band);
        if lo > hi {
            // Band-empty union diagonal: later reads see fresh starts.
            let clo = lo.saturating_sub(1).min(nn);
            let chi = (hi + 1).min(nn);
            if clo <= chi {
                cur[clo * L..(chi + 1) * L].fill(W::ZERO);
            }
            for (l, &(n, m)) in shapes.iter().enumerate() {
                if !done[l] && d == n + m {
                    out[l] = EngineOutcome {
                        score: raw_to_time(best[l].to_raw()),
                        cells_computed: cells[l],
                        early_terminated: false,
                    };
                    done[l] = true;
                    live -= 1;
                }
            }
            sup.tick(0)?;
            continue;
        }
        // One-row zero padding around the written span.
        if lo > 0 {
            cur[(lo - 1) * L..lo * L].fill(W::ZERO);
        }
        if hi < nn {
            cur[(hi + 1) * L..(hi + 2) * L].fill(W::ZERO);
        }
        // Boundary rows: empty local alignments.
        if lo == 0 {
            cur[..L].fill(W::ZERO);
        }
        if hi == d {
            cur[d * L..(d + 1) * L].fill(W::ZERO);
        }

        let ilo = lo.max(1);
        let ihi = hi.min(d - 1);
        if ilo <= ihi {
            let (a, b) = (ilo * L, (ihi + 1) * L);
            // Unmasked per-lane maxima are fused into the update
            // (exact — see above). Retired lanes keep accumulating
            // junk; their registers are never read again.
            simd::diag_update_local_lanes::<W, L>(
                &d1[a - L..b - L],
                &d1[a..b],
                &d2[a - L..b - L],
                &q_plane[a - L..b - L],
                &p_plane[(mm + ilo - d) * L..(mm + ihi + 1 - d) * L],
                lw,
                &mut cur[a..b],
                &mut best,
            );
        }

        let span = (hi - lo + 1) as u64;
        count_lane_cells(&mut cells, span, d, shapes, &done, band);

        // Retire lanes at their final diagonal.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d == n + m {
                out[l] = EngineOutcome {
                    score: raw_to_time(best[l].to_raw()),
                    cells_computed: cells[l],
                    early_terminated: false,
                };
                done[l] = true;
                live -= 1;
            }
        }
        sup.tick(span)?;
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
    Ok(())
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
    use crate::engine::{align_batch, AlignEngine};
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
        let units = plan_units(&cfg, &ref_pairs(&pairs), 1, false);
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
            1,
            false,
        );
        let u8_striped: Vec<_> = u8_units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(u8_striped.len(), 1, "u8's 32 lanes hold all 20 pairs");
        assert_eq!(u8_striped[0].width, LaneWidth::U8);
        assert_eq!(u8_striped[0].members.len(), 20);
        let units = plan_units(&base, &ref_pairs(&pairs), 1, false);
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
        let units = plan_units(&base, &ref_pairs(&short), 1, false);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].kind, UnitKind::Striped);
        assert_eq!(units[0].members.len(), 16);
        let pinned = base.with_strategy(KernelStrategy::RollingRow);
        assert!(plan_units(&pinned, &ref_pairs(&short), 1, false)
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
        let units = plan_units(&cfg, &ref_pairs(&over), 1, false);
        let striped: Vec<_> = units
            .iter()
            .filter(|u| u.kind == UnitKind::Striped)
            .collect();
        assert_eq!(striped.len(), 1, "over-budget outlier must not merge");
        assert_eq!(striped[0].members.len(), 7);
        assert_batch_matches_sequential(&cfg, &over);

        let mut under: Vec<_> = (0..7).map(|_| mk(39)).collect();
        under.push(mk(44));
        let units = plan_units(&cfg, &ref_pairs(&under), 1, false);
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
        let units = plan_units(&cfg, &ref_pairs(&pairs), 1, false);
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
        let units = plan_units(&cfg, &ref_pairs(&pairs), 1, false);
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
        let units = plan_units(&cfg, &ref_pairs(&pairs), 1, false);
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

    #[test]
    fn per_pair_split_follows_the_run_worker_count() {
        // The rolling-row pin keeps every pair off the stripes, so the
        // whole batch is per-pair units, split into even chunks for the
        // workers the run will use, whatever the host's thread count
        // (and `RAYON_NUM_THREADS`) says.
        let pairs = random_pairs(12, 8, 12);
        let cfg = AlignConfig::new(RaceWeights::fig4()).with_strategy(KernelStrategy::RollingRow);
        let mut faults = Vec::new();
        for workers in [1, 2, 3, 5, 12, 40] {
            let expected = pairs.len().div_ceil(pairs.len().div_ceil(workers));
            let units = plan_units(&cfg, &ref_pairs(&pairs), workers, false);
            assert!(units.iter().all(|u| u.kind == UnitKind::PerPair));
            assert_eq!(units.len(), expected, "{workers} workers");
            let guarded = plan_units_guarded(&cfg, &ref_pairs(&pairs), workers, false, &mut faults);
            assert_eq!(guarded.len(), expected, "{workers} workers (guarded)");
            // A bit-parallel plan splits the same way, in input order.
            let bits = plan_units(&cfg, &ref_pairs(&pairs), workers, true);
            assert!(bits.iter().all(|u| u.kind == UnitKind::BitParallel));
            assert_eq!(bits.len(), expected, "{workers} workers (bit-parallel)");
            let order: Vec<usize> = bits.iter().flat_map(|u| u.members.clone()).collect();
            assert_eq!(order, (0..pairs.len()).collect::<Vec<_>>());
        }
        assert!(faults.is_empty());
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(0)), 1);
        assert_eq!(resolve_workers(None), rayon::current_num_threads().max(1));
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
