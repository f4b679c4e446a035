//! The inter-pair **striped batch kernel** behind
//! [`crate::engine::align_batch`].
//!
//! The Race Logic array's economics come from evaluating many
//! independent race cells per clock. The per-pair wavefront kernel
//! ([`crate::engine`]) captures the *intra*-pair version of that claim —
//! the cells of one anti-diagonal are SIMD lanes. This module captures
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
//! **Packing** is the throughput lever on ragged batches. The default
//! [`PackerPolicy::LengthAware`] packer sorts wavefront-eligible pairs
//! by `(n, m)` and greedily grows each stripe while the padding stays
//! under [`STRIPE_PAD_BUDGET_PCT`] of the members' own (banded) cell
//! counts — so pairs of *different* lengths share a sweep, shorter
//! lanes retiring early instead of padding to a bucket ceiling. The
//! PR 3 exact-bucket planner survives as
//! [`PackerPolicy::ExactBucket`], the benchmarking ruler.
//!
//! Correctness is *mirroring*, not approximation: each lane runs the
//! per-pair wavefront recurrence over its own `(n, m)` geometry —
//! per-lane frontier minima (masked to the lane's own in-band cells),
//! per-lane early-termination checks at the same diagonal the per-pair
//! kernel checks, per-lane cell counting over the lane's own band
//! ranges, and independent lane retirement at each lane's final
//! diagonal. The batch outcome is therefore **byte-identical** to a
//! sequential [`crate::engine::AlignEngine::align`] loop (scores, cell
//! counts and verdicts alike — property-tested in `tests/engine.rs`)
//! under **either** packer policy. Padded cells (shorter lanes inside a
//! shared sweep) are harmless by construction: a lane's real cells only
//! ever read real cells (cell dependencies never increase indices),
//! padding codes are sentinels outside every alphabet, and padded
//! positions are masked out of the lane's minima and counts.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;
use rl_bio::{alphabet::Symbol, PackedSeq, StripedCodes};
use rl_temporal::Time;

use crate::engine::{
    applied_bias, classify_outcome, diag_range, raw_to_time, rotate_bufs, score_lower_bound,
    u8_bias_rate, AlignConfig, AlignEngine, AlignMode, BatchPlanStats, EngineOutcome,
    KernelStrategy, LaneWidth, LocalScores, PackerPolicy, RawWeights, COHORT_LEN_BUCKET, NEVER,
    STRIPE_MIN_PAIRS, STRIPE_PAD_BUDGET_PCT,
};
use crate::simd::{self, KernelWord, LaneWeights};
use crate::supervisor::{fp_hit, panic_message, BatchReport, Fault, ScanControl, StopReason};
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

/// One schedulable unit of batch work: either a striped cohort sweep or
/// a run of per-pair alignments. `members` are indices into the batch;
/// `results`/`states` are filled by the worker and scattered back
/// afterwards.
struct WorkUnit {
    striped: bool,
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

/// Reusable per-worker scratch: a per-pair fallback engine plus the
/// striped-sweep arena. Owned by [`BatchScratch`] so both survive
/// across stripes *and* across `align_batch` calls on one
/// [`crate::engine::BatchEngine`].
struct WorkerScratch {
    engine: AlignEngine,
    stripe: StripeScratch,
}

/// The plan-level scratch arena of [`crate::engine::BatchEngine`]: one
/// [`WorkerScratch`] per rayon worker slot, grown on demand and reused
/// across batch calls — steady-state batching re-transposes planes and
/// rotates diagonal buffers in place, allocating nothing.
#[derive(Default)]
pub(crate) struct BatchScratch {
    workers: Vec<WorkerScratch>,
}

impl BatchScratch {
    fn ensure(&mut self, n_workers: usize, cfg: &AlignConfig) {
        for w in &mut self.workers {
            w.engine.set_config(*cfg);
            w.stripe.q_key = None; // operand pointers are only stable per call
        }
        while self.workers.len() < n_workers {
            self.workers.push(WorkerScratch {
                engine: AlignEngine::new(*cfg),
                stripe: StripeScratch::new(),
            });
        }
    }
}

/// The batch entry point behind [`crate::engine::align_batch`] and
/// [`crate::engine::align_batch_refs`]. Operands are borrowed so
/// shared-sequence batches (one query × many patterns) need no clones.
pub(crate) fn align_batch_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    scratch: &mut BatchScratch,
) -> Vec<EngineOutcome> {
    let mut out = vec![EngineOutcome::default(); pairs.len()];
    if pairs.is_empty() {
        return out;
    }
    let units = plan_units(cfg, pairs);
    let mut slots = vec![Slot::Pending; pairs.len()];
    run_units(
        cfg, pairs, units, scratch, None, None, None, true, &mut slots,
    );
    for (o, slot) in out.iter_mut().zip(&slots) {
        match slot {
            Slot::Done(r) => *o = *r,
            _ => unreachable!("an unsupervised batch run completes every pair"),
        }
    }
    out
}

/// The supervised batch entry point behind
/// [`crate::engine::BatchEngine::align_batch_supervised`]: same plan
/// and kernels as [`align_batch_impl`], but worker panics are isolated
/// (quarantine + per-pair fallback retry) and the [`ScanControl`] is
/// honored between work units and inside the per-pair kernels.
pub(crate) fn align_batch_supervised_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    scratch: &mut BatchScratch,
    ctrl: &ScanControl,
) -> BatchReport {
    let mut faults = Vec::new();
    let mut slots = vec![Slot::Pending; pairs.len()];
    let mut stop = None;
    if !pairs.is_empty() {
        let units = plan_units_guarded(cfg, pairs, &mut faults);
        let mut report = run_units(
            cfg,
            pairs,
            units,
            scratch,
            None,
            None,
            Some(ctrl),
            false,
            &mut slots,
        );
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
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_topk_resume_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    ids: &[usize],
    k: usize,
    seed: &[(usize, u64)],
    workers: Option<usize>,
    scratch: &mut BatchScratch,
    ctrl: &ScanControl,
) -> (Vec<Slot>, RunReport) {
    debug_assert_eq!(pairs.len(), ids.len());
    let mut faults = Vec::new();
    let mut slots = vec![Slot::Pending; pairs.len()];
    if pairs.is_empty() {
        return (slots, RunReport { faults, stop: None });
    }
    let units = plan_units_guarded(cfg, pairs, &mut faults);
    let ratchet = Ratchet::seeded(k, cfg.threshold, seed, ids.to_vec());
    let mut report = run_units(
        cfg,
        pairs,
        units,
        scratch,
        Some(&ratchet),
        workers,
        Some(ctrl),
        false,
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
enum StripeThreshold {
    /// No abandoning; every lane runs to its final diagonal.
    None,
    /// The byte-identical contract: per-lane frontier minima masked to
    /// each lane's own in-band cells, per-lane abandon at exactly the
    /// diagonal the per-pair kernel would. Costs a second pass over
    /// every interior cell each diagonal.
    Exact(u64),
    /// The ratchet's mode: one **whole-stripe** lower bound per
    /// diagonal — the unmasked interior minimum [`simd::diag_update`]
    /// already returns (a min over a *superset* of every lane's in-band
    /// cells, so it is ≤ every lane's true frontier minimum and
    /// `bound > t` soundly proves `score > t` for **all** live lanes at
    /// once), plus the shared boundary value. Near-zero overhead; the
    /// trade is that the stripe only abandons when *every* lane is
    /// provably out, and retired-lane residue (which keeps growing
    /// under positive weights, but can stall under a zero matched
    /// weight) can delay that further — fine for the ratchet, whose
    /// abandons are an optimization, never a correctness requirement.
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
///
/// With a [`ScanControl`], the control is consulted before every work
/// unit (and inside the per-pair kernels at row/diagonal granularity);
/// units an early stop never reaches leave their slots `Pending`. With
/// `propagate` false, worker panics are additionally isolated per unit:
/// a poisoned stripe is quarantined and its members retried on the
/// scalar fallback kernel (see [`run_striped_unit`]); with `propagate`
/// true (the unsupervised entry points), panics unwind to the caller
/// exactly as before this layer existed.
#[allow(clippy::too_many_arguments)]
fn run_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    units: Vec<WorkUnit>,
    scratch: &mut BatchScratch,
    ratchet: Option<&Ratchet>,
    workers: Option<usize>,
    ctrl: Option<&ScanControl>,
    propagate: bool,
    out: &mut [Slot],
) -> RunReport {
    let n_workers = workers
        .unwrap_or_else(rayon::current_num_threads)
        .min(units.len())
        .max(1);
    scratch.ensure(n_workers, cfg);
    let ledger = ExecLedger::new();
    // Round-robin units across workers: the planner emits all striped
    // units first and the (at most one-per-worker) per-pair units last,
    // so contiguous chunking would pile every per-pair unit onto the
    // final worker. Round-robin spreads both kinds.
    struct WorkSlot<'w> {
        units: Vec<WorkUnit>,
        scratch: &'w mut WorkerScratch,
    }
    let mut slots: Vec<WorkSlot<'_>> = scratch.workers[..n_workers]
        .iter_mut()
        .map(|scratch| WorkSlot {
            units: Vec::new(),
            scratch,
        })
        .collect();
    for (i, unit) in units.into_iter().enumerate() {
        slots[i % n_workers].units.push(unit);
    }
    slots.par_chunks_mut(1).for_each(|slot| {
        let slot = &mut slot[0];
        let worker = &mut *slot.scratch;
        for unit in &mut slot.units {
            unit.results
                .resize(unit.members.len(), EngineOutcome::default());
            unit.states.resize(unit.members.len(), SlotState::Pending);
            if ctrl.is_some() {
                // The striped driver's unit boundary is its checkpoint:
                // the only place a supervised batch evaluates stop
                // conditions between whole work units.
                telemetry::count(&telemetry::metrics::CHECKPOINTS, 1);
            }
            if let Some(stop) = ctrl.and_then(ScanControl::should_stop) {
                ledger.note_stop(stop);
                break;
            }
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
            if unit.striped {
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
                if ctrl.is_some_and(|c| !c.reserve(planned())) {
                    ledger.note_stop(StopReason::BudgetExhausted);
                    break;
                }
                run_striped_unit(
                    cfg, pairs, unit, threshold, worker, ratchet, ctrl, propagate, &ledger,
                );
            } else {
                run_per_pair_unit(cfg, pairs, unit, worker, ratchet, ctrl, propagate, &ledger);
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
    ctrl: Option<&ScanControl>,
    propagate: bool,
    ledger: &ExecLedger,
) {
    if let Some(budget) = ctrl.and_then(ScanControl::scratch_budget) {
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
            run_per_pair_unit(cfg, pairs, unit, worker, ratchet, ctrl, propagate, ledger);
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
            if let Some(c) = ctrl {
                c.charge(cells);
            }
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
        Err(payload) => {
            if propagate {
                resume_unwind(payload);
            }
            quarantine_and_retry(
                cfg,
                pairs,
                unit,
                worker,
                ratchet,
                ctrl,
                ledger,
                "stripe-sweep",
                panic_message(&*payload),
            );
        }
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
    ctrl: Option<&ScanControl>,
    ledger: &ExecLedger,
    site: &str,
    message: String,
) {
    telemetry::count(&telemetry::metrics::QUARANTINES, 1);
    if let Some(c) = ctrl {
        c.trace(|| TraceEvent::StripeQuarantined {
            members: unit.members.len() as u64,
        });
    }
    let mut lost = false;
    let mut interrupted = None;
    for idx in 0..unit.members.len() {
        if unit.states[idx] == SlotState::Done {
            continue;
        }
        let i = unit.members[idx];
        if let Some(stop) = ctrl.and_then(ScanControl::should_stop) {
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
        match catch_unwind(AssertUnwindSafe(|| worker.engine.align_ctrl(q, p, ctrl))) {
            Ok(Ok(o)) => {
                unit.results[idx] = o;
                unit.states[idx] = SlotState::Done;
                if let Some(c) = ctrl {
                    c.trace(|| TraceEvent::PairFallback {
                        pair: i as u64,
                        recovered: true,
                    });
                }
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
                if let Some(c) = ctrl {
                    c.trace(|| TraceEvent::PairFallback {
                        pair: i as u64,
                        recovered: false,
                    });
                }
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
/// `catch_unwind` (unless `propagate`); a panicked pair is retried
/// once on the rolling-row fallback kernel before being declared lost.
///
/// With a ratchet, the threshold is re-read per pair, not per unit —
/// per-pair units can hold a large share of the batch (e.g. short-read
/// databases where nothing stripes), so the threshold keeps tightening
/// while the unit drains; the per-pair plan re-resolves lane width
/// from the live threshold, so the fused abandon stays exact. Every
/// finished score observes the ratchet exactly once.
#[allow(clippy::too_many_arguments)]
fn run_per_pair_unit<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    unit: &mut WorkUnit,
    worker: &mut WorkerScratch,
    ratchet: Option<&Ratchet>,
    ctrl: Option<&ScanControl>,
    propagate: bool,
    ledger: &ExecLedger,
) {
    for idx in 0..unit.members.len() {
        let i = unit.members[idx];
        if let Some(stop) = ctrl.and_then(ScanControl::should_stop) {
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
        let first = catch_unwind(AssertUnwindSafe(|| worker.engine.align_ctrl(q, p, ctrl)));
        let result = match first {
            Ok(res) => res,
            Err(payload) => {
                if propagate {
                    resume_unwind(payload);
                }
                let mut fallback = run_cfg;
                fallback.strategy = KernelStrategy::RollingRow;
                worker.engine.set_config(fallback);
                telemetry::count(&telemetry::metrics::PAIR_FALLBACKS, 1);
                match catch_unwind(AssertUnwindSafe(|| worker.engine.align_ctrl(q, p, ctrl))) {
                    Ok(res) => {
                        if let Some(c) = ctrl {
                            c.trace(|| TraceEvent::PairFallback {
                                pair: i as u64,
                                recovered: true,
                            });
                        }
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
                        if let Some(c) = ctrl {
                            c.trace(|| TraceEvent::PairFallback {
                                pair: i as u64,
                                recovered: false,
                            });
                        }
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
    let word = match width {
        LaneWidth::U8 => 1,
        LaneWidth::U16 => 2,
        LaneWidth::U32 => 4,
        LaneWidth::U64 => 8,
    };
    3 * planes * (nn + 1) * lanes * word + (nn + mm) * lanes
}

/// Groups the batch into work units under the configured
/// [`PackerPolicy`]; pairs the kernel plan resolves to the rolling row,
/// and stripes left under [`STRIPE_MIN_PAIRS`] members, fall back to
/// per-pair runs split evenly across workers.
fn plan_units<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
) -> Vec<WorkUnit> {
    fp_hit("packer");
    let mut eligible: Vec<(usize, usize, usize)> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();
    for (i, (q, p)) in pairs.iter().enumerate() {
        if cfg.resolve_strategy(q.len(), p.len()) == KernelStrategy::Wavefront {
            eligible.push((q.len(), p.len(), i));
        } else {
            singles.push(i);
        }
    }
    let mut units = match cfg.packer {
        PackerPolicy::LengthAware => pack_length_aware(cfg, &mut eligible, &mut singles),
        PackerPolicy::ExactBucket => pack_exact_bucket(cfg, &eligible, &mut singles),
    };
    if !singles.is_empty() {
        singles.sort_unstable();
        let per = singles.len().div_ceil(rayon::current_num_threads());
        for chunk in singles.chunks(per) {
            units.push(WorkUnit {
                striped: false,
                width: LaneWidth::U64,
                members: chunk.to_vec(),
                results: Vec::new(),
                states: Vec::new(),
            });
        }
    }
    units
}

/// Plans units under `catch_unwind`: an injected `packer` panic
/// degrades to an all-per-pair plan (recorded as a recovered fault in
/// `faults`) instead of killing a supervised scan.
fn plan_units_guarded<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    faults: &mut Vec<Fault>,
) -> Vec<WorkUnit> {
    match catch_unwind(AssertUnwindSafe(|| plan_units(cfg, pairs))) {
        Ok(units) => units,
        Err(payload) => {
            faults.push(Fault::new(
                "packer",
                (0..pairs.len()).collect::<Vec<_>>(),
                true,
                panic_message(&*payload),
            ));
            let per = pairs.len().div_ceil(rayon::current_num_threads());
            let indices: Vec<usize> = (0..pairs.len()).collect();
            indices
                .chunks(per)
                .map(|chunk| WorkUnit {
                    striped: false,
                    width: LaneWidth::U64,
                    members: chunk.to_vec(),
                    results: Vec::new(),
                    states: Vec::new(),
                })
                .collect()
        }
    }
}

/// The length-aware greedy packer (the default). Pairs sorted by
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
                striped: true,
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

/// The legacy PR 3 planner ([`PackerPolicy::ExactBucket`]): pairs are
/// bucketed by `(⌈n⌉, ⌈m⌉)` cohort (lengths rounded up to
/// [`COHORT_LEN_BUCKET`]) and each cohort chunked into stripes of the
/// width its ceiling shape admits. Kept as the packer benchmark ruler.
fn pack_exact_bucket(
    cfg: &AlignConfig,
    eligible: &[(usize, usize, usize)],
    singles: &mut Vec<usize>,
) -> Vec<WorkUnit> {
    let bucket = |len: usize| len.div_ceil(COHORT_LEN_BUCKET) * COHORT_LEN_BUCKET;
    let mut cohorts: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
        std::collections::BTreeMap::new();
    for &(n, m, i) in eligible {
        cohorts.entry((bucket(n), bucket(m))).or_default().push(i);
    }
    let mut units = Vec::new();
    for ((bn, bm), members) in cohorts {
        let width = cfg.resolve_stripe_lanes(bn, bm);
        for chunk in members.chunks(stripe_lanes(width)) {
            if chunk.len() >= STRIPE_MIN_PAIRS {
                units.push(WorkUnit {
                    striped: true,
                    width,
                    members: chunk.to_vec(),
                    results: Vec::new(),
                    states: Vec::new(),
                });
            } else {
                singles.extend_from_slice(chunk);
            }
        }
    }
    units
}

/// Static occupancy accounting for a batch plan (the numbers behind
/// `engine_baseline --occupancy`); see
/// [`crate::engine::batch_plan_stats`].
pub(crate) fn plan_stats_impl<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
) -> BatchPlanStats {
    let mut stats = BatchPlanStats {
        pairs: pairs.len(),
        ..BatchPlanStats::default()
    };
    for (q, p) in pairs {
        if cfg.resolve_strategy(q.len(), p.len()) == KernelStrategy::Wavefront {
            stats.wavefront_eligible += 1;
        }
    }
    for unit in plan_units(cfg, pairs) {
        if !unit.striped {
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
    /// packing, valid only within one batch call (cleared by
    /// [`BatchScratch::ensure`] — operand addresses are not stable
    /// across calls).
    q_key: Option<(usize, usize, usize)>,
    shapes: Vec<(usize, usize)>,
    b8: [Vec<u8>; 3],
    b16: [Vec<u16>; 3],
    b32: [Vec<u32>; 3],
    b64: [Vec<u64>; 3],
    a8: AffinePlanes<u8>,
    a16: AffinePlanes<u16>,
    a32: AffinePlanes<u32>,
    a64: AffinePlanes<u64>,
}

/// The striped affine sweep's nine rotating diagonal buffers: three
/// rotations for each of the M / Ix / Iy planes, lane-interleaved like
/// the linear sweep's buffers.
#[derive(Default)]
struct AffinePlanes<W> {
    m: [Vec<W>; 3],
    x: [Vec<W>; 3],
    y: [Vec<W>; 3],
}

impl StripeScratch {
    fn new() -> Self {
        StripeScratch {
            q_plane: StripedCodes::new(),
            p_plane: StripedCodes::new(),
            q_key: None,
            shapes: Vec::new(),
            b8: Default::default(),
            b16: Default::default(),
            b32: Default::default(),
            b64: Default::default(),
            a8: AffinePlanes::default(),
            a16: AffinePlanes::default(),
            a32: AffinePlanes::default(),
            a64: AffinePlanes::default(),
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
    let semi = cfg.mode == AlignMode::SemiGlobal;
    // The u8 sweep runs biased (see `engine::u8_bias_rate`); wider words
    // store raw values and the bias machinery compiles out at rate 0.
    let bias_m2 = if width == LaneWidth::U8 {
        u8_bias_rate(cfg.mode, w)
    } else {
        0
    };
    if let AlignMode::Local(s) = cfg.mode {
        match (width, lanes) {
            (LaneWidth::U8, HALF_U8_STRIPE_LANES) => {
                stripe_sweep_local::<u8, HALF_U8_STRIPE_LANES>(
                    &scratch.shapes,
                    scratch.q_plane.as_slice(),
                    scratch.p_plane.as_slice(),
                    (nn, mm),
                    s,
                    cfg.band,
                    &mut scratch.b8,
                    results,
                );
            }
            (LaneWidth::U8, _) => stripe_sweep_local::<u8, 32>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                s,
                cfg.band,
                &mut scratch.b8,
                results,
            ),
            (LaneWidth::U16, HALF_STRIPE_LANES) => stripe_sweep_local::<u16, HALF_STRIPE_LANES>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                s,
                cfg.band,
                &mut scratch.b16,
                results,
            ),
            (LaneWidth::U16, _) => stripe_sweep_local::<u16, 16>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                s,
                cfg.band,
                &mut scratch.b16,
                results,
            ),
            (LaneWidth::U32, _) => stripe_sweep_local::<u32, 8>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                s,
                cfg.band,
                &mut scratch.b32,
                results,
            ),
            (LaneWidth::U64, _) => stripe_sweep_local::<u64, 8>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                s,
                cfg.band,
                &mut scratch.b64,
                results,
            ),
        }
        return;
    }
    if let AlignMode::GlobalAffine(a) = cfg.mode {
        match (width, lanes) {
            (LaneWidth::U8, HALF_U8_STRIPE_LANES) => {
                stripe_sweep_affine::<u8, HALF_U8_STRIPE_LANES>(
                    &scratch.shapes,
                    scratch.q_plane.as_slice(),
                    scratch.p_plane.as_slice(),
                    (nn, mm),
                    w,
                    a.open,
                    cfg.band,
                    threshold,
                    bias_m2,
                    &mut scratch.a8,
                    results,
                );
            }
            (LaneWidth::U8, _) => stripe_sweep_affine::<u8, 32>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                w,
                a.open,
                cfg.band,
                threshold,
                bias_m2,
                &mut scratch.a8,
                results,
            ),
            (LaneWidth::U16, HALF_STRIPE_LANES) => stripe_sweep_affine::<u16, HALF_STRIPE_LANES>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                w,
                a.open,
                cfg.band,
                threshold,
                0,
                &mut scratch.a16,
                results,
            ),
            (LaneWidth::U16, _) => stripe_sweep_affine::<u16, 16>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                w,
                a.open,
                cfg.band,
                threshold,
                0,
                &mut scratch.a16,
                results,
            ),
            (LaneWidth::U32, _) => stripe_sweep_affine::<u32, 8>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                w,
                a.open,
                cfg.band,
                threshold,
                0,
                &mut scratch.a32,
                results,
            ),
            (LaneWidth::U64, _) => stripe_sweep_affine::<u64, 8>(
                &scratch.shapes,
                scratch.q_plane.as_slice(),
                scratch.p_plane.as_slice(),
                (nn, mm),
                w,
                a.open,
                cfg.band,
                threshold,
                0,
                &mut scratch.a64,
                results,
            ),
        }
        return;
    }
    match (width, lanes) {
        (LaneWidth::U8, HALF_U8_STRIPE_LANES) => stripe_sweep::<u8, HALF_U8_STRIPE_LANES>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            bias_m2,
            &mut scratch.b8,
            results,
        ),
        (LaneWidth::U8, _) => stripe_sweep::<u8, 32>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            bias_m2,
            &mut scratch.b8,
            results,
        ),
        (LaneWidth::U16, HALF_STRIPE_LANES) => stripe_sweep::<u16, HALF_STRIPE_LANES>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            0,
            &mut scratch.b16,
            results,
        ),
        (LaneWidth::U16, _) => stripe_sweep::<u16, 16>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            0,
            &mut scratch.b16,
            results,
        ),
        (LaneWidth::U32, _) => stripe_sweep::<u32, 8>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            0,
            &mut scratch.b32,
            results,
        ),
        (LaneWidth::U64, _) => stripe_sweep::<u64, 8>(
            &scratch.shapes,
            scratch.q_plane.as_slice(),
            scratch.p_plane.as_slice(),
            (nn, mm),
            w,
            cfg.band,
            threshold,
            semi,
            0,
            &mut scratch.b64,
            results,
        ),
    }
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
                for l in 0..lanes {
                    if !done[l] {
                        out[l] = EngineOutcome {
                            score: Time::NEVER,
                            cells_computed: cells[l],
                            early_terminated: true,
                        };
                        done[l] = true;
                        live -= 1;
                    }
                }
                break;
            }
        }
        let (cur, d1, d2) = rotate_bufs(bufs, d);
        if let Some(delta) = rebase_delta {
            rebase_buf(d1, delta);
            rebase_buf(d2, delta);
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

        // Per-lane cell accounting over the lane's *own* band range.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d <= n + m {
                let (llo, lhi) = diag_range(d, n, m, band);
                if llo <= lhi {
                    cells[l] += (lhi - llo + 1) as u64;
                }
            }
        }

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
/// diagonal buffers advanced in lockstep, each lane mirroring the
/// per-pair affine wavefront kernel over its own `(n_l, m_l)` geometry.
///
/// Everything lane-shaped is inherited from the linear sweep: per-lane
/// frontier minima masked to each lane's own in-band cells (taken
/// across all three planes — sound and exact for the same reason the
/// per-pair affine frontier minimum is), per-lane abandon at exactly
/// the per-pair kernel's diagonal, per-lane cell accounting over grid
/// *positions* (not plane states, keeping counts comparable across
/// modes), independent lane retirement reading `min(M, Ix, Iy)` at the
/// lane's sink, and the coarse-mode residue reset — which here must
/// cover **all nine** buffers, or a retired lane's Ix/Iy residue could
/// stall the whole-stripe lower bound exactly like the PR 5 M-plane
/// bug. Affine is global-only (no `semi` readout), and the u8 `bias`
/// schedule applies unchanged: gap opens only *add* cost, so the
/// per-diagonal lower bound behind [`crate::engine::applied_bias`]
/// holds on every plane.
#[allow(clippy::too_many_arguments)]
fn stripe_sweep_affine<W: KernelWord, const L: usize>(
    shapes: &[(usize, usize)],
    q_plane: &[u8],
    p_plane: &[u8],
    (nn, mm): (usize, usize),
    w: RawWeights,
    open: u64,
    band: Option<usize>,
    threshold: StripeThreshold,
    bias_m2: u64,
    planes: &mut AffinePlanes<W>,
    out: &mut [EngineOutcome],
) {
    fp_hit("affine-stripe");
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
                for l in 0..lanes {
                    if !done[l] {
                        out[l] = EngineOutcome {
                            score: Time::NEVER,
                            cells_computed: cells[l],
                            early_terminated: true,
                        };
                        done[l] = true;
                        live -= 1;
                    }
                }
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
        if t_c.is_some() {
            let mut gdmin = interior_min;
            if lo == 0 || hi == d {
                gdmin = gdmin.min(boundary);
            }
            (gmin2, gmin1) = (gmin1, gdmin);
        }

        // Per-lane frontier minima across the three planes, masked to
        // each lane's own in-band cells — consumed only by the exact
        // abandon rule.
        if t_w.is_some() {
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

        // Per-lane cell accounting over the lane's own band range
        // (grid positions, like the per-pair affine kernel).
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d <= n + m {
                let (llo, lhi) = diag_range(d, n, m, band);
                if llo <= lhi {
                    cells[l] += (lhi - llo + 1) as u64;
                }
            }
        }

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
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
}

/// The **local** (max-plus Smith–Waterman) striped sweep: the same
/// lane-interleaved anti-diagonal layout as [`stripe_sweep`], racing
/// the AND-type dual with per-lane **best-score (maximum) registers**.
///
/// Boundary and padding values are `0` (fresh local starts — see the
/// per-pair local kernel), and the per-lane maxima are accumulated
/// **unmasked**: a lane's out-of-shape and padded cells can never
/// exceed its true in-shape best, because padding sentinels never
/// compare equal to any code (no match bonus is reachable) and every
/// other operation is non-increasing — so by induction every
/// out-of-shape value is bounded by an earlier in-shape value already
/// folded into the register. That makes the unmasked per-diagonal max
/// pass exact, not just conservative (property-tested: striped local
/// == sequential per-pair local, byte-identical). No thresholds: local
/// mode has no sound frontier abandon, so lanes only retire at their
/// final diagonal.
#[allow(clippy::too_many_arguments)]
fn stripe_sweep_local<W: KernelWord, const L: usize>(
    shapes: &[(usize, usize)],
    q_plane: &[u8],
    p_plane: &[u8],
    (nn, mm): (usize, usize),
    s: LocalScores,
    band: Option<usize>,
    bufs: &mut [Vec<W>; 3],
    out: &mut [EngineOutcome],
) {
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

        // Per-lane cell accounting over the lane's own band range.
        for (l, &(n, m)) in shapes.iter().enumerate() {
            if !done[l] && d <= n + m {
                let (llo, lhi) = diag_range(d, n, m, band);
                if llo <= lhi {
                    cells[l] += (lhi - llo + 1) as u64;
                }
            }
        }

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
    }
    debug_assert_eq!(live, 0, "every lane must retire by the last diagonal");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::RaceWeights;
    use crate::engine::{align_batch, AlignEngine};
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

    fn assert_batch_matches_sequential(
        cfg: &AlignConfig,
        pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)],
    ) {
        for cfg in [*cfg, cfg.with_packer(PackerPolicy::ExactBucket)] {
            let batch = align_batch(&cfg, pairs);
            let mut engine = AlignEngine::new(cfg);
            for (i, (q, p)) in pairs.iter().enumerate() {
                assert_eq!(batch[i], engine.align(q, p), "pair {i} ({})", cfg.packer);
            }
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
        let units = plan_units(&cfg, &ref_pairs(&pairs));
        assert!(units.iter().all(|u| !u.striped));
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn planner_buckets_and_stripes() {
        // 20 pairs of one shape at u16 width (floor-pinned: unfloored
        // 64×64 fig4 now rides u8's 32 lanes and packs a single stripe)
        // → one full 16-lane stripe + 4 leftovers (≥ STRIPE_MIN_PAIRS →
        // second stripe), under both packers — identical lengths are the
        // degenerate case where the length-aware packer reduces to the
        // PR 3 plan.
        let pairs = random_pairs(20, 64, 64);
        let base = AlignConfig::new(RaceWeights::fig4()).with_lane_floor(LaneWidth::U16);
        let u8_units = plan_units(&AlignConfig::new(RaceWeights::fig4()), &ref_pairs(&pairs));
        let u8_striped: Vec<_> = u8_units.iter().filter(|u| u.striped).collect();
        assert_eq!(u8_striped.len(), 1, "u8's 32 lanes hold all 20 pairs");
        assert_eq!(u8_striped[0].width, LaneWidth::U8);
        assert_eq!(u8_striped[0].members.len(), 20);
        for cfg in [base, base.with_packer(PackerPolicy::ExactBucket)] {
            let units = plan_units(&cfg, &ref_pairs(&pairs));
            let striped: Vec<_> = units.iter().filter(|u| u.striped).collect();
            assert_eq!(striped.len(), 2, "{}", cfg.packer);
            assert_eq!(striped[0].members.len(), 16, "{}", cfg.packer);
            assert_eq!(striped[1].members.len(), 4, "{}", cfg.packer);
            // Short pairs resolve to the rolling row and never stripe.
            let short = random_pairs(16, 8, 8);
            assert!(plan_units(&cfg, &ref_pairs(&short))
                .iter()
                .all(|u| !u.striped));
        }
    }

    #[test]
    fn length_aware_packer_crosses_buckets_within_budget() {
        // Lengths 200 + 7i, one pair each: every 16-rounded bucket holds
        // at most 3 pairs (< STRIPE_MIN_PAIRS), so the exact-bucket
        // planner stripes *nothing* — while neighbours differ by only
        // ~3.5%, so the length-aware packer fills ~8-lane stripes well
        // within the 25% budget.
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
        let exact = plan_stats_impl(
            &cfg.with_packer(PackerPolicy::ExactBucket),
            &ref_pairs(&pairs),
        );
        assert_eq!(aware.wavefront_eligible, pairs.len());
        assert_eq!(
            exact.striped_pairs, 0,
            "exact buckets of ≤ 3 pairs must all fall back"
        );
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
        let units = plan_units(&cfg, &ref_pairs(&over));
        let striped: Vec<_> = units.iter().filter(|u| u.striped).collect();
        assert_eq!(striped.len(), 1, "over-budget outlier must not merge");
        assert_eq!(striped[0].members.len(), 7);
        assert_batch_matches_sequential(&cfg, &over);

        let mut under: Vec<_> = (0..7).map(|_| mk(39)).collect();
        under.push(mk(44));
        let units = plan_units(&cfg, &ref_pairs(&under));
        let striped: Vec<_> = units.iter().filter(|u| u.striped).collect();
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
        let units = plan_units(&cfg, &ref_pairs(&pairs));
        let striped: Vec<_> = units.iter().filter(|u| u.striped).collect();
        assert_eq!(striped.len(), 1);
        assert_eq!(striped[0].members.len(), 16);
        assert!(units.iter().any(|u| !u.striped && u.members.contains(&16)));
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
            let out = align_batch(&cfg, &pairs);
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
        // Affine pairs stripe like any other wavefront-eligible pairs
        // since the three-plane Gotoh sweep landed — and stay
        // byte-identical to the sequential per-pair Gotoh path.
        use crate::engine::{AffineWeights, AlignMode};
        let pairs = random_pairs(16, 64, 64);
        let cfg = AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 1 }));
        let units = plan_units(&cfg, &ref_pairs(&pairs));
        assert!(units.iter().any(|u| u.striped), "affine must stripe now");
        assert_batch_matches_sequential(&cfg, &pairs);
    }

    #[test]
    fn half_width_u16_stripes_lift_tail_occupancy() {
        // 21 same-shape u16-eligible pairs → one full 16-lane stripe and
        // a 5-member tail. The tail must plan as a half-width (8-lane)
        // stripe, halving its swept cells, and stay byte-identical.
        let pairs = random_pairs(21, 64, 64);
        let cfg = AlignConfig::new(RaceWeights::fig4()).with_lane_floor(LaneWidth::U16);
        let units = plan_units(&cfg, &ref_pairs(&pairs));
        let striped: Vec<_> = units.iter().filter(|u| u.striped).collect();
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
}
