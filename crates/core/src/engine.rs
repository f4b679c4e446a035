//! The batched, zero-allocation alignment engine — the throughput spine
//! of the reproduction.
//!
//! [`crate::alignment::AlignmentRace::run_functional`] is the paper's
//! semantics; this module is the same min-plus arrival fixed point
//! engineered for sustained throughput:
//!
//! - **One recurrence, several execution shapes.** [`KernelStrategy`]
//!   selects between the row-major *rolling-row* sweep (two rows of
//!   state, cache-friendly, but serialized by the in-row `left`
//!   dependency) and the *wavefront* sweep (anti-diagonal order: every
//!   cell of a diagonal is independent, exactly the parallelism the
//!   Race Logic array exploits in hardware, vectorized through
//!   [`crate::simd`]). A per-pair wavefront is the striped batch
//!   kernel's sweep at one lane, which computes only each
//!   diagonal's in-band span (which is how narrow bands stay on the
//!   wavefront), and [`align_batch`] adds a further axis: the same
//!   sweep with SIMD lanes that are *different pairs* of a
//!   shape-compatible cohort.
//!   [`KernelStrategy::Auto`] picks by problem shape; the full decision
//!   is [`AlignConfig::resolve_kernel`].
//! - **Zero allocations per alignment.** An [`AlignEngine`] owns its
//!   scratch (rolling rows, anti-diagonal buffers, and unpacked code
//!   buffers). After the first call at a given problem size,
//!   [`AlignEngine::align`] performs no heap allocation — verified by a
//!   buffer-reuse test.
//! - **Packed operands.** Sequences arrive as
//!   [`rl_bio::PackedSeq`] 2-bit views (DNA); the inner loop
//!   compares raw codes branch-free, exactly the XNOR-compare of the
//!   paper's Fig. 4b cell. The wavefront kernel walks `p` *backwards*
//!   (via [`rl_bio::PackedSeq::unpack_reversed_into`]) so that both
//!   symbol streams advance forward along an anti-diagonal —
//!   contiguous, vectorizable loads instead of a gather.
//! - **Raw saturating `u64` arithmetic.** Inside the kernels, `+∞` is
//!   [`NEVER`] and every add saturates — bit-identical to
//!   [`Time`]'s semantics (`Time::NEVER` is `u64::MAX` and
//!   `delay_by` saturates), so conversion happens only at the boundary.
//!   When the problem is small enough that no finite cell value can
//!   reach a narrower word's `+∞` sentinel, the wavefront kernels drop
//!   to `u32` — or, for short reads, `u16` — lanes: two or four times
//!   the SIMD width, provably the same scores (see [`LaneWidth`] and
//!   [`crate::simd::KernelWord`]).
//! - **Fused banding** (Ukkonen `|i − j| ≤ k`) and **fused early
//!   termination** (abandon once a whole frontier exceeds the
//!   threshold — sound because weights are non-negative, so any
//!   root→sink path costs at least the minimum of the frontier it
//!   crosses). Both are fused into both kernels.
//! - **Batching.** [`align_batch`] packs pairs of any length into
//!   stripes — sorted by `(n, m)`, greedily merged across lengths under
//!   a padding budget ([`STRIPE_PAD_BUDGET_PCT`]) — and sweeps each
//!   stripe with the inter-pair striped kernel (every SIMD lane a
//!   different pair, per-lane banding masks and early-termination
//!   flags, lanes retiring independently), claimed from one
//!   plan-order queue by the calling thread and its helper threads,
//!   one scratch arena per worker, always supervised, results in
//!   input order — and byte-identical to the sequential
//!   loop. The §6 database scan sharpens this into
//!   [`crate::early_termination::scan`], whose shared top-k ratchet
//!   tightens the fused threshold as hits land.
//!
//! See `docs/KERNELS.md` in the repository root for memory layouts and
//! the auto-selection policy.
//!
//! ```
//! use race_logic::engine::{AlignConfig, AlignEngine};
//! use race_logic::alignment::RaceWeights;
//! use rl_bio::{PackedSeq, Seq, alphabet::Dna};
//!
//! let q: Seq<Dna> = "GATTCGA".parse()?;
//! let p: Seq<Dna> = "ACTGAGA".parse()?;
//! let mut engine = AlignEngine::new(AlignConfig::new(RaceWeights::fig4()));
//! let out = engine.align(&PackedSeq::from_seq(&q), &PackedSeq::from_seq(&p));
//! assert_eq!(out.score.cycles(), Some(10)); // Fig. 4c
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rl_bio::{alphabet::Symbol, PackedSeq};
use rl_temporal::Time;

use crate::alignment::RaceWeights;
use crate::error::AlignError;
use crate::simd::{KernelWord, LaneWeights};
use crate::striped::{mode_sweep, Stripe, StripeThreshold};
use crate::supervisor::{ScanControl, StopReason, SupCursor};

/// `+∞` in the kernel's raw representation (identical to the bit pattern
/// of [`Time::NEVER`]).
pub const NEVER: u64 = u64::MAX;

/// Smallest `min(n, m)` at which [`KernelStrategy::Auto`] runs an
/// unthresholded pair that aligns **alone** (a direct
/// [`AlignEngine::align`] call, or a batch pair left over from a stripe
/// of fewer than [`STRIPE_MIN_PAIRS`] members) on the wavefront kernel.
/// Below it, a 1-lane diagonal is too short to pay for the wavefront's
/// per-diagonal setup and the serial rolling row is faster: the
/// `short_pairs/per_pair` rows of
/// `crates/bench/benches/batch_throughput.rs` put the wavefront at
/// 0.55–0.89× the rolling row's time at 10 × 10 in all four modes,
/// 0.90–1.18× at 8 × 8 and about 2× at 4 × 4 (`docs/KERNELS.md`). The
/// batch planner does not use this constant: a stripe beats the rolling
/// row at every shape.
pub const WAVEFRONT_MIN_LEN: usize = 10;

/// Smallest **effective segment length** — `min(n, m)`, further capped
/// at `band + 1` when banded — at which the per-pair wavefront kernel
/// drops to `u16` lanes when eligible. The crossover moved when the
/// `u32` kernel gained its flat-loop form
/// ([`crate::simd::KernelWord::FLAT_MIN_LEN`]): flat `u32` now beats `u16`
/// per pair up to roughly this length (measured on x86-64-v2: `u32`
/// ≈ 1.3× at 256, parity at 512, `u16` 1.36× ahead at 1024 — the
/// per-diagonal overhead amortizes across `u16`'s doubled lanes only
/// once spans are long), so Auto keeps `u32` below it. The *striped*
/// batch kernel ignores this gate: its interior segments are
/// `span × lanes` long, deep inside flat-loop territory at any pair
/// length, and its lane dimension doubles at `u16` — stripes always
/// take the narrowest exact width.
pub const U16_MIN_LEN: usize = 512;

/// Smallest number of pairs worth launching as one striped
/// (inter-pair SIMD) sweep in [`align_batch`]: a stripe's cost is nearly
/// independent of how many of its lanes are live, so below this
/// occupancy the per-pair kernels are cheaper. Leftover pairs of a
/// partially filled stripe run per pair, each on the kernel
/// [`AlignConfig::resolve_strategy`] picks for it.
pub const STRIPE_MIN_PAIRS: usize = 4;

/// Padding budget of the length-aware stripe packer, in percent: a
/// stripe may accept a further pair only while
/// `padded cells ≤ budget% · useful cells`, where *useful* is the sum
/// of each member's own (banded) cell count and *padded* is what the
/// members' lanes additionally sweep when padded to the stripe's union
/// shape. 25% is the worst-case padding a 16-cell length quantum
/// tolerates at the shortest striped lengths, spent where it buys
/// occupancy instead of wherever quantum boundaries happen to fall.
pub const STRIPE_PAD_BUDGET_PCT: u64 = 25;

/// Which traversal order the engine's fused kernel uses.
///
/// Both strategies compute the identical min-plus fixed point — same
/// scores, same banded cell set, same early-termination classification
/// (property-tested in `tests/engine.rs`). They differ in memory layout
/// and in what the hardware can do with the inner loop; see
/// `docs/KERNELS.md` for the full comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelStrategy {
    /// Pick per problem. This is the default. In [`align_batch`] every
    /// pair is a stripe candidate, whatever its length. A pair that
    /// aligns alone (a direct [`AlignEngine::align`] call, or a batch
    /// pair its stripe left over) runs the wavefront when
    /// `min(n, m) ≥` [`WAVEFRONT_MIN_LEN`], whatever the band, or when
    /// a threshold is set, and the rolling row otherwise
    /// ([`AlignConfig::resolve_strategy`]).
    #[default]
    Auto,
    /// Row-major sweep with two rolling rows. Minimal state, best cache
    /// behaviour, but each cell waits on its left neighbour — a serial
    /// dependency chain the CPU cannot vectorize away.
    RollingRow,
    /// Anti-diagonal sweep: all cells of a diagonal are mutually
    /// independent (the paper's hardware wavefront) and are computed as
    /// SIMD lanes over three rotating diagonal buffers.
    Wavefront,
}

impl std::fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelStrategy::Auto => write!(f, "auto"),
            KernelStrategy::RollingRow => write!(f, "rolling-row"),
            KernelStrategy::Wavefront => write!(f, "wavefront"),
        }
    }
}

/// Similarity scores of the **local** ([`AlignMode::Local`]) mode —
/// classic Smith–Waterman parameters as magnitudes: a match adds
/// `matched`, a mismatch subtracts `mismatched`, a gap column subtracts
/// `gap`, and every cell clamps at zero (the empty local alignment).
///
/// Local mode is the engine's **max-plus dual**: a pure min-plus local
/// race is degenerate (with non-negative delays the empty alignment
/// always wins at cost 0 — free start *and* free end means shorter is
/// always cheaper), so local alignment rides the paper's AND-type race
/// (max instead of min) with unsigned *saturating subtraction* as the
/// zero-reset. The same kernel words, buffers and traversal orders
/// apply; only the per-cell arithmetic flips
/// ([`crate::simd::diag_update_local_lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalScores {
    /// Bonus added on a matching diagonal step.
    pub matched: u64,
    /// Penalty subtracted on a mismatching diagonal step.
    pub mismatched: u64,
    /// Penalty subtracted per gap column.
    pub gap: u64,
}

impl LocalScores {
    /// Unit scores: match +1, mismatch −1, gap −1.
    #[must_use]
    pub fn unit() -> Self {
        LocalScores {
            matched: 1,
            mismatched: 1,
            gap: 1,
        }
    }

    /// BLAST-flavoured DNA defaults: match +2, mismatch −3, gap −5.
    #[must_use]
    pub fn blast() -> Self {
        LocalScores {
            matched: 2,
            mismatched: 3,
            gap: 5,
        }
    }
}

/// Affine-gap weights of the [`AlignMode::GlobalAffine`] mode, in delay
/// units: a gap of length `L` costs `open + L · indel` (Gotoh). `open`
/// is the one-time gap-opening surcharge on top of the configured
/// linear indel weight; `open = 0` reduces exactly to linear global
/// alignment (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AffineWeights {
    /// One-time gap-opening surcharge (delay units, ≥ 0).
    pub open: u64,
}

/// Which alignment problem the engine races — the boundary conditions
/// and readout rule wrapped around the one shared recurrence.
///
/// | mode | injection | readout | arithmetic |
/// |---|---|---|---|
/// | `Global` | cell (0, 0) | sink (n, m) | min-plus |
/// | `SemiGlobal` | whole top row (free leading gaps in P) | min over bottom row (free trailing gaps in P) | min-plus |
/// | `Local` | every cell (zero-reset) | max over all cells | **max-plus** ([`LocalScores`]) |
/// | `GlobalAffine` | cell (0, 0), three planes | min over planes at (n, m) | min-plus, M/Ix/Iy |
///
/// Every mode runs on the same kernels ([`KernelStrategy`], lane
/// widths, banding; early termination for the min-plus modes) and the
/// same striped batch planner — see `docs/KERNELS.md` § *Alignment
/// modes* for the boundary-condition details and the soundness
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlignMode {
    /// Global (Needleman–Wunsch) alignment: the paper's Fig. 4 array.
    /// The default.
    #[default]
    Global,
    /// Semi-global ("does Q occur anywhere in P?"): free leading and
    /// trailing gaps in the pattern — the §6 database-scan shape. The
    /// score is the best alignment of all of `q` against any window of
    /// `p`; uses the configured [`RaceWeights`].
    SemiGlobal,
    /// Local (Smith–Waterman) similarity on the max-plus dual; ignores
    /// the configured [`RaceWeights`] in favour of its own
    /// [`LocalScores`]. Early-termination thresholds are not supported
    /// (they are lower-bound proofs, which max-plus inverts).
    Local(LocalScores),
    /// Global alignment with affine gap costs (`open + L · indel`,
    /// Gotoh's three-plane recurrence) on top of the configured
    /// [`RaceWeights`].
    GlobalAffine(AffineWeights),
}

impl AlignMode {
    /// `true` for the min-plus (distance-racing) modes — everything but
    /// [`AlignMode::Local`].
    #[must_use]
    pub fn is_min_plus(&self) -> bool {
        !matches!(self, AlignMode::Local(_))
    }
}

impl std::fmt::Display for AlignMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignMode::Global => write!(f, "global"),
            AlignMode::SemiGlobal => write!(f, "semi-global"),
            AlignMode::Local(_) => write!(f, "local"),
            AlignMode::GlobalAffine(a) => write!(f, "global-affine(open={})", a.open),
        }
    }
}

/// Alignment weights lowered to raw saturating-`u64` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawWeights {
    pub(crate) matched: u64,
    /// `NEVER` encodes the paper's mismatch → ∞ modification.
    pub(crate) mismatched: u64,
    pub(crate) indel: u64,
}

impl RawWeights {
    pub(crate) fn from_weights(w: RaceWeights) -> Self {
        RawWeights {
            matched: w.matched,
            mismatched: w.mismatched.unwrap_or(NEVER),
            indel: w.indel,
        }
    }

    /// Lowers further into a lane representation.
    pub(crate) fn lanes<W: KernelWord>(self) -> LaneWeights<W> {
        LaneWeights {
            matched: W::clamp_raw(self.matched),
            mismatched: W::clamp_raw(self.mismatched),
            indel: W::clamp_raw(self.indel),
        }
    }
}

/// The SIMD lane word a wavefront-family kernel runs in. Narrower words
/// mean more lanes per vector register — `U8` updates twice the cells
/// per instruction of `U16`, which updates twice those of `U32`, which
/// updates twice those of `U64` — and every width is **exact**: `U16`
/// and up are eligible when the `(n + m + 2) · max_finite_weight` bound
/// proves no finite cell value can reach that word's `+∞` sentinel (see
/// [`crate::simd::KernelWord`]); `U8`'s 127-value ceiling is too small
/// for that static bound, so it runs under a **running bias** (a
/// deterministic per-diagonal subtraction, re-added at readout) and is
/// eligible when the exact per-diagonal simulation `u8_admits` proves
/// every value that must stay exact fits the byte at every diagonal.
///
/// The `Ord` instance orders by width (`U8 < U16 < U32 < U64`), which
/// is what [`AlignConfig::with_lane_floor`] clamps against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LaneWidth {
    /// 8-bit biased lanes: short reads (≤ ~100 bp of combined length at
    /// unit weights) on the striped batch kernel; the per-pair planner
    /// bumps it to the next eligible width ([`U16_MIN_LEN`] territory —
    /// a single pair never fills 32 lanes).
    #[default]
    U8,
    /// 16-bit lanes: short-read workloads (up to ~16 kbp of combined
    /// length at unit weights).
    U16,
    /// 32-bit lanes: every realistic biological workload.
    U32,
    /// 64-bit saturating lanes: always eligible, the correctness anchor.
    U64,
}

impl LaneWidth {
    /// Lane width in bits (for benchmark records).
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            LaneWidth::U8 => 8,
            LaneWidth::U16 => 16,
            LaneWidth::U32 => 32,
            LaneWidth::U64 => 64,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneWidth::U8 => write!(f, "u8"),
            LaneWidth::U16 => write!(f, "u16"),
            LaneWidth::U32 => write!(f, "u32"),
            LaneWidth::U64 => write!(f, "u64"),
        }
    }
}

/// The fully resolved execution recipe for one `n × m` alignment:
/// what [`AlignConfig::resolve_kernel`] returns once
/// [`KernelStrategy::Auto`] and the lane-width eligibility rules have
/// been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    /// The concrete traversal order (never [`KernelStrategy::Auto`]).
    pub strategy: KernelStrategy,
    /// The narrowest exact lane word the problem admits (≥ the
    /// configured floor). The rolling row always computes in `u64`.
    pub lanes: LaneWidth,
}

/// `true` when no finite cell value of an `n × m` race whose costliest
/// single step is `max_step` can reach a kernel word whose `+∞`
/// sentinel is `inf`, so the wavefront kernel may run in that word with
/// exactly the same scores.
///
/// Bound: every finite cell value is the cost of a path with at most
/// `n + m` steps, each costing at most `max_step`; the `+ 2` leaves
/// headroom for the one add performed on a value before it is clamped.
/// The same bound covers every mode: semi-global only *lowers* values
/// (free injections), local values are sums of at most `min(n, m)`
/// match bonuses, and an affine step costs at most
/// `max_finite_weight + open` (each gap column charges its open at most
/// once).
fn fits_word(n: usize, m: usize, max_step: u64, inf: u64) -> bool {
    ((n + m + 2) as u64)
        .checked_mul(max_step)
        .is_some_and(|v| v < inf)
}

/// The costliest single path step a mode can take under `w` — the
/// per-step factor of the lane-width eligibility bound.
fn mode_max_step(mode: AlignMode, w: RawWeights) -> u64 {
    let max_finite = w.indel.max(w.matched).max(if w.mismatched == NEVER {
        0
    } else {
        w.mismatched
    });
    match mode {
        AlignMode::Global | AlignMode::SemiGlobal => max_finite,
        AlignMode::GlobalAffine(a) => max_finite.saturating_add(a.open),
        // Local values only grow by the match bonus; penalties shrink.
        AlignMode::Local(s) => s.matched,
    }
}

/// Diagonals per u8 bias window: the running bias is constant within a
/// window and rebased (one uniform subtraction from the live frontier
/// buffers) at each window boundary.
pub(crate) const BIAS_WINDOW: u64 = 16;

/// The u8 path's per-two-diagonals lower-bound rate `m2`: every cell
/// value on anti-diagonal `d` is provably `≥ ⌊d · m2 / 2⌋`, because any
/// path reaching diagonal `d` takes `v` indel steps (cost ≥ `indel`
/// each, advancing `d` by 1) and `g` diagonal steps (cost ≥
/// `min(matched, mismatched)` each, advancing `d` by 2) with
/// `v + 2g = d` — so its cost is at least `d/2 · min(2·indel, dmin)`.
/// Zero for semi-global (free top-row injections void the bound) and
/// local (max-plus — no bias); capped at 15 so one window's rebase
/// delta (`(BIAS_WINDOW / 2) · m2` = `8 · m2` ≤ 120) always fits the
/// byte. Affine opens only *add* cost, so the same bound holds for
/// [`AlignMode::GlobalAffine`].
pub(crate) fn u8_bias_rate(mode: AlignMode, w: RawWeights) -> u64 {
    match mode {
        AlignMode::SemiGlobal | AlignMode::Local(_) => 0,
        AlignMode::Global | AlignMode::GlobalAffine(_) => {
            let dmin = w.matched.min(w.mismatched);
            w.indel.saturating_mul(2).min(dmin).min(15)
        }
    }
}

/// The bias in force while anti-diagonal `d` is computed under rate
/// `m2`: `⌊(BIAS_WINDOW · (⌊d / 16⌋ − 1)) · m2 / 2⌋`, i.e. the
/// lower bound of the diagonal **one full window back**. Lagging a
/// window (rather than using the current window's own lower bound)
/// guarantees the rebase subtraction can never underflow a live value:
/// at a window boundary `d`, the frontier buffers hold diagonals
/// `d − 1` and `d − 2`, whose values are `≥ ⌊(d − 2) · m2 / 2⌋ ≥` the
/// new bias `(d − BIAS_WINDOW)/2 · m2` with `7 · m2` to spare. A pure
/// function of `d`, so lane retirement re-adds it without any per-lane
/// bias bookkeeping.
pub(crate) fn applied_bias(d: usize, m2: u64) -> u64 {
    let window = (d as u64) / BIAS_WINDOW;
    (BIAS_WINDOW * window.saturating_sub(1)).saturating_mul(m2) / 2
}

/// Upper bound on every cell value the u8 sweep must keep exact for an
/// **unbanded** min-plus race: the cost of the mode's trivial full-gap
/// path. Every cell on an optimal path carries a value `≤` the optimal
/// score (weights are non-negative, so path values are monotone), the
/// optimal score is `≤` this trivial path's cost, and the true frontier
/// minimum at any diagonal is `≤` the trivial path's prefix there — so
/// any cell whose value exceeds this bound may clamp to the byte `+∞`
/// without perturbing the score, the per-lane/coarse abandon decisions,
/// or the saturated-threshold rule (a frontier whose minimum cell is
/// exact never reads all-`+∞` while finite paths remain). A band voids
/// the argument (the trivial path leaves the band), so banded races get
/// no such ceiling.
fn unbanded_path_bound(mode: AlignMode, w: RawWeights, n: usize, m: usize) -> u64 {
    let gaps = ((n + m) as u64).saturating_mul(w.indel);
    match mode {
        // Delete all of `q`, insert all of `p`.
        AlignMode::Global => gaps,
        // The same path, opening two gaps.
        AlignMode::GlobalAffine(a) => gaps.saturating_add(a.open.saturating_mul(2)),
        // Free top row: enter above the sink column, go straight down.
        AlignMode::SemiGlobal => (n as u64).saturating_mul(w.indel),
        AlignMode::Local(_) => unreachable!("local mode has its own max-plus bound"),
    }
}

/// Exact u8 eligibility: `true` when, at **every** anti-diagonal `d` of
/// an `n × m` race, each value that must stay exact — anything
/// `≤ min(threshold, d · max_step)`, further capped by
/// [`unbanded_path_bound`] when no band is configured — fits strictly
/// below the byte `+∞` (127) after the running bias
/// [`applied_bias`]`(d, m2)` is subtracted. Values above the ceiling
/// may clamp to the byte `+∞`; the sweep's abandon and classification
/// rules are exact under that clamp (scores above a fused threshold are
/// reported as abandoned at every width, and clamped cells above the
/// path bound can never sit on an optimal path or be a frontier
/// minimum). Monotone in `(n, m)`: growing a cohort's ceiling shape
/// only adds diagonals to check and loosens the path bound, so the
/// greedy packer's width re-resolution stays sound.
///
/// A threshold of `u64::MAX` (= `NEVER`) is rejected: the byte sweep's
/// saturated-threshold abandon rule ("all-`+∞` frontier ⇒ above
/// threshold") needs `threshold < NEVER` to match the `u64` kernel.
pub(crate) fn u8_admits(
    n: usize,
    m: usize,
    mode: AlignMode,
    w: RawWeights,
    threshold: Option<u64>,
    band: Option<usize>,
) -> bool {
    let inf = u64::from(<u8 as KernelWord>::INF);
    if threshold.is_some_and(|t| t == NEVER) {
        return false;
    }
    if let AlignMode::Local(s) = mode {
        // Max-plus values only grow by the match bonus and start at
        // zero — no bias needed or applicable.
        return fits_word(n, m, s.matched, inf);
    }
    let max_step = mode_max_step(mode, w);
    let m2 = u8_bias_rate(mode, w);
    let t = threshold.unwrap_or(u64::MAX);
    let path_bound = if band.is_none() {
        unbanded_path_bound(mode, w, n, m)
    } else {
        u64::MAX
    };
    // The bias is constant inside each BIAS_WINDOW-diagonal window and
    // the ceiling never decreases with `d`, so a window's worst diagonal
    // is its last one (clipped to the race's final diagonal `n + m`):
    // one check per window decides exactly what a per-diagonal scan
    // would.
    let last = n + m;
    let window = BIAS_WINDOW as usize;
    (0..=last / window).all(|k| {
        let d = (k * window + window - 1).min(last);
        let ceiling = t.min((d as u64).saturating_mul(max_step)).min(path_bound);
        ceiling.saturating_sub(applied_bias(d, m2)) < inf
    })
}

/// A closed-form lower bound on the score of any `n × m` race under
/// `mode` and `w` — the length cutoff of Ukkonen (1985). A global path
/// takes `g ≤ min(n, m)` diagonal steps and `n + m − 2g ≥ |n − m|` indel
/// steps, so it costs at least
/// `|n − m| · indel + min(n, m) · min(matched, mismatched, 2 · indel)`
/// (spending a diagonal step where two indels are cheaper never helps).
/// Affine opens only add cost, so the bound holds for
/// [`AlignMode::GlobalAffine`] too; a band only removes paths. The
/// free-end modes (semi-global, local) get the trivial bound 0.
pub(crate) fn score_lower_bound(mode: AlignMode, w: RawWeights, n: usize, m: usize) -> u64 {
    match mode {
        AlignMode::Global | AlignMode::GlobalAffine(_) => {
            let step = w.matched.min(w.mismatched).min(w.indel.saturating_mul(2));
            (n.abs_diff(m) as u64)
                .saturating_mul(w.indel)
                .saturating_add((n.min(m) as u64).saturating_mul(step))
        }
        AlignMode::SemiGlobal | AlignMode::Local(_) => 0,
    }
}

/// The narrowest exact lane word an `n × m` problem admits under `w`
/// and `mode`, clamped from below by `floor` — eligibility only, no
/// profitability heuristics (the striped batch kernel uses this
/// directly; [`AlignConfig::resolve_kernel`] layers the per-pair
/// [`U16_MIN_LEN`] gate on top).
///
/// A configured early-termination `threshold` is part of the
/// eligibility: the fused abandon rule compares frontier minima against
/// the threshold *in the lane word*, so the threshold itself must sit
/// strictly below the word's `+∞` sentinel — otherwise the clamped
/// comparison `min > INF` could never fire and a width-dependent sweep
/// would abandon later than the `u64` semantics require. (`u8` runs
/// biased, so its rule is the per-diagonal [`u8_admits`] simulation
/// instead of the static bound.)
pub(crate) fn exact_lane_width(
    n: usize,
    m: usize,
    mode: AlignMode,
    w: RawWeights,
    threshold: Option<u64>,
    band: Option<usize>,
    floor: LaneWidth,
) -> LaneWidth {
    let max_step = mode_max_step(mode, w);
    let admits = |inf: u64| fits_word(n, m, max_step, inf) && threshold.is_none_or(|t| t < inf);
    if floor <= LaneWidth::U8 && u8_admits(n, m, mode, w, threshold, band) {
        LaneWidth::U8
    } else if floor <= LaneWidth::U16 && admits(u64::from(<u16 as KernelWord>::INF)) {
        LaneWidth::U16
    } else if floor <= LaneWidth::U32 && admits(u64::from(<u32 as KernelWord>::INF)) {
        LaneWidth::U32
    } else {
        LaneWidth::U64
    }
}

/// Configuration of an alignment engine: weights plus the fused kernel
/// options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignConfig {
    /// The three delay weights of the race array.
    pub weights: RaceWeights,
    /// Ukkonen band half-width: cells with `|i − j| > band` are never
    /// built (their value is `+∞`). `None` runs the full grid.
    pub band: Option<usize>,
    /// Early-termination threshold in cycles: the race is abandoned as
    /// soon as the score provably exceeds it (paper §6). `None` runs
    /// every race to completion.
    pub threshold: Option<u64>,
    /// Kernel traversal order; [`KernelStrategy::Auto`] (the default)
    /// resolves per pair via [`AlignConfig::resolve_kernel`].
    pub strategy: KernelStrategy,
    /// Narrowest SIMD lane word the wavefront kernels may pick. The
    /// default ([`LaneWidth::U8`]) means "narrowest exact width";
    /// raising the floor forces wider lanes — an A/B knob for
    /// benchmarking the lane-width win, never needed for correctness
    /// (every eligible width computes identical scores).
    pub lane_floor: LaneWidth,
    /// Which alignment problem the kernels race
    /// ([`AlignMode::Global`] by default): boundary injection, readout
    /// rule, and — for [`AlignMode::Local`] — the max-plus arithmetic.
    pub mode: AlignMode,
}

impl AlignConfig {
    /// A full-grid, run-to-completion, auto-strategy configuration.
    ///
    /// # Panics
    ///
    /// Panics if `weights.indel == 0` (see [`RaceWeights`]).
    #[must_use]
    pub fn new(weights: RaceWeights) -> Self {
        match Self::try_new(weights) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`AlignConfig::new`] with a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AlignError::InvalidConfig`] if `weights.indel == 0`.
    pub fn try_new(weights: RaceWeights) -> Result<Self, AlignError> {
        let cfg = AlignConfig {
            weights,
            band: None,
            threshold: None,
            strategy: KernelStrategy::Auto,
            lane_floor: LaneWidth::U8,
            mode: AlignMode::Global,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Fuses a Ukkonen band of half-width `band` into the kernel.
    #[must_use]
    pub fn with_band(mut self, band: usize) -> Self {
        self.band = Some(band);
        self
    }

    /// Fuses an early-termination threshold into the kernel.
    #[must_use]
    pub fn with_threshold(mut self, threshold: u64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Pins the kernel traversal order (overriding auto-selection).
    #[must_use]
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Forbids SIMD lane words narrower than `floor` — an A/B
    /// benchmarking knob (e.g. pin [`LaneWidth::U32`] to reproduce the
    /// pre-`u16` kernel); scores are identical at every eligible width.
    #[must_use]
    pub fn with_lane_floor(mut self, floor: LaneWidth) -> Self {
        self.lane_floor = floor;
        self
    }

    /// Selects the alignment mode (boundary conditions + readout rule;
    /// see [`AlignMode`]). [`AlignMode::Local`] does not support a
    /// fused early-termination threshold — engines panic on that
    /// combination (the abandon rule is a lower-bound proof, which the
    /// max-plus dual inverts).
    #[must_use]
    pub fn with_mode(mut self, mode: AlignMode) -> Self {
        self.mode = mode;
        self
    }

    /// Checks every configuration invariant the kernels rely on,
    /// returning the typed [`AlignError::InvalidConfig`] on violation.
    /// The panicking entry points (`new`, `AlignEngine::new`, …) raise
    /// exactly these messages as panics via `assert_valid`.
    ///
    /// # Errors
    ///
    /// [`AlignError::InvalidConfig`] when `weights.indel == 0`, when a
    /// fused threshold is combined with the local (max-plus) mode, or
    /// when a local scheme has a zero match bonus (an all-mismatch
    /// scheme whose best score is always the empty alignment's `0`).
    pub fn validate(&self) -> Result<(), AlignError> {
        let invalid = |reason: &str| {
            Err(AlignError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.weights.indel == 0 {
            return invalid("indel weight must be positive");
        }
        if !self.mode.is_min_plus() && self.threshold.is_some() {
            return invalid(
                "early-termination thresholds are not supported in local (max-plus) mode",
            );
        }
        if let AlignMode::Local(s) = self.mode {
            if s.matched == 0 {
                return invalid(
                    "local match bonus must be positive: an all-mismatch scheme \
                     degenerates to the empty alignment's score of 0",
                );
            }
        }
        Ok(())
    }

    /// Panics on configurations no kernel can execute; every panicking
    /// engine entry point calls this once up front. The `try_*` surface
    /// uses [`AlignConfig::validate`] instead.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// The narrowest lane word an `n × m` alignment under this
    /// configuration admits, as a typed result: unlike the internal
    /// planner (which silently falls through to `u64` and saturates),
    /// this reports [`AlignError::EligibilityOverflow`] when even the
    /// `u64` bound `(n + m + 2) · max_step < u64::MAX` fails — the one
    /// case where exact scores are unrepresentable in any kernel word.
    ///
    /// Weights within one step of a word's ceiling deterministically
    /// route to the next wider word (boundary-tested at exactly-at-bound
    /// and one-past-bound for all three widths).
    ///
    /// # Errors
    ///
    /// [`AlignError::EligibilityOverflow`] when no kernel word fits.
    pub fn checked_lane_width(&self, n: usize, m: usize) -> Result<LaneWidth, AlignError> {
        let w = RawWeights::from_weights(self.weights);
        let max_step = mode_max_step(self.mode, w);
        if !fits_word(n, m, max_step, u64::MAX) {
            return Err(AlignError::EligibilityOverflow { n, m, max_step });
        }
        Ok(exact_lane_width(
            n,
            m,
            self.mode,
            w,
            self.threshold,
            self.band,
            self.lane_floor,
        ))
    }

    /// The complete execution recipe for an `n × m` alignment under this
    /// configuration — strategy and lane width:
    ///
    /// - The strategy is [`AlignConfig::resolve_strategy`]'s: under
    ///   [`KernelStrategy::Auto`], the wavefront from `min(n, m) ≥`
    ///   [`WAVEFRONT_MIN_LEN`] up or under a threshold, and the rolling
    ///   row otherwise. This is the per-pair plan; the batch planner
    ///   stripes short pairs anyway.
    /// - The lane word is the narrowest width whose `+∞` sentinel no
    ///   finite cell value can reach (clamped from below by
    ///   [`AlignConfig::with_lane_floor`]); the rolling row always
    ///   computes in `u64`.
    #[must_use]
    pub fn resolve_kernel(&self, n: usize, m: usize) -> KernelPlan {
        let strategy = self.resolve_strategy(n, m);
        if strategy != KernelStrategy::Wavefront {
            return KernelPlan {
                strategy,
                lanes: LaneWidth::U64,
            };
        }
        let mut lanes = exact_lane_width(
            n,
            m,
            self.mode,
            RawWeights::from_weights(self.weights),
            self.threshold,
            self.band,
            self.lane_floor,
        );
        if lanes == LaneWidth::U8 {
            // The biased byte kernel exists only in the striped batch
            // layout (a single pair never fills 32 lanes); re-resolve
            // at the next floor. Falls through the width ladder rather
            // than assuming u16: a threshold-admitted u8 pair can be
            // too long for the static u16 bound.
            lanes = exact_lane_width(
                n,
                m,
                self.mode,
                RawWeights::from_weights(self.weights),
                self.threshold,
                self.band,
                LaneWidth::U16.max(self.lane_floor),
            );
        }
        // A band caps the anti-diagonal span at k + 1 cells, so the
        // per-pair SIMD segments are never longer than that.
        let eff_len = n.min(m).min(self.band.map_or(usize::MAX, |k| k + 1));
        if lanes == LaneWidth::U16 && eff_len < U16_MIN_LEN {
            // Exact but unprofitable per pair at this segment length
            // (see U16_MIN_LEN); the striped batch kernel makes its own
            // call.
            lanes = LaneWidth::U32;
        }
        KernelPlan { strategy, lanes }
    }

    /// The traversal order an `n × m` pair runs on when it aligns
    /// alone — [`AlignConfig::resolve_kernel`] without the lane detail,
    /// in O(1). [`KernelStrategy::Auto`] resolves to
    /// [`KernelStrategy::Wavefront`] when `min(n, m) ≥`
    /// [`WAVEFRONT_MIN_LEN`] (whatever the band: the wavefront computes
    /// only the in-band span of each diagonal) or when a
    /// threshold is set, otherwise to [`KernelStrategy::RollingRow`].
    /// The threshold rule keeps [`align_batch`] equal to a sequential
    /// loop: the rolling row abandons row by row and the wavefront (and
    /// so the stripe) diagonal by diagonal, so an abandoned pair's
    /// `cells_computed` depends on the order. Explicit strategies
    /// resolve to themselves. The batch planner does not ask: it puts
    /// every pair on stripes unless the config pins the rolling row,
    /// and only the pairs a stripe leaves over resolve here.
    #[must_use]
    pub fn resolve_strategy(&self, n: usize, m: usize) -> KernelStrategy {
        match self.strategy {
            KernelStrategy::Auto if self.threshold.is_some() || n.min(m) >= WAVEFRONT_MIN_LEN => {
                KernelStrategy::Wavefront
            }
            KernelStrategy::Auto => KernelStrategy::RollingRow,
            s => s,
        }
    }

    /// The lane word the **striped batch kernel** picks for a cohort
    /// whose ceiling shape is `n × m`: the narrowest exact width above
    /// the floor, with no per-pair profitability gate (stripe segments
    /// are `span × lanes` long, so narrow lanes always pay there).
    /// Exposed for benchmark records.
    #[must_use]
    pub fn resolve_stripe_lanes(&self, n: usize, m: usize) -> LaneWidth {
        exact_lane_width(
            n,
            m,
            self.mode,
            RawWeights::from_weights(self.weights),
            self.threshold,
            self.band,
            self.lane_floor,
        )
    }
}

/// The outcome of one engine alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOutcome {
    /// The race score: arrival time of the sink cell. [`Time::NEVER`]
    /// when the band disconnects the grid or the race was abandoned.
    pub score: Time,
    /// Grid cells actually computed (boundary included) — the area /
    /// work saving of banding and early termination.
    pub cells_computed: u64,
    /// `true` when a configured threshold was provably exceeded and the
    /// race abandoned (the score is then a lower-bound witness, reported
    /// as [`Time::NEVER`]).
    pub early_terminated: bool,
}

impl EngineOutcome {
    /// The exact score when the race finished within the threshold.
    #[must_use]
    pub fn finished_score(&self) -> Option<u64> {
        if self.early_terminated {
            None
        } else {
            self.score.cycles()
        }
    }
}

/// The three-buffer rotation shared by every wavefront-family kernel:
/// `(cur, d1, d2)` for diagonal `d` — `cur` receives diagonal `d`,
/// `d1` holds `d − 1`, `d2` holds `d − 2`.
#[inline]
pub(crate) fn rotate_bufs<T>(bufs: &mut [T; 3], d: usize) -> (&mut T, &mut T, &mut T) {
    let [a, b, c] = bufs;
    match d % 3 {
        0 => (a, c, b),
        1 => (b, a, c),
        _ => (c, b, a),
    }
}

/// The banded column range of row `i`: `lo..=hi` over `0..=m`, empty when
/// the band excludes the whole row.
#[inline]
fn band_range(i: usize, m: usize, band: Option<usize>) -> (usize, usize) {
    match band {
        None => (0, m),
        Some(k) => (i.saturating_sub(k), (i + k).min(m)),
    }
}

/// The in-band row range of anti-diagonal `d` (cells `(i, d − i)`):
/// `lo..=hi` over rows, **empty when `lo > hi`**. Combines the grid
/// bounds `max(0, d − m) ≤ i ≤ min(n, d)` with the band constraint
/// `|i − (d − i)| ≤ k ⇔ ⌈(d − k)/2⌉ ≤ i ≤ ⌊(d + k)/2⌋`.
#[inline]
pub(crate) fn diag_range(d: usize, n: usize, m: usize, band: Option<usize>) -> (usize, usize) {
    let mut lo = d.saturating_sub(m);
    let mut hi = d.min(n);
    if let Some(k) = band {
        lo = lo.max(d.saturating_sub(k).div_ceil(2));
        hi = hi.min((d + k) / 2);
    }
    (lo, hi)
}

/// One interior cell of the min-plus recurrence in raw `u64` form —
/// **the** scalar definition of the cell update. Both traversal orders
/// call it (the SIMD kernel's lane arithmetic in
/// [`crate::simd::diag_update`] is the lane-typed restatement, tested
/// equal), so a future change to the recurrence has one home.
#[inline]
fn scalar_cell(up: u64, left: u64, diag: u64, codes_equal: bool, w: RawWeights) -> u64 {
    // Branch-free packed-code compare (the Fig. 4b XNOR tree): one of
    // the two products is always zero, so the sum cannot wrap.
    let eq = u64::from(codes_equal);
    let diag_w = eq * w.matched + (1 - eq) * w.mismatched;
    up.saturating_add(w.indel)
        .min(left.saturating_add(w.indel))
        .min(diag.saturating_add(diag_w))
}

/// The fused inner row update, shared by every rolling-row execution
/// path.
///
/// Computes `curr[lo..=hi]` (row `i > 0`, `span = (lo, hi)`) from `prev`
/// (row `i − 1`). `curr` must be pre-filled with `NEVER` outside the
/// band; entries at `lo..=hi` are overwritten. Returns the row minimum
/// (for fused early termination).
#[inline]
fn row_update(
    i: usize,
    qc: u8,
    p_codes: &[u8],
    w: RawWeights,
    prev: &[u64],
    curr: &mut [u64],
    span: (usize, usize),
) -> u64 {
    let (lo, hi) = span;
    debug_assert!(lo <= hi);
    let mut row_min = NEVER;
    let mut j = lo;
    if j == 0 {
        // Boundary column: a pure indel chain from the root.
        curr[0] = (i as u64).saturating_mul(w.indel);
        row_min = curr[0];
        j = 1;
    }
    // `left` carries curr[j-1] through the sweep so the loop reads each
    // cell exactly once. Out-of-band left neighbours are NEVER.
    let mut left_val = if j >= 1 { curr[j - 1] } else { NEVER };
    for jj in j..=hi {
        let cell = scalar_cell(prev[jj], left_val, prev[jj - 1], qc == p_codes[jj - 1], w);
        curr[jj] = cell;
        left_val = cell;
        row_min = row_min.min(cell);
    }
    row_min
}

/// Fills `grid` (row-major, `(n+1) × (m+1)`, raw `u64` with
/// [`NEVER`] = +∞) with the arrival fixed point of racing `q_codes`
/// against `p_codes` under a global boundary, in the given traversal
/// order — the kernel behind `run_functional` and `banded_race`.
/// Returns the number of cells computed.
///
/// Both orders produce the **identical** grid (same cell set, same
/// values, same count — property-tested); they differ only in memory
/// access pattern. [`KernelStrategy::Auto`] resolves to row-major here:
/// materializing a full row-major grid is exactly the workload the
/// rolling row is cache-optimal for, while the wavefront order pays a
/// `cols − 1` stride per step. The wavefront variant exists for
/// verification and for callers that want arrival grids in the
/// hardware's evaluation order; the *fast* wavefront path is the
/// score-only [`AlignEngine::align`], which keeps only three diagonals
/// of state.
///
/// `grid` is cleared and resized in place, so a caller that reuses the
/// same buffer allocates nothing after warm-up.
///
/// # Panics
///
/// Panics if `weights.indel == 0`.
pub fn fill_grid_with(
    q_codes: &[u8],
    p_codes: &[u8],
    weights: RaceWeights,
    band: Option<usize>,
    strategy: KernelStrategy,
    grid: &mut Vec<u64>,
) -> u64 {
    assert!(weights.indel > 0, "indel weight must be positive");
    let w = RawWeights::from_weights(weights);
    if strategy != KernelStrategy::Wavefront {
        return fill_rows(q_codes, p_codes, w, band, AlignMode::Global, grid);
    }
    let (n, m) = (q_codes.len(), p_codes.len());
    let cols = m + 1;
    grid.clear();
    grid.resize((n + 1) * cols, NEVER);
    let mut cells = 0_u64;
    // Anti-diagonal order straight over the row-major grid. Cells
    // outside the band keep their NEVER pre-fill, which is exactly the
    // +∞ every in-band neighbour read expects.
    for d in 0..=(n + m) {
        let (lo, hi) = diag_range(d, n, m, band);
        if lo > hi {
            continue;
        }
        for i in lo..=hi {
            let j = d - i;
            let idx = i * cols + j;
            grid[idx] = if i == 0 {
                (j as u64).saturating_mul(w.indel)
            } else if j == 0 {
                (i as u64).saturating_mul(w.indel)
            } else {
                scalar_cell(
                    grid[idx - cols],
                    grid[idx - 1],
                    grid[idx - cols - 1],
                    q_codes[i - 1] == p_codes[j - 1],
                    w,
                )
            };
        }
        cells += (hi - lo + 1) as u64;
    }
    cells
}

/// [`fill_grid_with`] in rolling-row order with a mode-aware boundary:
/// fills the row-major grid with the arrival fixed point under `mode`'s
/// injection rule — [`AlignMode::Global`] charges the top row as an
/// indel chain, [`AlignMode::SemiGlobal`] injects the race signal along
/// the entire top row for free (the "query anywhere in the reference"
/// wiring). Rolling-row order is the one materializing a row-major grid
/// is cache-optimal for; the score-only fast paths live on
/// [`AlignEngine::align`]. Returns the number of cells computed.
/// [`crate::semi_global::semi_global_race`] is a thin wrapper over this
/// fill.
///
/// # Panics
///
/// Panics if `weights.indel == 0`, or for [`AlignMode::Local`] /
/// [`AlignMode::GlobalAffine`] (their grids are max-plus / three-plane —
/// use the score-only engine for those modes).
pub fn fill_grid_mode(
    q_codes: &[u8],
    p_codes: &[u8],
    weights: RaceWeights,
    band: Option<usize>,
    mode: AlignMode,
    grid: &mut Vec<u64>,
) -> u64 {
    assert!(weights.indel > 0, "indel weight must be positive");
    assert!(
        matches!(mode, AlignMode::Global | AlignMode::SemiGlobal),
        "fill_grid_mode covers the linear min-plus modes; \
         local/affine grids have no single-plane u64 representation"
    );
    let w = RawWeights::from_weights(weights);
    fill_rows(q_codes, p_codes, w, band, mode, grid)
}

/// The row-major (rolling-row) grid fill of [`fill_grid_with`] and
/// [`fill_grid_mode`]: row 0, clipped to the band, is an indel chain
/// under [`AlignMode::Global`] and free under [`AlignMode::SemiGlobal`];
/// every later row is one [`row_update`].
fn fill_rows(
    q_codes: &[u8],
    p_codes: &[u8],
    w: RawWeights,
    band: Option<usize>,
    mode: AlignMode,
    grid: &mut Vec<u64>,
) -> u64 {
    let (n, m) = (q_codes.len(), p_codes.len());
    let cols = m + 1;
    grid.clear();
    grid.resize((n + 1) * cols, NEVER);
    let (lo0, hi0) = band_range(0, m, band);
    debug_assert_eq!(lo0, 0);
    let free_top = mode == AlignMode::SemiGlobal;
    for (j, cell) in grid[..=hi0].iter_mut().enumerate() {
        *cell = if free_top {
            0
        } else {
            (j as u64).saturating_mul(w.indel)
        };
    }
    let mut cells = (hi0 - lo0 + 1) as u64;
    for i in 1..=n {
        let (lo, hi) = band_range(i, m, band);
        if lo > hi {
            continue; // band excludes the entire row
        }
        let (prev_rows, curr_rows) = grid.split_at_mut(i * cols);
        let prev = &prev_rows[(i - 1) * cols..];
        let curr = &mut curr_rows[..cols];
        row_update(i, q_codes[i - 1], p_codes, w, prev, curr, (lo, hi));
        cells += (hi - lo + 1) as u64;
    }
    cells
}

/// Converts a raw kernel value to a [`Time`].
#[inline]
#[must_use]
pub fn raw_to_time(raw: u64) -> Time {
    if raw == NEVER {
        Time::NEVER
    } else {
        Time::from_cycles(raw)
    }
}

/// The end-of-sweep classification every kernel shares: a raw sink value
/// above the threshold is reported as an abandon ([`Time::NEVER`] +
/// `early_terminated`), identical to the verdict a mid-sweep frontier
/// abandon would have produced.
#[inline]
pub(crate) fn classify_outcome(
    score_raw: u64,
    threshold: Option<u64>,
    cells_computed: u64,
) -> EngineOutcome {
    let exceeded = threshold.is_some_and(|t| score_raw > t);
    EngineOutcome {
        score: if exceeded {
            Time::NEVER
        } else {
            raw_to_time(score_raw)
        },
        cells_computed,
        early_terminated: exceeded,
    }
}

/// Diagonal scratch at every lane word: three planes of three rotating
/// buffers per word. The linear and local recurrences use plane 0, the
/// affine one all three (M, Ix, Iy). Both the per-pair engine and the
/// striped sweep own one; [`DiagWord`] picks a word's planes.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiagScratch {
    b8: [[Vec<u8>; 3]; 3],
    b16: [[Vec<u16>; 3]; 3],
    b32: [[Vec<u32>; 3]; 3],
    b64: [[Vec<u64>; 3]; 3],
}

impl DiagScratch {
    /// `(capacity, bytes per word)` of every buffer, word by word.
    fn capacities(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        fn word<W>(planes: &[[Vec<W>; 3]; 3]) -> impl Iterator<Item = (usize, usize)> + '_ {
            planes
                .iter()
                .flatten()
                .map(|v| (v.capacity(), std::mem::size_of::<W>()))
        }
        word(&self.b8)
            .chain(word(&self.b16))
            .chain(word(&self.b32))
            .chain(word(&self.b64))
    }
}

/// A lane word with its own buffers in [`DiagScratch`]: the one place a
/// word is mapped to its scratch, so kernel dispatch is one match on
/// [`LaneWidth`] into code generic over the word.
pub(crate) trait DiagWord: KernelWord {
    /// `true` for the byte word, which the striped sweep runs under a
    /// running bias ([`u8_bias_rate`]).
    const BIASED: bool = false;
    /// This word's planes.
    fn planes(s: &mut DiagScratch) -> &mut [[Vec<Self>; 3]; 3];
}

impl DiagWord for u8 {
    const BIASED: bool = true;
    fn planes(s: &mut DiagScratch) -> &mut [[Vec<u8>; 3]; 3] {
        &mut s.b8
    }
}

impl DiagWord for u16 {
    fn planes(s: &mut DiagScratch) -> &mut [[Vec<u16>; 3]; 3] {
        &mut s.b16
    }
}

impl DiagWord for u32 {
    fn planes(s: &mut DiagScratch) -> &mut [[Vec<u32>; 3]; 3] {
        &mut s.b32
    }
}

impl DiagWord for u64 {
    fn planes(s: &mut DiagScratch) -> &mut [[Vec<u64>; 3]; 3] {
        &mut s.b64
    }
}

/// A reusable alignment engine: configuration plus owned scratch
/// buffers. Create once, call [`AlignEngine::align`] many times — after
/// warm-up no call allocates.
///
/// The scratch covers every kernel: two rolling rows (plus four more
/// for the affine planes) and forward code buffers for
/// [`KernelStrategy::RollingRow`]; for [`KernelStrategy::Wavefront`], a
/// reversed-`p` code buffer and, per lane width, the 1-lane stripe's
/// three planes of three `n + 1`-cell anti-diagonal buffers (the linear
/// and local modes use the first plane). Only the buffers of the kernel
/// actually selected for a call are touched.
#[derive(Debug, Clone)]
pub struct AlignEngine {
    cfg: AlignConfig,
    prev: Vec<u64>,
    curr: Vec<u64>,
    xprev: Vec<u64>,
    xcurr: Vec<u64>,
    yprev: Vec<u64>,
    ycurr: Vec<u64>,
    q_codes: Vec<u8>,
    p_codes: Vec<u8>,
    p_rev: Vec<u8>,
    diag: DiagScratch,
}

impl AlignEngine {
    /// An engine with the given configuration and empty scratch.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.weights.indel == 0`, or if a threshold is
    /// configured in [`AlignMode::Local`].
    #[must_use]
    pub fn new(cfg: AlignConfig) -> Self {
        cfg.assert_valid();
        Self::build(cfg)
    }

    /// [`AlignEngine::new`] with a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AlignError::InvalidConfig`] (see [`AlignConfig::validate`]).
    pub fn try_new(cfg: AlignConfig) -> Result<Self, AlignError> {
        cfg.validate()?;
        Ok(Self::build(cfg))
    }

    fn build(cfg: AlignConfig) -> Self {
        AlignEngine {
            cfg,
            prev: Vec::new(),
            curr: Vec::new(),
            xprev: Vec::new(),
            xcurr: Vec::new(),
            yprev: Vec::new(),
            ycurr: Vec::new(),
            q_codes: Vec::new(),
            p_codes: Vec::new(),
            p_rev: Vec::new(),
            diag: DiagScratch::default(),
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &AlignConfig {
        &self.cfg
    }

    /// Swaps the configuration while keeping every scratch buffer — the
    /// re-tuning path for drivers that sweep a parameter over the same
    /// pair (e.g. [`crate::banded::adaptive_race`] doubling its band):
    /// follow-up alignments at the same problem size stay
    /// allocation-free.
    pub fn set_config(&mut self, cfg: AlignConfig) {
        cfg.assert_valid();
        self.cfg = cfg;
    }

    /// Current capacities of every scratch buffer the engine owns —
    /// stable across repeated alignments once each kernel path has been
    /// warmed up at the working-set size; exposed so tests can assert
    /// the zero-allocation contract.
    #[must_use]
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let mut caps = vec![
            self.prev.capacity(),
            self.curr.capacity(),
            self.xprev.capacity(),
            self.xcurr.capacity(),
            self.yprev.capacity(),
            self.ycurr.capacity(),
            self.q_codes.capacity(),
            self.p_codes.capacity(),
            self.p_rev.capacity(),
        ];
        caps.extend(self.diag.capacities().map(|(cap, _)| cap));
        caps
    }

    /// Total bytes of scratch the engine currently holds, across every
    /// kernel's buffers — the per-worker figure the supervisor's
    /// scratch-arena budget accounts against (see
    /// [`ScanControl::with_scratch_budget`]).
    #[must_use]
    pub fn scratch_bytes(&self) -> usize {
        let u64s = [
            &self.prev,
            &self.curr,
            &self.xprev,
            &self.xcurr,
            &self.yprev,
            &self.ycurr,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum::<usize>();
        let u8s = self.q_codes.capacity() + self.p_codes.capacity() + self.p_rev.capacity();
        let diag: usize = self.diag.capacities().map(|(cap, word)| cap * word).sum();
        u64s * 8 + u8s + diag
    }

    /// Aligns packed `q` (rows) against packed `p` (columns) on the
    /// kernel [`AlignConfig::resolve_kernel`] selects: banding and
    /// early termination are applied inside the sweep, and only a few
    /// rows or diagonals of state exist.
    pub fn align<S: Symbol>(&mut self, q: &PackedSeq<S>, p: &PackedSeq<S>) -> EngineOutcome {
        match self.align_ctrl(q, p, None) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("an unsupervised alignment cannot stop early"),
        }
    }

    /// [`AlignEngine::align`] under a [`ScanControl`]: the kernel loops
    /// checkpoint the control at anti-diagonal (wavefront) or row
    /// (rolling-row) granularity, charging computed cells as they go.
    ///
    /// # Errors
    ///
    /// [`AlignError::BudgetExhausted`] / [`AlignError::Interrupted`]
    /// when the control stops the sweep; the partially computed grid is
    /// discarded (single alignments have no useful partial result —
    /// batch callers get typed partial ledgers instead, see
    /// [`align_batch`]).
    pub fn align_supervised<S: Symbol>(
        &mut self,
        q: &PackedSeq<S>,
        p: &PackedSeq<S>,
        ctrl: &ScanControl,
    ) -> Result<EngineOutcome, AlignError> {
        self.align_ctrl(q, p, Some(ctrl)).map_err(AlignError::from)
    }

    /// The control-threaded core of [`AlignEngine::align`]: `None` runs
    /// free (and cannot fail), `Some` checkpoints cooperatively.
    pub(crate) fn align_ctrl<S: Symbol>(
        &mut self,
        q: &PackedSeq<S>,
        p: &PackedSeq<S>,
        ctrl: Option<&ScanControl>,
    ) -> Result<EngineOutcome, StopReason> {
        let fill = |q_codes: &mut Vec<u8>, p_codes: &mut Vec<u8>, reversed: bool| {
            q.unpack_into(q_codes);
            if reversed {
                p.unpack_reversed_into(p_codes);
            } else {
                p.unpack_into(p_codes);
            }
        };
        self.dispatch((q.len(), p.len()), fill, &mut SupCursor::new(ctrl))
    }

    /// Aligns plain sequences (convenience wrapper that packs nothing:
    /// codes are read straight into the scratch buffers).
    pub fn align_seqs<S: Symbol>(
        &mut self,
        q: &rl_bio::Seq<S>,
        p: &rl_bio::Seq<S>,
    ) -> EngineOutcome {
        let fill = |q_codes: &mut Vec<u8>, p_codes: &mut Vec<u8>, reversed: bool| {
            q_codes.clear();
            q_codes.extend(q.codes());
            p_codes.clear();
            p_codes.extend(p.codes());
            if reversed {
                p_codes.reverse();
            }
        };
        match self.dispatch((q.len(), p.len()), fill, &mut SupCursor::new(None)) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("an unsupervised alignment cannot stop early"),
        }
    }

    /// The one kernel dispatch of a single alignment: resolves the plan
    /// for an `n × m` pair, has `fill(q_codes, p_codes, reversed)` write
    /// the codes into the buffers that kernel reads, and runs it. The
    /// wavefront kernel wants p backwards (contiguous anti-diagonal
    /// reads), so it gets `p_rev` and `reversed = true`.
    fn dispatch(
        &mut self,
        (n, m): (usize, usize),
        fill: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>, bool),
        sup: &mut SupCursor<'_>,
    ) -> Result<EngineOutcome, StopReason> {
        let plan = self.cfg.resolve_kernel(n, m);
        if plan.strategy != KernelStrategy::Wavefront {
            fill(&mut self.q_codes, &mut self.p_codes, false);
            return self.rolling_row_codes(sup);
        }
        fill(&mut self.q_codes, &mut self.p_rev, true);
        match plan.lanes {
            // `LaneWidth::U8` exists only in the striped batch layout;
            // `resolve_kernel` bumps per-pair plans to a wider word.
            LaneWidth::U8 => unreachable!("per-pair planner bumps u8 to a wider word"),
            LaneWidth::U16 => self.wavefront_at::<u16>(sup),
            LaneWidth::U32 => self.wavefront_at::<u32>(sup),
            LaneWidth::U64 => self.wavefront_at::<u64>(sup),
        }
    }

    /// The configured mode's wavefront kernel in lane word `W`: the
    /// striped sweep at one lane, whose code planes are exactly `q_codes`
    /// and `p_rev`, under the configured threshold as
    /// [`StripeThreshold::Exact`].
    fn wavefront_at<W: DiagWord>(
        &mut self,
        sup: &mut SupCursor<'_>,
    ) -> Result<EngineOutcome, StopReason> {
        if let AlignMode::GlobalAffine(_) = self.cfg.mode {
            crate::supervisor::fp_hit("affine");
        }
        let (q, p) = (&self.q_codes[..], &self.p_rev[..]);
        let shape = [(q.len(), p.len())];
        let stripe = Stripe {
            shapes: &shape,
            q,
            p,
            union: shape[0],
            band: self.cfg.band,
        };
        let t = self
            .cfg
            .threshold
            .map_or(StripeThreshold::None, StripeThreshold::Exact);
        let planes = W::planes(&mut self.diag);
        let mut out = [EngineOutcome::default()];
        mode_sweep::<W, 1>(&self.cfg, stripe, t, None, planes, &mut out, sup)?;
        Ok(out[0])
    }

    fn rolling_row_codes(&mut self, sup: &mut SupCursor<'_>) -> Result<EngineOutcome, StopReason> {
        match self.cfg.mode {
            AlignMode::Global | AlignMode::SemiGlobal => self.rolling_row_linear(sup),
            AlignMode::Local(s) => self.rolling_row_local(s, sup),
            AlignMode::GlobalAffine(a) => self.rolling_row_affine(a.open, sup),
        }
    }

    /// The linear min-plus rolling row, covering [`AlignMode::Global`]
    /// and [`AlignMode::SemiGlobal`]: the modes share the interior
    /// recurrence and differ only in the row-0 injection (indel chain
    /// vs free) and the readout (sink cell vs bottom-row minimum).
    fn rolling_row_linear(&mut self, sup: &mut SupCursor<'_>) -> Result<EngineOutcome, StopReason> {
        let semi = self.cfg.mode == AlignMode::SemiGlobal;
        let w = RawWeights::from_weights(self.cfg.weights);
        let (n, m) = (self.q_codes.len(), self.p_codes.len());
        let cols = m + 1;
        self.prev.clear();
        self.prev.resize(cols, NEVER);
        self.curr.clear();
        self.curr.resize(cols, NEVER);
        let mut cells = 0_u64;

        // Row 0: an indel chain (global) or the free-injection row
        // (semi-global), clipped to the band.
        let (lo0, hi0) = band_range(0, m, self.cfg.band);
        for (j, cell) in self.prev.iter_mut().enumerate().take(hi0 + 1) {
            *cell = if semi {
                0
            } else {
                (j as u64).saturating_mul(w.indel)
            };
        }
        cells += (hi0 - lo0 + 1) as u64;
        let mut frontier_min = self.prev[lo0];
        let threshold = self.cfg.threshold.unwrap_or(NEVER);

        for i in 1..=n {
            // Sound abandon: every injection→readout path crosses each
            // computed row (all injections live on row 0, all readouts
            // on row n), and all weights are ≥ 0, so score ≥
            // min(frontier).
            if frontier_min > threshold {
                return Ok(EngineOutcome {
                    score: Time::NEVER,
                    cells_computed: cells,
                    early_terminated: true,
                });
            }
            let (lo, hi) = band_range(i, m, self.cfg.band);
            if lo > hi {
                // The band excludes this whole row, and `lo` only grows
                // with `i`: no in-band path can reach any readout cell.
                return Ok(EngineOutcome {
                    score: Time::NEVER,
                    cells_computed: cells,
                    // With a threshold configured, `∞ > threshold` is the
                    // same verdict the end-of-run classification gives.
                    early_terminated: self.cfg.threshold.is_some(),
                });
            }
            // Reset the incoming row only when banded: cells outside the
            // band must read as +∞ to the next sweep. Unbanded sweeps
            // overwrite every cell, so the fill would be wasted stores.
            if self.cfg.band.is_some() {
                self.curr.fill(NEVER);
            }
            frontier_min = row_update(
                i,
                self.q_codes[i - 1],
                &self.p_codes,
                w,
                &self.prev,
                &mut self.curr,
                (lo, hi),
            );
            cells += (hi - lo + 1) as u64;
            std::mem::swap(&mut self.prev, &mut self.curr);
            sup.tick((hi - lo + 1) as u64)?;
        }

        let score_raw = if semi {
            // Free trailing gaps: the best bottom-row cell. Out-of-band
            // cells hold NEVER and cannot win the min.
            self.prev.iter().copied().min().unwrap_or(NEVER)
        } else {
            self.prev[m]
        };
        Ok(classify_outcome(score_raw, self.cfg.threshold, cells))
    }

    /// The max-plus (Smith–Waterman) rolling row: zero boundaries, the
    /// [`crate::simd::diag_update_local_lanes`] arithmetic one cell at a time
    /// (the rolling row is serial either way), best-cell maximum
    /// readout. Banded rows treat out-of-band neighbours as fresh
    /// starts (value 0), matching the wavefront local kernel.
    fn rolling_row_local(
        &mut self,
        s: LocalScores,
        sup: &mut SupCursor<'_>,
    ) -> Result<EngineOutcome, StopReason> {
        let (n, m) = (self.q_codes.len(), self.p_codes.len());
        let cols = m + 1;
        self.prev.clear();
        self.prev.resize(cols, 0);
        self.curr.clear();
        self.curr.resize(cols, 0);
        let mut cells = 0_u64;
        let mut best = 0_u64;

        let (lo0, hi0) = band_range(0, m, self.cfg.band);
        cells += (hi0 - lo0 + 1) as u64;

        for i in 1..=n {
            let (lo, hi) = band_range(i, m, self.cfg.band);
            if lo > hi {
                break; // rows below are band-empty too; best is final
            }
            if self.cfg.band.is_some() {
                self.curr.fill(0);
            }
            let mut j = lo;
            if j == 0 {
                self.curr[0] = 0;
                j = 1;
            }
            let mut left = self.curr[j - 1];
            for jj in j..=hi {
                let diag = if self.q_codes[i - 1] == self.p_codes[jj - 1] {
                    self.prev[jj - 1].saturating_add(s.matched)
                } else {
                    self.prev[jj - 1].saturating_sub(s.mismatched)
                };
                let cell = self.prev[jj]
                    .saturating_sub(s.gap)
                    .max(left.saturating_sub(s.gap))
                    .max(diag);
                self.curr[jj] = cell;
                left = cell;
                best = best.max(cell);
            }
            cells += (hi - lo + 1) as u64;
            std::mem::swap(&mut self.prev, &mut self.curr);
            sup.tick((hi - lo + 1) as u64)?;
        }

        Ok(EngineOutcome {
            score: raw_to_time(best),
            cells_computed: cells,
            early_terminated: false,
        })
    }

    /// The affine-gap (Gotoh) rolling row: three rolling row pairs, one
    /// per plane, native `u64`. The abandon rule tests the row minimum
    /// across all three planes — sound for the same reason as the
    /// linear row (every path crosses every row, one plane state per
    /// cell, non-negative weights).
    fn rolling_row_affine(
        &mut self,
        open: u64,
        sup: &mut SupCursor<'_>,
    ) -> Result<EngineOutcome, StopReason> {
        let w = RawWeights::from_weights(self.cfg.weights);
        let (n, m) = (self.q_codes.len(), self.p_codes.len());
        let cols = m + 1;
        for row in [
            &mut self.prev,
            &mut self.curr,
            &mut self.xprev,
            &mut self.xcurr,
            &mut self.yprev,
            &mut self.ycurr,
        ] {
            row.clear();
            row.resize(cols, NEVER);
        }
        let mut cells = 0_u64;

        // Row 0: M holds the root; Iy holds the horizontal gap run.
        let (lo0, hi0) = band_range(0, m, self.cfg.band);
        self.prev[0] = 0;
        for j in 1..=hi0 {
            self.yprev[j] = open.saturating_add((j as u64).saturating_mul(w.indel));
        }
        cells += (hi0 - lo0 + 1) as u64;
        let mut frontier_min = 0_u64;
        let threshold = self.cfg.threshold.unwrap_or(NEVER);
        let open_ext = open.saturating_add(w.indel);

        for i in 1..=n {
            if frontier_min > threshold {
                return Ok(EngineOutcome {
                    score: Time::NEVER,
                    cells_computed: cells,
                    early_terminated: true,
                });
            }
            let (lo, hi) = band_range(i, m, self.cfg.band);
            if lo > hi {
                return Ok(EngineOutcome {
                    score: Time::NEVER,
                    cells_computed: cells,
                    early_terminated: self.cfg.threshold.is_some(),
                });
            }
            if self.cfg.band.is_some() {
                self.curr.fill(NEVER);
                self.xcurr.fill(NEVER);
                self.ycurr.fill(NEVER);
            }
            let mut row_min = NEVER;
            let mut j = lo;
            if j == 0 {
                self.curr[0] = NEVER;
                self.ycurr[0] = NEVER;
                self.xcurr[0] = open.saturating_add((i as u64).saturating_mul(w.indel));
                row_min = self.xcurr[0];
                j = 1;
            }
            for jj in j..=hi {
                let eq = self.q_codes[i - 1] == self.p_codes[jj - 1];
                let dw = if eq { w.matched } else { w.mismatched };
                let mcell = self.prev[jj - 1]
                    .min(self.xprev[jj - 1])
                    .min(self.yprev[jj - 1])
                    .saturating_add(dw);
                let xcell = self.prev[jj]
                    .min(self.yprev[jj])
                    .saturating_add(open_ext)
                    .min(self.xprev[jj].saturating_add(w.indel));
                let ycell = self.curr[jj - 1]
                    .min(self.xcurr[jj - 1])
                    .saturating_add(open_ext)
                    .min(self.ycurr[jj - 1].saturating_add(w.indel));
                self.curr[jj] = mcell;
                self.xcurr[jj] = xcell;
                self.ycurr[jj] = ycell;
                row_min = row_min.min(mcell).min(xcell).min(ycell);
            }
            frontier_min = row_min;
            cells += (hi - lo + 1) as u64;
            std::mem::swap(&mut self.prev, &mut self.curr);
            std::mem::swap(&mut self.xprev, &mut self.xcurr);
            std::mem::swap(&mut self.yprev, &mut self.ycurr);
            sup.tick((hi - lo + 1) as u64)?;
        }

        let score_raw = self.prev[m].min(self.xprev[m]).min(self.yprev[m]);
        Ok(classify_outcome(score_raw, self.cfg.threshold, cells))
    }
}

/// Static occupancy accounting of a batch plan — how well
/// [`align_batch`] would pack `pairs` under `cfg`, before running
/// anything. The numbers behind perfbench's traced `engine.occupancy`,
/// exposed so packer regressions are visible as numbers, not vibes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchPlanStats {
    /// Pairs in the batch.
    pub pairs: usize,
    /// Stripe candidates: every pair, unless the config pins
    /// [`KernelStrategy::RollingRow`] (then none, and every pair runs
    /// the rolling row per pair).
    pub wavefront_eligible: usize,
    /// Candidates actually placed on stripes. The rest are left over
    /// from stripes of fewer than [`STRIPE_MIN_PAIRS`] members and run
    /// per pair, each on the kernel [`AlignConfig::resolve_strategy`]
    /// picks for its shape.
    pub striped_pairs: usize,
    /// Planned stripe count.
    pub stripes: usize,
    /// Stripes running the half-width `u16` monomorphization (8 lanes
    /// instead of 16 — under-filled tails that no longer sweep empty
    /// lanes; see `docs/KERNELS.md`).
    pub half_width_stripes: usize,
    /// Σ over striped pairs of each pair's own (banded) cell count.
    pub useful_cells: u64,
    /// Σ over stripes of the union shape's (banded) cell count × the
    /// stripe's full lane count — what the sweeps will actually touch,
    /// empty lanes included.
    pub swept_cells: u64,
}

impl BatchPlanStats {
    /// Fraction of stripe candidates riding stripes (1.0 when there are
    /// none, as under the rolling-row pin).
    #[must_use]
    pub fn striped_fraction(&self) -> f64 {
        if self.wavefront_eligible == 0 {
            1.0
        } else {
            self.striped_pairs as f64 / self.wavefront_eligible as f64
        }
    }

    /// Useful cells per swept cell across all stripes (1.0 when nothing
    /// stripes): the padding *and* empty-lane overhead in one number.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.swept_cells == 0 {
            1.0
        } else {
            self.useful_cells as f64 / self.swept_cells as f64
        }
    }
}

/// Computes [`BatchPlanStats`] for `pairs` under `cfg` (plan only — no
/// alignment work is done).
#[must_use]
pub fn batch_plan_stats<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(PackedSeq<S>, PackedSeq<S>)],
) -> BatchPlanStats {
    let refs: Vec<(&PackedSeq<S>, &PackedSeq<S>)> = pairs.iter().map(|(q, p)| (q, p)).collect();
    crate::striped::plan_stats_impl(cfg, &refs)
}

/// Aligns every `(q, p)` pair under `cfg`, in parallel, under `ctrl` —
/// the one batch entry point.
///
/// Two levels of parallelism are fused. Across cores, the calling
/// thread and `n − 1` helper threads claim work units from one queue
/// in plan order, one scratch set per worker; the plan itself does not
/// depend on `n`. Within a core, pairs
/// of any length (unless the config pins
/// [`KernelStrategy::RollingRow`]) are sorted by `(n, m)` and
/// consecutive pairs greedily share a stripe while padding stays
/// under [`STRIPE_PAD_BUDGET_PCT`]; each stripe is swept by the
/// **striped batch kernel** (`race_logic`'s inter-pair SIMD path): each
/// SIMD lane of one anti-diagonal sweep is a *different pair*, with
/// per-lane banding masks and per-lane early termination, lanes
/// retiring independently — the software analogue of tiling many small
/// alignments onto one Race Logic array. Stripes with fewer than
/// [`STRIPE_MIN_PAIRS`] live lanes, and every pair of a
/// rolling-row-pinned batch, run per pair.
///
/// The batch is always supervised. It checkpoints `ctrl` between work
/// units (and inside the per-pair kernels), isolates worker panics per
/// unit, retries a quarantined stripe's members on the per-pair
/// fallback kernel, and returns a typed partial ledger instead of
/// crashing or blocking. Operands are borrowed, so batches whose pairs
/// share a sequence (one query against a whole database) clone
/// nothing, and stripes whose lanes all share one query reuse its
/// packed plane.
///
/// Every completed outcome is **identical** to what a sequential
/// [`AlignEngine::align`] loop would produce — scores, cell counts and
/// early-termination verdicts alike (property-tested).
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`AlignConfig::validate`]).
#[must_use]
pub fn align_batch<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    ctrl: &ScanControl,
) -> crate::supervisor::BatchReport {
    cfg.assert_valid();
    crate::striped::run_batch(cfg, pairs, ctrl)
}

/// [`align_batch`] under an unconstrained [`ScanControl`], unwrapped to
/// one outcome per pair. Kept for the `perfbench` harness; new code
/// calls [`align_batch`].
///
/// # Panics
///
/// Panics, naming the pair, if a pair is lost to an unrecovered fault,
/// or if `cfg` is invalid.
#[must_use]
pub fn align_batch_refs<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
) -> Vec<EngineOutcome> {
    align_batch(cfg, pairs, &ScanControl::new()).expect_complete()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::AlignmentRace;
    use crate::banded::banded_race;
    use crate::early_termination::{threshold_race, ThresholdOutcome};
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;
    use rl_bio::Seq;

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    fn batch_outcomes(
        cfg: &AlignConfig,
        pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)],
    ) -> Vec<EngineOutcome> {
        let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();
        align_batch(cfg, &refs, &ScanControl::new()).expect_complete()
    }

    fn packed(s: &str) -> PackedSeq<Dna> {
        PackedSeq::from_seq(&dna(s))
    }

    #[test]
    fn paper_pair_scores_ten() {
        let mut e = AlignEngine::new(AlignConfig::new(RaceWeights::fig4()));
        let out = e.align(&packed("GATTCGA"), &packed("ACTGAGA"));
        assert_eq!(out.score, Time::from_cycles(10));
        assert_eq!(out.cells_computed, 64);
        assert!(!out.early_terminated);
        assert_eq!(out.finished_score(), Some(10));
    }

    #[test]
    fn paper_pair_scores_ten_on_both_explicit_strategies() {
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let cfg = AlignConfig::new(RaceWeights::fig4()).with_strategy(s);
            let out = AlignEngine::new(cfg).align(&packed("GATTCGA"), &packed("ACTGAGA"));
            assert_eq!(out.score, Time::from_cycles(10), "{s}");
            assert_eq!(out.cells_computed, 64, "{s}");
        }
    }

    #[test]
    fn empty_sequences() {
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let cfg = AlignConfig::new(RaceWeights::fig4()).with_strategy(s);
            let mut e = AlignEngine::new(cfg);
            let out = e.align(&packed(""), &packed(""));
            assert_eq!(out.score, Time::ZERO, "{s}");
            let out = e.align(&packed("ACG"), &packed(""));
            assert_eq!(out.score, Time::from_cycles(3), "{s}");
            let out = e.align(&packed(""), &packed("ACGT"));
            assert_eq!(out.score, Time::from_cycles(4), "{s}");
        }
    }

    #[test]
    fn auto_selection_follows_shape() {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        assert_eq!(cfg.resolve_strategy(256, 256), KernelStrategy::Wavefront);
        assert_eq!(cfg.resolve_strategy(10, 10), KernelStrategy::Wavefront);
        assert_eq!(cfg.resolve_strategy(10, 256), KernelStrategy::Wavefront);
        assert_eq!(cfg.resolve_strategy(9, 256), KernelStrategy::RollingRow);
        assert_eq!(cfg.resolve_strategy(256, 9), KernelStrategy::RollingRow);
        assert_eq!(cfg.resolve_strategy(8, 8), KernelStrategy::RollingRow);
        assert_eq!(
            cfg.with_threshold(3).resolve_strategy(8, 8),
            KernelStrategy::Wavefront
        );
        // Narrow bands do not force the rolling row: they ride the
        // wavefront.
        let narrow = cfg.with_band(4);
        assert_eq!(narrow.resolve_strategy(256, 256), KernelStrategy::Wavefront);
        let wide = cfg.with_band(64);
        assert_eq!(wide.resolve_strategy(256, 256), KernelStrategy::Wavefront);
        let pinned = cfg.with_band(4).with_strategy(KernelStrategy::Wavefront);
        assert_eq!(pinned.resolve_strategy(4, 4), KernelStrategy::Wavefront);
    }

    /// The full Auto decision table — strategy and lane width —
    /// pinned in one place so re-tuning a threshold is a conscious,
    /// single-constant change.
    #[test]
    fn auto_decision_table_is_pinned() {
        let plan = |cfg: AlignConfig, n: usize, m: usize| cfg.resolve_kernel(n, m);
        let base = AlignConfig::new(RaceWeights::fig4());

        // Strategy: min(n, m) against WAVEFRONT_MIN_LEN, band-independent.
        // The crossover is the measured one (`short_pairs/per_pair` in
        // batch_throughput): re-measure before moving it.
        assert_eq!(WAVEFRONT_MIN_LEN, 10);
        for (n, m, want) in [
            (
                WAVEFRONT_MIN_LEN,
                WAVEFRONT_MIN_LEN,
                KernelStrategy::Wavefront,
            ),
            (WAVEFRONT_MIN_LEN - 1, 256, KernelStrategy::RollingRow),
            (256, WAVEFRONT_MIN_LEN - 1, KernelStrategy::RollingRow),
            (256, 256, KernelStrategy::Wavefront),
            (0, 0, KernelStrategy::RollingRow),
        ] {
            assert_eq!(plan(base, n, m).strategy, want, "{n}x{m}");
            assert_eq!(
                plan(base.with_band(4), n, m).strategy,
                want,
                "{n}x{m} band 4"
            );
            // A threshold keeps every pair on the wavefront's
            // abandonment order, the one its stripe would follow.
            assert_eq!(
                plan(base.with_threshold(5), n, m).strategy,
                KernelStrategy::Wavefront,
                "{n}x{m} threshold 5"
            );
        }

        // Lane width: narrowest exact word. fig4's max finite weight is 1,
        // so u16 needs n + m + 2 < u16::MAX / 2 = 32767.
        assert_eq!(plan(base, 16_382, 16_382).lanes, LaneWidth::U16);
        assert_eq!(plan(base, 16_382, 16_383).lanes, LaneWidth::U32);
        // ... and, per pair, only past the u16/u32 crossover length
        // (U16_MIN_LEN — flat-loop u32 wins below it); stripes bypass
        // this gate.
        assert_eq!(plan(base, 256, 256).lanes, LaneWidth::U32);
        assert_eq!(plan(base, U16_MIN_LEN - 1, 16_000).lanes, LaneWidth::U32);
        assert_eq!(plan(base, U16_MIN_LEN, U16_MIN_LEN).lanes, LaneWidth::U16);
        assert_eq!(
            exact_lane_width(
                64,
                64,
                AlignMode::Global,
                RawWeights::from_weights(RaceWeights::fig4()),
                None,
                None,
                LaneWidth::U16
            ),
            LaneWidth::U16,
            "stripes take the ungated narrowest width"
        );
        let wide = AlignConfig::new(RaceWeights {
            matched: 1 << 20,
            mismatched: Some(1 << 20),
            indel: 1 << 20,
        });
        assert_eq!(plan(wide, 256, 256).lanes, LaneWidth::U32);
        let huge = AlignConfig::new(RaceWeights {
            matched: 1 << 40,
            mismatched: None,
            indel: 1 << 40,
        });
        assert_eq!(plan(huge, 256, 256).lanes, LaneWidth::U64);

        // The rolling row always reports its native u64.
        assert_eq!(plan(base, 8, 8).lanes, LaneWidth::U64);

        // A configured threshold must be representable in the lane word
        // (the fused abandon rule compares in W), so it is part of the
        // eligibility bound.
        assert_eq!(
            plan(base.with_threshold(32_766), 600, 600).lanes,
            LaneWidth::U16
        );
        assert_eq!(
            plan(base.with_threshold(32_767), 600, 600).lanes,
            LaneWidth::U32,
            "t ≥ u16::INF must exclude u16 lanes"
        );
        assert_eq!(
            plan(base.with_threshold(u64::from(u32::MAX)), 600, 600).lanes,
            LaneWidth::U64,
            "t ≥ u32::INF must exclude u32 lanes"
        );
        // Stripes take the ungated narrowest width, which for short
        // small-weight pairs is now u8 — the biased byte kernel stores
        // min(t, d·max_step) − applied_bias(d) exactly, so even a large
        // representable threshold keeps 64×64 fig4 inside the byte.
        assert_eq!(base.resolve_stripe_lanes(64, 64), LaneWidth::U8);
        assert_eq!(
            base.with_threshold(32_767).resolve_stripe_lanes(64, 64),
            LaneWidth::U8,
            "the u8 bound clamps the threshold by d·max_step"
        );
        assert_eq!(
            base.with_threshold(u64::MAX).resolve_stripe_lanes(64, 64),
            LaneWidth::U64,
            "t ≥ NEVER disables the clamp and excludes every finite word"
        );
        assert_eq!(
            base.with_lane_floor(LaneWidth::U16)
                .resolve_stripe_lanes(64, 64),
            LaneWidth::U16,
            "the lane floor still clamps striped widths from below"
        );
        assert_eq!(
            base.resolve_stripe_lanes(600, 600),
            LaneWidth::U16,
            "stripes obey the per-word bound: 600 + 600 exceeds the byte"
        );
        assert_eq!(
            base.with_threshold(32_767).resolve_stripe_lanes(600, 600),
            LaneWidth::U32,
            "stripes obey the threshold bound too"
        );
        // The unbanded path-bound ceiling: the trivial delete-all /
        // insert-all path costs (n + m)·indel (+ 2·open under affine
        // gaps), no optimal-path cell exceeds it, and everything above
        // it may clamp to the byte +∞ — so short affine and
        // short-query semi-global stripes now ride u8 too.
        let affine = base.with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
        assert_eq!(
            affine.resolve_stripe_lanes(64, 64),
            LaneWidth::U8,
            "affine 64×64 fig4: path bound 132, biased into the byte"
        );
        assert_eq!(
            affine.with_band(4).resolve_stripe_lanes(64, 64),
            LaneWidth::U16,
            "a band voids the trivial-path bound (the path leaves it)"
        );
        let semi = base.with_mode(AlignMode::SemiGlobal);
        assert_eq!(
            semi.resolve_stripe_lanes(100, 600),
            LaneWidth::U8,
            "semi-global's bound is query-only: n·indel < 127 suffices"
        );
        assert_eq!(
            semi.resolve_stripe_lanes(600, 600),
            LaneWidth::U16,
            "a 600-row query overflows the unbiased byte frontier"
        );

        // The lane floor clamps from below (A/B benchmarking knob).
        assert_eq!(
            plan(base.with_lane_floor(LaneWidth::U32), 256, 256).lanes,
            LaneWidth::U32
        );
        assert_eq!(
            plan(base.with_lane_floor(LaneWidth::U64), 256, 256).lanes,
            LaneWidth::U64
        );
    }

    #[test]
    fn mode_semantics_on_hand_picked_pairs() {
        // Semi-global: an exact occurrence is free under Levenshtein
        // weights, and ends where the occurrence ends.
        let cfg = AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal);
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let out = AlignEngine::new(cfg.with_strategy(s))
                .align(&packed("ACGT"), &packed("TTTTACGTTTTT"));
            assert_eq!(out.score, Time::ZERO, "{s}: exact occurrence is free");
        }

        // Local: the embedded 4-match region wins 4 · bonus.
        let local =
            AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores::blast()));
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let out = AlignEngine::new(local.with_strategy(s))
                .align(&packed("TTTTACGTTTTT"), &packed("CCCCACGTCCCC"));
            assert_eq!(out.score.cycles(), Some(8), "{s}: 4 matches × bonus 2");
        }

        // Affine: one length-4 gap costs open + 4, not 4 separate opens
        // (the rl_bio Gotoh example, raced).
        let affine = AlignConfig::new(RaceWeights::levenshtein())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 3 }));
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let out = AlignEngine::new(affine.with_strategy(s))
                .align(&packed("AAAATTTT"), &packed("AAAA"));
            assert_eq!(out.score.cycles(), Some(7), "{s}: open 3 + 4 extends");
        }

        // Empty operands in every mode.
        for mode in [
            AlignMode::SemiGlobal,
            AlignMode::Local(LocalScores::unit()),
            AlignMode::GlobalAffine(AffineWeights { open: 5 }),
        ] {
            let cfg = AlignConfig::new(RaceWeights::levenshtein()).with_mode(mode);
            let out = AlignEngine::new(cfg).align(&packed(""), &packed(""));
            assert_eq!(out.score, Time::ZERO, "{mode}: empty vs empty");
        }
        // Empty query in semi-global matches anywhere for free; an
        // empty pattern forces |q| pure insertions (+ one open, affine).
        let semi = AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal);
        assert_eq!(
            AlignEngine::new(semi)
                .align(&packed(""), &packed("ACGT"))
                .score,
            Time::ZERO
        );
        let aff = AlignConfig::new(RaceWeights::levenshtein())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 5 }));
        assert_eq!(
            AlignEngine::new(aff)
                .align(&packed("ACG"), &packed(""))
                .score,
            Time::from_cycles(8)
        );
    }

    #[test]
    fn band_disconnect_returns_never() {
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let cfg = AlignConfig::new(RaceWeights::fig4())
                .with_band(3)
                .with_strategy(s);
            let mut e = AlignEngine::new(cfg);
            let out = e.align(&packed("ACGTACGT"), &packed("AC"));
            assert!(out.score.is_never(), "|n-m| = 6 > band 3 ({s})");
            assert!(!out.early_terminated, "{s}");
        }
    }

    #[test]
    fn threshold_abandons_and_saves_cells() {
        let q = packed("AAAAAAAAAAAAAAAA");
        let p = packed("CCCCCCCCCCCCCCCC");
        let full = AlignEngine::new(AlignConfig::new(RaceWeights::fig4())).align(&q, &p);
        assert_eq!(full.score, Time::from_cycles(32), "all-indel worst case");
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let cfg = AlignConfig::new(RaceWeights::fig4())
                .with_threshold(8)
                .with_strategy(s);
            let out = AlignEngine::new(cfg).align(&q, &p);
            assert!(out.early_terminated, "{s}");
            assert!(out.score.is_never(), "{s}");
            assert_eq!(out.finished_score(), None, "{s}");
            assert!(
                out.cells_computed < full.cells_computed,
                "abandon must skip work ({s}): {} !< {}",
                out.cells_computed,
                full.cells_computed
            );
        }
    }

    #[test]
    fn scratch_is_reused_after_warmup() {
        for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            let mut e = AlignEngine::new(AlignConfig::new(RaceWeights::fig4()).with_strategy(s));
            let q = packed("ACGTACGTACGTACGT");
            let p = packed("TGCATGCATGCATGCA");
            let _ = e.align(&q, &p);
            let caps = e.scratch_capacities();
            for _ in 0..100 {
                let _ = e.align(&q, &p);
                assert_eq!(
                    e.scratch_capacities(),
                    caps,
                    "align must not reallocate ({s})"
                );
            }
        }
    }

    #[test]
    fn batch_preserves_input_order() {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let pairs: Vec<_> = ["A", "AC", "ACG", "ACGT", "ACGTA"]
            .iter()
            .map(|s| (packed(s), packed("ACGTACG")))
            .collect();
        let batch = batch_outcomes(&cfg, &pairs);
        let mut engine = AlignEngine::new(cfg);
        let seq: Vec<_> = pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
        assert_eq!(batch, seq);
    }

    #[test]
    fn batch_of_nothing() {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let report = align_batch::<Dna>(&cfg, &[], &ScanControl::new());
        assert!(report.outcomes.is_empty() && report.is_complete());
    }

    #[test]
    fn huge_weights_use_the_u64_lane_path_exactly() {
        // Weights too large for u32 lanes: the wavefront kernel must
        // fall back to saturating u64 lanes and still agree.
        let w = RaceWeights {
            matched: 1 << 40,
            mismatched: Some(1 << 41),
            indel: 1 << 40,
        };
        assert!(!fits_word(
            16,
            16,
            mode_max_step(AlignMode::Global, RawWeights::from_weights(w)),
            u64::from(<u32 as KernelWord>::INF)
        ));
        let q = packed("GATTCGAGATTCGAGA");
        let p = packed("ACTGAGAACTGAGAAC");
        let rolling =
            AlignEngine::new(AlignConfig::new(w).with_strategy(KernelStrategy::RollingRow))
                .align(&q, &p);
        let wave = AlignEngine::new(AlignConfig::new(w).with_strategy(KernelStrategy::Wavefront))
            .align(&q, &p);
        assert_eq!(rolling, wave);
    }

    /// The per-diagonal form of [`u8_admits`]: the windowed version
    /// must decide exactly what this exhaustive scan decides.
    fn u8_admits_per_diagonal(
        n: usize,
        m: usize,
        mode: AlignMode,
        w: RawWeights,
        threshold: Option<u64>,
        band: Option<usize>,
    ) -> bool {
        let inf = u64::from(<u8 as KernelWord>::INF);
        if threshold.is_some_and(|t| t == NEVER) {
            return false;
        }
        if let AlignMode::Local(s) = mode {
            return fits_word(n, m, s.matched, inf);
        }
        let max_step = mode_max_step(mode, w);
        let m2 = u8_bias_rate(mode, w);
        let t = threshold.unwrap_or(u64::MAX);
        let path_bound = if band.is_none() {
            unbanded_path_bound(mode, w, n, m)
        } else {
            u64::MAX
        };
        (0..=(n + m)).all(|d| {
            let ceiling = t.min((d as u64).saturating_mul(max_step)).min(path_bound);
            ceiling.saturating_sub(applied_bias(d, m2)) < inf
        })
    }

    #[test]
    fn windowed_u8_admits_equals_per_diagonal_scan() {
        let weights = [
            RaceWeights::fig4(),
            RaceWeights::fig2b(),
            RaceWeights::levenshtein(),
            RaceWeights {
                matched: 0,
                mismatched: None,
                indel: 3,
            },
            RaceWeights {
                matched: 2,
                mismatched: Some(5),
                indel: 4,
            },
        ];
        let modes = [
            AlignMode::Global,
            AlignMode::SemiGlobal,
            AlignMode::GlobalAffine(AffineWeights { open: 2 }),
            AlignMode::Local(LocalScores::blast()),
        ];
        let thresholds = [
            None,
            Some(0),
            Some(40),
            Some(126),
            Some(127),
            Some(300),
            Some(NEVER),
        ];
        let bands = [None, Some(0), Some(5), Some(40)];
        let mut cases = 0_u64;
        let mut check = |n, m, mode, w, threshold, band| {
            assert_eq!(
                u8_admits(n, m, mode, w, threshold, band),
                u8_admits_per_diagonal(n, m, mode, w, threshold, band),
                "{n}x{m} {mode} {w:?} t={threshold:?} band={band:?}"
            );
            cases += 1;
        };
        // A coarse grid over every axis ...
        for w in weights.map(RawWeights::from_weights) {
            for mode in modes {
                for threshold in thresholds {
                    for band in bands {
                        for n in (0..=300).step_by(11) {
                            for m in (0..=300).step_by(13) {
                                check(n, m, mode, w, threshold, band);
                            }
                        }
                    }
                }
            }
        }
        // ... and every shape around the byte ceiling, where eligibility
        // flips.
        let fig4 = RawWeights::from_weights(RaceWeights::fig4());
        for mode in modes {
            for threshold in [None, Some(126)] {
                for n in 0..=160 {
                    for m in 0..=160 {
                        check(n, m, mode, fig4, threshold, None);
                    }
                }
            }
        }
        assert!(cases > 500_000);
    }

    proptest! {
        /// The length bound the ratcheted scan prunes on never exceeds
        /// the exact score, for global and affine races under matched-0,
        /// infinite-mismatch and heavier-indel weights, banded or not.
        #[test]
        fn score_lower_bound_never_exceeds_the_exact_score(
            qs in "[ACGT]{0,40}",
            ps in "[ACGT]{0,40}",
            scheme in 0_usize..5,
            open in 0_u64..4,
            band_raw in 0_usize..12,
        ) {
            let w = [
                RaceWeights::fig4(),
                RaceWeights::fig2b(),
                RaceWeights::levenshtein(),
                RaceWeights { matched: 0, mismatched: None, indel: 2 },
                RaceWeights { matched: 3, mismatched: Some(4), indel: 1 },
            ][scheme];
            // band_raw ≥ 10 encodes "unbanded".
            let band = (band_raw < 10).then_some(band_raw * 3);
            let (q, p) = (packed(&qs), packed(&ps));
            for mode in [AlignMode::Global, AlignMode::GlobalAffine(AffineWeights { open })] {
                let mut cfg = AlignConfig::new(w).with_mode(mode);
                cfg.band = band;
                let score = AlignEngine::new(cfg).align(&q, &p).score;
                let bound =
                    score_lower_bound(mode, RawWeights::from_weights(w), q.len(), p.len());
                prop_assert!(
                    Time::from_cycles(bound) <= score,
                    "{mode} {w:?} band {band:?}: bound {bound} > score {score:?}"
                );
            }
        }
    }

    proptest! {
        /// The rolling-row engine equals the allocating fixed point of
        /// `run_functional` on random pairs, for every weight scheme.
        #[test]
        fn engine_equals_run_functional(qs in "[ACGT]{0,20}", ps in "[ACGT]{0,20}") {
            let (q, p) = (dna(&qs), dna(&ps));
            for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
                let reference = AlignmentRace::new(&q, &p, w).run_functional().score();
                let mut e = AlignEngine::new(AlignConfig::new(w));
                let out = e.align(&PackedSeq::from_seq(&q), &PackedSeq::from_seq(&p));
                prop_assert_eq!(out.score, reference);
            }
        }

        /// Wavefront == rolling-row on random pairs: score, cell count
        /// and early-termination flag alike, for every weight scheme.
        #[test]
        fn wavefront_equals_rolling_row(qs in "[ACGT]{0,40}", ps in "[ACGT]{0,40}") {
            let (q, p) = (packed(&qs), packed(&ps));
            for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
                let rolling = AlignEngine::new(
                    AlignConfig::new(w).with_strategy(KernelStrategy::RollingRow),
                ).align(&q, &p);
                let wave = AlignEngine::new(
                    AlignConfig::new(w).with_strategy(KernelStrategy::Wavefront),
                ).align(&q, &p);
                prop_assert_eq!(rolling, wave);
            }
        }

        /// Banded wavefront == banded rolling-row, including the exact
        /// in-band cell count, across band widths (empty and
        /// single-cell diagonals included).
        #[test]
        fn banded_wavefront_equals_rolling_row(
            qs in "[ACGT]{0,24}", ps in "[ACGT]{0,24}", band in 0_usize..26
        ) {
            let (q, p) = (packed(&qs), packed(&ps));
            let w = RaceWeights::fig4();
            let rolling = AlignEngine::new(
                AlignConfig::new(w).with_band(band).with_strategy(KernelStrategy::RollingRow),
            ).align(&q, &p);
            let wave = AlignEngine::new(
                AlignConfig::new(w).with_band(band).with_strategy(KernelStrategy::Wavefront),
            ).align(&q, &p);
            prop_assert_eq!(rolling.score, wave.score);
            prop_assert_eq!(rolling.cells_computed, wave.cells_computed);
            prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        }

        /// Thresholded wavefront classifies identically to thresholded
        /// rolling-row (both are exact: abandoned iff score > t).
        #[test]
        fn thresholded_wavefront_equals_rolling_row(
            qs in "[ACGT]{1,24}", ps in "[ACGT]{1,24}", t in 0_u64..40
        ) {
            let (q, p) = (packed(&qs), packed(&ps));
            let w = RaceWeights::fig4();
            let rolling = AlignEngine::new(
                AlignConfig::new(w).with_threshold(t).with_strategy(KernelStrategy::RollingRow),
            ).align(&q, &p);
            let wave = AlignEngine::new(
                AlignConfig::new(w).with_threshold(t).with_strategy(KernelStrategy::Wavefront),
            ).align(&q, &p);
            prop_assert_eq!(rolling.score, wave.score);
            prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        }

        /// The wavefront full-grid fill produces the identical grid to
        /// the rolling-row fill (same values, same cell count).
        #[test]
        fn wavefront_grid_equals_rolling_grid(
            qs in "[ACGT]{0,16}", ps in "[ACGT]{0,16}", band_raw in 0_usize..19
        ) {
            // band_raw == 18 encodes "unbanded" (the shim has no option strategy).
            let band = (band_raw < 18).then_some(band_raw);
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig2b();
            let q_codes: Vec<u8> = q.codes().collect();
            let p_codes: Vec<u8> = p.codes().collect();
            let mut g_row = Vec::new();
            let mut g_wave = Vec::new();
            let c_row = fill_grid_with(
                &q_codes, &p_codes, w, band, KernelStrategy::RollingRow, &mut g_row,
            );
            let c_wave = fill_grid_with(
                &q_codes, &p_codes, w, band, KernelStrategy::Wavefront, &mut g_wave,
            );
            prop_assert_eq!(g_row, g_wave);
            prop_assert_eq!(c_row, c_wave);
        }

        /// The fused band equals the standalone banded race, score and
        /// cell count alike.
        #[test]
        fn fused_band_equals_banded_race(
            qs in "[ACGT]{0,16}", ps in "[ACGT]{0,16}", band in 0_usize..18
        ) {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let reference = banded_race(&q, &p, w, band);
            let cfg = AlignConfig::new(w).with_band(band);
            let out = AlignEngine::new(cfg)
                .align(&PackedSeq::from_seq(&q), &PackedSeq::from_seq(&p));
            prop_assert_eq!(out.score, reference.score);
            prop_assert_eq!(out.cells_computed, reference.cells_built as u64);
        }

        /// The fused threshold classifies exactly like `threshold_race`:
        /// abandoned iff the true score exceeds the threshold.
        #[test]
        fn fused_threshold_is_exact(qs in "[ACGT]{1,14}", ps in "[ACGT]{1,14}", t in 0_u64..30) {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let reference = threshold_race(&q, &p, w, t);
            let cfg = AlignConfig::new(w).with_threshold(t);
            let out = AlignEngine::new(cfg)
                .align(&PackedSeq::from_seq(&q), &PackedSeq::from_seq(&p));
            match reference {
                ThresholdOutcome::Within { score } => {
                    prop_assert!(!out.early_terminated);
                    prop_assert_eq!(out.score.cycles(), Some(score));
                }
                ThresholdOutcome::Exceeded => prop_assert!(out.early_terminated),
            }
        }

        /// Batch output equals the sequential loop on random batches.
        #[test]
        fn batch_equals_sequential(seqs in collection::vec("[ACGT]{0,12}", 0..12)) {
            let cfg = AlignConfig::new(RaceWeights::fig4());
            let pairs: Vec<_> = seqs
                .iter()
                .map(|s| (packed(s), packed("GATTCGA")))
                .collect();
            let batch = batch_outcomes(&cfg, &pairs);
            let mut engine = AlignEngine::new(cfg);
            for (i, (q, p)) in pairs.iter().enumerate() {
                prop_assert_eq!(batch[i], engine.align(q, p));
            }
        }
    }
}
