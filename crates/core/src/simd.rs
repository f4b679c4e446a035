//! Portable SIMD-style lane operations for the wavefront kernel.
//!
//! The Race Logic array evaluates every cell of an anti-diagonal in the
//! same clock cycle — the cells are mutually independent, which is the
//! whole hardware win. The software twin of that claim is this module:
//! fixed-width rows of `L` kernel words updated by straight-line,
//! branch-free code with **no loop-carried dependency**, which LLVM
//! auto-vectorizes on every target that has vector registers and
//! compiles to plain scalar code everywhere else. That scalar fallback
//! is not a separate path: the lane loops *are* the fallback, so the
//! offline-shim build (no nightly `std::simd`, no `unsafe`, no
//! intrinsics) stays green by construction. If/when `std::simd`
//! stabilizes, only the bodies of the lane loops below need to change.
//!
//! Four kernel word types implement [`KernelWord`]:
//!
//! - [`u64`] — the engine's native representation: `+∞` is `u64::MAX`
//!   (the bit pattern of `rl_temporal::Time::NEVER`) and every add
//!   saturates. Always correct, twice as many instructions per vector
//!   register.
//! - [`u32`] — the first throughput representation, used when the caller
//!   proves no finite cell value can reach [`u32::INF`] (see
//!   `race_logic::engine`'s eligibility bound). `+∞` is `u32::MAX / 2`,
//!   adds are plain wrapping-free adds, and every stored cell is clamped
//!   back to `INF`, so the invariant `value ≤ INF` is maintained without
//!   saturating arithmetic. Twice the lanes per register.
//! - [`u16`] — the short-read representation, same clamp discipline with
//!   `+∞` at `u16::MAX / 2`: another 2× lane width when
//!   `(n + m + 2) · max_finite_weight < 2¹⁵`, which holds for every
//!   read-length workload up to ~16 kbp at unit weights. Like the `u32`
//!   path it is exact, not an approximation — the eligibility bound
//!   guarantees no finite cell value ever meets the clamp.
//! - [`u8`] — the Farrar-style byte representation, `+∞` at
//!   `u8::MAX / 2 = 127` with saturating adds: 32 pairs per 256-bit op
//!   in the striped batch layout. The 127-value headroom is far too
//!   small for raw scores, so the striped kernel runs it under a
//!   **running bias**: a deterministic per-diagonal amount (a pure
//!   function of the diagonal index and the weights' lower-bound rate)
//!   is subtracted from every stored value and re-added at readout.
//!   Eligibility is the exact per-diagonal simulation in
//!   `race_logic::engine` (`u8_admits`), which proves every value that
//!   must stay exact fits below the byte ceiling at every diagonal.
//!
//! The linear recurrence's one kernel is [`diag_update_lanes`]: one
//! anti-diagonal segment of the min-plus alignment recurrence, reading
//! three neighbour slices and two symbol-code slices, writing one output
//! slice, and returning the segment minimum (for fused early
//! termination). [`diag_update_local_lanes`] and
//! [`affine_diag_update_lanes`] are its max-plus and affine-gap
//! counterparts. Each serves the striped batch at `L` lanes and the
//! per-pair wavefront at one.

/// An unsigned word the wavefront kernel can do min-plus arithmetic in.
///
/// Implementors must uphold: `INF` is an absorbing "unreachable" value,
/// `add_weight` never wraps for operands `≤ INF` with weights `≤ INF`,
/// and `min(x, INF) == x` for every representable cell value the kernel
/// stores.
pub trait KernelWord: Copy + Ord + std::fmt::Debug {
    /// The `+∞` sentinel of this representation.
    const INF: Self;
    /// The additive identity.
    const ZERO: Self;
    /// Shortest **one-lane** segment [`diag_update_lanes`] runs as a
    /// plain indexed loop (LLVM's *loop* vectorizer); shorter one-lane
    /// segments, and every striped one, take its chunked lane loop. For
    /// the narrow words this is 32: the loop vectorizer's code only
    /// enters its vector body past roughly that trip count (below it
    /// the flat form degrades to scalar, while the 8-wide block form
    /// the per-pair kernel then had still used vectors for every full
    /// block), and routing shorter segments to the flat loop made `u32`
    /// band-16 wavefronts (17-cell segments) 1.35× slower than that
    /// block form at 256² and 1.37× at 1024². The chunked loop, which
    /// replaced the block form, beats it on those segments too (`docs/KERNELS.md`,
    /// "One linear lane kernel"). Above it the loop vectorizer produces
    /// the best `u16` **and** `u32` code (clean widening compare +
    /// `pminuw`/`pminud`): per-pair wavefront at length 256 went
    /// 13.2k → 24.5k pairs/s (≈ 1.9×) and at length 64 165k → 214k
    /// (≈ 1.3×) on a 1-core container. `u64` takes the flat loop at
    /// every length: per-pair `u64` wavefronts ran in 0.33× the block
    /// form's time at 256², 0.30× at 1024² and 0.36× at 1024² band 16
    /// (0.86× at 256² band 16), on a 2-vCPU x86-64-v2 Xeon, and sending
    /// its segments under 32 cells to the chunked loop cost 4–14%.
    const FLAT_MIN_LEN: usize;
    /// Lowers a raw `u64` kernel value (where `u64::MAX` is `+∞`) into
    /// this representation, clamping to [`KernelWord::INF`].
    fn clamp_raw(raw: u64) -> Self;
    /// Raises a value back to the raw `u64` representation
    /// ([`KernelWord::INF`] maps to `u64::MAX`).
    fn to_raw(self) -> u64;
    /// `self + weight` without wrapping: saturating for `u64`, a plain
    /// add for `u32` (whose caller-guaranteed domain makes wrapping
    /// impossible: both operands are `≤ INF = u32::MAX / 2`).
    fn add_weight(self, weight: Self) -> Self;
    /// `max(0, self − weight)` — saturating subtraction. The max-plus
    /// (local-alignment) kernel's whole zero-reset is this operation:
    /// a Smith–Waterman cell clamps at zero exactly where an unsigned
    /// subtraction saturates, so the same unsigned lane words that race
    /// min-plus arrivals also run the AND-race dual.
    fn sub_weight(self, weight: Self) -> Self;
    /// The stored value as a `u32`, saturating at `u32::MAX`: never
    /// above the stored value, so a lower bound on it at every width.
    /// The `+∞` sentinel reads as its own numeric value, which is what a
    /// bound needs — a saturated cell only proves "at least this much".
    fn floor_u32(self) -> u32;
}

impl KernelWord for u64 {
    const INF: Self = u64::MAX;
    const ZERO: Self = 0;
    const FLAT_MIN_LEN: usize = 0;

    #[inline(always)]
    fn clamp_raw(raw: u64) -> Self {
        raw
    }

    #[inline(always)]
    fn to_raw(self) -> u64 {
        self
    }

    #[inline(always)]
    fn add_weight(self, weight: Self) -> Self {
        self.saturating_add(weight)
    }

    #[inline(always)]
    fn sub_weight(self, weight: Self) -> Self {
        self.saturating_sub(weight)
    }

    #[inline(always)]
    fn floor_u32(self) -> u32 {
        // Cast is lossless after the clamp.
        #[allow(clippy::cast_possible_truncation)]
        {
            self.min(u64::from(u32::MAX)) as u32
        }
    }
}

impl KernelWord for u32 {
    const INF: Self = u32::MAX / 2;
    const ZERO: Self = 0;
    const FLAT_MIN_LEN: usize = 32;

    #[inline(always)]
    fn clamp_raw(raw: u64) -> Self {
        if raw >= u64::from(Self::INF) {
            Self::INF
        } else {
            // Cast is lossless: the value is below u32::MAX / 2.
            #[allow(clippy::cast_possible_truncation)]
            {
                raw as u32
            }
        }
    }

    #[inline(always)]
    fn to_raw(self) -> u64 {
        if self >= Self::INF {
            u64::MAX
        } else {
            u64::from(self)
        }
    }

    #[inline(always)]
    fn add_weight(self, weight: Self) -> Self {
        // Both operands ≤ INF = u32::MAX / 2, so the sum fits; the
        // caller clamps results back to INF before storing them.
        self + weight
    }

    #[inline(always)]
    fn sub_weight(self, weight: Self) -> Self {
        self.saturating_sub(weight)
    }

    #[inline(always)]
    fn floor_u32(self) -> u32 {
        self
    }
}

impl KernelWord for u16 {
    const INF: Self = u16::MAX / 2;
    const ZERO: Self = 0;
    const FLAT_MIN_LEN: usize = 32;

    #[inline(always)]
    fn clamp_raw(raw: u64) -> Self {
        if raw >= u64::from(Self::INF) {
            Self::INF
        } else {
            // Cast is lossless: the value is below u16::MAX / 2.
            #[allow(clippy::cast_possible_truncation)]
            {
                raw as u16
            }
        }
    }

    #[inline(always)]
    fn to_raw(self) -> u64 {
        if self >= Self::INF {
            u64::MAX
        } else {
            u64::from(self)
        }
    }

    #[inline(always)]
    fn add_weight(self, weight: Self) -> Self {
        // Both operands ≤ INF = u16::MAX / 2, so the sum fits in u16;
        // the caller clamps results back to INF before storing them.
        self + weight
    }

    #[inline(always)]
    fn sub_weight(self, weight: Self) -> Self {
        self.saturating_sub(weight)
    }

    #[inline(always)]
    fn floor_u32(self) -> u32 {
        u32::from(self)
    }
}

impl KernelWord for u8 {
    const INF: Self = u8::MAX / 2;
    const ZERO: Self = 0;
    const FLAT_MIN_LEN: usize = 32;

    #[inline(always)]
    fn clamp_raw(raw: u64) -> Self {
        if raw >= u64::from(Self::INF) {
            Self::INF
        } else {
            // Cast is lossless: the value is below u8::MAX / 2.
            #[allow(clippy::cast_possible_truncation)]
            {
                raw as u8
            }
        }
    }

    #[inline(always)]
    fn to_raw(self) -> u64 {
        if self >= Self::INF {
            u64::MAX
        } else {
            u64::from(self)
        }
    }

    #[inline(always)]
    fn add_weight(self, weight: Self) -> Self {
        // Saturating byte add (`paddusb`-shaped on x86). With both
        // operands ≤ INF = 127 the sum fits in u8 and saturation never
        // actually triggers, but the saturating form keeps the
        // invariant unconditional; the caller clamps results back to
        // INF before storing them.
        self.saturating_add(weight)
    }

    #[inline(always)]
    fn sub_weight(self, weight: Self) -> Self {
        self.saturating_sub(weight)
    }

    #[inline(always)]
    fn floor_u32(self) -> u32 {
        u32::from(self)
    }
}

/// The three alignment weights lowered to one kernel word type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWeights<W> {
    /// Diagonal weight when the symbol codes match.
    pub matched: W,
    /// Diagonal weight when they differ ([`KernelWord::INF`] encodes the
    /// paper's mismatch → ∞ modification).
    pub mismatched: W,
    /// Horizontal/vertical (insertion/deletion) weight.
    pub indel: W,
}

/// One anti-diagonal segment of the linear min-plus alignment
/// recurrence:
///
/// ```text
/// out[x] = min(up[x] + indel, left[x] + indel,
///              diag[x] + (q[x] == p[x] ? matched : mismatched))
/// ```
///
/// clamped to [`KernelWord::INF`], for `x` in `0..out.len()`. Returns
/// the minimum value written — the frontier minimum the engine's fused
/// early termination tests against.
///
/// The segment is striped (lane-interleaved): `rows × L` cells with
/// lane `l` of every row at offset `t ≡ l (mod L)`; the per-pair
/// wavefront is `L = 1`. The five input slices must all have exactly
/// `out.len()` elements, a multiple of `L`; this is debug-asserted.
///
/// Codegen shape: the code is one arithmetic in two loop shapes. The
/// striped sweep once reused a separate per-pair kernel whose flat-loop
/// form vectorizes cleanly *standalone* — but inlined into the (large,
/// fully-flattened) sweep body LLVM's loop vectorizer gave the u8 copy
/// a much worse lowering, and 32-lane byte stripes ran ~40% slower than
/// 16-lane u16 stripes on the same workload. Like
/// [`diag_update_local_lanes`], iterating the row dimension via
/// `chunks_exact(L)` with a branch-free inner lane loop over exactly
/// `L`-sized chunks drops the bound checks, and staging each narrow
/// row in a local array (see the loop) lets the lane loop vectorize
/// whole wherever it is inlined. The per-lane running
/// minima accumulate into a fixed-`L` block with a single horizontal
/// reduction at the end, fusing the frontier-minimum pass the fused
/// early termination needs. A one-lane segment of at least
/// [`KernelWord::FLAT_MIN_LEN`] cells is a plain run of cells, and
/// there the flat indexed loop still wins: without it `u16` 1024²
/// per-pair rows ran 1.8–2.4× slower. Shorter one-lane segments took
/// the per-pair kernel's 8-wide block form until the chunked loop was
/// measured faster on them (`docs/KERNELS.md`, "One linear lane
/// kernel").
#[inline]
pub fn diag_update_lanes<W: KernelWord, const L: usize>(
    up: &[W],
    left: &[W],
    diag: &[W],
    q: &[u8],
    p: &[u8],
    w: LaneWeights<W>,
    out: &mut [W],
) -> W {
    crate::supervisor::fp_hit("simd-diag");
    let LaneWeights {
        matched,
        mismatched,
        indel,
    } = w;
    let len = out.len();
    debug_assert_eq!(len % L, 0);
    debug_assert_eq!(up.len(), len);
    debug_assert_eq!(left.len(), len);
    debug_assert_eq!(diag.len(), len);
    debug_assert_eq!(q.len(), len);
    debug_assert_eq!(p.len(), len);

    if L == 1 && len >= W::FLAT_MIN_LEN {
        // Plain indexed loop: identical arithmetic, shaped for LLVM's
        // loop vectorizer (which emits the clean widened compare +
        // vector-min code for u16 that the chunked loop misses).
        let mut seg_min = W::INF;
        for i in 0..len {
            let dw = if q[i] == p[i] { matched } else { mismatched };
            let cell = up[i]
                .add_weight(indel)
                .min(left[i].add_weight(indel))
                .min(diag[i].add_weight(dw))
                .min(W::INF);
            out[i] = cell;
            seg_min = seg_min.min(cell);
        }
        return seg_min;
    }
    // A row of at most two 128-bit registers is computed into a local
    // array and stored whole: writing it straight into `out` kept the
    // inner loop guarded by an aliasing check against the inputs and
    // spilled its registers, which cost the `u16` × 16 stripes a quarter
    // of their time. Wider rows (`u64` × 8) run 2–3× slower staged.
    let staged = std::mem::size_of::<[W; L]>() <= 32;
    let mut acc = [W::INF; L];
    for ((((o, u), lf), dg), (qq, pp)) in out
        .chunks_exact_mut(L)
        .zip(up.chunks_exact(L))
        .zip(left.chunks_exact(L))
        .zip(diag.chunks_exact(L))
        .zip(q.chunks_exact(L).zip(p.chunks_exact(L)))
    {
        let mut row = [W::INF; L];
        let dst: &mut [W] = if staged { &mut row } else { o };
        for l in 0..L {
            let dw = if qq[l] == pp[l] { matched } else { mismatched };
            let cell = u[l]
                .add_weight(indel)
                .min(lf[l].add_weight(indel))
                .min(dg[l].add_weight(dw))
                .min(W::INF);
            dst[l] = cell;
            acc[l] = acc[l].min(cell);
        }
        if staged {
            o.copy_from_slice(&row);
        }
    }
    let mut seg_min = W::INF;
    for &x in &acc {
        seg_min = seg_min.min(x);
    }
    seg_min
}

/// One anti-diagonal segment of the **max-plus (local / Smith–Waterman)**
/// recurrence — the AND-race dual of [`diag_update_lanes`]:
///
/// ```text
/// out[x] = max(up[x] ⊖ gap, left[x] ⊖ gap,
///              q[x] == p[x] ? diag[x] + matched : diag[x] ⊖ mismatched)
/// ```
///
/// where `⊖` is saturating subtraction — the zero-floor saturation *is*
/// Smith–Waterman's empty-alignment reset (`max(0, ·)`), so every
/// candidate is already clamped at zero and no explicit reset term is
/// needed. Weights are interpreted as `matched` = match **bonus**,
/// `mismatched` = mismatch **penalty**, `indel` = gap **penalty** (all
/// magnitudes). Values never reach [`KernelWord::INF`]: the caller
/// proves `(n + m + 2) · matched < INF` before choosing a word, and
/// penalties only shrink values, so the plain-add path stays in domain
/// at every width.
///
/// The segment is striped (lane-interleaved): `rows × L` cells with lane
/// `l` of every row at offset `t ≡ l (mod L)`; the per-pair local
/// wavefront is `L = 1`. The per-lane running maxima — the best-cell
/// scores local mode tracks — are accumulated **inside** the update
/// loop into `best`, fusing what would otherwise be a second full pass
/// over the diagonal.
///
/// **Codegen shape matters here.** The row dimension iterates via
/// `chunks_exact(L)` so every inner access is against an exactly
/// `L`-sized chunk: LLVM drops all bounds checks and vectorizes the
/// branch-free inner lane loop whole. The first cut indexed `t = row +
/// l` into the full slices instead, and the per-index bound checks kept
/// the loop scalar — with real (unpredictable) codes the mispredicted
/// match select made the striped local sweep ~9× slower than this form
/// (64k → 500k+ pairs/s at 500 × 64 bp on the 1-core container).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn diag_update_local_lanes<W: KernelWord, const L: usize>(
    up: &[W],
    left: &[W],
    diag: &[W],
    q: &[u8],
    p: &[u8],
    w: LaneWeights<W>,
    out: &mut [W],
    best: &mut [W; L],
) {
    let LaneWeights {
        matched,
        mismatched,
        indel,
    } = w;
    let len = out.len();
    debug_assert_eq!(len % L, 0);
    debug_assert_eq!(up.len(), len);
    debug_assert_eq!(left.len(), len);
    debug_assert_eq!(diag.len(), len);
    debug_assert_eq!(q.len(), len);
    debug_assert_eq!(p.len(), len);

    let mut acc = *best;
    for ((((o, u), lf), dg), (qq, pp)) in out
        .chunks_exact_mut(L)
        .zip(up.chunks_exact(L))
        .zip(left.chunks_exact(L))
        .zip(diag.chunks_exact(L))
        .zip(q.chunks_exact(L).zip(p.chunks_exact(L)))
    {
        for l in 0..L {
            // The diagonal term selects between *weights* — `(+matched,
            // −0)` on a match, `(+0, −mismatched)` on a mismatch — then
            // applies one unconditional add and one saturating sub, which
            // the loop vectorizer lowers to compare + blend + vector ops
            // (selecting between two computed *expressions* instead was
            // measured ≈ 5× slower on the striped layout).
            let eq = qq[l] == pp[l];
            let aw = if eq { matched } else { W::ZERO };
            let sw = if eq { W::ZERO } else { mismatched };
            let d = dg[l].add_weight(aw).sub_weight(sw);
            let cell = u[l].sub_weight(indel).max(lf[l].sub_weight(indel)).max(d);
            o[l] = cell;
            acc[l] = acc[l].max(cell);
        }
    }
    *best = acc;
}

/// The three affine-gap weights lowered to one kernel word type:
/// `sub` is the (match/mismatch-selected) diagonal weight pair,
/// `indel` the gap-extension weight and `open` the one-time gap-opening
/// surcharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineLaneWeights<W> {
    /// Diagonal weight when the symbol codes match.
    pub matched: W,
    /// Diagonal weight when they differ ([`KernelWord::INF`] = forbidden).
    pub mismatched: W,
    /// Gap-extension weight (the linear indel weight).
    pub indel: W,
    /// Gap-opening surcharge: a length-`L` gap costs `open + L · indel`.
    pub open: W,
}

/// One anti-diagonal segment of the **three-plane affine-gap** (Gotoh)
/// recurrence — the "three racing planes with cross-plane edges" layout:
///
/// ```text
/// M[x]  = min(M₂[x], X₂[x], Y₂[x]) + (q[x] == p[x] ? matched : mismatched)
/// X[x]  = min(min(M₁ᵤ[x], Y₁ᵤ[x]) + open + indel, X₁ᵤ[x] + indel)   (gap in P, consuming Q)
/// Y[x]  = min(min(M₁ₗ[x], X₁ₗ[x]) + open + indel, Y₁ₗ[x] + indel)   (gap in Q, consuming P)
/// ```
///
/// `*₁ᵤ` slices are the *up* neighbours on diagonal `d − 1`, `*₁ₗ` the
/// *left* neighbours on `d − 1`, `*₂` the diagonal neighbours on
/// `d − 2` — each plane reads the same fixed offsets as the linear
/// kernel, so the cross-plane edges cost three extra mins, not a new
/// memory layout. All adds clamp to [`KernelWord::INF`]. Returns the
/// minimum value written **across all three planes** and every lane —
/// the frontier minimum the fused early termination tests against
/// (sound for the same reason as the linear kernel: every alignment
/// path visits one state per crossed cell, and weights are
/// non-negative).
///
/// The segment is striped (lane-interleaved): `rows × L` cells per plane
/// with lane `l` of every row at offset `t ≡ l (mod L)`; the per-pair
/// affine wavefront is `L = 1`.
///
/// Codegen shape: the row dimension advances in exact `L`-sized array
/// chunks (`try_into` per row) so the
/// branch-free inner lane loop carries no bounds checks and the loop
/// vectorizer lowers it whole — the same lesson as
/// [`diag_update_local_lanes`], where the indexed form stayed scalar and
/// ran ~9× slower.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn affine_diag_update_lanes<W: KernelWord, const L: usize>(
    m1_up: &[W],
    x1_up: &[W],
    y1_up: &[W],
    m1_left: &[W],
    x1_left: &[W],
    y1_left: &[W],
    m2: &[W],
    x2: &[W],
    y2: &[W],
    q: &[u8],
    p: &[u8],
    w: AffineLaneWeights<W>,
    m_out: &mut [W],
    x_out: &mut [W],
    y_out: &mut [W],
) -> W {
    let len = m_out.len();
    debug_assert_eq!(len % L, 0);
    debug_assert!(
        [
            m1_up.len(),
            x1_up.len(),
            y1_up.len(),
            m1_left.len(),
            x1_left.len(),
            y1_left.len(),
            m2.len(),
            x2.len(),
            y2.len(),
            q.len(),
            p.len(),
            x_out.len(),
            y_out.len(),
        ]
        .iter()
        .all(|&l| l == len),
        "striped affine segment slices must agree"
    );
    let open_ext = w.open.add_weight(w.indel).min(W::INF);
    let mut acc = [W::INF; L];
    let rows = len / L;
    for r in 0..rows {
        let b = r * L;
        let mu: &[W; L] = m1_up[b..b + L].try_into().expect("lane block");
        let xu: &[W; L] = x1_up[b..b + L].try_into().expect("lane block");
        let yu: &[W; L] = y1_up[b..b + L].try_into().expect("lane block");
        let ml: &[W; L] = m1_left[b..b + L].try_into().expect("lane block");
        let xl: &[W; L] = x1_left[b..b + L].try_into().expect("lane block");
        let yl: &[W; L] = y1_left[b..b + L].try_into().expect("lane block");
        let md: &[W; L] = m2[b..b + L].try_into().expect("lane block");
        let xd: &[W; L] = x2[b..b + L].try_into().expect("lane block");
        let yd: &[W; L] = y2[b..b + L].try_into().expect("lane block");
        let qq: &[u8; L] = q[b..b + L].try_into().expect("lane block");
        let pp: &[u8; L] = p[b..b + L].try_into().expect("lane block");
        let mo: &mut [W; L] = (&mut m_out[b..b + L]).try_into().expect("lane block");
        let xo: &mut [W; L] = (&mut x_out[b..b + L]).try_into().expect("lane block");
        let yo: &mut [W; L] = (&mut y_out[b..b + L]).try_into().expect("lane block");
        for l in 0..L {
            let dw = if qq[l] == pp[l] {
                w.matched
            } else {
                w.mismatched
            };
            let m = md[l].min(xd[l]).min(yd[l]).add_weight(dw).min(W::INF);
            let x = mu[l]
                .min(yu[l])
                .add_weight(open_ext)
                .min(xu[l].add_weight(w.indel))
                .min(W::INF);
            let y = ml[l]
                .min(xl[l])
                .add_weight(open_ext)
                .min(yl[l].add_weight(w.indel))
                .min(W::INF);
            mo[l] = m;
            xo[l] = x;
            yo[l] = y;
            acc[l] = acc[l].min(m).min(x).min(y);
        }
    }
    let mut seg_min = W::INF;
    for &x in &acc {
        seg_min = seg_min.min(x);
    }
    seg_min
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference for `diag_update_lanes`, in `u64`.
    fn reference<W: KernelWord>(
        up: &[W],
        left: &[W],
        diag: &[W],
        q: &[u8],
        p: &[u8],
        w: LaneWeights<W>,
    ) -> (Vec<W>, W) {
        let mut out = Vec::with_capacity(up.len());
        let mut m = W::INF;
        for i in 0..up.len() {
            let dw = if q[i] == p[i] {
                w.matched
            } else {
                w.mismatched
            };
            let cell = up[i]
                .add_weight(w.indel)
                .min(left[i].add_weight(w.indel))
                .min(diag[i].add_weight(dw))
                .min(W::INF);
            m = m.min(cell);
            out.push(cell);
        }
        (out, m)
    }

    #[test]
    fn u32_roundtrip_and_clamp() {
        assert_eq!(u32::clamp_raw(0), 0);
        assert_eq!(u32::clamp_raw(41), 41);
        assert_eq!(u32::clamp_raw(u64::MAX), u32::INF);
        assert_eq!(u32::clamp_raw(u64::from(u32::INF) + 7), u32::INF);
        assert_eq!(u32::INF.to_raw(), u64::MAX);
        assert_eq!(77_u32.to_raw(), 77);
    }

    #[test]
    fn u64_is_the_identity_representation() {
        assert_eq!(u64::clamp_raw(u64::MAX), u64::MAX);
        assert_eq!(u64::MAX.to_raw(), u64::MAX);
        assert_eq!(u64::MAX.add_weight(3), u64::MAX, "saturates at +∞");
    }

    #[test]
    fn u32_inf_is_absorbing_under_add_and_clamp() {
        // INF + INF must not wrap, and min(·, INF) restores the invariant.
        let x = u32::INF.add_weight(u32::INF);
        assert!(x >= u32::INF);
        assert_eq!(x.min(u32::INF), u32::INF);
    }

    #[test]
    fn u16_roundtrip_clamp_and_absorption() {
        assert_eq!(u16::clamp_raw(0), 0);
        assert_eq!(u16::clamp_raw(41), 41);
        assert_eq!(u16::clamp_raw(u64::MAX), u16::INF);
        assert_eq!(u16::clamp_raw(u64::from(u16::INF) + 7), u16::INF);
        assert_eq!(u16::INF.to_raw(), u64::MAX);
        assert_eq!(77_u16.to_raw(), 77);
        // INF + INF must not wrap in u16, and min(·, INF) restores the
        // invariant — the whole safety argument of the plain-add path.
        let x = u16::INF.add_weight(u16::INF);
        assert!(x >= u16::INF);
        assert_eq!(x.min(u16::INF), u16::INF);
    }

    #[test]
    fn diag_update_u16_matches_u64_in_domain() {
        let len = 2 * 8 + 3;
        let up: Vec<u64> = (0..len).map(|i| i as u64).collect();
        let left: Vec<u64> = (0..len).map(|i| (i as u64 * 2) % 31).collect();
        let diag: Vec<u64> = (0..len).map(|i| (i as u64 * 5) % 29).collect();
        let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let p: Vec<u8> = (0..len).map(|i| ((i * 3) % 4) as u8).collect();

        let w64 = LaneWeights {
            matched: 1_u64,
            mismatched: 2,
            indel: 1,
        };
        let mut out64 = vec![0_u64; len];
        let m64 = diag_update_lanes::<_, 1>(&up, &left, &diag, &q, &p, w64, &mut out64);

        let up16: Vec<u16> = up.iter().map(|&x| u16::clamp_raw(x)).collect();
        let left16: Vec<u16> = left.iter().map(|&x| u16::clamp_raw(x)).collect();
        let diag16: Vec<u16> = diag.iter().map(|&x| u16::clamp_raw(x)).collect();
        let w16 = LaneWeights {
            matched: 1_u16,
            mismatched: 2,
            indel: 1,
        };
        let mut out16 = vec![0_u16; len];
        let m16 = diag_update_lanes::<_, 1>(&up16, &left16, &diag16, &q, &p, w16, &mut out16);

        let raised: Vec<u64> = out16.iter().map(|&x| x.to_raw()).collect();
        assert_eq!(raised, out64);
        assert_eq!(m16.to_raw(), m64.to_raw());
    }

    #[test]
    fn diag_update_matches_reference_across_lengths() {
        // Every word, at lengths on both sides of its `FLAT_MIN_LEN`,
        // against the `u64` reference. Finite values stay below 127, so
        // every word holds them exactly; `+∞` lowers to each word's `INF`.
        fn check<W: KernelWord>() {
            for len in [0, 1, 7, 8, 9, 31, 32, 33, 64, 100] {
                let up: Vec<u64> = (0..len).map(|i| (i as u64 * 7) % 23).collect();
                let left: Vec<u64> = (0..len)
                    .map(|i| if i % 5 == 0 { u64::MAX } else { i as u64 })
                    .collect();
                let diag: Vec<u64> = (0..len).map(|i| (i as u64 * 3) % 17).collect();
                let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
                let p: Vec<u8> = (0..len).map(|i| ((i / 2) % 4) as u8).collect();
                let w = LaneWeights {
                    matched: 1,
                    mismatched: u64::MAX,
                    indel: 1,
                };
                let (want, want_min) = reference(&up, &left, &diag, &q, &p, w);
                let lower = |v: &[u64]| -> Vec<W> { v.iter().map(|&x| W::clamp_raw(x)).collect() };
                let lw = LaneWeights {
                    matched: W::clamp_raw(w.matched),
                    mismatched: W::clamp_raw(w.mismatched),
                    indel: W::clamp_raw(w.indel),
                };
                let mut out = vec![W::ZERO; len];
                let got_min = diag_update_lanes::<W, 1>(
                    &lower(&up),
                    &lower(&left),
                    &lower(&diag),
                    &q,
                    &p,
                    lw,
                    &mut out,
                );
                let raised: Vec<u64> = out.iter().map(|&x| x.to_raw()).collect();
                let word = std::any::type_name::<W>();
                assert_eq!(raised, want, "{word} len {len}");
                assert_eq!(got_min.to_raw(), want_min, "{word} len {len}");
            }
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<u64>();
    }

    #[test]
    fn diag_update_local_matches_scalar_reference() {
        // Max-plus reference, one lane at a time.
        let reference = |up: &[u64], left: &[u64], diag: &[u64], q: &[u8], p: &[u8]| {
            let (b, x, g) = (2_u64, 3_u64, 1_u64);
            let mut out = Vec::new();
            let mut best = 0_u64;
            for i in 0..up.len() {
                let d = if q[i] == p[i] {
                    diag[i] + b
                } else {
                    diag[i].saturating_sub(x)
                };
                let cell = up[i]
                    .saturating_sub(g)
                    .max(left[i].saturating_sub(g))
                    .max(d);
                best = best.max(cell);
                out.push(cell);
            }
            (out, best)
        };
        for len in [0, 1, 7, 8, 3 * 8 + 5] {
            let up: Vec<u64> = (0..len).map(|i| (i as u64 * 7) % 23).collect();
            let left: Vec<u64> = (0..len).map(|i| (i as u64 * 3) % 19).collect();
            let diag: Vec<u64> = (0..len).map(|i| (i as u64 * 5) % 17).collect();
            let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
            let p: Vec<u8> = (0..len).map(|i| ((i / 2) % 4) as u8).collect();
            let (want, want_best) = reference(&up, &left, &diag, &q, &p);
            let w = LaneWeights {
                matched: 2_u64,
                mismatched: 3,
                indel: 1,
            };
            let mut out = vec![0_u64; len];
            let mut best = [0_u64];
            diag_update_local_lanes::<u64, 1>(&up, &left, &diag, &q, &p, w, &mut out, &mut best);
            assert_eq!(out, want, "len {len}");
            assert_eq!(best[0], want_best, "len {len}");

            // Narrow words agree in domain (values stay far below INF).
            let up16: Vec<u16> = up.iter().map(|&v| v as u16).collect();
            let left16: Vec<u16> = left.iter().map(|&v| v as u16).collect();
            let diag16: Vec<u16> = diag.iter().map(|&v| v as u16).collect();
            let w16 = LaneWeights {
                matched: 2_u16,
                mismatched: 3,
                indel: 1,
            };
            let mut out16 = vec![0_u16; len];
            let mut best16 = [0_u16];
            diag_update_local_lanes::<u16, 1>(
                &up16,
                &left16,
                &diag16,
                &q,
                &p,
                w16,
                &mut out16,
                &mut best16,
            );
            assert_eq!(
                out16.iter().map(|&v| u64::from(v)).collect::<Vec<_>>(),
                want,
                "u16 len {len}"
            );
            assert_eq!(u64::from(best16[0]), want_best, "u16 len {len}");
        }
    }

    #[test]
    fn sub_weight_saturates_at_zero_for_every_word() {
        assert_eq!(3_u64.sub_weight(5), 0);
        assert_eq!(3_u32.sub_weight(5), 0);
        assert_eq!(3_u16.sub_weight(5), 0);
        assert_eq!(9_u16.sub_weight(5), 4);
    }

    const AFFINE_W: AffineLaneWeights<u64> = AffineLaneWeights {
        matched: 1,
        mismatched: 2,
        indel: 1,
        open: 3,
    };

    /// Nine `u64` neighbour planes of length `len` (`M₁ᵤ X₁ᵤ Y₁ᵤ M₁ₗ X₁ₗ
    /// Y₁ₗ M₂ X₂ Y₂`), `+∞` wherever `i % inf_mod == inf_at`.
    fn affine_planes(len: usize, inf_mod: usize, inf_at: usize) -> [Vec<u64>; 9] {
        let gen = |k: u64, m: u64| -> Vec<u64> {
            (0..len)
                .map(|i| {
                    if i % inf_mod == inf_at {
                        u64::INF
                    } else {
                        (i as u64 * k) % m
                    }
                })
                .collect()
        };
        [
            gen(7, 23),
            gen(5, 19),
            gen(3, 29),
            gen(11, 31),
            gen(13, 17),
            gen(2, 13),
            gen(9, 27),
            gen(4, 21),
            gen(6, 25),
        ]
    }

    /// Scalar reference for the three-plane affine update under
    /// [`AFFINE_W`]: the `M`, `X`, `Y` outputs and their joint minimum.
    /// (For `u64` the `min(INF)` clamp of the generic kernel is the
    /// identity — saturation already pins +∞ — so the reference omits
    /// it.)
    fn affine_reference(n: &[Vec<u64>; 9], q: &[u8], p: &[u8]) -> ([Vec<u64>; 3], u64) {
        let [m1u, x1u, y1u, m1l, x1l, y1l, m2, x2, y2] = n;
        let mut planes = [Vec::new(), Vec::new(), Vec::new()];
        let mut seg_min = u64::INF;
        for i in 0..q.len() {
            let dw = if q[i] == p[i] { 1 } else { 2 };
            let m = m2[i].min(x2[i]).min(y2[i]).saturating_add(dw);
            let x = m1u[i]
                .min(y1u[i])
                .saturating_add(4)
                .min(x1u[i].saturating_add(1));
            let y = m1l[i]
                .min(x1l[i])
                .saturating_add(4)
                .min(y1l[i].saturating_add(1));
            planes[0].push(m);
            planes[1].push(x);
            planes[2].push(y);
            seg_min = seg_min.min(m).min(x).min(y);
        }
        (planes, seg_min)
    }

    /// Runs `affine_diag_update_lanes::<W, L>` over `n` lowered to `W`,
    /// returning the planes and the segment minimum raised back to `u64`.
    fn affine_lanes<W: KernelWord, const L: usize>(
        n: &[Vec<u64>; 9],
        q: &[u8],
        p: &[u8],
    ) -> ([Vec<u64>; 3], u64) {
        let w: [Vec<W>; 9] = n
            .clone()
            .map(|v| v.into_iter().map(W::clamp_raw).collect::<Vec<W>>());
        let lw = AffineLaneWeights {
            matched: W::clamp_raw(AFFINE_W.matched),
            mismatched: W::clamp_raw(AFFINE_W.mismatched),
            indel: W::clamp_raw(AFFINE_W.indel),
            open: W::clamp_raw(AFFINE_W.open),
        };
        let len = q.len();
        let (mut mo, mut xo, mut yo) = (vec![W::ZERO; len], vec![W::ZERO; len], vec![W::ZERO; len]);
        let seg_min = affine_diag_update_lanes::<W, L>(
            &w[0], &w[1], &w[2], &w[3], &w[4], &w[5], &w[6], &w[7], &w[8], q, p, lw, &mut mo,
            &mut xo, &mut yo,
        );
        let raise = |v: Vec<W>| -> Vec<u64> { v.into_iter().map(W::to_raw).collect() };
        ([raise(mo), raise(xo), raise(yo)], seg_min.to_raw())
    }

    #[test]
    fn affine_diag_update_matches_scalar_reference() {
        // One lane: the per-pair affine wavefront's update.
        let len = 2 * 8 + 3;
        let planes = affine_planes(len, 7, 3);
        let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let p: Vec<u8> = (0..len).map(|i| ((i * 3) % 4) as u8).collect();
        let (got, got_min) = affine_lanes::<u64, 1>(&planes, &q, &p);
        let (want, want_min) = affine_reference(&planes, &q, &p);
        for (plane, (g, w)) in ["M", "X", "Y"].iter().zip(got.iter().zip(&want)) {
            assert_eq!(g, w, "{plane}");
        }
        assert_eq!(got_min, want_min);
    }

    #[test]
    fn diag_update_u32_matches_u64_in_domain() {
        let len = 2 * 8 + 3;
        let up: Vec<u64> = (0..len).map(|i| i as u64).collect();
        let left: Vec<u64> = (0..len).map(|i| (i as u64 * 2) % 31).collect();
        let diag: Vec<u64> = (0..len).map(|i| (i as u64 * 5) % 29).collect();
        let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let p: Vec<u8> = (0..len).map(|i| ((i * 3) % 4) as u8).collect();

        let w64 = LaneWeights {
            matched: 1_u64,
            mismatched: 2,
            indel: 1,
        };
        let mut out64 = vec![0_u64; len];
        let m64 = diag_update_lanes::<_, 1>(&up, &left, &diag, &q, &p, w64, &mut out64);

        let up32: Vec<u32> = up.iter().map(|&x| u32::clamp_raw(x)).collect();
        let left32: Vec<u32> = left.iter().map(|&x| u32::clamp_raw(x)).collect();
        let diag32: Vec<u32> = diag.iter().map(|&x| u32::clamp_raw(x)).collect();
        let w32 = LaneWeights {
            matched: 1_u32,
            mismatched: 2,
            indel: 1,
        };
        let mut out32 = vec![0_u32; len];
        let m32 = diag_update_lanes::<_, 1>(&up32, &left32, &diag32, &q, &p, w32, &mut out32);

        let raised: Vec<u64> = out32.iter().map(|&x| x.to_raw()).collect();
        assert_eq!(raised, out64);
        assert_eq!(m32.to_raw(), m64.to_raw());
    }

    #[test]
    fn u8_roundtrip_clamp_and_absorption() {
        assert_eq!(<u8 as KernelWord>::INF, 127);
        assert_eq!(u8::clamp_raw(0), 0);
        assert_eq!(u8::clamp_raw(41), 41);
        assert_eq!(u8::clamp_raw(u64::MAX), <u8 as KernelWord>::INF);
        assert_eq!(u8::clamp_raw(127), <u8 as KernelWord>::INF);
        assert_eq!(u8::clamp_raw(126), 126);
        assert_eq!(<u8 as KernelWord>::INF.to_raw(), u64::MAX);
        assert_eq!(77_u8.to_raw(), 77);
        // INF + INF saturates (no wrap) and min(·, INF) restores the
        // invariant — the byte path's whole safety argument.
        let x = <u8 as KernelWord>::INF.add_weight(<u8 as KernelWord>::INF);
        assert!(x >= <u8 as KernelWord>::INF);
        assert_eq!(x.min(<u8 as KernelWord>::INF), <u8 as KernelWord>::INF);
    }

    #[test]
    fn diag_update_u8_matches_u64_in_domain() {
        // Values kept far below 127 so the byte path needs no bias:
        // in-domain the two representations must agree cell for cell.
        let len = 2 * 8 + 3;
        let up: Vec<u64> = (0..len).map(|i| i as u64).collect();
        let left: Vec<u64> = (0..len).map(|i| (i as u64 * 2) % 31).collect();
        let diag: Vec<u64> = (0..len).map(|i| (i as u64 * 5) % 29).collect();
        let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let p: Vec<u8> = (0..len).map(|i| ((i * 3) % 4) as u8).collect();

        let w64 = LaneWeights {
            matched: 1_u64,
            mismatched: 2,
            indel: 1,
        };
        let mut out64 = vec![0_u64; len];
        let m64 = diag_update_lanes::<_, 1>(&up, &left, &diag, &q, &p, w64, &mut out64);

        let up8: Vec<u8> = up.iter().map(|&x| u8::clamp_raw(x)).collect();
        let left8: Vec<u8> = left.iter().map(|&x| u8::clamp_raw(x)).collect();
        let diag8: Vec<u8> = diag.iter().map(|&x| u8::clamp_raw(x)).collect();
        let w8 = LaneWeights {
            matched: 1_u8,
            mismatched: 2,
            indel: 1,
        };
        let mut out8 = vec![0_u8; len];
        let m8 = diag_update_lanes::<_, 1>(&up8, &left8, &diag8, &q, &p, w8, &mut out8);

        let raised: Vec<u64> = out8.iter().map(|&x| x.to_raw()).collect();
        assert_eq!(raised, out64);
        assert_eq!(m8.to_raw(), m64.to_raw());
    }

    #[test]
    fn affine_diag_update_lanes_matches_unstriped() {
        // The striped form over rows × L cells must agree with the
        // scalar reference on every plane and on the seg min, in the
        // u64 and the u16 representation.
        const L: usize = 4;
        let len = 5 * L;
        let planes = affine_planes(len, 6, 4);
        let q: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let p: Vec<u8> = (0..len).map(|i| ((i * 3) % 4) as u8).collect();
        let want = affine_reference(&planes, &q, &p);
        assert_eq!(affine_lanes::<u64, L>(&planes, &q, &p), want);
        assert_eq!(affine_lanes::<u16, L>(&planes, &q, &p), want);
    }
}
