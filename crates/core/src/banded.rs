//! Banded alignment races: trading cells for a score bound.
//!
//! An area ablation the paper's design space (§5, "the design space of
//! Race Logic ... more broadly") invites: if two strings are known to be
//! within edit distance `k`, every cell of an optimal alignment path
//! satisfies `|i − j| ≤ k`, so the race array only needs the `O(N·k)`
//! cells of a diagonal band instead of all `N²` — the classic Ukkonen
//! banding, realized in Race Logic by simply **not building** the cells
//! outside the band (their edges become the paper's missing-edge ∞).
//!
//! Correctness contract (tested): if the true score's optimal path fits
//! in the band, the banded race is exact; otherwise it returns an upper
//! bound (or [`Time::NEVER`] if no in-band path exists), and widening
//! the band is monotonically non-increasing. [`adaptive_race`] doubles
//! the band until the result is certified exact — the standard
//! banded-DP driver, here phrased over races.

use rl_bio::{alphabet::Symbol, Seq};
use rl_temporal::Time;

use crate::alignment::RaceWeights;
use crate::engine::{AlignConfig, AlignEngine};

/// The outcome of a banded race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandedOutcome {
    /// The in-band optimal score ([`Time::NEVER`] if the band disconnects
    /// root from sink, which happens when `band < |n − m|`).
    pub score: Time,
    /// The half-width used.
    pub band: usize,
    /// Number of cells actually instantiated (the area saving:
    /// compare against `(n+1)(m+1)`).
    pub cells_built: usize,
    /// Sequence lengths (needed by the certification bound).
    pub rows: usize,
    /// Length of `p`.
    pub cols: usize,
}

impl BandedOutcome {
    /// `true` when the band provably contains an optimal unbanded path.
    ///
    /// Soundness argument: a root→sink path that leaves the band must
    /// reach a diagonal deviation of at least `band + 1`, which forces at
    /// least `I₀ = 2(band+1) − |n−m|` indel steps; with `I` indels a
    /// path has exactly `(n+m−I)/2` diagonal steps, each costing at
    /// least the cheapest diagonal weight. Any outside path therefore
    /// costs at least the bound below; if the banded score does not
    /// exceed that bound, no outside path can beat it, so the banded
    /// optimum is the global optimum.
    #[must_use]
    pub fn certified_exact(&self, weights: RaceWeights) -> bool {
        let Some(s) = self.score.cycles() else {
            return false;
        };
        let (n, m) = (self.rows as u64, self.cols as u64);
        let gap = n.abs_diff(m);
        let i0 = 2 * (self.band as u64 + 1) - gap.min(2 * (self.band as u64 + 1));
        if i0 > n + m {
            // Deviating past the band is geometrically impossible.
            return true;
        }
        let min_diag = match weights.mismatched {
            Some(x) => weights.matched.min(x),
            None => weights.matched,
        };
        // Outside-path cost lower bound, as a function of its indel
        // count I ∈ [i0, n+m]: indel·I + min_diag·(n+m−I)/2, evaluated
        // at whichever endpoint minimizes it.
        let at = |i: u64| weights.indel * i + min_diag * (n + m - i) / 2;
        let bound = if 2 * weights.indel >= min_diag {
            at(i0) // increasing in I
        } else {
            at(n + m) // decreasing in I
        };
        s <= bound
    }
}

/// Races `q` against `p` restricted to the diagonal band `|i − j| ≤ band`,
/// on the kernel [`crate::engine::KernelStrategy::Auto`] selects.
///
/// # Panics
///
/// Panics if `weights.indel == 0`.
#[must_use]
pub fn banded_race<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    band: usize,
) -> BandedOutcome {
    banded_race_with(q, p, weights, band, crate::engine::KernelStrategy::Auto)
}

/// [`banded_race`] on an explicit kernel traversal order — same score,
/// same in-band cell set and count for both orders (property-tested).
///
/// # Panics
///
/// Panics if `weights.indel == 0`.
#[must_use]
pub fn banded_race_with<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    band: usize,
    strategy: crate::engine::KernelStrategy,
) -> BandedOutcome {
    assert!(weights.indel > 0, "indel weight must be positive");
    let (n, m) = (q.len(), p.len());
    let q_codes: Vec<u8> = q.codes().collect();
    let p_codes: Vec<u8> = p.codes().collect();
    let mut grid = Vec::new();
    let cells_built =
        crate::engine::fill_grid_with(&q_codes, &p_codes, weights, Some(band), strategy, &mut grid);
    BandedOutcome {
        score: crate::engine::raw_to_time(grid[n * (m + 1) + m]),
        band,
        cells_built: cells_built as usize,
        rows: n,
        cols: m,
    }
}

/// Doubles the band until the result is certified exact (or the band
/// covers the whole grid): the adaptive driver a thresholded scanner
/// would use. Returns the final outcome, always exact.
///
/// Runs on the score-only [`AlignEngine`] rather than a full grid fill:
/// one engine (one scratch set) serves every attempt via
/// [`AlignEngine::set_config`], and the narrow early attempts — where
/// the adaptive driver spends most of its time on similar pairs — ride
/// the banded wavefront kernel, O(band) state instead of O(n·m) grid.
#[must_use]
pub fn adaptive_race<S: Symbol>(q: &Seq<S>, p: &Seq<S>, weights: RaceWeights) -> BandedOutcome {
    adaptive_race_mode(q, p, weights, crate::engine::AlignMode::Global)
}

/// [`adaptive_race`] under an explicit [`crate::engine::AlignMode`].
///
/// The band-doubling certificate applies to the **global-shaped** modes
/// ([`crate::engine::AlignMode::Global`] and
/// [`crate::engine::AlignMode::GlobalAffine`] — an affine
/// path costs at least its linear step costs when `open ≥ 0`, so the
/// same outside-path lower bound certifies). The free-end modes run
/// **unbanded**: a `|i − j| ≤ k` band restricts semi-global *placements*
/// (a start at column `j₀ > k` is excluded at cost 0, which no score
/// bound can rescue) and local starting cells likewise, so there is no
/// sound certificate to double toward — the driver reports the exact
/// full-grid race with a whole-grid band instead of a silently wrong
/// certificate.
///
/// # Panics
///
/// Panics if `weights.indel == 0`.
#[must_use]
pub fn adaptive_race_mode<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    mode: crate::engine::AlignMode,
) -> BandedOutcome {
    use crate::engine::AlignMode;
    use rl_bio::PackedSeq;

    let full = q.len().max(p.len());
    let (pq, pp) = (PackedSeq::from_seq(q), PackedSeq::from_seq(p));
    let mut engine = AlignEngine::new(AlignConfig::new(weights).with_mode(mode));
    if !matches!(mode, AlignMode::Global | AlignMode::GlobalAffine(_)) {
        let raced = engine.align(&pq, &pp);
        return BandedOutcome {
            score: raced.score,
            band: full,
            cells_built: raced.cells_computed as usize,
            rows: q.len(),
            cols: p.len(),
        };
    }
    let mut band = q.len().abs_diff(p.len()).max(1);
    loop {
        engine.set_config(AlignConfig::new(weights).with_mode(mode).with_band(band));
        let raced = engine.align(&pq, &pp);
        let out = BandedOutcome {
            score: raced.score,
            band,
            cells_built: raced.cells_computed as usize,
            rows: q.len(),
            cols: p.len(),
        };
        if out.certified_exact(weights) || band >= full {
            return out;
        }
        band = (band * 2).min(full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::AlignmentRace;
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    fn full_score(q: &Seq<Dna>, p: &Seq<Dna>, w: RaceWeights) -> Time {
        AlignmentRace::new(q, p, w).run_functional().score()
    }

    #[test]
    fn wide_band_is_exact() {
        let q = dna("GATTCGA");
        let p = dna("ACTGAGA");
        let w = RaceWeights::fig4();
        let out = banded_race(&q, &p, w, 7);
        assert_eq!(out.score, full_score(&q, &p, w));
        assert_eq!(out.cells_built, 64, "band 7 covers the whole 8x8 grid");
    }

    #[test]
    fn narrow_band_saves_cells_and_bounds_from_above() {
        let q = dna("GATTCGAGATTCGA");
        let p = dna("ACTGAGAACTGAGA");
        let w = RaceWeights::fig4();
        let exact = full_score(&q, &p, w);
        let narrow = banded_race(&q, &p, w, 2);
        assert!(narrow.cells_built < 15 * 15);
        assert!(narrow.score >= exact, "banding can only lose paths");
    }

    #[test]
    fn band_smaller_than_length_gap_disconnects() {
        let q = dna("ACGTACGT");
        let p = dna("AC");
        let out = banded_race(&q, &p, RaceWeights::fig4(), 3);
        assert!(out.score.is_never(), "|n-m| = 6 > band 3: no in-band path");
        assert!(!out.certified_exact(RaceWeights::fig4()));
    }

    #[test]
    fn certification_is_sound() {
        // Identical strings: score N fits in band N, certified.
        let s = dna("ACGTACGTACGT");
        let w = RaceWeights::fig4();
        let out = banded_race(&s, &s, w, 12);
        assert!(out.certified_exact(w));
        // Certified implies equals the unbanded score.
        assert_eq!(out.score, full_score(&s, &s, w));
    }

    #[test]
    fn adaptive_always_exact_and_often_cheaper() {
        let mut rng = rl_dag::generate::seeded_rng(17);
        for _ in 0..10 {
            let (q, p) = rl_bio::mutate::similar_pair::<Dna, _>(&mut rng, 32, 0.08);
            let w = RaceWeights::fig4();
            let out = adaptive_race(&q, &p, w);
            assert_eq!(out.score, full_score(&q, &p, w));
            // Similar pairs: the certified band is far below the full
            // grid, so the adaptive driver saves real cells.
            assert!(
                out.cells_built < (q.len() + 1) * (p.len() + 1),
                "similar pair should certify inside a narrow band"
            );
        }
    }

    proptest! {
        /// Widening the band is monotone non-increasing in score and
        /// reaches the exact value by band = max(n, m).
        #[test]
        fn band_monotonicity(qs in "[ACGT]{0,12}", ps in "[ACGT]{0,12}") {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let exact = full_score(&q, &p, w);
            let mut last = Time::NEVER;
            let full = q.len().max(p.len()).max(1);
            for band in 0..=full {
                let out = banded_race(&q, &p, w, band);
                prop_assert!(out.score >= exact);
                prop_assert!(out.score <= last);
                last = out.score;
            }
            prop_assert_eq!(last, exact);
        }

        /// The certification rule never lies: certified ⇒ exact.
        #[test]
        fn certification_never_lies(qs in "[ACGT]{0,10}", ps in "[ACGT]{0,10}", band in 0_usize..12) {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let out = banded_race(&q, &p, w, band);
            if out.certified_exact(w) {
                prop_assert_eq!(out.score, full_score(&q, &p, w));
            }
        }
    }
}
