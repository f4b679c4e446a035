//! Score-only **bit-parallel** kernels for the ratcheted scan under
//! unit-step weights.
//!
//! In the Race Logic array an arrival races down a whole column in one
//! clock. In software the carry chain of one 64-bit addition does the
//! same for 64 cells: the query is the bit side (one bit per row, packed
//! into multiword vectors) and each database entry is the text, consumed
//! one symbol — one column — at a time. Two recurrences cover the
//! paper's own weight presets:
//!
//! - **LCS** (Allison & Dix 1986, Crochemore et al. 2001, Hyyrö 2004):
//!   `V' = (V + (V & Peq[c])) | (V & !Peq[c])`, carries propagated across
//!   words; the zero bits of the final `V` count the LCS length. Under
//!   global weights with `matched < 2·indel ≤ mismatched` (a missing
//!   mismatch edge counts as ∞) a diagonal step only pays on a match, so
//!   the score is `indel·(n + m) − (2·indel − matched)·LCS` — fig4 and
//!   fig2b. Fig. 4c checks it: `7 + 7 − 4 = 10`.
//! - **Edit distance** (Myers 1999; Hyyrö 2001 for the global boundary;
//!   multiword blocks as in Hyyrö 2003 and Edlib): vertical and
//!   horizontal ±1 deltas as bit vectors. Under `matched = 0` and
//!   `mismatched = indel` the score is `indel·ED` — Levenshtein, global
//!   (`D[0][j] = j`) and semi-global (`D[0][j] = 0`, best over every
//!   column of the last row).
//!
//! The per-symbol match masks `Peq` are built once per scan segment
//! ([`QueryMasks::for_scan`]) and shared read-only by every worker; the
//! text is read straight from the entry's packed words, so nothing is
//! unpacked per pair. Under a ratchet threshold the LCS sweep stops as
//! soon as `LCS_j + (m − j)` — the most the remaining columns can reach —
//! proves the score above it. See `docs/KERNELS.md` § *Bit-parallel
//! kernels*.

use rl_bio::{alphabet::Symbol, PackedSeq};

use crate::engine::{AlignConfig, AlignMode, KernelStrategy, RawWeights};

/// Which bit-vector recurrence a scan's weights reduce to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recurrence {
    /// Global score from the LCS length.
    Lcs,
    /// Unit edit distance; `semi` frees the text's leading and trailing
    /// gaps.
    Edit { semi: bool },
}

impl Recurrence {
    /// The recurrence an unbanded `Auto` configuration reduces to, if
    /// any. Explicit kernel pins and bands keep the DP kernels.
    fn for_config(cfg: &AlignConfig) -> Option<Self> {
        if cfg.band.is_some() || cfg.strategy != KernelStrategy::Auto {
            return None;
        }
        let w = RawWeights::from_weights(cfg.weights);
        let two_indels = w.indel.checked_mul(2)?;
        match cfg.mode {
            AlignMode::Global if w.matched < two_indels && two_indels <= w.mismatched => {
                Some(Recurrence::Lcs)
            }
            AlignMode::Global | AlignMode::SemiGlobal
                if w.matched == 0 && w.mismatched == w.indel =>
            {
                Some(Recurrence::Edit {
                    semi: cfg.mode == AlignMode::SemiGlobal,
                })
            }
            _ => None,
        }
    }
}

/// Query word counts up to which the kernels are compiled with the
/// count fixed, their bit vectors in registers (256 symbols).
const FIXED_WORDS: usize = 4;

/// One query's match masks: `peq[c · words ..][.. words]` has bit `i`
/// set where query symbol `i` has code `c`. Padding bits past the query
/// length are zero.
pub(crate) struct QueryMasks {
    recurrence: Recurrence,
    weights: RawWeights,
    n: usize,
    words: usize,
    peq: Vec<u64>,
}

impl QueryMasks {
    /// The masks of a scan segment's shared query, when `cfg` reduces to
    /// a bit-parallel recurrence and every pair races that one query
    /// (the same borrowed sequence). `None` keeps the DP kernels.
    pub(crate) fn for_scan<S: Symbol>(
        cfg: &AlignConfig,
        pairs: &[(&PackedSeq<S>, &PackedSeq<S>)],
    ) -> Option<Self> {
        let recurrence = Recurrence::for_config(cfg)?;
        let query = pairs.first()?.0;
        if query.is_empty() || !pairs.iter().all(|(q, _)| std::ptr::eq(*q, query)) {
            return None;
        }
        let words = query.len().div_ceil(64);
        let mut peq = vec![0_u64; S::COUNT * words];
        for (i, c) in query.codes().enumerate() {
            peq[usize::from(c) * words + i / 64] |= 1 << (i % 64);
        }
        Some(QueryMasks {
            recurrence,
            weights: RawWeights::from_weights(cfg.weights),
            n: query.len(),
            words,
            peq,
        })
    }

    /// Sweeps the query against `text`: its exact score, or `None` once
    /// the score provably exceeds `limit`, with the text columns swept.
    /// `state` is per-worker scratch for queries longer than
    /// [`FIXED_WORDS`] words.
    pub(crate) fn score<S: Symbol>(
        &self,
        text: &PackedSeq<S>,
        limit: Option<u64>,
        state: &mut Vec<u64>,
    ) -> (Option<u64>, usize) {
        match self.words {
            1 => self.score_in::<S, 1>(text, limit, state),
            2 => self.score_in::<S, 2>(text, limit, state),
            3 => self.score_in::<S, 3>(text, limit, state),
            FIXED_WORDS => self.score_in::<S, FIXED_WORDS>(text, limit, state),
            _ => self.score_in::<S, 0>(text, limit, state),
        }
    }

    /// [`score`](QueryMasks::score) with the word count fixed at compile
    /// time (`W > 0`: the bit vectors live in registers) or read at run
    /// time (`W = 0`: they live in `state`).
    fn score_in<S: Symbol, const W: usize>(
        &self,
        text: &PackedSeq<S>,
        limit: Option<u64>,
        state: &mut Vec<u64>,
    ) -> (Option<u64>, usize) {
        let words = if W == 0 { self.words } else { W };
        let (mut fixed, mut fixed_mv) = ([0_u64; W], [0_u64; W]);
        let (v, mv) = if W == 0 {
            state.resize(2 * words, 0);
            state.split_at_mut(words)
        } else {
            (&mut fixed[..], &mut fixed_mv[..])
        };
        let w = self.weights;
        let (n, m) = (self.n as u64, text.len() as u64);
        match self.recurrence {
            Recurrence::Lcs => {
                let gain = 2 * w.indel - w.matched;
                // score ≤ limit ⇔ LCS ≥ ⌈(indel·(n + m) − limit) / gain⌉.
                let need =
                    limit.map_or(0, |t| (w.indel * (n + m)).saturating_sub(t).div_ceil(gain));
                let (lcs, columns) = self.lcs_length(text, need, v);
                (lcs.map(|lcs| w.indel * (n + m) - gain * lcs), columns)
            }
            Recurrence::Edit { semi } => {
                let distance = self.edit_distance(text, semi, v, mv);
                (Some(w.indel * distance), text.len())
            }
        }
    }

    /// LCS length of the query and `text` in the bit vector `v`, or
    /// `None` once it provably falls short of `need`, with the text
    /// columns swept.
    #[inline(always)]
    fn lcs_length<S: Symbol>(
        &self,
        text: &PackedSeq<S>,
        need: u64,
        v: &mut [u64],
    ) -> (Option<u64>, usize) {
        let words = v.len();
        // Padding bits stay set: their masks are zero, so `V − U` keeps
        // them whatever carry reaches them, and they never count.
        v.fill(!0);
        let m = text.len();
        let lcs = |v: &[u64]| v.iter().map(|vw| u64::from(vw.count_zeros())).sum::<u64>();
        let columns = sweep_codes(
            text,
            &mut *v,
            |v, c| {
                let eq = &self.peq[c * words..][..words];
                let mut carry = false;
                for (vw, &e) in v.iter_mut().zip(eq) {
                    let u = *vw & e;
                    let (sum, c1) = vw.overflowing_add(u);
                    let (sum, c2) = sum.overflowing_add(u64::from(carry));
                    carry = c1 | c2;
                    *vw = sum | (*vw - u);
                }
            },
            // Each of the `m − j` columns still ahead adds at most one
            // to the LCS of the first `j`.
            |v, j| lcs(v) + (m - j) as u64 >= need,
        );
        ((columns == m).then(|| lcs(v)), columns)
    }

    /// Unit edit distance of the query and `text` (Myers' block
    /// recurrence) in the vertical delta vectors `pv` and `mv`. The
    /// horizontal delta entering row 0 is `+1` for the global boundary
    /// `D[0][j] = j` and `0` for the semi-global `D[0][j] = 0`; the last
    /// block reads its output delta at the query's last row, so padding
    /// rows never reach the score.
    #[inline(always)]
    fn edit_distance<S: Symbol>(
        &self,
        text: &PackedSeq<S>,
        semi: bool,
        pv: &mut [u64],
        mv: &mut [u64],
    ) -> u64 {
        let words = pv.len();
        pv.fill(!0);
        mv.fill(0);
        let last_row = 1_u64 << ((self.n - 1) % 64);
        let top = i64::from(!semi);
        // D[n][0] = n in both modes.
        let mut score = self.n as u64;
        let mut best = score;
        sweep_codes(
            text,
            (pv, mv),
            |(pv, mv), c| {
                let eq_row = &self.peq[c * words..][..words];
                let mut hin = top;
                for b in 0..words {
                    let out_bit = if b + 1 == words { last_row } else { 1 << 63 };
                    let (p0, m0) = (pv[b], mv[b]);
                    let xv = eq_row[b] | m0;
                    let eq = eq_row[b] | u64::from(hin < 0);
                    let xh = ((eq & p0).wrapping_add(p0) ^ p0) | eq;
                    let ph = m0 | !(xh | p0);
                    let mh = p0 & xh;
                    let hout = i64::from(ph & out_bit != 0) - i64::from(mh & out_bit != 0);
                    let ph = (ph << 1) | u64::from(hin > 0);
                    let mh = (mh << 1) | u64::from(hin < 0);
                    pv[b] = mh | !(xv | ph);
                    mv[b] = ph & xv;
                    hin = hout;
                }
                score = score.wrapping_add_signed(hin);
                best = best.min(score);
            },
            |_, _| true,
        );
        if semi {
            best
        } else {
            score
        }
    }
}

/// Steps `state` through each symbol code of `seq` in order, read
/// straight from its packed words. After every packed word but the
/// last, `go_on(state, columns so far)` may stop the sweep. Returns the
/// columns swept (`seq.len()` unless stopped).
#[inline(always)]
fn sweep_codes<S: Symbol, T>(
    seq: &PackedSeq<S>,
    mut state: T,
    mut step: impl FnMut(&mut T, usize),
    mut go_on: impl FnMut(&T, usize) -> bool,
) -> usize {
    let bits = S::bits();
    let per_word = PackedSeq::<S>::symbols_per_word();
    let mask = (1_u64 << bits) - 1;
    let mut done = 0;
    for &word in seq.words() {
        let mut w = word;
        let take = (seq.len() - done).min(per_word);
        for _ in 0..take {
            step(&mut state, (w & mask) as usize);
            w >>= bits;
        }
        done += take;
        if done < seq.len() && !go_on(&state, done) {
            break;
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::RaceWeights;
    use crate::engine::AlignEngine;
    use proptest::prelude::*;
    use rl_bio::{AminoAcid, Dna, Seq};
    use rl_dag::generate::seeded_rng;

    fn masks<S: Symbol>(cfg: &AlignConfig, q: &PackedSeq<S>) -> QueryMasks {
        QueryMasks::for_scan(cfg, &[(q, q)]).expect("eligible configuration")
    }

    /// Scores every `(query, text)` pair on the bit-parallel kernel and
    /// on the scalar rolling row.
    fn assert_matches_rolling_row<S: Symbol>(cfg: AlignConfig, q: &Seq<S>, texts: &[Seq<S>]) {
        let q = PackedSeq::from_seq(q);
        let masks = masks(&cfg, &q);
        let mut engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
        let mut state = Vec::new();
        for t in texts {
            let p = PackedSeq::from_seq(t);
            let exact = engine.align(&q, &p).score.cycles().expect("unbanded score");
            assert_eq!(
                masks.score(&p, None, &mut state),
                (Some(exact), p.len()),
                "{} vs {} under {cfg:?}",
                q.len(),
                p.len()
            );
            // Under a limit the sweep may stop early, but only on a
            // score above it, and a finished sweep is exact.
            for limit in [
                0,
                exact.saturating_sub(9),
                exact - exact.min(1),
                exact,
                exact + 1,
            ] {
                let (score, columns) = masks.score(&p, Some(limit), &mut state);
                match score {
                    Some(s) => assert_eq!((s, columns), (exact, p.len())),
                    None => assert!(exact > limit && columns < p.len(), "limit {limit}"),
                }
                if exact <= limit {
                    assert_eq!(score, Some(exact), "limit {limit}");
                }
            }
        }
    }

    fn eligible_configs() -> [AlignConfig; 4] {
        [
            AlignConfig::new(RaceWeights::fig4()),
            AlignConfig::new(RaceWeights::fig2b()),
            AlignConfig::new(RaceWeights::levenshtein()),
            AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal),
        ]
    }

    #[test]
    fn fig4c_scores_ten() {
        let q: Seq<Dna> = "GATTCGA".parse().unwrap();
        let p: Seq<Dna> = "ACTGAGA".parse().unwrap();
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let (q, p) = (PackedSeq::from_seq(&q), PackedSeq::from_seq(&p));
        assert_eq!(
            masks(&cfg, &q).score(&p, None, &mut Vec::new()),
            (Some(10), 7)
        );
    }

    #[test]
    fn eligibility_follows_mode_weights_band_and_pin() {
        let fig4 = AlignConfig::new(RaceWeights::fig4());
        let lev = AlignConfig::new(RaceWeights::levenshtein());
        let eligible = |cfg: AlignConfig| Recurrence::for_config(&cfg).is_some();
        assert_eq!(Recurrence::for_config(&fig4), Some(Recurrence::Lcs));
        assert_eq!(
            Recurrence::for_config(&lev.with_mode(AlignMode::SemiGlobal)),
            Some(Recurrence::Edit { semi: true })
        );
        assert!(!eligible(fig4.with_band(8)));
        assert!(!eligible(fig4.with_strategy(KernelStrategy::Wavefront)));
        assert!(!eligible(fig4.with_strategy(KernelStrategy::RollingRow)));
        assert!(!eligible(fig4.with_mode(AlignMode::SemiGlobal)));
        assert!(!eligible(fig4.with_mode(AlignMode::GlobalAffine(
            crate::engine::AffineWeights { open: 2 }
        ))));
        // A mismatch cheaper than two indels breaks the LCS identity.
        assert!(!eligible(AlignConfig::new(RaceWeights {
            matched: 1,
            mismatched: Some(1),
            indel: 1,
        })));
        // A match no cheaper than two indels never pays.
        assert!(!eligible(AlignConfig::new(RaceWeights {
            matched: 2,
            mismatched: None,
            indel: 1,
        })));
        // Scaled Levenshtein is still edit distance.
        assert!(eligible(AlignConfig::new(RaceWeights {
            matched: 0,
            mismatched: Some(3),
            indel: 3,
        })));
    }

    #[test]
    fn distinct_queries_are_not_eligible() {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let a = PackedSeq::<Dna>::from_seq(&"ACGT".parse().unwrap());
        let b = a.clone();
        assert!(QueryMasks::for_scan(&cfg, &[(&a, &a), (&a, &b)]).is_some());
        assert!(QueryMasks::for_scan(&cfg, &[(&a, &a), (&b, &a)]).is_none());
    }

    #[test]
    fn word_boundaries_match_the_rolling_row() {
        let mut rng = seeded_rng(0xB17);
        for n in [
            1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 320,
        ] {
            let q: Seq<Dna> = Seq::random(&mut rng, n);
            let texts: Vec<Seq<Dna>> = [1, 2, n / 2 + 1, n, n + 1, 4 * n + 3]
                .iter()
                .map(|&m| Seq::random(&mut rng, m))
                .chain(std::iter::once(q.clone()))
                .collect();
            for cfg in eligible_configs() {
                assert_matches_rolling_row(cfg, &q, &texts);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dna_scores_match_the_rolling_row(
            q in "[ACGT]{1,150}",
            texts in proptest::collection::vec("[ACGT]{1,200}", 1..4),
        ) {
            let q: Seq<Dna> = q.parse().unwrap();
            let texts: Vec<Seq<Dna>> = texts.iter().map(|t| t.parse().unwrap()).collect();
            for cfg in eligible_configs() {
                assert_matches_rolling_row(cfg, &q, &texts);
            }
        }

        #[test]
        fn protein_scores_match_the_rolling_row(
            q in "[ARNDCQEGHILKMFPSTWYV]{1,140}",
            texts in proptest::collection::vec("[ARNDCQEGHILKMFPSTWYV]{1,150}", 1..4),
        ) {
            let q: Seq<AminoAcid> = q.parse().unwrap();
            let texts: Vec<Seq<AminoAcid>> = texts.iter().map(|t| t.parse().unwrap()).collect();
            for cfg in eligible_configs() {
                assert_matches_rolling_row(cfg, &q, &texts);
            }
        }
    }
}
