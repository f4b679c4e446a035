//! Thresholded races: early termination for database scans (paper §6).
//!
//! A defining property of the OR-type race is that *the maximum possible
//! score is known at every instant*: if the output has not risen by cycle
//! `T`, the score is strictly greater than `T`. A similarity scan can
//! therefore abandon a candidate the moment the threshold cycle passes —
//! "if the count exceeds the threshold value, the architecture will treat
//! it as if the required match was not found and move on to the next
//! pattern". The systolic baseline cannot do this: its score is only
//! known after the whole computation drains (Section 6).

use rl_bio::{alphabet::Symbol, PackedSeq, Seq};

use crate::alignment::RaceWeights;
use crate::engine::{AlignConfig, AlignEngine};
use crate::error::AlignError;
use crate::score_transform::TransformedWeights;
use crate::store::StoreTarget;
use crate::supervisor::{Fault, ResumeToken, ScanControl, ScanOutcome};

/// The outcome of a thresholded race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdOutcome {
    /// The race finished within the threshold: the exact score, and the
    /// cycles consumed (== score).
    Within {
        /// The exact race score (≤ threshold).
        score: u64,
    },
    /// The output had not risen by the threshold cycle: the pair is
    /// "dissimilar", abandoned after `threshold + 1` cycles.
    Exceeded,
}

impl ThresholdOutcome {
    /// The score if the race finished in time.
    #[must_use]
    pub fn score(self) -> Option<u64> {
        match self {
            ThresholdOutcome::Within { score } => Some(score),
            ThresholdOutcome::Exceeded => None,
        }
    }

    /// Cycles the hardware spends before moving on: the score itself, or
    /// `threshold + 1` on an abandon.
    #[must_use]
    pub fn cycles_consumed(self, threshold: u64) -> u64 {
        match self {
            ThresholdOutcome::Within { score } => score,
            ThresholdOutcome::Exceeded => threshold + 1,
        }
    }
}

/// Races `q` against `p` under simple alignment weights, abandoning at
/// `threshold`. Runs on the [`crate::engine`] kernel
/// ([`crate::engine::KernelStrategy::Auto`]-selected) with the
/// threshold *fused into the sweep*: the race stops computing the
/// moment a whole arrival frontier (a row, or an anti-diagonal pair)
/// exceeds the threshold, just as the hardware moves on the moment the
/// threshold cycle passes.
#[must_use]
pub fn threshold_race<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    threshold: u64,
) -> ThresholdOutcome {
    threshold_race_with(
        q,
        p,
        weights,
        threshold,
        crate::engine::KernelStrategy::Auto,
    )
}

/// [`threshold_race`] on an explicit kernel traversal order. The
/// classification is identical for both orders (each abandons only when
/// the score provably exceeds the threshold, and classifies exactly at
/// completion otherwise — property-tested).
#[must_use]
pub fn threshold_race_with<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    threshold: u64,
    strategy: crate::engine::KernelStrategy,
) -> ThresholdOutcome {
    let cfg = AlignConfig::new(weights)
        .with_threshold(threshold)
        .with_strategy(strategy);
    let outcome = AlignEngine::new(cfg).align_seqs(q, p);
    classify(outcome.finished_score(), threshold)
}

/// Races `q` against `p` under transformed (Section 5) weights,
/// abandoning at `threshold` (in *delay* units; use
/// [`TransformedWeights::recover_score`] to convert a score threshold).
#[must_use]
pub fn threshold_race_transformed<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: &TransformedWeights<S>,
    threshold: u64,
) -> ThresholdOutcome {
    let raced = weights.reference_race_cost(q, p);
    classify(raced.cycles(), threshold)
}

fn classify(score: Option<u64>, threshold: u64) -> ThresholdOutcome {
    match score {
        Some(s) if s <= threshold => ThresholdOutcome::Within { score: s },
        _ => ThresholdOutcome::Exceeded,
    }
}

/// Scan summary from [`scan_database`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Indices of database entries within the threshold, with scores.
    pub hits: Vec<(usize, u64)>,
    /// Number of abandoned (dissimilar) entries.
    pub rejected: usize,
    /// Total cycles consumed across the scan (the §6 win: rejected
    /// entries cost only `threshold + 1` cycles each).
    pub total_cycles: u64,
    /// Cycles a threshold-less scan would have consumed (every race runs
    /// to completion).
    pub unthresholded_cycles: u64,
}

impl ScanReport {
    /// Fraction of cycles saved by thresholding.
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        if self.unthresholded_cycles == 0 {
            return 0.0;
        }
        1.0 - self.total_cycles as f64 / self.unthresholded_cycles as f64
    }
}

/// Scans `query` against a database of patterns, keeping entries whose
/// race finishes within `threshold` cycles — the Section 6 application.
///
/// The scan runs through [`crate::engine::align_batch`], so same-length
/// patterns are swept by the inter-pair striped SIMD kernel (each lane
/// one pattern, the §6 many-patterns-one-array tiling) and the batch
/// fans out across cores. The races run to completion (no fused
/// threshold) because the report also prices the hypothetical
/// threshold-less scan.
#[must_use]
pub fn scan_database<S: Symbol>(
    query: &Seq<S>,
    database: &[Seq<S>],
    weights: RaceWeights,
    threshold: u64,
) -> ScanReport {
    let q = PackedSeq::from_seq(query);
    let patterns: Vec<PackedSeq<S>> = database.iter().map(PackedSeq::from_seq).collect();
    let pairs: Vec<(&PackedSeq<S>, &PackedSeq<S>)> = patterns.iter().map(|p| (&q, p)).collect();
    let outcomes =
        crate::engine::align_batch(&AlignConfig::new(weights), &pairs, &ScanControl::new())
            .expect_complete();

    let mut hits = Vec::new();
    let mut rejected = 0;
    let mut total_cycles = 0;
    let mut unthresholded = 0;
    for (idx, outcome) in outcomes.iter().enumerate() {
        let full = outcome.score.cycles().unwrap_or(0);
        unthresholded += full;
        match classify(outcome.score.cycles(), threshold) {
            ThresholdOutcome::Within { score } => {
                hits.push((idx, score));
                total_cycles += score;
            }
            ThresholdOutcome::Exceeded => {
                rejected += 1;
                total_cycles += threshold + 1;
            }
        }
    }
    ScanReport {
        hits,
        rejected,
        total_cycles,
        unthresholded_cycles: unthresholded,
    }
}

/// Result of a ratcheted top-k database scan in the pre-[`scan`] shape
/// ([`scan_packed_topk_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKScan {
    /// The `k` best database entries as `(index, score)`, sorted by
    /// `(score, index)` ascending (fewer when a configured threshold
    /// rejects the rest).
    /// **Deterministic**: identical for every worker count and
    /// interleaving, and identical to what a sequential full scan
    /// followed by top-k selection produces (property-tested).
    pub hits: Vec<(usize, u64)>,
    /// Entries the ratchet abandoned early (provably outside the final
    /// top-k). **Advisory**: depends on worker interleaving — a lucky
    /// schedule tightens the ratchet sooner and abandons more.
    pub abandoned: usize,
    /// Total grid cells computed across the scan. **Advisory**, like
    /// `abandoned` — the determinism guarantee covers `hits` only.
    pub cells_computed: u64,
}

impl From<ScanOutcome> for TopKScan {
    fn from(outcome: ScanOutcome) -> Self {
        TopKScan {
            hits: outcome.hits,
            abandoned: outcome.abandoned,
            cells_computed: outcome.cells_computed,
        }
    }
}

/// What a [`scan`] races the query against: a borrowed view over an
/// in-memory packed database or a persistent [`StoreTarget`]. The view
/// hides the two real differences between the sources — how pending
/// entries are materialized (a borrow from the slice, or a borrow from
/// the shards the store's quarantine ladder served) and which content
/// hash a [`ResumeToken`] is bound to.
#[derive(Debug, Clone, Copy)]
pub enum ScanEntries<'a, S: Symbol> {
    /// An in-memory packed database.
    Memory(&'a [PackedSeq<S>]),
    /// A persistent store target: lazily verified and decoded shards,
    /// corruption quarantine, replica fallback, token↔DB content-hash
    /// binding.
    Store(&'a StoreTarget<S>),
}

impl<S: Symbol> ScanEntries<'_, S> {
    /// Entries in the source.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ScanEntries::Memory(db) => db.len(),
            ScanEntries::Store(target) => target.store().len(),
        }
    }

    /// `true` when the source holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The length of entry `i` — from the manifest for a store, so
    /// admission costing never touches a payload chunk.
    fn entry_len(&self, i: usize) -> usize {
        match self {
            ScanEntries::Memory(db) => db[i].len(),
            ScanEntries::Store(target) => target.store().entry_len(i),
        }
    }

    /// The content hash a token issued over this source is bound to
    /// (`None` for an in-memory database).
    fn content_hash(&self) -> Option<u64> {
        match self {
            ScanEntries::Memory(_) => None,
            ScanEntries::Store(target) => Some(target.content_hash()),
        }
    }
}

/// Scans `query` against `entries` for the `k` **best** (lowest-score)
/// entries, with the early-termination threshold *ratcheting down* as
/// hits land — the §6 "move on to the next pattern" rule, sharpened
/// into a top-k race: once `k` candidates have finished, every further
/// race runs under "beat the current k-th best or be abandoned", so the
/// scan accelerates as it goes. This is the one ratcheted top-k scan:
/// in-memory and store sources, fresh and resumed runs, direct callers
/// and the [`crate::service::ScanService`] all go through it.
///
/// Execution: the batch planner packs the entries into stripes (the
/// fixed query is transposed into the stripe plane once and reused) and
/// streams them through workers (`None` = one per available thread)
/// that share the score ratchet. `cfg` carries mode, band, packer and an
/// optional threshold that seeds the ratchet. A **semi-global** scan
/// (`cfg.with_mode(AlignMode::SemiGlobal)`) is the paper's actual §6
/// workload: "does Q occur anywhere in this entry?".
///
/// The run is supervised by `ctrl` — cooperative cancellation,
/// deadline and cell-budget stops, per-stripe panic isolation with
/// per-pair fallback retry, and the fault ledger ([`crate::supervisor`]).
/// A store source additionally quarantines corrupt or unreadable shards:
/// a healthy replica serves them in place, otherwise their pairs land as
/// faulted, retryable pairs.
///
/// Returns the cumulative [`ScanOutcome`] — every earlier segment
/// included, so `completed + faulted + remaining == total` holds across
/// any number of resumes — plus a [`ResumeToken`] whenever pairs are
/// still unfinished. Feeding the token back as `resume` runs only its
/// pending pairs, the ratchet re-seeded from the carried hits; however
/// many times a scan is interrupted and resumed, the final top-k is
/// byte-identical to an uninterrupted run (property-tested).
///
/// [`ScanOutcome::hits`] is **deterministic** regardless of worker
/// interleaving: abandons only ever fire on a strict
/// `score > current-k-th-best` proof, and the ratchet is always at
/// least the true k-th best, so every true top-k entry finishes with
/// its exact score. Which *non*-hits get abandoned is advisory.
///
/// # Errors
///
/// [`AlignError`] for a request rejected up front: an invalid `cfg`, a
/// max-plus (local) mode, `k = 0` or `k` beyond the entries, an empty
/// query or entry, a shape no kernel word fits, or a `resume` token
/// issued for a different source or `k`. Early stops are not errors.
pub fn scan<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    entries: ScanEntries<'_, S>,
    k: usize,
    resume: Option<ResumeToken>,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<(ScanOutcome, Option<ResumeToken>), AlignError> {
    admit(cfg, query, entries, k, resume.as_ref())?;
    let carried =
        resume.unwrap_or_else(|| ResumeToken::fresh(k, entries.len(), entries.content_hash()));
    Ok(run_segment(cfg, query, entries, carried, workers, ctrl))
}

/// Kept with its signature because the benchmark harness (`perfbench/`)
/// calls it: [`scan`] over an in-memory database under an unbounded
/// [`ScanControl`], returned as a [`TopKScan`].
///
/// # Panics
///
/// Panics with the typed error's message on a request [`scan`] rejects.
#[must_use]
pub fn scan_packed_topk_with<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
    k: usize,
    workers: Option<usize>,
) -> TopKScan {
    match scan(
        cfg,
        query,
        ScanEntries::Memory(database),
        k,
        None,
        workers,
        &ScanControl::new(),
    ) {
        Ok((outcome, _)) => outcome.into(),
        Err(e) => panic!("{e}"),
    }
}

/// Kept with its signature because the benchmark harness (`perfbench/`)
/// calls it: a fresh [`scan`] over an in-memory database.
pub fn scan_packed_topk_resumable<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
    k: usize,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<(ScanOutcome, Option<ResumeToken>), AlignError> {
    scan(
        cfg,
        query,
        ScanEntries::Memory(database),
        k,
        None,
        workers,
        ctrl,
    )
}

/// Admits a scan request before any racing: the one validator (the
/// configuration's own rules, the min-plus requirement,
/// `1 ≤ k ≤ entries`, non-empty sequences, kernel-word eligibility for
/// the largest shape — a store answers the length questions from its
/// manifest, so no payload chunk is touched) and, for a resume, the one
/// token check (content-hash binding, database size, `k`, index range).
pub(crate) fn admit<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    entries: ScanEntries<'_, S>,
    k: usize,
    resume: Option<&ResumeToken>,
) -> Result<(), AlignError> {
    cfg.validate()?;
    let invalid = |reason: String| Err(AlignError::InvalidConfig { reason });
    if !cfg.mode.is_min_plus() {
        return invalid(
            "the ratcheted top-k scan races min-plus modes \
             (global/semi-global/affine); local (max-plus) best-hit scans \
             have no sound frontier abandon"
                .into(),
        );
    }
    if k == 0 {
        return invalid("top-k scan needs k >= 1".into());
    }
    if k > entries.len() {
        return invalid(format!(
            "k = {k} exceeds the database size {}: every entry would be a hit \
             and the ratchet could never tighten",
            entries.len()
        ));
    }
    if query.is_empty() {
        return invalid("empty query: a zero-length race has no cells to time".into());
    }
    let m_max = match entries {
        ScanEntries::Memory(db) => {
            if let Some(i) = db.iter().position(PackedSeq::is_empty) {
                return invalid(format!("database entry {i} is empty"));
            }
            db.iter().map(PackedSeq::len).max().unwrap_or(0)
        }
        ScanEntries::Store(target) => target.store().max_entry_len(),
    };
    cfg.checked_lane_width(query.len(), m_max)?;
    let Some(token) = resume else { return Ok(()) };
    match (entries.content_hash(), token.db_hash) {
        (None, Some(hash)) => {
            return invalid(format!(
                "resume token is bound to persistent store content {hash:#018x}; \
                 resume it against that store, not an in-memory database"
            ))
        }
        (Some(own), Some(hash)) if hash != own => {
            return invalid(format!(
                "resume token is bound to store content {hash:#018x}, but this store's \
                 content hash is {own:#018x} — the database was rebuilt or differs"
            ))
        }
        (Some(_), None) => {
            return invalid("resume token was issued by an in-memory scan, not this store".into())
        }
        _ => {}
    }
    if token.total_pairs != entries.len() {
        return invalid(format!(
            "resume token was issued for a database of {} entries, not {}",
            token.total_pairs,
            entries.len()
        ));
    }
    if token.k != k {
        return invalid(format!(
            "resume token was issued for a top-{} scan, not top-{k}",
            token.k
        ));
    }
    if let Some(bad) = token.pending_indices().find(|&i| i >= entries.len()) {
        return invalid(format!(
            "resume token references pair {bad} beyond the database"
        ));
    }
    Ok(())
}

/// Runs one segment of a (possibly resumed) scan — the carried token's
/// remaining pairs — and merges the result with the token's carried
/// state into a cumulative [`ScanOutcome`] plus the next checkpoint.
/// Materialization is the only per-source step: an in-memory database
/// lends its entries, a store walks its quarantine ladder over whole
/// shards (`store::materialize_pending`) and lends the entries out of
/// the decoded shards it served; the lost pairs join the faulted set.
/// Segment-local slot positions and fault indices are remapped to
/// original database indices here.
fn run_segment<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    entries: ScanEntries<'_, S>,
    carried: ResumeToken,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> (ScanOutcome, Option<ResumeToken>) {
    let ResumeToken {
        k,
        total_pairs,
        remaining: pending,
        retryable: mut faulted,
        hits: mut all_hits,
        completed_pairs: mut completed,
        abandoned: mut abandoned_count,
        cells_computed: mut cells,
        faults: mut all_faults,
        attempt,
        db_hash,
    } = carried;
    let stamp = |mut f: Fault| {
        f.attempt = attempt;
        f
    };

    // Both sources lend the pending entries in ascending input order, so
    // a store scan plans and sweeps the same units as an in-memory scan.
    let served;
    let (ids, pairs): (Vec<usize>, Vec<_>) = match entries {
        ScanEntries::Memory(db) => {
            let pairs = pending.iter().map(|&i| (query, &db[i])).collect();
            (pending, pairs)
        }
        ScanEntries::Store(target) => {
            let (shards, store_faults, lost) =
                crate::store::materialize_pending(target, &pending, ctrl);
            all_faults.extend(store_faults.into_iter().map(stamp));
            faulted.extend(lost);
            served = shards;
            pending
                .iter()
                .filter_map(|&i| {
                    let (shard, pos) = target.store().locate(i);
                    let entries = served[shard].as_ref()?;
                    Some((i, (query, &entries[pos])))
                })
                .unzip()
        }
    };
    let (slots, report) =
        crate::striped::scan_topk_resume_impl(cfg, &pairs, &ids, k, &all_hits, workers, ctrl);

    let mut remaining = Vec::new();
    for (slot, &idx) in slots.iter().zip(&ids) {
        if let Some(outcome) = slot.outcome() {
            completed += 1;
            cells += outcome.cells_computed;
            match outcome.finished_score() {
                Some(score) => all_hits.push((idx, score)),
                None => abandoned_count += 1,
            }
        } else if matches!(slot, crate::striped::Slot::Faulted) {
            faulted.push(idx);
        } else {
            remaining.push(idx);
        }
    }
    all_hits.sort_unstable_by_key(|&(idx, score)| (score, idx));
    all_hits.truncate(k);
    // `remaining` follows the ascending `ids`; the faulted set merges the
    // carried, quarantined and swept-but-faulted pairs, so re-establish
    // the token's ascending-index invariant there.
    faulted.sort_unstable();
    all_faults.extend(report.faults.into_iter().map(|mut f| {
        for p in &mut f.pairs {
            *p = ids[*p];
        }
        stamp(f)
    }));

    let outcome = ScanOutcome {
        hits: all_hits.clone(),
        completed_pairs: completed,
        faulted_pairs: faulted.len(),
        total_pairs,
        abandoned: abandoned_count,
        cells_computed: cells,
        faults: all_faults.clone(),
        stop: report.stop,
    };
    let token = (!remaining.is_empty() || !faulted.is_empty()).then_some(ResumeToken {
        k,
        total_pairs,
        remaining,
        retryable: faulted,
        hits: all_hits,
        completed_pairs: completed,
        abandoned: abandoned_count,
        cells_computed: cells,
        faults: all_faults,
        attempt,
        db_hash,
    });
    (outcome, token)
}

/// The admission-control cost estimate of a scan over `entries` — or
/// over just the `pending` ids of a resumed one: total banded DP cells
/// ([`crate::engine::BatchPlanStats::useful_cells`]'s currency) the
/// query would race under `cfg`'s band, assuming no early abandons.
/// Priced from lengths alone, so a store is priced from its manifest.
/// The [`crate::service::ScanService`] keys its bounded queue on this.
pub(crate) fn estimate_cells<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    entries: ScanEntries<'_, S>,
    pending: Option<&[usize]>,
) -> u64 {
    price_cells(cfg, query.len(), entries.len(), pending, |i| {
        entries.entry_len(i)
    })
}

/// Sums the banded grid cells of `pending` (all `total` entries when
/// `None`), each entry's length read through `entry_len`.
pub(crate) fn price_cells(
    cfg: &AlignConfig,
    query_len: usize,
    total: usize,
    pending: Option<&[usize]>,
    entry_len: impl Fn(usize) -> usize,
) -> u64 {
    let per = |i: usize| crate::striped::grid_cells(query_len, entry_len(i), cfg.band);
    match pending {
        Some(ids) => ids.iter().map(|&i| per(i)).sum(),
        None => (0..total).map(per).sum(),
    }
}

/// Kept with its signature because the benchmark harness (`perfbench/`)
/// calls it: the admission estimate of a fresh scan over an in-memory
/// database.
#[must_use]
pub fn estimate_scan_cells<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
) -> u64 {
    estimate_cells(cfg, query, ScanEntries::Memory(database), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::AlignmentRace;
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;
    use rl_bio::{matrix, mutate};
    use rl_dag::generate::seeded_rng;

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    #[test]
    fn paper_pair_at_various_thresholds() {
        let q = dna("GATTCGA");
        let p = dna("ACTGAGA");
        let w = RaceWeights::fig4();
        // Score is 10 (Fig. 4c).
        assert_eq!(
            threshold_race(&q, &p, w, 10),
            ThresholdOutcome::Within { score: 10 }
        );
        assert_eq!(threshold_race(&q, &p, w, 9), ThresholdOutcome::Exceeded);
        assert_eq!(threshold_race(&q, &p, w, 9).cycles_consumed(9), 10);
        assert_eq!(threshold_race(&q, &p, w, 20).score(), Some(10));
    }

    #[test]
    fn transformed_threshold_matches_blosum_score() {
        let w = TransformedWeights::from_scheme(&matrix::blosum62()).unwrap();
        let q: Seq<rl_bio::AminoAcid> = "MKLV".parse().unwrap();
        let raced = w.reference_race_cost(&q, &q).cycles().unwrap();
        assert_eq!(
            threshold_race_transformed(&q, &q, &w, raced),
            ThresholdOutcome::Within { score: raced }
        );
        assert_eq!(
            threshold_race_transformed(&q, &q, &w, raced - 1),
            ThresholdOutcome::Exceeded
        );
    }

    #[test]
    fn database_scan_separates_similar_from_random() {
        let mut rng = seeded_rng(11);
        let query: Seq<Dna> = Seq::random(&mut rng, 32);
        // Database: 3 near-duplicates + 5 unrelated strings.
        let mut db: Vec<Seq<Dna>> = (0..3)
            .map(|_| {
                mutate::mutate(
                    &query,
                    &mutate::MutationConfig::substitutions_only(0.05),
                    &mut rng,
                )
            })
            .collect();
        db.extend((0..5).map(|_| Seq::<Dna>::random(&mut rng, 32)));

        // Threshold: perfect self-match scores 32; allow some slack.
        let report = scan_database(&query, &db, RaceWeights::fig4(), 40);
        assert_eq!(report.hits.len(), 3, "exactly the mutated copies pass");
        assert!(report.hits.iter().all(|&(i, _)| i < 3));
        assert_eq!(report.rejected, 5);
        assert!(report.savings_fraction() > 0.0);
        assert!(report.total_cycles < report.unthresholded_cycles);
    }

    proptest! {
        /// DESIGN.md invariant 8: `Exceeded` iff true score > threshold,
        /// and consumed cycles ≤ threshold + 1.
        #[test]
        fn threshold_is_exact(qs in "[ACGT]{1,12}", ps in "[ACGT]{1,12}", t in 0_u64..30) {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let truth = AlignmentRace::new(&q, &p, w)
                .run_functional()
                .latency_cycles()
                .unwrap();
            let outcome = threshold_race(&q, &p, w, t);
            prop_assert_eq!(outcome == ThresholdOutcome::Exceeded, truth > t);
            prop_assert!(outcome.cycles_consumed(t) <= t.max(truth) + 1);
        }
    }
}
