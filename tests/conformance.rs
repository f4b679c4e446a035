//! The differential conformance suite: the single oracle every kernel
//! must pass. One parameterized harness asserts that the striped batch
//! path, the per-pair wavefront path, and the scalar rolling-row
//! reference produce identical verdicts for every `AlignMode` × lane
//! floor, on DNA and protein, plain, banded, and thresholded — and that
//! ratcheted top-k scans are byte-identical across worker counts and
//! agree with the per-pair reference selection. The batch runs on the
//! default worker pool, so running the suite at `RAYON_NUM_THREADS=1`
//! and `=4` covers the single- and multi-worker batch.
//!
//! Future kernels (new lane widths, new mode sweeps) plug into this
//! matrix instead of growing bespoke tests: if a configuration is
//! expressible, it is conformance-checked here. The bit-parallel scan
//! kernel is checked the same way: `Auto` scans under its weights
//! against the same scans pinned to the wavefront and rolling-row
//! kernels.

use race_logic::alignment::{AlignmentRace, RaceWeights};
use race_logic::early_termination::{
    estimate_scan_cells, scan, scan_packed_topk_with, ScanEntries,
};
use race_logic::engine::{
    align_batch, AffineWeights, AlignConfig, AlignEngine, AlignMode, KernelStrategy, LaneWidth,
    LocalScores,
};
use race_logic::supervisor::{ScanControl, ScanOutcome, StopReason};
use race_logic::telemetry::metrics::BITPAR_PAIRS;
use rl_bio::alphabet::Symbol;
use rl_bio::{AminoAcid, Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

const LANE_FLOORS: [LaneWidth; 4] = [
    LaneWidth::U8,
    LaneWidth::U16,
    LaneWidth::U32,
    LaneWidth::U64,
];

/// Mixed-length pairs in `lo..=hi` bp — long enough to stripe, ragged
/// enough to exercise the length-aware packer's cross-length stripes,
/// plus two short pairs that resolve to the per-pair rolling row so
/// every batch plan mixes striped and per-pair units.
fn pairs<S: Symbol>(
    seed: u64,
    count: usize,
    lo: usize,
    hi: usize,
) -> Vec<(PackedSeq<S>, PackedSeq<S>)> {
    let mut rng = seeded_rng(seed);
    let mut out: Vec<(PackedSeq<S>, PackedSeq<S>)> = (0..count)
        .map(|i| {
            let n = lo + (i * 7) % (hi - lo + 1);
            let m = lo + (i * 11 + 3) % (hi - lo + 1);
            (
                PackedSeq::from_seq(&Seq::random(&mut rng, n)),
                PackedSeq::from_seq(&Seq::random(&mut rng, m)),
            )
        })
        .collect();
    out.push((
        PackedSeq::from_seq(&Seq::random(&mut rng, 8)),
        PackedSeq::from_seq(&Seq::random(&mut rng, 9)),
    ));
    out.push((
        PackedSeq::from_seq(&Seq::random(&mut rng, 12)),
        PackedSeq::from_seq(&Seq::random(&mut rng, 7)),
    ));
    out
}

/// `count` seed-pinned pairs of exactly `len` bp each: the fixed shapes
/// every kernel path is smoke-checked on (8 × 32 bp short reads, 16 ×
/// 256 bp long reads).
fn fixed_pairs(count: usize, len: usize) -> Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> {
    let mut rng = seeded_rng(0xBA7C4);
    (0..count)
        .map(|_| {
            (
                PackedSeq::from_seq(&Seq::random(&mut rng, len)),
                PackedSeq::from_seq(&Seq::random(&mut rng, len)),
            )
        })
        .collect()
}

/// The conformance core: for one mode/band/threshold configuration,
/// assert striped batch == per-pair == scalar-reference across every
/// lane floor (and, for the unbanded unthresholded global recurrence,
/// == the allocating full-grid `run_functional`).
fn assert_conformance<S: Symbol>(
    label: &str,
    cfg: AlignConfig,
    pairs: &[(PackedSeq<S>, PackedSeq<S>)],
) {
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();
    // Scalar reference: the per-pair rolling row computes in plain u64
    // with no SIMD, no striping, no lane clamping.
    let mut scalar_engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
    let scalar: Vec<_> = pairs
        .iter()
        .map(|(q, p)| scalar_engine.align(q, p))
        .collect();

    if cfg.mode == AlignMode::Global && cfg.band.is_none() && cfg.threshold.is_none() {
        for ((q, p), reference) in pairs.iter().zip(&scalar) {
            let grid = AlignmentRace::new(&q.to_seq(), &p.to_seq(), cfg.weights).run_functional();
            assert_eq!(
                grid.latency_cycles(),
                reference.score.cycles(),
                "{label}: run_functional diverges from scalar ({} x {})",
                q.len(),
                p.len()
            );
        }
    }

    for floor in LANE_FLOORS {
        let fcfg = cfg.with_lane_floor(floor);

        // Per-pair wavefront at this floor: same verdicts as scalar.
        let mut wf_engine = AlignEngine::new(fcfg.with_strategy(KernelStrategy::Wavefront));
        for ((q, p), reference) in pairs.iter().zip(&scalar) {
            let out = wf_engine.align(q, p);
            assert_eq!(
                (out.score, out.early_terminated),
                (reference.score, reference.early_terminated),
                "{label}: per-pair wavefront diverges from scalar at floor {floor:?} \
                 ({} x {})",
                q.len(),
                p.len()
            );
        }

        // Sequential per-pair loop under the batch's own (Auto)
        // strategy resolution: the byte-identity baseline for batches.
        let mut auto_engine = AlignEngine::new(fcfg);
        let sequential: Vec<_> = pairs.iter().map(|(q, p)| auto_engine.align(q, p)).collect();

        let report = align_batch(&fcfg, &refs, &ScanControl::new());
        assert!(
            report.is_complete(),
            "{label}: an unconstrained batch must complete every pair"
        );
        let batch: Vec<_> = report.outcomes.into_iter().flatten().collect();
        assert_eq!(
            batch, sequential,
            "{label}: striped batch diverges from the sequential per-pair loop \
             at floor {floor:?}"
        );
        for (out, reference) in batch.iter().zip(&scalar) {
            assert_eq!(
                (out.score, out.early_terminated),
                (reference.score, reference.early_terminated),
                "{label}: striped batch diverges from scalar at floor {floor:?}"
            );
        }
    }
}

/// The worker axis: ratcheted top-k scans must be byte-identical at 1
/// and 4 workers, and every reported hit must carry the scalar
/// reference's exact score. (Local mode is excluded by the scan API
/// itself: max-plus scans have no sound frontier abandon.)
fn assert_scan_conformance<S: Symbol>(label: &str, cfg: AlignConfig, seed: u64, len: usize) {
    let mut rng = seeded_rng(seed);
    let query = PackedSeq::from_seq(&Seq::<S>::random(&mut rng, len));
    let database: Vec<PackedSeq<S>> = (0..20)
        .map(|i| PackedSeq::from_seq(&Seq::random(&mut rng, len - 6 + (i % 13))))
        .collect();

    let mut scalar_engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
    let scalar: Vec<_> = database
        .iter()
        .map(|p| scalar_engine.align(&query, p))
        .collect();

    for floor in LANE_FLOORS {
        let fcfg = cfg.with_lane_floor(floor);
        let one = scan_packed_topk_with(&fcfg, &query, &database, 5, Some(1));
        let four = scan_packed_topk_with(&fcfg, &query, &database, 5, Some(4));
        assert_eq!(
            one.hits, four.hits,
            "{label}: scan hits diverge across worker counts at floor {floor:?}"
        );
        for &(idx, score) in &one.hits {
            assert_eq!(
                Some(score),
                scalar[idx].score.cycles(),
                "{label}: hit {idx} disagrees with the scalar reference at floor {floor:?}"
            );
        }
    }
}

/// The banded + thresholded variants layered onto one base mode.
fn mode_variants(base: AlignConfig, threshold: Option<u64>) -> Vec<(&'static str, AlignConfig)> {
    let mut v = vec![("plain", base), ("banded", base.with_band(6))];
    if let Some(t) = threshold {
        v.push(("thresholded", base.with_threshold(t)));
        v.push(("banded+thresholded", base.with_band(6).with_threshold(t)));
    }
    v
}

#[test]
fn conformance_dna_global() {
    let pairs = pairs::<Dna>(0xC0F0, 14, 40, 64);
    let base = AlignConfig::new(RaceWeights::fig4());
    for (variant, cfg) in mode_variants(base, Some(18)) {
        assert_conformance(&format!("dna/global/{variant}"), cfg, &pairs);
    }
    let short = fixed_pairs(8, 32);
    assert_conformance("dna/global/8x32", base, &short);
    assert_conformance("dna/global/8x32/band4", base.with_band(4), &short);
    assert_conformance("dna/global/16x256", base, &fixed_pairs(16, 256));
}

#[test]
fn conformance_dna_semi_global() {
    let pairs = pairs::<Dna>(0xC0F1, 14, 40, 60);
    let base = AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal);
    for (variant, cfg) in mode_variants(base, Some(10)) {
        assert_conformance(&format!("dna/semi-global/{variant}"), cfg, &pairs);
    }
    let short = fixed_pairs(8, 32);
    assert_conformance("dna/semi-global/8x32", base, &short);
    assert_conformance("dna/semi-global/8x32/band4", base.with_band(4), &short);
}

#[test]
fn conformance_dna_local() {
    let pairs = pairs::<Dna>(0xC0F2, 14, 40, 56);
    let base =
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores::blast()));
    for (variant, cfg) in mode_variants(base, None) {
        assert_conformance(&format!("dna/local/{variant}"), cfg, &pairs);
    }
    assert_conformance("dna/local/8x32", base, &fixed_pairs(8, 32));
}

#[test]
fn conformance_dna_affine() {
    let pairs = pairs::<Dna>(0xC0F3, 14, 40, 64);
    let base = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
    for (variant, cfg) in mode_variants(base, Some(22)) {
        assert_conformance(&format!("dna/affine/{variant}"), cfg, &pairs);
    }
    assert_conformance("dna/affine/8x32", base, &fixed_pairs(8, 32));
}

#[test]
fn conformance_dna_affine_u8_stripes() {
    // Short pairs under unit weights: the affine stripe width itself
    // resolves to u8 (verified below), so the biased byte three-plane
    // sweep — not just the u8-floored planner — is conformance-covered.
    let w = RaceWeights {
        matched: 1,
        mismatched: Some(1),
        indel: 1,
    };
    let base = AlignConfig::new(w).with_mode(AlignMode::GlobalAffine(AffineWeights { open: 1 }));
    assert_eq!(
        base.resolve_stripe_lanes(36, 36),
        LaneWidth::U8,
        "the workload must actually ride u8 lanes for this test to bite"
    );
    let pairs = pairs::<Dna>(0xC0F4, 14, 32, 36);
    for (variant, cfg) in mode_variants(base, Some(14)) {
        assert_conformance(&format!("dna/affine-u8/{variant}"), cfg, &pairs);
    }
}

#[test]
fn conformance_protein_global_and_affine() {
    let pairs = pairs::<AminoAcid>(0xC0F5, 12, 36, 52);
    for (variant, cfg) in mode_variants(AlignConfig::new(RaceWeights::fig2b()), Some(40)) {
        assert_conformance(&format!("protein/global/{variant}"), cfg, &pairs);
    }
    let affine = AlignConfig::new(RaceWeights::fig2b())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 3 }));
    for (variant, cfg) in mode_variants(affine, Some(48)) {
        assert_conformance(&format!("protein/affine/{variant}"), cfg, &pairs);
    }
}

#[test]
fn conformance_protein_local() {
    let pairs = pairs::<AminoAcid>(0xC0F6, 12, 36, 48);
    let base =
        AlignConfig::new(RaceWeights::fig2b()).with_mode(AlignMode::Local(LocalScores::blast()));
    for (variant, cfg) in mode_variants(base, None) {
        assert_conformance(&format!("protein/local/{variant}"), cfg, &pairs);
    }
}

/// The length-bound prune and the remaining-cost stripe abandon against
/// the sequential oracle. The database mixes near-copies of the query
/// (so the ratchet tightens early), entries far shorter and far longer
/// than it (so the prune fires, in striped and per-pair units alike),
/// random entries just below and just above its length, and windows of
/// the query itself. Under fig4 weights a window of length `m < n`
/// scores exactly `n` (`m` matches plus `n − m` indels), the
/// `scan_long` regime: several entries tie the ratchet's threshold
/// exactly, so any abandon that is not a strict `score > t` proof shows
/// up as a wrong hit. The scan must yield exactly the top-k a full
/// scalar scan selects at every lane floor and worker count. Returns
/// the stripe widths the query length resolves to.
fn assert_pruned_scan_matches_oracle(
    label: &str,
    cfg: AlignConfig,
    seed: u64,
    len: usize,
) -> Vec<LaneWidth> {
    const K: usize = 4;
    let mut rng = seeded_rng(seed);
    let query_seq = Seq::<Dna>::random(&mut rng, len);
    let query = PackedSeq::from_seq(&query_seq);
    let mut database: Vec<PackedSeq<Dna>> = Vec::new();
    for i in 0..48 {
        let entry = match i % 6 {
            0 => rl_bio::mutate::mutate(
                &query_seq,
                &rl_bio::mutate::MutationConfig::substitutions_only(0.05),
                &mut rng,
            ),
            1 => Seq::random(&mut rng, 4 * len + i),
            2 => Seq::random(&mut rng, len / 3 + i % 5),
            3 => Seq::random(&mut rng, len + i % 9),
            4 => {
                let start = i % 3;
                let end = len - 1 - i % 4;
                query_seq.as_slice()[start..end].iter().copied().collect()
            }
            _ => Seq::random(&mut rng, len - 1 - i % 7),
        };
        database.push(PackedSeq::from_seq(&entry));
    }

    let mut scalar_engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
    let mut oracle: Vec<(usize, u64)> = database
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            scalar_engine
                .align(&query, p)
                .finished_score()
                .map(|s| (i, s))
        })
        .collect();
    oracle.sort_unstable_by_key(|&(i, s)| (s, i));
    oracle.truncate(K);

    let pruned_before = race_logic::telemetry::metrics::PAIRS_PRUNED.get();
    let mut widths = Vec::new();
    for floor in [LaneWidth::U8, LaneWidth::U16, LaneWidth::U32] {
        let fcfg = cfg.with_lane_floor(floor);
        widths.push(fcfg.resolve_stripe_lanes(len, len));
        for workers in [1, 2, 4] {
            let scan = scan_packed_topk_with(&fcfg, &query, &database, K, Some(workers));
            assert_eq!(
                scan.hits, oracle,
                "{label}: pruned scan diverges from the sequential oracle at floor \
                 {floor:?}, {workers} workers"
            );
        }
    }
    assert!(
        race_logic::telemetry::metrics::PAIRS_PRUNED.get() > pruned_before,
        "{label}: the workload must actually exercise the length-bound prune"
    );
    widths
}

#[test]
fn pruned_scans_match_the_sequential_oracle() {
    let affine = AlignMode::GlobalAffine(AffineWeights { open: 2 });
    let mut widths = Vec::new();
    let wavefront = KernelStrategy::Wavefront;
    for (label, cfg) in [
        ("global", AlignConfig::new(RaceWeights::fig4())),
        (
            "global/wavefront",
            AlignConfig::new(RaceWeights::fig4()).with_strategy(wavefront),
        ),
        (
            "global/levenshtein",
            AlignConfig::new(RaceWeights::levenshtein()),
        ),
        (
            "global/levenshtein/wavefront",
            AlignConfig::new(RaceWeights::levenshtein()).with_strategy(wavefront),
        ),
        (
            "global/banded",
            AlignConfig::new(RaceWeights::fig4()).with_band(12),
        ),
        (
            "affine",
            AlignConfig::new(RaceWeights::fig4()).with_mode(affine),
        ),
        (
            "affine/fig2b",
            AlignConfig::new(RaceWeights::fig2b()).with_mode(affine),
        ),
    ] {
        // 64 bp queries stripe; 24 bp queries run on per-pair units.
        widths.extend(assert_pruned_scan_matches_oracle(label, cfg, 0x9A0E, 64));
        assert_pruned_scan_matches_oracle(label, cfg, 0x9A0F, 24);
    }
    for width in [LaneWidth::U8, LaneWidth::U16, LaneWidth::U32] {
        assert!(
            widths.contains(&width),
            "the striped scans must run {width:?} stripes"
        );
    }
}

#[test]
fn scan_conformance_across_workers() {
    assert_scan_conformance::<Dna>(
        "dna/global",
        AlignConfig::new(RaceWeights::fig4()),
        0x5CA0,
        64,
    );
    assert_scan_conformance::<Dna>(
        "dna/semi-global",
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal),
        0x5CA1,
        56,
    );
    assert_scan_conformance::<Dna>(
        "dna/affine",
        AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
        0x5CA2,
        60,
    );
    assert_scan_conformance::<AminoAcid>(
        "protein/global",
        AlignConfig::new(RaceWeights::fig2b()),
        0x5CA3,
        48,
    );
}

/// A fresh unconstrained scan of `query` over `database`.
fn fresh_scan<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
    k: usize,
    workers: usize,
) -> ScanOutcome {
    scan(
        cfg,
        query,
        ScanEntries::Memory(database),
        k,
        None,
        Some(workers),
        &ScanControl::new(),
    )
    .expect("valid request")
    .0
}

/// A scan database around a `len`-symbol query: entries of length 1,
/// entries longer than four queries, windows of the query itself (under
/// the LCS weights every window scores exactly `len`, so the ratchet's
/// threshold sits on a tie), and random entries near the query's
/// length.
fn bitpar_database<S: Symbol>(seed: u64, len: usize) -> (PackedSeq<S>, Vec<PackedSeq<S>>) {
    let mut rng = seeded_rng(seed);
    let query = Seq::<S>::random(&mut rng, len);
    let database = (0..18)
        .map(|i| {
            let entry = match i % 6 {
                0 => Seq::random(&mut rng, 1),
                1 => Seq::random(&mut rng, 4 * len + 1 + i),
                2 | 3 if len >= 8 => query.as_slice()[i % 3..len - 1 - i % 4]
                    .iter()
                    .copied()
                    .collect(),
                _ => Seq::random(&mut rng, (len + i % 9).saturating_sub(4).max(1)),
            };
            PackedSeq::from_seq(&entry)
        })
        .collect();
    (PackedSeq::from_seq(&query), database)
}

/// The bit-parallel scan conformance core: at every query length on
/// both sides of the 64-bit word boundaries and at workers {1, 2, 4},
/// the `Auto` scan (bit-parallel under these weights) and the same scan
/// pinned to the wavefront and to the rolling row report identical
/// `hits`, `completed_pairs` and `faulted_pairs`, and the hits are the
/// top-k of the scalar rolling-row engine's scores.
fn assert_bitpar_scan_conformance<S: Symbol>(label: &str, cfg: AlignConfig, seed: u64) {
    const K: usize = 3;
    let swept_before = BITPAR_PAIRS.get();
    for len in [1, 63, 64, 65, 128, 129, 256] {
        let (query, database) = bitpar_database::<S>(seed ^ len as u64, len);
        let mut scalar_engine = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
        let mut oracle: Vec<(usize, u64)> = database
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                scalar_engine
                    .align(&query, p)
                    .finished_score()
                    .map(|s| (i, s))
            })
            .collect();
        oracle.sort_unstable_by_key(|&(i, s)| (s, i));
        oracle.truncate(K);
        for workers in [1, 2, 4] {
            let auto = fresh_scan(&cfg, &query, &database, K, workers);
            assert_eq!(
                auto.hits, oracle,
                "{label}: bit-parallel scan diverges from the scalar oracle \
                 ({len} bp query, {workers} workers)"
            );
            for pin in [KernelStrategy::Wavefront, KernelStrategy::RollingRow] {
                let pinned = fresh_scan(&cfg.with_strategy(pin), &query, &database, K, workers);
                assert_eq!(
                    (&auto.hits, auto.completed_pairs, auto.faulted_pairs),
                    (&pinned.hits, pinned.completed_pairs, pinned.faulted_pairs),
                    "{label}: auto and {pin} scans diverge ({len} bp query, {workers} workers)"
                );
            }
        }
    }
    assert!(
        BITPAR_PAIRS.get() > swept_before,
        "{label}: the Auto scans must run the bit-parallel kernel"
    );
}

#[test]
fn bitpar_scans_match_the_dp_kernels() {
    let levenshtein = AlignConfig::new(RaceWeights::levenshtein());
    assert_bitpar_scan_conformance::<Dna>(
        "dna/global/fig4",
        AlignConfig::new(RaceWeights::fig4()),
        0xB170,
    );
    assert_bitpar_scan_conformance::<Dna>(
        "dna/global/fig2b",
        AlignConfig::new(RaceWeights::fig2b()),
        0xB171,
    );
    assert_bitpar_scan_conformance::<AminoAcid>(
        "protein/global/fig2b",
        AlignConfig::new(RaceWeights::fig2b()),
        0xB172,
    );
    assert_bitpar_scan_conformance::<Dna>("dna/global/levenshtein", levenshtein, 0xB173);
    assert_bitpar_scan_conformance::<Dna>(
        "dna/semi-global/levenshtein",
        levenshtein.with_mode(AlignMode::SemiGlobal),
        0xB174,
    );
}

/// A cell budget stops a bit-parallel scan with `BudgetExhausted`, and
/// resuming the chain from its tokens lands on hits byte-identical to
/// the uninterrupted scan.
#[test]
fn bitpar_budget_stop_resumes_byte_identically() {
    for cfg in [
        AlignConfig::new(RaceWeights::fig4()),
        AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal),
    ] {
        let (query, database) = bitpar_database::<Dna>(0xB175, 64);
        let entries = ScanEntries::Memory(&database);
        let full = fresh_scan(&cfg, &query, &database, 3, 1);
        let budget = estimate_scan_cells(&cfg, &query, &database) / 4;
        let swept_before = BITPAR_PAIRS.get();
        let ctrl = ScanControl::new().with_cells_budget(budget);
        let (first, mut token) = scan(&cfg, &query, entries, 3, None, Some(1), &ctrl).unwrap();
        assert_eq!(first.stop, Some(StopReason::BudgetExhausted), "{cfg:?}");
        assert!(
            BITPAR_PAIRS.get() > swept_before,
            "{cfg:?}: swept bit-parallel"
        );
        let mut last = first;
        let mut segments = 1;
        while let Some(tok) = token {
            assert!(
                segments <= database.len(),
                "{cfg:?}: the chain must progress"
            );
            let ctrl = ScanControl::new().with_cells_budget(budget);
            (last, token) = scan(&cfg, &query, entries, 3, Some(tok), Some(1), &ctrl).unwrap();
            segments += 1;
        }
        assert!(segments > 1, "{cfg:?}: the budget must cut the scan");
        assert!(last.is_complete(), "{cfg:?}");
        assert_eq!(last.hits, full.hits, "{cfg:?}: resumed hits");
    }
}
