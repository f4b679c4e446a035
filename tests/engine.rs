//! Integration tests for the `race_logic::engine` subsystem: the engine
//! must agree with the paper-semantics fixed point
//! (`AlignmentRace::run_functional`), with `rl_bio`'s reference
//! Needleman–Wunsch DP, and with itself across the batched and
//! sequential paths — under unbanded, banded and early-terminating
//! configurations, on DNA and protein alphabets.

use proptest::prelude::*;
use race_logic::alignment::{AlignmentRace, RaceWeights};
use race_logic::banded::banded_race;
use race_logic::early_termination::{threshold_race, ThresholdOutcome};
use race_logic::engine::{align_batch, AlignConfig, AlignEngine, EngineOutcome};
use race_logic::supervisor::ScanControl;
use rl_bio::alphabet::Symbol;
use rl_bio::{align, Objective, PackedSeq, ScoreScheme, Seq};
use rl_bio::{AminoAcid, Dna};

/// The batch door under an unconstrained control, one outcome per pair.
fn batch_outcomes<S: Symbol>(
    cfg: &AlignConfig,
    pairs: &[(PackedSeq<S>, PackedSeq<S>)],
) -> Vec<EngineOutcome> {
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();
    align_batch(cfg, &refs, &ScanControl::new()).expect_complete()
}

/// A reference DP scheme equivalent to `RaceWeights`, for any alphabet.
fn race_scheme<S: Symbol>(w: RaceWeights) -> ScoreScheme<S> {
    ScoreScheme::from_fn(
        "race-weights",
        Objective::Minimize,
        w.indel as i32,
        move |a, b| {
            if a == b {
                Some(w.matched as i32)
            } else {
                w.mismatched.map(|m| m as i32)
            }
        },
    )
}

fn engine_score<S: Symbol>(
    cfg: AlignConfig,
    q: &Seq<S>,
    p: &Seq<S>,
) -> race_logic::engine::EngineOutcome {
    AlignEngine::new(cfg).align(&PackedSeq::from_seq(q), &PackedSeq::from_seq(p))
}

proptest! {
    /// Unbanded engine == run_functional == reference DP, DNA.
    #[test]
    fn engine_matches_fixed_point_and_reference_dna(
        qs in "[ACGT]{0,24}", ps in "[ACGT]{0,24}"
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
            let fixed = AlignmentRace::new(&q, &p, w).run_functional().score();
            let out = engine_score(AlignConfig::new(w), &q, &p);
            prop_assert_eq!(out.score, fixed);
            // The race weights always admit an all-indel path, so the
            // reference DP must agree and be finite.
            let dp = align::global_score(&q, &p, &race_scheme(w)).unwrap();
            prop_assert_eq!(out.score.cycles(), Some(dp as u64));
        }
    }

    /// Unbanded engine == run_functional == reference DP, protein.
    #[test]
    fn engine_matches_fixed_point_and_reference_protein(
        qs in "[ARNDCQEGHILKMFPSTWYV]{0,12}",
        ps in "[ARNDCQEGHILKMFPSTWYV]{0,12}"
    ) {
        let (q, p): (Seq<AminoAcid>, Seq<AminoAcid>) =
            (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig2b();
        let fixed = AlignmentRace::new(&q, &p, w).run_functional().score();
        let out = engine_score(AlignConfig::new(w), &q, &p);
        prop_assert_eq!(out.score, fixed);
        let dp = align::global_score(&q, &p, &race_scheme(w)).unwrap();
        prop_assert_eq!(out.score.cycles(), Some(dp as u64));
    }

    /// Banded engine == standalone banded race (score and cell count),
    /// and certified-exact bands equal the unbanded engine.
    #[test]
    fn banded_engine_matches_banded_race(
        qs in "[ACGT]{0,18}", ps in "[ACGT]{0,18}", band in 0_usize..20
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig4();
        let reference = banded_race(&q, &p, w, band);
        let out = engine_score(AlignConfig::new(w).with_band(band), &q, &p);
        prop_assert_eq!(out.score, reference.score);
        prop_assert_eq!(out.cells_computed, reference.cells_built as u64);
        if reference.certified_exact(w) {
            let exact = engine_score(AlignConfig::new(w), &q, &p);
            prop_assert_eq!(out.score, exact.score);
        }
    }

    /// Early-terminating engine classifies exactly like threshold_race,
    /// which itself matches the true score.
    #[test]
    fn early_termination_is_exact(
        qs in "[ACGT]{1,16}", ps in "[ACGT]{1,16}", t in 0_u64..36
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig4();
        let truth = AlignmentRace::new(&q, &p, w).run_functional().latency_cycles().unwrap();
        let out = engine_score(AlignConfig::new(w).with_threshold(t), &q, &p);
        prop_assert_eq!(out.early_terminated, truth > t);
        prop_assert_eq!(out.finished_score(), (truth <= t).then_some(truth));
        // And the public threshold_race API (now engine-backed) agrees.
        match threshold_race(&q, &p, w, t) {
            ThresholdOutcome::Within { score } => prop_assert_eq!(score, truth),
            ThresholdOutcome::Exceeded => prop_assert!(truth > t),
        }
    }

    /// align_batch equals the sequential engine loop for every config
    /// shape, with results in input order.
    #[test]
    fn batch_equals_sequential_loop(
        seqs in collection::vec("[ACGT]{0,16}", 0..10), band in 1_usize..8, t in 4_u64..40
    ) {
        let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
            .iter()
            .map(|s| {
                let q: Seq<Dna> = s.parse().unwrap();
                let p: Seq<Dna> = "GATTCGAGATTCGA".parse().unwrap();
                (PackedSeq::from_seq(&q), PackedSeq::from_seq(&p))
            })
            .collect();
        let w = RaceWeights::fig4();
        for cfg in [
            AlignConfig::new(w),
            AlignConfig::new(w).with_band(band),
            AlignConfig::new(w).with_threshold(t),
        ] {
            let batch = batch_outcomes(&cfg, &pairs);
            let mut engine = AlignEngine::new(cfg);
            let sequential: Vec<_> =
                pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
            prop_assert_eq!(&batch, &sequential);
        }
    }
}

/// Acceptance criterion: after warm-up the single-pair engine path
/// allocates nothing per alignment — its scratch capacities are stable
/// across many alignments, including smaller follow-up inputs.
#[test]
fn engine_scratch_capacity_is_stable_after_warmup() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(99);
    let big: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..4)
        .map(|_| {
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 256)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 256)),
            )
        })
        .collect();
    let small = (
        PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 31)),
        PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 57)),
    );

    let mut engine = AlignEngine::new(AlignConfig::new(RaceWeights::fig4()));
    // Warm up BOTH kernel paths at their working-set sizes: under
    // KernelStrategy::Auto the big pairs run the wavefront kernel
    // (anti-diagonal scratch) and the small pair runs the rolling-row
    // kernel (row scratch). Each path allocates on its first call only.
    let (q0, p0) = &big[0];
    let _ = engine.align(q0, p0);
    let _ = engine.align(&small.0, &small.1);
    let caps = engine.scratch_capacities();
    for _ in 0..50 {
        for (q, p) in &big {
            let _ = engine.align(q, p);
        }
        let _ = engine.align(&small.0, &small.1);
        assert_eq!(
            engine.scratch_capacities(),
            caps,
            "engine scratch must not grow or shrink after warm-up"
        );
    }
}

/// The engine reproduces the paper's running example end to end.
#[test]
fn engine_reproduces_fig4c() {
    let q: Seq<Dna> = "GATTCGA".parse().unwrap();
    let p: Seq<Dna> = "ACTGAGA".parse().unwrap();
    let out = engine_score(AlignConfig::new(RaceWeights::fig4()), &q, &p);
    assert_eq!(out.score.cycles(), Some(10));
    assert_eq!(out.cells_computed, 64);
}

// ---------------------------------------------------------------------------
// Wavefront (anti-diagonal SIMD) kernel vs rolling-row vs reference DP.
// ---------------------------------------------------------------------------

use race_logic::banded::banded_race_with;
use race_logic::early_termination::threshold_race_with;
use race_logic::engine::KernelStrategy;

fn both_strategies(cfg: AlignConfig) -> [AlignConfig; 2] {
    [
        cfg.with_strategy(KernelStrategy::RollingRow),
        cfg.with_strategy(KernelStrategy::Wavefront),
    ]
}

proptest! {
    /// Wavefront == rolling-row == reference DP on DNA, every weight
    /// scheme, unbanded.
    #[test]
    fn wavefront_matches_rolling_and_reference_dna(
        qs in "[ACGT]{0,48}", ps in "[ACGT]{0,48}"
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
            let [row_cfg, wave_cfg] = both_strategies(AlignConfig::new(w));
            let rolling = engine_score(row_cfg, &q, &p);
            let wave = engine_score(wave_cfg, &q, &p);
            prop_assert_eq!(rolling, wave);
            let dp = align::global_score(&q, &p, &race_scheme(w)).unwrap();
            prop_assert_eq!(wave.score.cycles(), Some(dp as u64));
        }
    }

    /// Wavefront == rolling-row == reference DP on protein (5-bit
    /// codes: the kernel is alphabet-agnostic over unpacked codes).
    #[test]
    fn wavefront_matches_rolling_and_reference_protein(
        qs in "[ARNDCQEGHILKMFPSTWYV]{0,20}",
        ps in "[ARNDCQEGHILKMFPSTWYV]{0,20}"
    ) {
        let (q, p): (Seq<AminoAcid>, Seq<AminoAcid>) =
            (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig2b();
        let [row_cfg, wave_cfg] = both_strategies(AlignConfig::new(w));
        let rolling = engine_score(row_cfg, &q, &p);
        let wave = engine_score(wave_cfg, &q, &p);
        prop_assert_eq!(rolling, wave);
        let dp = align::global_score(&q, &p, &race_scheme(w)).unwrap();
        prop_assert_eq!(wave.score.cycles(), Some(dp as u64));
    }

    /// Banded wavefront == banded rolling-row == standalone banded race
    /// (which itself is checked against the reference DP elsewhere):
    /// same score, same in-band cell count. Also covers both grid-fill
    /// orders via `banded_race_with`.
    #[test]
    fn banded_wavefront_matches_rolling(
        qs in "[ACGT]{0,32}", ps in "[ACGT]{0,32}", band in 0_usize..34
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig4();
        let [row_cfg, wave_cfg] = both_strategies(AlignConfig::new(w).with_band(band));
        let rolling = engine_score(row_cfg, &q, &p);
        let wave = engine_score(wave_cfg, &q, &p);
        prop_assert_eq!(rolling.score, wave.score);
        prop_assert_eq!(rolling.cells_computed, wave.cells_computed);
        prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        let grid_row = banded_race_with(&q, &p, w, band, KernelStrategy::RollingRow);
        let grid_wave = banded_race_with(&q, &p, w, band, KernelStrategy::Wavefront);
        prop_assert_eq!(&grid_row, &grid_wave);
        prop_assert_eq!(grid_wave.score, wave.score);
        prop_assert_eq!(grid_wave.cells_built as u64, wave.cells_computed);
    }

    /// Early-terminating wavefront classifies identically to rolling-row
    /// and to the truth, including banded+thresholded combinations.
    #[test]
    fn thresholded_wavefront_matches_rolling(
        qs in "[ACGT]{1,32}", ps in "[ACGT]{1,32}", t in 0_u64..40, band in 8_usize..34
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig4();
        for base in [
            AlignConfig::new(w).with_threshold(t),
            AlignConfig::new(w).with_threshold(t).with_band(band),
        ] {
            let [row_cfg, wave_cfg] = both_strategies(base);
            let rolling = engine_score(row_cfg, &q, &p);
            let wave = engine_score(wave_cfg, &q, &p);
            prop_assert_eq!(rolling.score, wave.score);
            prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        }
        // The public thresholded API agrees across orders too.
        prop_assert_eq!(
            threshold_race_with(&q, &p, w, t, KernelStrategy::RollingRow),
            threshold_race_with(&q, &p, w, t, KernelStrategy::Wavefront)
        );
    }

    /// The full arrival grid is identical in both traversal orders.
    #[test]
    fn functional_grid_identical_across_orders(
        qs in "[ACGT]{0,24}", ps in "[ACGT]{0,24}"
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let race = AlignmentRace::new(&q, &p, RaceWeights::fig2b());
        let by_rows = race.run_functional_with(KernelStrategy::RollingRow);
        let by_diagonals = race.run_functional_with(KernelStrategy::Wavefront);
        for i in 0..=q.len() {
            for j in 0..=p.len() {
                prop_assert_eq!(by_rows.arrival(i, j), by_diagonals.arrival(i, j));
            }
        }
    }
}

/// Regression: odd and short lengths that don't fill a full SIMD lane
/// block (the wavefront kernel runs 8-lane blocks plus a scalar tail;
/// every `n × m` below exercises some combination of empty interior,
/// tail-only diagonals, and block+tail diagonals). Deterministic, not
/// property-based, so a lane-boundary bug cannot hide behind shrinking.
#[test]
fn wavefront_lane_boundary_regression() {
    let w = RaceWeights::fig4();
    let bases = ['A', 'C', 'G', 'T'];
    let make = |len: usize, phase: usize| -> Seq<Dna> {
        (0..len)
            .map(|i| bases[(i * 7 + phase) % 4])
            .collect::<String>()
            .parse()
            .unwrap()
    };
    // Straddle the 8-lane block width from both sides, plus asymmetric
    // shapes whose early/late diagonals are shorter than a block.
    let lens = [0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 23, 24, 25, 31, 33];
    for &n in &lens {
        for &m in &lens {
            let (q, p) = (make(n, 0), make(m, 1));
            let rolling = engine_score(
                AlignConfig::new(w).with_strategy(KernelStrategy::RollingRow),
                &q,
                &p,
            );
            let wave = engine_score(
                AlignConfig::new(w).with_strategy(KernelStrategy::Wavefront),
                &q,
                &p,
            );
            assert_eq!(rolling, wave, "strategy mismatch at {n}x{m}");
            let dp = align::global_score(&q, &p, &race_scheme(w)).unwrap();
            assert_eq!(
                wave.score.cycles(),
                Some(dp as u64),
                "reference mismatch at {n}x{m}"
            );
        }
    }
}

/// Auto-selection sanity at the public API level: both auto-picked
/// kernels agree with each other on the shapes that straddle the
/// selection boundary.
#[test]
fn auto_boundary_shapes_agree() {
    use rand::SeedableRng;

    let w = RaceWeights::fig4();
    let cfg = AlignConfig::new(w);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for (n, m) in [(31, 31), (32, 32), (31, 200), (32, 200), (200, 200)] {
        let q = Seq::<Dna>::random(&mut rng, n);
        let p = Seq::<Dna>::random(&mut rng, m);
        let auto = engine_score(cfg, &q, &p);
        let rolling = engine_score(cfg.with_strategy(KernelStrategy::RollingRow), &q, &p);
        assert_eq!(auto, rolling, "auto disagrees at {n}x{m}");
    }
}

// ---------------------------------------------------------------------------
// Striped (inter-pair SIMD) batch kernel, u16 lanes, narrow bands.
// ---------------------------------------------------------------------------

use race_logic::engine::{fill_grid_mode, LaneWidth};

proptest! {
    /// The striped batch kernel is byte-identical to the sequential
    /// engine loop — scores, cell counts AND early-termination /
    /// threshold verdicts — across mixed-length cohorts (long enough
    /// that a sequential loop runs the wavefront too), with and
    /// without bands and thresholds.
    #[test]
    fn striped_batch_equals_sequential(
        seqs in collection::vec("[ACGT]{32,72}", 1..24),
        band in 3_usize..16,
        t in 10_u64..90
    ) {
        let packed: Vec<PackedSeq<Dna>> = seqs
            .iter()
            .map(|s| PackedSeq::from_seq(&s.parse::<Seq<Dna>>().unwrap()))
            .collect();
        // Ragged pairs: each sequence against its cyclic successor, so
        // cohorts mix shapes and stripes pad to their bucket ceiling.
        let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..packed.len())
            .map(|i| (packed[i].clone(), packed[(i + 1) % packed.len()].clone()))
            .collect();
        let w = RaceWeights::fig4();
        for cfg in [
            AlignConfig::new(w),
            AlignConfig::new(w).with_band(band),
            AlignConfig::new(w).with_threshold(t),
            AlignConfig::new(w).with_band(band).with_threshold(t),
        ] {
            let batch = batch_outcomes(&cfg, &pairs);
            let mut engine = AlignEngine::new(cfg);
            let sequential: Vec<EngineOutcome> =
                pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
            prop_assert_eq!(&batch, &sequential);
        }
    }

    /// Verdict mirror under aggressive thresholds: abandoning lanes
    /// retire at the same diagonal as the per-pair kernel (same cell
    /// count), and classification is exact in both paths.
    #[test]
    fn striped_batch_verdicts_are_exact(
        seqs in collection::vec("[ACGT]{32,48}", 4..12),
        t in 0_u64..40
    ) {
        let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
            .iter()
            .map(|s| {
                let q: Seq<Dna> = s.parse().unwrap();
                let p: Seq<Dna> = "GATTCGAGATTCGAGATTCGAGATTCGAGATTCGA".parse().unwrap();
                (PackedSeq::from_seq(&q), PackedSeq::from_seq(&p))
            })
            .collect();
        let w = RaceWeights::fig4();
        let cfg = AlignConfig::new(w).with_threshold(t);
        let batch = batch_outcomes(&cfg, &pairs);
        let mut engine = AlignEngine::new(cfg);
        for (i, (q, p)) in pairs.iter().enumerate() {
            let seq_out = engine.align(q, p);
            prop_assert_eq!(batch[i], seq_out);
            // And the verdict itself is the exact classification.
            let truth = engine_score(
                AlignConfig::new(w),
                &q.to_seq(),
                &p.to_seq(),
            ).score.cycles().unwrap();
            prop_assert_eq!(batch[i].early_terminated, truth > t);
        }
    }
}

/// Deterministic regression straddling the u16/u32 lane-eligibility
/// boundary: weights scaled so the eligibility bound
/// `(n + m + 2) · max_weight < u16::MAX / 2` flips between two adjacent
/// weight values at a fixed u16-profitable shape, and between adjacent
/// shapes at a fixed weight. Outcomes must agree with the rolling row
/// on both sides of every flip.
#[test]
fn u16_u32_eligibility_boundary_regression() {
    let bases = ['A', 'C', 'G', 'T'];
    let make = |len: usize, phase: usize| -> Seq<Dna> {
        (0..len)
            .map(|i| bases[(i * 5 + phase) % 4])
            .collect::<String>()
            .parse()
            .unwrap()
    };
    // At 600 × 600 (≥ U16_MIN_LEN = 512): (1202) · 27 = 32454 < 32767
    // ⇒ u16, (1202) · 28 = 33656 ⇒ u32.
    for (weight, want) in [(27, LaneWidth::U16), (28, LaneWidth::U32)] {
        let w = RaceWeights {
            matched: weight,
            mismatched: Some(weight),
            indel: weight,
        };
        let cfg = AlignConfig::new(w);
        assert_eq!(cfg.resolve_kernel(600, 600).lanes, want, "weight {weight}");
        let (q, p) = (make(600, 0), make(600, 1));
        let wave = engine_score(cfg.with_strategy(KernelStrategy::Wavefront), &q, &p);
        let rolling = engine_score(cfg.with_strategy(KernelStrategy::RollingRow), &q, &p);
        assert_eq!(wave, rolling, "weight {weight}");
    }
    // At weight 20 the flip sits at n + m = 1636: shapes 600+1036 (u16)
    // and 600+1037 (u32) straddle it.
    let w = RaceWeights {
        matched: 20,
        mismatched: Some(20),
        indel: 20,
    };
    let cfg = AlignConfig::new(w);
    for (m, want) in [(1036, LaneWidth::U16), (1037, LaneWidth::U32)] {
        assert_eq!(cfg.resolve_kernel(600, m).lanes, want, "600x{m}");
        let (q, p) = (make(600, 0), make(m, 3));
        let wave = engine_score(cfg.with_strategy(KernelStrategy::Wavefront), &q, &p);
        let rolling = engine_score(cfg.with_strategy(KernelStrategy::RollingRow), &q, &p);
        assert_eq!(wave, rolling, "600x{m}");
    }
}

/// Deterministic regression pinning the u8/u16 stripe eligibility
/// cut-over, mirroring `u16_u32_eligibility_boundary_regression` one
/// rung down. Under fig4 (max step 1, bias rate 1) the biased byte
/// kernel's per-diagonal bound `d − applied_bias(d)` crosses the byte
/// `+∞` (127) exactly at `n + m = 223`, so 111×111 is the last u8
/// shape and 111×112 the first u16 one — and striped races on both
/// sides must stay byte-identical to the scalar rolling row.
#[test]
fn u8_u16_eligibility_boundary_regression() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    assert_eq!(cfg.resolve_stripe_lanes(111, 111), LaneWidth::U8);
    assert_eq!(cfg.resolve_stripe_lanes(111, 112), LaneWidth::U16);
    // A threshold at or above NEVER disables the u8 rule's clamped
    // abandon semantics and must exclude the byte entirely.
    assert_eq!(
        cfg.with_threshold(u64::MAX).resolve_stripe_lanes(64, 64),
        LaneWidth::U64
    );

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    for (n, m) in [(111_usize, 111_usize), (111, 112)] {
        let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..6)
            .map(|_| {
                (
                    PackedSeq::from_seq(&Seq::random(&mut rng, n)),
                    PackedSeq::from_seq(&Seq::random(&mut rng, m)),
                )
            })
            .collect();
        let batch = batch_outcomes(&cfg, &pairs);
        let mut scalar = AlignEngine::new(cfg.with_strategy(KernelStrategy::RollingRow));
        for (out, (q, p)) in batch.iter().zip(&pairs) {
            assert_eq!(out.score, scalar.align(q, p).score, "{n}x{m}");
        }
    }
}

/// The running-bias regression: raw scores at the byte ceiling − 1,
/// the ceiling, and the ceiling + 1 (126 / 127 / 128) must all come
/// out exact from u8 stripes. Disjoint-alphabet pairs under fig4 score
/// exactly `n + m` (mismatch is disallowed, so the only path is all
/// indels), which crosses u8's `+∞` sentinel — representable only
/// because the sweep's running bias keeps stored frontier values small
/// (first rebase at d = 32, well inside these races). The thresholded
/// rows pin the abandon verdict at the same scores.
#[test]
fn u8_bias_holds_scores_across_byte_ceiling() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let a = |len: usize| -> PackedSeq<Dna> {
        PackedSeq::from_seq(&Seq::repeated(rl_bio::alphabet::Dna::A, len))
    };
    let c = |len: usize| -> PackedSeq<Dna> {
        PackedSeq::from_seq(&Seq::repeated(rl_bio::alphabet::Dna::C, len))
    };

    for total in [126_usize, 127, 128] {
        let (n, m) = (63, total - 63);
        assert_eq!(cfg.resolve_stripe_lanes(n, m), LaneWidth::U8, "{total}");
        let pairs: Vec<_> = (0..6).map(|_| (a(n), c(m))).collect();
        for out in batch_outcomes(&cfg, &pairs) {
            assert_eq!(
                out.score.cycles(),
                Some(total as u64),
                "disjoint alphabets must cost exactly n + m = {total}"
            );
        }
        // Threshold exactly at the score finishes; one below abandons —
        // u8's clamped threshold comparison must agree with u64 exactly
        // astride the ceiling.
        for (t, finishes) in [(total as u64, true), (total as u64 - 1, false)] {
            let tcfg = cfg.with_threshold(t);
            assert_eq!(
                tcfg.resolve_stripe_lanes(n, m),
                LaneWidth::U8,
                "{total} t {t}"
            );
            let pairs: Vec<_> = (0..6).map(|_| (a(n), c(m))).collect();
            for out in batch_outcomes(&tcfg, &pairs) {
                assert_eq!(
                    out.finished_score().is_some(),
                    finishes,
                    "threshold {t} against score {total}"
                );
                assert_eq!(out.early_terminated, !finishes, "threshold {t}");
            }
        }
    }
}

/// Cells a fig4 wavefront computes before its abandon rule fires, from
/// the full arrival grid: every in-band cell of each diagonal `d` until
/// the minima of diagonals `d − 1` and `d − 2` (and, semi-global, the
/// best bottom-row value so far) all exceed `t`.
fn diagonal_abandon_cells(
    q: &Seq<Dna>,
    p: &Seq<Dna>,
    band: Option<usize>,
    semi: bool,
    t: u64,
) -> u64 {
    let (n, m) = (q.len(), p.len());
    let mode = if semi {
        AlignMode::SemiGlobal
    } else {
        AlignMode::Global
    };
    let (qc, pc): (Vec<u8>, Vec<u8>) = (q.codes().collect(), p.codes().collect());
    let mut grid = Vec::new();
    fill_grid_mode(&qc, &pc, RaceWeights::fig4(), band, mode, &mut grid);
    let mut cells = 1;
    let (mut min1, mut min2) = (0, u64::MAX);
    let mut best = if semi && n == 0 { 0 } else { u64::MAX };
    for d in 1..=n + m {
        if min1.min(min2).min(best) > t {
            break;
        }
        let mut dmin = u64::MAX;
        for i in d.saturating_sub(m)..=d.min(n) {
            if band.is_some_and(|k| i.abs_diff(d - i) > k) {
                continue;
            }
            let v = grid[i * (m + 1) + d - i];
            cells += 1;
            dmin = dmin.min(v);
            if semi && i == n {
                best = best.min(v);
            }
        }
        (min2, min1) = (min1, dmin);
    }
    cells
}

/// Deterministic regression for the span-relative wavefront layout at
/// every band: no band, every half-width from 0 through 9 (empty
/// diagonals, alternating band 0/1 spans, the buffers' guard cells), 64,
/// and one wider than `n + m`; global and semi-global, each with and
/// without a threshold; `u32` and `u64` (lane-floor pin) lanes, plus one
/// shape long enough for per-pair `u16`. The wavefront must match the
/// rolling row in score, cell count and verdict, and `Auto` must keep
/// banded long pairs on the wavefront.
#[test]
fn band_compaction_edge_regression() {
    let w = RaceWeights::fig4();
    let bases = ['A', 'C', 'G', 'T'];
    let make = |len: usize, phase: usize| -> Seq<Dna> {
        (0..len)
            .map(|i| bases[(i * 3 + phase) % 4])
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let shapes = [(40, 40), (40, 37), (33, 48), (64, 64), (35, 32), (512, 530)];
    for (n, m) in shapes {
        let (q, p) = (make(n, 0), make(m, 2));
        let bands = (0..=9).map(Some).chain([None, Some(64), Some(n + m + 1)]);
        for band in bands {
            let mut cfg = AlignConfig::new(w);
            cfg.band = band;
            assert_eq!(
                cfg.resolve_strategy(n, m),
                KernelStrategy::Wavefront,
                "Auto must keep banded long pairs on the wavefront"
            );
            // Per-pair u16 needs segments of U16_MIN_LEN (512) cells.
            let narrowest = if n.min(m).min(band.map_or(usize::MAX, |k| k + 1)) >= 512 {
                LaneWidth::U16
            } else {
                LaneWidth::U32
            };
            let floors: &[LaneWidth] = if n >= 512 {
                &[LaneWidth::U8]
            } else {
                &[LaneWidth::U8, LaneWidth::U64]
            };
            for &floor in floors {
                for mode in [AlignMode::Global, AlignMode::SemiGlobal] {
                    for threshold in [None, Some(12)] {
                        let mut cfg = cfg.with_lane_floor(floor).with_mode(mode);
                        cfg.threshold = threshold;
                        let wave_cfg = cfg.with_strategy(KernelStrategy::Wavefront);
                        let want = narrowest.max(floor);
                        assert_eq!(wave_cfg.resolve_kernel(n, m).lanes, want);
                        let ctx = format!("{mode} band {band:?}, {n}x{m}, {want}, t {threshold:?}");
                        let wave = engine_score(wave_cfg, &q, &p);
                        let rolling =
                            engine_score(cfg.with_strategy(KernelStrategy::RollingRow), &q, &p);
                        assert_eq!(wave.score, rolling.score, "{ctx}");
                        assert_eq!(wave.early_terminated, rolling.early_terminated, "{ctx}");
                        // The two orders abandon at different points;
                        // the full sweeps compute the same cells.
                        if !rolling.early_terminated {
                            assert_eq!(wave.cells_computed, rolling.cells_computed, "{ctx}");
                        }
                        let semi = mode == AlignMode::SemiGlobal;
                        let t = threshold.unwrap_or(u64::MAX);
                        assert_eq!(
                            wave.cells_computed,
                            diagonal_abandon_cells(&q, &p, band, semi, t),
                            "{ctx}"
                        );
                        // And against the standalone banded reference.
                        if let (AlignMode::Global, None, Some(k)) = (mode, threshold, band) {
                            assert_eq!(wave.score, banded_race(&q, &p, w, k).score, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ragged batches (length-aware packer) and the ratcheted top-k scan.
// ---------------------------------------------------------------------------

use race_logic::early_termination::{
    scan, scan_database, scan_packed_topk_with, ScanEntries, TopKScan,
};
use race_logic::engine::batch_plan_stats;

/// The ratcheted top-k scan of unpacked sequences: packs them and runs
/// [`scan_packed_topk_with`].
fn topk_scan(
    cfg: &AlignConfig,
    query: &Seq<Dna>,
    db: &[Seq<Dna>],
    k: usize,
    workers: Option<usize>,
) -> TopKScan {
    let db: Vec<PackedSeq<Dna>> = db.iter().map(PackedSeq::from_seq).collect();
    scan_packed_topk_with(cfg, &PackedSeq::from_seq(query), &db, k, workers)
}

/// Seed-pinned log-normal lengths clamped to `[lo, hi]` — the shape of
/// realistic read-length distributions ([`rl_bench::lognormal_len`]).
fn lognormal_lengths(
    seed: u64,
    count: usize,
    median: f64,
    sigma: f64,
    lo: usize,
    hi: usize,
) -> Vec<usize> {
    let mut rng = rl_dag::generate::seeded_rng(seed);
    (0..count)
        .map(|_| rl_bench::lognormal_len(&mut rng, median, sigma, lo, hi))
        .collect()
}

fn ragged_pairs(seed: u64, count: usize) -> Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> {
    use rand::Rng;
    let lens = lognormal_lengths(seed, count, 96.0, 0.5, 8, 320);
    let mut rng = rl_dag::generate::seeded_rng(seed ^ 0x5EED);
    lens.iter()
        .map(|&n| {
            // Pattern length jittered ±15% around the query's: the
            // read-vs-candidate shape of a real scan.
            let m = ((n as f64) * rng.random_range(0.85..=1.15))
                .round()
                .max(1.0) as usize;
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, m)),
            )
        })
        .collect()
}

proptest! {
    /// The length-aware packer's batches are byte-identical to the
    /// sequential engine over ragged log-normal length mixes — scores,
    /// cell counts and verdicts — across bands and thresholds.
    #[test]
    fn ragged_lognormal_batch_equals_sequential(
        seed in 0_u64..1_000, band in 3_usize..24, t in 20_u64..120
    ) {
        let pairs = ragged_pairs(seed, 24);
        let w = RaceWeights::fig4();
        for cfg in [
            AlignConfig::new(w),
            AlignConfig::new(w).with_band(band),
            AlignConfig::new(w).with_threshold(t),
            AlignConfig::new(w).with_band(band).with_threshold(t),
        ] {
            let batch = batch_outcomes(&cfg, &pairs);
            let mut engine = AlignEngine::new(cfg);
            let sequential: Vec<EngineOutcome> =
                pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
            prop_assert_eq!(&batch, &sequential);
        }
    }

    /// The ratcheted top-k scan returns exactly the k best `(score,
    /// index)` hits a sequential full scan would select — for every
    /// seed, k, and optional seed threshold — and is identical across
    /// worker counts.
    #[test]
    fn ratcheted_topk_equals_sequential_selection(
        seed in 0_u64..500, k in 1_usize..12, with_threshold in 0_u8..2
    ) {
        use rand::Rng;
        let mut rng = rl_dag::generate::seeded_rng(seed.wrapping_mul(0x9E37));
        let query = Seq::<Dna>::random(&mut rng, 48);
        let db: Vec<Seq<Dna>> = (0..30)
            .map(|_| {
                let len = rng.random_range(32_usize..=72);
                Seq::<Dna>::random(&mut rng, len)
            })
            .collect();
        let w = RaceWeights::fig4();
        let threshold = (with_threshold == 1).then_some(90_u64);

        // Reference: sequential full scan, k smallest (score, idx).
        let mut engine = AlignEngine::new(AlignConfig::new(w));
        let qp = PackedSeq::from_seq(&query);
        let mut expected: Vec<(usize, u64)> = db
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let score = engine.align(&qp, &PackedSeq::from_seq(p)).score.cycles()?;
                (threshold.is_none_or(|t| score <= t)).then_some((i, score))
            })
            .collect();
        expected.sort_unstable_by_key(|&(idx, score)| (score, idx));
        expected.truncate(k);

        for workers in [Some(1), Some(4), None] {
            let mut cfg = AlignConfig::new(w);
            cfg.threshold = threshold;
            let scan = topk_scan(&cfg, &query, &db, k, workers);
            prop_assert_eq!(&scan.hits, &expected, "workers {:?}", workers);
        }
    }
}

/// The ratcheted scan is deterministic across worker counts on a ragged
/// log-normal database (the ISSUE's `RAYON_NUM_THREADS ∈ {1, 4}`
/// contract, driven through the explicit worker-count API so the test
/// does not mutate process-global environment), and the ratchet
/// actually saves work relative to the unratcheted full scan.
#[test]
fn ratcheted_topk_deterministic_across_worker_counts() {
    let mut rng = rl_dag::generate::seeded_rng(0x70CC);
    let query = Seq::<Dna>::random(&mut rng, 64);
    // A few near-duplicates (the true hits) buried in ragged noise.
    let mut db: Vec<Seq<Dna>> = (0..6)
        .map(|_| {
            rl_bio::mutate::mutate(
                &query,
                &rl_bio::mutate::MutationConfig::substitutions_only(0.05),
                &mut rng,
            )
        })
        .collect();
    for &len in &lognormal_lengths(0xD15C, 120, 72.0, 0.45, 32, 200) {
        db.push(Seq::<Dna>::random(&mut rng, len));
    }
    let w = RaceWeights::fig4();

    let single = topk_scan(&AlignConfig::new(w), &query, &db, 8, Some(1));
    let quad = topk_scan(&AlignConfig::new(w), &query, &db, 8, Some(4));
    assert_eq!(
        single.hits, quad.hits,
        "top-k must not depend on worker count"
    );
    assert_eq!(single.hits.len(), 8);
    assert!(
        single.hits.iter().take(3).all(|&(i, _)| i < 6),
        "mutated near-duplicates must lead the ranking: {:?}",
        single.hits
    );
    // The ratchet abandons provably-outside entries; the full batch
    // scan computes every cell. (Cells are advisory/interleaving-
    // dependent, so only the direction is asserted.)
    let full: u64 = {
        let pairs: Vec<_> = db
            .iter()
            .map(|p| (PackedSeq::from_seq(&query), PackedSeq::from_seq(p)))
            .collect();
        batch_outcomes(&AlignConfig::new(w), &pairs)
            .iter()
            .map(|o| o.cells_computed)
            .sum()
    };
    assert!(
        single.abandoned > 0,
        "the ratchet must abandon dissimilar entries"
    );
    assert!(
        single.cells_computed < full,
        "ratcheting must save cells ({} !< {full})",
        single.cells_computed
    );
}

/// On a ragged log-normal workload most stripe candidates must
/// ride stripes under the length-aware packer (the acceptance-criterion
/// floor, pinned well below the measured value), and repeated batches
/// are byte-identical. A far wider spread checks the batch at two lane
/// floors against the sequential loop.
#[test]
fn ragged_workload_stripes_most_pairs() {
    use rand::Rng;
    let pairs = ragged_pairs(0xBADC0DE, 400);
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let aware = batch_plan_stats(&cfg, &pairs);
    assert!(
        aware.striped_pairs * 10 >= aware.wavefront_eligible * 8,
        "length-aware packer must stripe ≥ 80% of eligible pairs: {}/{}",
        aware.striped_pairs,
        aware.wavefront_eligible
    );
    assert!(
        aware.occupancy() > 0.5,
        "occupancy {:.2}",
        aware.occupancy()
    );

    assert_eq!(batch_outcomes(&cfg, &pairs), batch_outcomes(&cfg, &pairs));

    // A far wider spread (64 pairs, median 48 bp, σ = 1.2, clamp
    // `[8, 384]`, patterns ±15%, one seed-pinned stream): the default
    // and the u16-floored stripes equal the sequential loop, every
    // plan's occupancy is a fraction, and the plan stripes some of the
    // pairs.
    let mut rng = rl_dag::generate::seeded_rng(0xBA7C4);
    let wide: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..64)
        .map(|_| {
            let n = rl_bench::lognormal_len(&mut rng, 48.0, 1.2, 8, 384);
            let m = ((n as f64) * rng.random_range(0.85..=1.15))
                .round()
                .max(1.0) as usize;
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, m)),
            )
        })
        .collect();
    let mut engine = AlignEngine::new(cfg);
    let sequential: Vec<EngineOutcome> = wide.iter().map(|(q, p)| engine.align(q, p)).collect();
    for cfg in [cfg, cfg.with_lane_floor(LaneWidth::U16)] {
        assert_eq!(
            batch_outcomes(&cfg, &wide),
            sequential,
            "{:?}",
            cfg.lane_floor
        );
        let stats = batch_plan_stats(&cfg, &wide);
        assert!(
            stats.occupancy() > 0.0 && stats.occupancy() <= 1.0,
            "{:?}: {stats:?}",
            cfg.lane_floor
        );
    }
    let aware = batch_plan_stats(&cfg, &wide);
    assert!(aware.striped_pairs > 0, "{aware:?}");
}

/// Seed-pinned log-normal scan databases (σ = 0.5, clamp `[8, 4·median]`,
/// the query drawn first from the same stream): at 4 workers the
/// ratcheted top-k equals the unratcheted batch's top-k selection.
/// Global and semi-global (Levenshtein, a read a third the median
/// length) run on 8 entries; global and affine on 512 entries of median
/// 128 bp, large enough that stripes are abandoned mid-sweep. Each case
/// also runs a fixed-length batch of the same count and median length
/// at the default and the u16 lane floor, which must agree with each
/// other and with the sequential loop.
#[test]
fn ratcheted_scans_equal_the_batch_topk_on_lognormal_databases() {
    let affine = AlignMode::GlobalAffine(AffineWeights { open: 2 });
    for (entries, median, k, mode) in [
        (8, 48, 6, AlignMode::Global),
        (8, 48, 6, AlignMode::SemiGlobal),
        (512, 128, 10, AlignMode::Global),
        (512, 128, 10, affine),
    ] {
        let semi = mode == AlignMode::SemiGlobal;
        let mut rng = rl_dag::generate::seeded_rng(0xBA7C4 ^ 0x5CA9);
        let query_len = if semi { (median / 3).max(16) } else { median };
        let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, query_len));
        let db: Vec<PackedSeq<Dna>> = (0..entries)
            .map(|_| {
                let len = rl_bench::lognormal_len(&mut rng, median as f64, 0.5, 8, median * 4);
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len))
            })
            .collect();
        let w = if semi {
            RaceWeights::levenshtein()
        } else {
            RaceWeights::fig4()
        };
        let cfg = AlignConfig::new(w).with_mode(mode);

        let mut rng = rl_dag::generate::seeded_rng(0xBA7C4);
        let fixed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..entries)
            .map(|_| {
                (
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, median)),
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, median)),
                )
            })
            .collect();
        let fixed_batch = batch_outcomes(&cfg, &fixed);
        assert_eq!(
            batch_outcomes(&cfg.with_lane_floor(LaneWidth::U16), &fixed),
            fixed_batch,
            "{mode}: u16-floored batch"
        );
        let mut engine = AlignEngine::new(cfg);
        let sequential: Vec<EngineOutcome> =
            fixed.iter().map(|(q, p)| engine.align(q, p)).collect();
        assert_eq!(fixed_batch, sequential, "{mode}: sequential loop");

        let (ratcheted, _) = scan(
            &cfg,
            &query,
            ScanEntries::Memory(&db),
            k,
            None,
            Some(4),
            &ScanControl::new(),
        )
        .expect("valid scan");
        let pairs: Vec<_> = db.iter().map(|p| (&query, p)).collect();
        let mut full: Vec<(usize, u64)> = align_batch(&cfg, &pairs, &ScanControl::new())
            .expect_complete()
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.score.cycles().map(|s| (i, s)))
            .collect();
        full.sort_unstable_by_key(|&(i, s)| (s, i));
        full.truncate(k);
        assert_eq!(ratcheted.hits, full, "{mode}, {entries} entries");
        if entries == 512 {
            assert!(
                ratcheted.abandoned > 0,
                "{mode}: the 512-entry scan must abandon entries"
            );
        }
    }
}

/// `scan_database` (the §6 report) and the ratcheted top-k agree on who
/// the hits are when k covers every within-threshold entry.
#[test]
fn topk_agrees_with_scan_database_hits() {
    use rand::Rng;
    let mut rng = rl_dag::generate::seeded_rng(42);
    let query = Seq::<Dna>::random(&mut rng, 40);
    let db: Vec<Seq<Dna>> = (0..40)
        .map(|_| {
            let len = rng.random_range(32_usize..=56);
            Seq::<Dna>::random(&mut rng, len)
        })
        .collect();
    let w = RaceWeights::fig4();
    let threshold = 45_u64;
    let report = scan_database(&query, &db, w, threshold);
    let cfg = AlignConfig::new(w).with_threshold(threshold);
    let topk = topk_scan(&cfg, &query, &db, db.len(), Some(2));
    let mut expected = report.hits.clone();
    expected.sort_unstable_by_key(|&(idx, score)| (score, idx));
    assert_eq!(topk.hits, expected);
}

/// The lane floor is purely an A/B knob: every width computes the same
/// outcome.
#[test]
fn lane_floor_does_not_change_outcomes() {
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let q = Seq::<Dna>::random(&mut rng, 100);
    let p = Seq::<Dna>::random(&mut rng, 90);
    let base = AlignConfig::new(RaceWeights::fig2b());
    let reference = engine_score(base, &q, &p);
    for floor in [
        LaneWidth::U8,
        LaneWidth::U16,
        LaneWidth::U32,
        LaneWidth::U64,
    ] {
        let out = engine_score(base.with_lane_floor(floor), &q, &p);
        assert_eq!(out, reference, "{floor}");
    }
}

// ---------------------------------------------------------------------------
// Alignment modes: semi-global, local (max-plus), affine — every kernel.
// ---------------------------------------------------------------------------

use race_logic::engine::{AffineWeights, AlignMode, LocalScores};
use race_logic::semi_global::semi_global_reference;

/// A maximizing Smith–Waterman scheme equivalent to `LocalScores`, for
/// any alphabet — the textbook oracle the local mode is tested against.
fn local_scheme<S: Symbol>(s: LocalScores) -> ScoreScheme<S> {
    ScoreScheme::from_fn(
        "local-scores",
        Objective::Maximize,
        -(s.gap as i32),
        move |a, b| {
            Some(if a == b {
                s.matched as i32
            } else {
                -(s.mismatched as i32)
            })
        },
    )
}

proptest! {
    /// Semi-global engine == the textbook semi-global DP, on both
    /// traversal orders, DNA and every weight scheme.
    #[test]
    fn semi_global_mode_matches_reference_dna(
        qs in "[ACGT]{0,40}", ps in "[ACGT]{0,56}"
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
            let reference = semi_global_reference(&q, &p, w);
            for cfg in both_strategies(AlignConfig::new(w).with_mode(AlignMode::SemiGlobal)) {
                let out = engine_score(cfg, &q, &p);
                prop_assert_eq!(out.score.cycles(), reference, "{}", cfg.strategy);
            }
        }
    }

    /// Semi-global engine == reference on protein codes.
    #[test]
    fn semi_global_mode_matches_reference_protein(
        qs in "[ARNDCQEGHILKMFPSTWYV]{0,14}",
        ps in "[ARNDCQEGHILKMFPSTWYV]{0,24}"
    ) {
        let (q, p): (Seq<AminoAcid>, Seq<AminoAcid>) =
            (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig2b();
        let reference = semi_global_reference(&q, &p, w);
        for cfg in both_strategies(AlignConfig::new(w).with_mode(AlignMode::SemiGlobal)) {
            let out = AlignEngine::new(cfg).align_seqs(&q, &p);
            prop_assert_eq!(out.score.cycles(), reference, "{}", cfg.strategy);
        }
    }

    /// Banded and thresholded semi-global: wavefront == rolling row,
    /// score and verdict — the
    /// cross-kernel contract in the mode where no standalone banded
    /// reference exists.
    #[test]
    fn semi_global_banded_thresholded_cross_kernel(
        qs in "[ACGT]{0,40}", ps in "[ACGT]{0,48}", band in 0_usize..20, t in 0_u64..40
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::levenshtein();
        for base in [
            AlignConfig::new(w).with_mode(AlignMode::SemiGlobal).with_band(band),
            AlignConfig::new(w).with_mode(AlignMode::SemiGlobal).with_threshold(t),
            AlignConfig::new(w).with_mode(AlignMode::SemiGlobal).with_band(band).with_threshold(t),
        ] {
            let [row_cfg, wave_cfg] = both_strategies(base);
            let rolling = engine_score(row_cfg, &q, &p);
            let wave = engine_score(wave_cfg, &q, &p);
            prop_assert_eq!(rolling.score, wave.score, "band {} t {}", band, t);
            prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        }
    }

    /// Local (max-plus) engine == textbook Smith–Waterman, both
    /// traversal orders, DNA, several score shapes.
    #[test]
    fn local_mode_matches_smith_waterman_dna(
        qs in "[ACGT]{0,40}", ps in "[ACGT]{0,48}"
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        for s in [LocalScores::unit(), LocalScores::blast(), LocalScores { matched: 3, mismatched: 2, gap: 1 }] {
            let reference = align::local_score(&q, &p, &local_scheme(s)).unwrap();
            for cfg in both_strategies(
                AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(s)),
            ) {
                let out = engine_score(cfg, &q, &p);
                prop_assert_eq!(out.score.cycles(), Some(reference as u64), "{}", cfg.strategy);
                prop_assert!(!out.early_terminated);
            }
        }
    }

    /// Local engine == Smith–Waterman on protein codes.
    #[test]
    fn local_mode_matches_smith_waterman_protein(
        qs in "[ARNDCQEGHILKMFPSTWYV]{0,16}",
        ps in "[ARNDCQEGHILKMFPSTWYV]{0,20}"
    ) {
        let (q, p): (Seq<AminoAcid>, Seq<AminoAcid>) =
            (qs.parse().unwrap(), ps.parse().unwrap());
        let s = LocalScores::blast();
        let reference = align::local_score(&q, &p, &local_scheme(s)).unwrap();
        for cfg in both_strategies(
            AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(s)),
        ) {
            let out = AlignEngine::new(cfg).align_seqs(&q, &p);
            prop_assert_eq!(out.score.cycles(), Some(reference as u64), "{}", cfg.strategy);
        }
    }

    /// Banded local: wavefront == rolling row (no textbook banded-SW
    /// reference exists; the cross-kernel agreement IS the contract,
    /// with out-of-band cells reading as fresh starts in both orders).
    #[test]
    fn local_banded_cross_kernel(
        qs in "[ACGT]{0,40}", ps in "[ACGT]{0,40}", band in 0_usize..16
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let s = LocalScores::blast();
        let [row_cfg, wave_cfg] = both_strategies(
            AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(s)).with_band(band),
        );
        let rolling = engine_score(row_cfg, &q, &p);
        let wave = engine_score(wave_cfg, &q, &p);
        prop_assert_eq!(rolling.score, wave.score, "band {}", band);
    }

    /// Affine engine == the scalar Gotoh oracle (minimizing uniform
    /// scheme), both traversal orders; open = 0 reduces to the linear
    /// global engine.
    #[test]
    fn affine_mode_matches_gotoh_dna(
        qs in "[ACGT]{0,36}", ps in "[ACGT]{0,40}", open in 0_u64..7
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::levenshtein();
        let scheme = rl_bio::matrix::levenshtein_scheme();
        let reference = rl_bio::affine::global_affine_score(
            &q, &p, &scheme, rl_bio::affine::AffineGap { open: open as i32 },
        ).unwrap();
        let mode = AlignMode::GlobalAffine(AffineWeights { open });
        for cfg in both_strategies(AlignConfig::new(w).with_mode(mode)) {
            let out = engine_score(cfg, &q, &p);
            prop_assert_eq!(out.score.cycles(), Some(reference as u64), "{}", cfg.strategy);
        }
        if open == 0 {
            let linear = engine_score(AlignConfig::new(w), &q, &p);
            let affine = engine_score(AlignConfig::new(w).with_mode(mode), &q, &p);
            prop_assert_eq!(linear.score, affine.score);
        }
    }

    /// Affine engine == Gotoh on protein codes (fig2b-style weights
    /// with a mismatch cost, exercising the M-plane select).
    #[test]
    fn affine_mode_matches_gotoh_protein(
        qs in "[ARNDCQEGHILKMFPSTWYV]{0,14}",
        ps in "[ARNDCQEGHILKMFPSTWYV]{0,16}",
        open in 0_u64..5
    ) {
        let (q, p): (Seq<AminoAcid>, Seq<AminoAcid>) =
            (qs.parse().unwrap(), ps.parse().unwrap());
        let w = RaceWeights::fig2b();
        let reference = rl_bio::affine::global_affine_score(
            &q, &p, &race_scheme(w), rl_bio::affine::AffineGap { open: open as i32 },
        ).unwrap();
        let mode = AlignMode::GlobalAffine(AffineWeights { open });
        for cfg in both_strategies(AlignConfig::new(w).with_mode(mode)) {
            let out = AlignEngine::new(cfg).align_seqs(&q, &p);
            prop_assert_eq!(out.score.cycles(), Some(reference as u64), "{}", cfg.strategy);
        }
    }

    /// Banded + thresholded affine: wavefront == rolling row across
    /// both planes' boundary interactions.
    #[test]
    fn affine_banded_thresholded_cross_kernel(
        qs in "[ACGT]{0,36}", ps in "[ACGT]{0,36}", band in 0_usize..14,
        t in 0_u64..50, open in 0_u64..6
    ) {
        let (q, p): (Seq<Dna>, Seq<Dna>) = (qs.parse().unwrap(), ps.parse().unwrap());
        let mode = AlignMode::GlobalAffine(AffineWeights { open });
        let w = RaceWeights::levenshtein();
        for base in [
            AlignConfig::new(w).with_mode(mode).with_band(band),
            AlignConfig::new(w).with_mode(mode).with_threshold(t),
            AlignConfig::new(w).with_mode(mode).with_band(band).with_threshold(t),
        ] {
            let [row_cfg, wave_cfg] = both_strategies(base);
            let rolling = engine_score(row_cfg, &q, &p);
            let wave = engine_score(wave_cfg, &q, &p);
            prop_assert_eq!(rolling.score, wave.score, "band {} t {} open {}", band, t, open);
            prop_assert_eq!(rolling.early_terminated, wave.early_terminated);
        }
    }

    /// The striped batch kernel is byte-identical to the sequential
    /// engine loop **in every mode** — semi-global and local stripes
    /// run the inter-pair SIMD sweep; affine routes per-pair inside the
    /// same batch plan; all must mirror the sequential loop exactly.
    #[test]
    fn striped_batch_equals_sequential_every_mode(
        seqs in collection::vec("[ACGT]{32,72}", 5..18),
        band in 4_usize..16,
        t in 20_u64..90
    ) {
        let packed: Vec<PackedSeq<Dna>> = seqs
            .iter()
            .map(|s| PackedSeq::from_seq(&s.parse::<Seq<Dna>>().unwrap()))
            .collect();
        let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..packed.len())
            .map(|i| (packed[i].clone(), packed[(i + 1) % packed.len()].clone()))
            .collect();
        let w = RaceWeights::fig4();
        let modes = [
            AlignMode::SemiGlobal,
            AlignMode::Local(LocalScores::blast()),
            AlignMode::GlobalAffine(AffineWeights { open: 2 }),
        ];
        for mode in modes {
            let mut cfgs = vec![
                AlignConfig::new(w).with_mode(mode),
                AlignConfig::new(w).with_mode(mode).with_band(band),
            ];
            if mode.is_min_plus() {
                cfgs.push(AlignConfig::new(w).with_mode(mode).with_threshold(t));
            }
            for cfg in cfgs {
                let batch = batch_outcomes(&cfg, &pairs);
                let mut engine = AlignEngine::new(cfg);
                let sequential: Vec<EngineOutcome> =
                    pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
                prop_assert_eq!(&batch, &sequential, "mode {}", cfg.mode);
            }
        }
    }

    /// The semi-global ratcheted top-k scan — the paper's §6 workload —
    /// returns exactly the k best window scores a sequential full scan
    /// selects, identically for every worker count.
    #[test]
    fn semi_global_topk_equals_sequential_selection(
        seed in 0_u64..400, k in 1_usize..10
    ) {
        use rand::Rng;
        let mut rng = rl_dag::generate::seeded_rng(seed.wrapping_mul(0xA5A5) ^ 0x5E111);
        let query = Seq::<Dna>::random(&mut rng, 36);
        let db: Vec<Seq<Dna>> = (0..28)
            .map(|_| {
                let len = rng.random_range(40_usize..=96);
                Seq::<Dna>::random(&mut rng, len)
            })
            .collect();
        let cfg = AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal);

        let mut engine = AlignEngine::new(cfg);
        let qp = PackedSeq::from_seq(&query);
        let mut expected: Vec<(usize, u64)> = db
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                engine.align(&qp, &PackedSeq::from_seq(p)).score.cycles().map(|s| (i, s))
            })
            .collect();
        expected.sort_unstable_by_key(|&(idx, score)| (score, idx));
        expected.truncate(k);

        for workers in [Some(1), Some(4)] {
            let scan = topk_scan(&cfg, &query, &db, k, workers);
            prop_assert_eq!(&scan.hits, &expected, "workers {:?}", workers);
        }
    }
}

/// End-to-end §6 scenario in semi-global mode: a query planted inside
/// longer references is found (score 0 under Levenshtein weights), the
/// ratcheted scan ranks the planted entries first, deterministically for
/// 1 and 4 workers, and the ratchet abandons the noise early — the
/// retired-lane residue reset keeps the coarse bound live under the
/// zero matched weight.
#[test]
fn semi_global_scan_finds_planted_occurrences() {
    use rand::Rng;
    let mut rng = rl_dag::generate::seeded_rng(0x0CC0);
    let query = Seq::<Dna>::random(&mut rng, 32);
    let plant = |rng: &mut _, total: usize| -> Seq<Dna> {
        let mut s = String::new();
        let lead = total - 32;
        let left: Seq<Dna> = Seq::random(rng, lead / 2);
        let right: Seq<Dna> = Seq::random(rng, lead - lead / 2);
        s.push_str(&left.to_string());
        s.push_str(&query.to_string());
        s.push_str(&right.to_string());
        s.parse().unwrap()
    };
    // 3 entries contain the query verbatim; 40 are random noise of
    // assorted lengths (mixed-length stripes ⇒ mid-sweep retirements).
    let mut db: Vec<Seq<Dna>> = (0..3).map(|i| plant(&mut rng, 96 + 7 * i)).collect();
    for _ in 0..40 {
        let len = rng.random_range(72_usize..=128);
        db.push(Seq::<Dna>::random(&mut rng, len));
    }
    let cfg = AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal);

    let single = topk_scan(&cfg, &query, &db, 3, Some(1));
    let quad = topk_scan(&cfg, &query, &db, 3, Some(4));
    assert_eq!(single.hits, quad.hits, "worker-count determinism");
    assert_eq!(
        single.hits.iter().map(|&(i, s)| (i, s)).collect::<Vec<_>>(),
        vec![(0, 0), (1, 0), (2, 0)],
        "planted exact occurrences must score 0 and rank first"
    );
    assert!(
        single.abandoned > 0,
        "the tightened ratchet (k-th best = 0) must abandon noise entries"
    );
}

/// Modes obey the auto decision table too: affine rides the wavefront
/// on narrow bands, local lane eligibility follows the match bonus,
/// semi-global thresholds fold into lane eligibility.
#[test]
fn mode_resolution_rules_are_pinned() {
    let w = RaceWeights::fig4();
    let affine = AlignConfig::new(w)
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 3 }))
        .with_band(4);
    assert_eq!(
        affine.resolve_strategy(256, 256),
        KernelStrategy::Wavefront,
        "affine still rides the wavefront"
    );
    let local = AlignConfig::new(w).with_mode(AlignMode::Local(LocalScores {
        matched: 40,
        mismatched: 1,
        gap: 1,
    }));
    // (n + m + 2) · 40 at 600 × 600 exceeds u16::INF ⇒ u32 stripe lanes.
    assert_eq!(local.resolve_stripe_lanes(600, 600), LaneWidth::U32);
    assert_eq!(
        local
            .with_mode(AlignMode::Local(LocalScores::unit()))
            .resolve_stripe_lanes(600, 600),
        LaneWidth::U16,
        "unit bonuses keep u16 stripes"
    );
    // Affine opens widen the eligibility bound.
    let heavy_open =
        AlignConfig::new(w).with_mode(AlignMode::GlobalAffine(AffineWeights { open: 40_000 }));
    assert_eq!(heavy_open.resolve_stripe_lanes(64, 64), LaneWidth::U32);
}

/// Local mode rejects thresholds loudly (the abandon rule is a
/// lower-bound proof, which max-plus inverts).
#[test]
#[should_panic(expected = "local")]
fn local_mode_rejects_thresholds() {
    let cfg = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::Local(LocalScores::unit()))
        .with_threshold(10);
    let _ = AlignEngine::new(cfg);
}
