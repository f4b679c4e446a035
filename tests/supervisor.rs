//! Integration tests for the supervised execution layer
//! (`race_logic::supervisor`): typed validation errors on the scan
//! surface, eligibility-bound routing, cancellation / deadline / budget
//! stops with exact pair accounting, and byte-identical supervised
//! results when nothing goes wrong. The injected-fault paths live in
//! `crates/core/tests/failpoints.rs` (feature `failpoints`).

use std::time::Duration;

use proptest::prelude::*;
use race_logic::alignment::RaceWeights;
use race_logic::early_termination::{
    scan, scan_packed_topk_resumable, scan_packed_topk_with, ScanEntries, TopKScan,
};
use race_logic::engine::{
    align_batch, AffineWeights, AlignConfig, AlignEngine, AlignMode, KernelStrategy, LaneWidth,
    LocalScores,
};
use race_logic::supervisor::{ScanControl, StopReason};
use race_logic::AlignError;
use rl_bio::{Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

fn db(seed: u64, entries: usize, len: usize) -> (PackedSeq<Dna>, Vec<PackedSeq<Dna>>) {
    let mut rng = seeded_rng(seed);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len));
    let database = (0..entries)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len)))
        .collect();
    (query, database)
}

/// A fresh [`scan`] over an in-memory database, unbounded.
fn try_scan(
    cfg: &AlignConfig,
    q: &PackedSeq<Dna>,
    database: &[PackedSeq<Dna>],
    k: usize,
    workers: Option<usize>,
) -> Result<race_logic::supervisor::ScanOutcome, AlignError> {
    supervised(cfg, q, database, k, workers, &ScanControl::new())
}

/// A fresh [`scan`] over an in-memory database under `ctrl`, without
/// the resume token.
fn supervised(
    cfg: &AlignConfig,
    q: &PackedSeq<Dna>,
    database: &[PackedSeq<Dna>],
    k: usize,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<race_logic::supervisor::ScanOutcome, AlignError> {
    scan(
        cfg,
        q,
        ScanEntries::Memory(database),
        k,
        None,
        workers,
        ctrl,
    )
    .map(|(outcome, _)| outcome)
}

fn invalid(result: Result<impl std::fmt::Debug, AlignError>, needle: &str) {
    match result {
        Err(AlignError::InvalidConfig { reason }) => {
            assert!(
                reason.contains(needle),
                "reason {reason:?} lacks {needle:?}"
            );
        }
        other => panic!("expected InvalidConfig({needle:?}), got {other:?}"),
    }
}

#[test]
fn scan_validation_rejects_bad_requests() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(1, 4, 16);

    invalid(try_scan(&cfg, &q, &database, 0, None), "k >= 1");
    invalid(
        try_scan(&cfg, &q, &database, 5, None),
        "exceeds the database size",
    );

    let empty = PackedSeq::from_seq(&"".parse::<Seq<Dna>>().unwrap());
    invalid(try_scan(&cfg, &empty, &database, 2, None), "empty query");
    let mut holed = database.clone();
    holed[2] = empty;
    invalid(try_scan(&cfg, &q, &holed, 2, None), "entry 2 is empty");

    // Degenerate weight scheme: a zero indel weight would let a race
    // stall forever on a free gap ladder.
    let mut zero_indel = cfg;
    zero_indel.weights.indel = 0;
    invalid(
        try_scan(&zero_indel, &q, &database, 2, None),
        "indel weight must be positive",
    );

    // Max-plus local mode has no sound frontier abandon.
    let local =
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores::unit()));
    invalid(try_scan(&local, &q, &database, 2, None), "min-plus");

    // A one-entry database packed from unpacked sequences meets the
    // same validation.
    let seqs: Vec<PackedSeq<Dna>> = vec![PackedSeq::from_seq(&"ACGT".parse().unwrap())];
    let query = PackedSeq::from_seq(&"ACGT".parse::<Seq<Dna>>().unwrap());
    invalid(try_scan(&cfg, &query, &seqs, 0, None), "k >= 1");

    // A scan under a control validates before touching the control.
    let ctrl = ScanControl::new();
    invalid(supervised(&cfg, &q, &database, 0, None, &ctrl), "k >= 1");
}

#[test]
fn config_validation_surfaces_typed_errors() {
    invalid(
        AlignConfig::try_new(RaceWeights {
            matched: 1,
            mismatched: None,
            indel: 0,
        }),
        "indel weight must be positive",
    );

    let mut local =
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores::unit()));
    local.threshold = Some(5);
    invalid(local.validate(), "not supported in local");

    let degenerate =
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores {
            matched: 0,
            mismatched: 1,
            gap: 1,
        }));
    invalid(degenerate.validate(), "match bonus must be positive");
}

#[test]
fn eligibility_boundaries_route_to_wider_words() {
    // Unit weights (max step 1): the u16 ceiling is
    // (n + m + 2) * 1 < 32767.
    let cfg = AlignConfig::new(RaceWeights::fig4());
    assert_eq!(cfg.checked_lane_width(16_382, 16_382), Ok(LaneWidth::U16)); // 32766: at bound
    assert_eq!(cfg.checked_lane_width(16_382, 16_383), Ok(LaneWidth::U32)); // 32767: one past

    // u32 ceiling, driven by weight magnitude: 2 * max_step < 2^31 - 1.
    // The degenerate 0×0 race is now admitted by the biased u8 rung at
    // any weight (its only value is 0), so the u32/u64 boundary is
    // pinned under a u16 floor — the ladder above u8 is unchanged.
    let heavy = |indel: u64| {
        AlignConfig::new(RaceWeights {
            matched: 1,
            mismatched: None,
            indel,
        })
        .with_lane_floor(LaneWidth::U16)
    };
    assert_eq!(
        heavy(1_073_741_823).checked_lane_width(0, 0),
        Ok(LaneWidth::U32)
    );
    assert_eq!(
        heavy(1_073_741_824).checked_lane_width(0, 0),
        Ok(LaneWidth::U64)
    );
    assert_eq!(
        heavy(1_073_741_824)
            .with_lane_floor(LaneWidth::U8)
            .checked_lane_width(0, 0),
        Ok(LaneWidth::U8),
        "0×0 fits the byte at any weight: its only value is 0"
    );

    // u64 ceiling: 3 * max_step must stay strictly below u64::MAX.
    let third = u64::MAX / 3; // 3 * third == u64::MAX exactly
    assert_eq!(
        heavy(third - 1).checked_lane_width(1, 0),
        Ok(LaneWidth::U64)
    );
    assert_eq!(
        heavy(third).checked_lane_width(1, 0),
        Err(AlignError::EligibilityOverflow {
            n: 1,
            m: 0,
            max_step: third
        })
    );
}

#[test]
fn try_scan_matches_unsupervised_scan() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(7, 20, 48);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 5, Some(1));
    let tried = try_scan(&cfg, &q, &database, 5, Some(1)).unwrap();
    assert_eq!(TopKScan::from(tried), baseline);
}

#[test]
fn unconstrained_supervised_scan_is_byte_identical() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(11, 30, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 4, Some(1));
    for workers in [Some(1), Some(4), None] {
        let ctrl = ScanControl::new();
        let outcome = supervised(&cfg, &q, &database, 4, workers, &ctrl).unwrap();
        assert_eq!(outcome.hits, baseline.hits, "workers {workers:?}");
        assert!(outcome.is_complete());
        assert_eq!(outcome.faulted_pairs, 0);
        assert_eq!(outcome.remaining_pairs(), 0);
        assert!(outcome.faults.is_empty());
        assert_eq!(outcome.stop, None);
        assert!(outcome.cells_computed > 0);
        assert!(ctrl.cells_spent() > 0);
    }
}

#[test]
fn pre_cancelled_scan_stops_before_any_work() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(13, 24, 64);
    let ctrl = ScanControl::new();
    ctrl.cancel();
    let outcome = supervised(&cfg, &q, &database, 3, Some(2), &ctrl).unwrap();
    assert_eq!(outcome.stop, Some(StopReason::Cancelled));
    assert_eq!(outcome.completed_pairs, 0);
    assert_eq!(outcome.remaining_pairs(), outcome.total_pairs);
    assert!(outcome.hits.is_empty());
}

#[test]
fn zero_deadline_yields_partial_outcome_not_panic() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(17, 24, 64);
    let ctrl = ScanControl::new().with_deadline_after(Duration::ZERO);
    let outcome = supervised(&cfg, &q, &database, 3, Some(2), &ctrl).unwrap();
    assert_eq!(outcome.stop, Some(StopReason::DeadlineExpired));
    assert_eq!(outcome.completed_pairs, 0);
    assert_eq!(outcome.remaining_pairs(), outcome.total_pairs);

    // The per-pair kernels hit the same wall on their very first
    // checkpoint: a typed error, never a panic.
    let mut engine = AlignEngine::new(cfg);
    let expired = ScanControl::new().with_deadline_after(Duration::ZERO);
    assert_eq!(
        engine.align_supervised(&q, &database[0], &expired),
        Err(AlignError::Interrupted {
            reason: StopReason::DeadlineExpired
        })
    );
}

/// A deadline far beyond the scan's run time never stops it early: on a
/// seed-pinned 32-entry log-normal fig4 database (median 48 bp, σ =
/// 0.5), a 60 s deadline completes every pair with the hits of the same
/// scan run without one.
#[test]
fn generous_deadline_completes_every_pair() {
    let mut rng = seeded_rng(0xBA7C4 ^ 0x5CA9);
    let q = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 48));
    let database: Vec<PackedSeq<Dna>> = (0..32)
        .map(|_| {
            let len = rl_bench::lognormal_len(&mut rng, 48.0, 0.5, 8, 192);
            PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len))
        })
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let unbounded = try_scan(&cfg, &q, &database, 10, None).unwrap();
    let ctrl = ScanControl::new().with_deadline_after(Duration::from_secs(60));
    let outcome = supervised(&cfg, &q, &database, 10, None, &ctrl).unwrap();
    assert_eq!(outcome.stop, None);
    assert_eq!(outcome.completed_pairs, outcome.total_pairs);
    assert_eq!(outcome.hits, unbounded.hits);
}

#[test]
fn cells_budget_stops_mid_scan_with_exact_accounting() {
    // 40 pairs of 65 × 65 = 4,225 planned cells. The fig4 `Auto` scan is
    // bit-parallel, one budget item per pair; pinned to the wavefront it
    // packs two u8 stripes (32 + 8 pairs), one item each. The budget
    // admits the plan prefix whose planned cells fit before any worker
    // starts, so at any worker count 5,000 cells admit one pair and
    // 150,000 admit the first stripe.
    let (q, database) = db(19, 40, 64);
    for (strategy, budget, admitted) in [
        (KernelStrategy::Auto, 5_000, 1),
        (KernelStrategy::Wavefront, 150_000, 32),
    ] {
        let cfg = AlignConfig::new(RaceWeights::fig4()).with_strategy(strategy);
        for workers in [1, 2, 4] {
            let ctrl = ScanControl::new().with_cells_budget(budget);
            let outcome = supervised(&cfg, &q, &database, 3, Some(workers), &ctrl).unwrap();
            assert_eq!(
                outcome.stop,
                Some(StopReason::BudgetExhausted),
                "{strategy:?}, {workers} workers"
            );
            assert!(outcome.budget_exhausted());
            assert!(
                outcome.remaining_pairs() > 0,
                "budget should cut the scan short"
            );
            assert!(
                outcome.completed_pairs <= 32,
                "{workers} workers: the budget admits one stripe, not {} pairs",
                outcome.completed_pairs
            );
            assert_eq!(
                outcome.completed_pairs, admitted,
                "{strategy:?}, {workers} workers"
            );
            assert!(ctrl.cells_spent() <= budget);
            assert_eq!(
                outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
                outcome.total_pairs
            );
        }
    }
}

/// A 64 bp query and `entries` entries of seed-pinned log-normal length
/// (median 64 bp, σ 0.5, clamped to 16–160 bp).
fn lognormal_db(seed: u64, entries: usize) -> (PackedSeq<Dna>, Vec<PackedSeq<Dna>>) {
    let mut rng = seeded_rng(seed);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64));
    let database = (0..entries)
        .map(|_| {
            let len = rl_bench::lognormal_len(&mut rng, 64.0, 0.5, 16, 160);
            PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len))
        })
        .collect();
    (query, database)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A cell budget admits a plan prefix chosen before any worker
    /// starts, so a budgeted scan returns the same hits, pair counts,
    /// stop and pending pairs at 1, 2, 4 and 8 workers: bit-parallel
    /// (fig4 `Auto`, three units of about 2^20 cells), striped
    /// (`Wavefront`-pinned) and affine scans alike. Each budget cuts
    /// mid-plan and exceeds the largest possible first item (a 32-lane
    /// stripe of the largest grid), so the scan also spends at most its
    /// budget. A budgeted batch completes each pair it admits with the
    /// unbudgeted batch's outcome.
    #[test]
    fn budget_admits_the_same_prefix_at_every_worker_count(
        seed in 0_u64..1_000,
        frac in 0.0_f64..0.8,
    ) {
        let (q, database) = lognormal_db(seed, 600);
        let grids: Vec<u64> = database
            .iter()
            .map(|p| (q.len() as u64 + 1) * (p.len() as u64 + 1))
            .collect();
        let first_item = 32 * grids.iter().max().unwrap();
        let total: u64 = grids.iter().sum();
        let budget = first_item + 1 + ((total - first_item) as f64 * frac) as u64;
        let affine = AlignMode::GlobalAffine(AffineWeights { open: 2 });
        for cfg in [
            AlignConfig::new(RaceWeights::fig4()),
            AlignConfig::new(RaceWeights::fig4()).with_strategy(KernelStrategy::Wavefront),
            AlignConfig::new(RaceWeights::fig4()).with_mode(affine),
        ] {
            let mut first = None;
            for workers in [1, 2, 4, 8] {
                let ctrl = ScanControl::new().with_cells_budget(budget);
                let (outcome, token) =
                    scan(&cfg, &q, ScanEntries::Memory(&database), 5, None, Some(workers), &ctrl)
                        .unwrap();
                prop_assert!(
                    ctrl.cells_spent() <= budget,
                    "{:?}, {} workers: spent {} of {}",
                    cfg.mode, workers, ctrl.cells_spent(), budget
                );
                prop_assert_eq!(outcome.stop, Some(StopReason::BudgetExhausted));
                let token = token.expect("a cut scan issues a token");
                let run = (
                    outcome.hits,
                    outcome.completed_pairs,
                    outcome.faulted_pairs,
                    outcome.stop,
                    token.pending_indices().collect::<Vec<_>>(),
                    token.retryable_pairs(),
                );
                match &first {
                    None => first = Some(run),
                    Some(one) => prop_assert_eq!(one, &run, "{:?}, {} workers", cfg.strategy, workers),
                }
            }
        }

        let pairs: Vec<_> = database.iter().map(|p| (&q, p)).collect();
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let full = align_batch(&cfg, &pairs, &ScanControl::new());
        let ctrl = ScanControl::new().with_cells_budget(budget);
        let cut = align_batch(&cfg, &pairs, &ctrl);
        prop_assert_eq!(cut.stop, Some(StopReason::BudgetExhausted));
        prop_assert!(ctrl.cells_spent() <= budget);
        prop_assert!(cut.completed_pairs > 0 && cut.completed_pairs < pairs.len());
        for (budgeted, unbudgeted) in cut.outcomes.iter().zip(&full.outcomes) {
            if budgeted.is_some() {
                prop_assert_eq!(budgeted, unbudgeted);
            }
        }
    }
}

/// In-band cells of each anti-diagonal `d = 1 ..= n + m` of an `n × m`
/// grid (`|i − j| ≤ band` when banded), counted cell by cell.
fn diagonal_cells(n: usize, m: usize, band: Option<usize>) -> Vec<u64> {
    (1..=n + m)
        .map(|d| {
            (0..=n.min(d))
                .filter(|&i| d - i <= m && band.is_none_or(|k| i.abs_diff(d - i) <= k))
                .count() as u64
        })
        .collect()
}

/// The per-pair wavefront's checkpoint contract, in every mode it
/// serves: one checkpoint per anti-diagonal, after the diagonal is
/// computed, charging its in-band cells (the root cell on diagonal 0 is
/// never charged). A cells budget `b` therefore stops the call at the
/// first diagonal whose prefix sum reaches `b`, with exactly that sum
/// spent, and a cancelled control stops at the first checkpoint,
/// before the second diagonal.
#[test]
fn per_pair_wavefront_checkpoints_every_diagonal() {
    let mut rng = seeded_rng(0xC4EC);
    let (n, m) = (40, 47);
    let q = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n));
    let p = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, m));
    let modes = [
        AlignMode::Global,
        AlignMode::Local(LocalScores::unit()),
        AlignMode::GlobalAffine(AffineWeights { open: 2 }),
    ];
    for mode in modes {
        for band in [None, Some(16)] {
            for floor in [LaneWidth::U8, LaneWidth::U64] {
                let mut cfg = AlignConfig::new(RaceWeights::fig4())
                    .with_mode(mode)
                    .with_strategy(KernelStrategy::Wavefront)
                    .with_lane_floor(floor);
                if let Some(k) = band {
                    cfg = cfg.with_band(k);
                }
                let label = format!("{mode} band {band:?} floor {floor}");
                let per_diag = diagonal_cells(n, m, band);
                let prefix: Vec<u64> = per_diag
                    .iter()
                    .scan(0, |s, &c| {
                        *s += c;
                        Some(*s)
                    })
                    .collect();
                let total = *prefix.last().expect("non-empty grid");
                let mut engine = AlignEngine::new(cfg);

                let free = ScanControl::new();
                let done = engine.align_supervised(&q, &p, &free).expect(&label);
                assert_eq!(done.cells_computed, total + 1, "{label}");
                assert_eq!(free.cells_spent(), total, "{label}");

                for b in [1, 2, per_diag[0] + 1, total / 3, total / 2 + 1, total] {
                    let ctrl = ScanControl::new().with_cells_budget(b);
                    assert_eq!(
                        engine.align_supervised(&q, &p, &ctrl),
                        Err(AlignError::BudgetExhausted),
                        "{label} budget {b}"
                    );
                    let reached = prefix.iter().find(|&&s| s >= b).expect("budget ≤ total");
                    assert_eq!(ctrl.cells_spent(), *reached, "{label} budget {b}");
                }

                let cancelled = ScanControl::new();
                cancelled.cancel();
                assert_eq!(
                    engine.align_supervised(&q, &p, &cancelled),
                    Err(AlignError::Interrupted {
                        reason: StopReason::Cancelled
                    }),
                    "{label}"
                );
                assert_eq!(cancelled.cells_spent(), per_diag[0], "{label}");
            }
        }
    }
}

#[test]
fn supervised_batch_matches_sequential_loop() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let mut rng = seeded_rng(23);
    // Mixed lengths: short pairs run per-pair, long ones stripe.
    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..24)
        .map(|i| {
            let len = if i % 3 == 0 { 12 } else { 64 };
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len)),
            )
        })
        .collect();
    let mut engine = AlignEngine::new(cfg);
    let sequential: Vec<_> = pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();
    let ctrl = ScanControl::new();
    let report = align_batch(&cfg, &refs, &ctrl);
    assert!(report.is_complete());
    assert_eq!(report.total_pairs(), pairs.len());
    assert_eq!(report.remaining_pairs(), 0);
    assert!(report.faults.is_empty());
    assert_eq!(report.stop, None);
    for (supervised, expected) in report.outcomes.iter().zip(&sequential) {
        assert_eq!(supervised.as_ref(), Some(expected));
    }

    // A cancelled batch reports everything as remaining, typed, no panic.
    let cancelled = ScanControl::new();
    cancelled.cancel();
    let report = align_batch(&cfg, &refs, &cancelled);
    assert_eq!(report.stop, Some(StopReason::Cancelled));
    assert_eq!(report.completed_pairs, 0);
    assert_eq!(report.remaining_pairs(), pairs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever mixture of deadline and budget cuts a scan short, the
    /// pair accounting is exact (no pair double-counted or lost), every
    /// reported hit carries its true score, and a scan that ran to
    /// completion reproduces the unsupervised top-k bit for bit.
    #[test]
    fn interrupted_scans_account_for_every_pair(
        seed in 0_u64..1_000,
        budget in 500_u64..40_000,
        deadline_us in 0_u64..300,
        constraint in 0_u32..3,
        workers in 1_usize..3,
    ) {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let (q, database) = db(seed, 20, 48);
        let mut ctrl = ScanControl::new();
        if constraint != 1 {
            ctrl = ctrl.with_cells_budget(budget);
        }
        if constraint != 0 {
            ctrl = ctrl.with_deadline_after(Duration::from_micros(deadline_us));
        }
        let outcome =
            supervised(&cfg, &q, &database, 3, Some(workers * 2), &ctrl).unwrap();
        prop_assert_eq!(outcome.total_pairs, database.len());
        prop_assert_eq!(outcome.faulted_pairs, 0);
        prop_assert_eq!(
            outcome.completed_pairs + outcome.remaining_pairs(),
            outcome.total_pairs
        );
        prop_assert!(outcome.hits.len() <= 3);
        let mut engine = AlignEngine::new(cfg);
        for &(idx, score) in &outcome.hits {
            let truth = engine.align(&q, &database[idx]);
            prop_assert_eq!(truth.finished_score(), Some(score));
        }
        if outcome.stop.is_none() {
            prop_assert!(outcome.is_complete());
            let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
            prop_assert_eq!(&outcome.hits, &baseline.hits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Resume soundness (satellite of PR 8): a scan interrupted at an
    /// arbitrary budget boundary — possibly many times — and resumed
    /// from its token produces the *byte-identical* top-k of an
    /// uninterrupted run, across alignment modes and worker counts.
    /// Sound because the carried bound only ever tightens (see
    /// docs/ROBUSTNESS.md).
    #[test]
    fn interrupted_resume_chain_matches_uninterrupted(
        seed in 0_u64..1_000,
        entries in 12_usize..48,
        len in 24_usize..56,
        k in 1_usize..6,
        budget_step in 12_000_u64..60_000,
        wide in 0_u32..2,
        mode in 0_u32..3,
    ) {
        let workers = Some(if wide == 1 { 4 } else { 1 });
        let cfg = match mode {
            0 => AlignConfig::new(RaceWeights::fig4()),
            1 => AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal),
            _ => AlignConfig::new(RaceWeights::fig4())
                .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
        };
        let (q, database) = db(seed, entries, len);
        let baseline = scan_packed_topk_with(&cfg, &q, &database, k, workers);

        // Fresh budget each segment: every segment completes at least
        // one unit (budget_step exceeds any single pair's grid), so the
        // chain terminates in at most `entries` segments.
        let ctrl = ScanControl::new().with_cells_budget(budget_step);
        let (mut outcome, mut token) =
            scan_packed_topk_resumable(&cfg, &q, &database, k, workers, &ctrl).unwrap();
        let mut segments = 1_usize;
        while let Some(tok) = token {
            prop_assert!(tok.remaining_pairs() > 0);
            prop_assert!(segments <= entries, "chain stopped making progress");
            let ctrl = ScanControl::new().with_cells_budget(budget_step);
            let (next, next_token) =
                scan(&cfg, &q, ScanEntries::Memory(&database), k, Some(tok), workers, &ctrl)
                    .unwrap();
            // The cumulative ledger accounts for every pair at every
            // interruption point, not just at the end.
            prop_assert_eq!(
                next.completed_pairs + next.faulted_pairs + next.remaining_pairs(),
                entries
            );
            prop_assert!(next.completed_pairs >= outcome.completed_pairs);
            outcome = next;
            token = next_token;
            segments += 1;
        }
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.faulted_pairs, 0);
        prop_assert_eq!(&outcome.hits, &baseline.hits);
    }
}
