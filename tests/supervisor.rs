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
    AffineWeights, AlignConfig, AlignEngine, AlignMode, BatchEngine, LaneWidth, LocalScores,
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

#[test]
fn cells_budget_stops_mid_scan_with_exact_accounting() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    // Two u8 stripes (32 + 8 pairs). Each stripe reserves its planned
    // cells before it sweeps, so at any worker count only the first to
    // reserve runs, even when both would start at once.
    let (q, database) = db(19, 40, 64);
    for workers in [1, 2, 4] {
        let ctrl = ScanControl::new().with_cells_budget(5_000);
        let outcome = supervised(&cfg, &q, &database, 3, Some(workers), &ctrl).unwrap();
        assert_eq!(
            outcome.stop,
            Some(StopReason::BudgetExhausted),
            "{workers} workers"
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
        assert!(ctrl.cells_spent() >= 5_000);
        assert_eq!(
            outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
            outcome.total_pairs
        );
    }
}

#[test]
fn supervised_batch_matches_unsupervised_batch() {
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
    let mut engine = BatchEngine::new(cfg);
    let plain = engine.align_batch(&pairs);
    let ctrl = ScanControl::new();
    let report = engine.align_batch_supervised(&pairs, &ctrl);
    assert!(report.is_complete());
    assert_eq!(report.total_pairs(), pairs.len());
    assert_eq!(report.remaining_pairs(), 0);
    assert!(report.faults.is_empty());
    assert_eq!(report.stop, None);
    for (supervised, unsupervised) in report.outcomes.iter().zip(&plain) {
        assert_eq!(supervised.as_ref(), Some(unsupervised));
    }

    // A cancelled batch reports everything as remaining, typed, no panic.
    let cancelled = ScanControl::new();
    cancelled.cancel();
    let report = engine.align_batch_supervised(&pairs, &cancelled);
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
