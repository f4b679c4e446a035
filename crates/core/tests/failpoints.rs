//! Fault-injection tests (feature `failpoints`): deterministic panics
//! and delays injected into the engine's failure-critical sites must be
//! absorbed by the supervisor — quarantined, retried on the per-pair
//! fallback kernel, and ledgered — without ever changing the final
//! top-k or the batch outcomes.
//!
//! The failpoint registry is process-global, so every test holds
//! [`failpoint::lock_for_test`] for its whole arm → run → disarm span.
#![cfg(feature = "failpoints")]

use std::time::Duration;

use proptest::prelude::*;
use race_logic::alignment::RaceWeights;
use race_logic::early_termination::{scan, scan_packed_topk_with, ScanEntries};
use race_logic::engine::{
    align_batch, align_batch_refs, AffineWeights, AlignConfig, AlignEngine, AlignMode,
    KernelStrategy,
};
use race_logic::supervisor::failpoint::{self, Action};
use race_logic::supervisor::{ScanControl, StopReason};
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

/// A fresh [`scan`] over an in-memory database under `ctrl`, without
/// the resume token.
fn supervised(
    cfg: &AlignConfig,
    q: &PackedSeq<Dna>,
    database: &[PackedSeq<Dna>],
    k: usize,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<race_logic::supervisor::ScanOutcome, race_logic::AlignError> {
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

/// Fig4 global weights pinned to the wavefront family, so a scan still
/// runs the striped and per-pair DP kernels (and reaches their
/// `stripe-sweep` and `simd-diag` sites): under `Auto` these weights
/// sweep bit-parallel.
fn fig4_striped() -> AlignConfig {
    AlignConfig::new(RaceWeights::fig4()).with_strategy(KernelStrategy::Wavefront)
}

/// Runs a supervised scan under `cfg` with `site` armed to panic once,
/// and asserts the scan completes with the baseline's exact hits, a
/// recovered fault and the injected panic in the ledger.
fn assert_recovered_identical(site: &'static str, cfg: AlignConfig, seed: u64, workers: usize) {
    let (q, database) = db(seed, 24, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    failpoint::arm_times(site, Action::Panic, 1);
    let ctrl = ScanControl::new();
    let outcome = supervised(&cfg, &q, &database, 3, Some(workers), &ctrl).unwrap();
    failpoint::disarm_all();

    assert_eq!(
        outcome.hits, baseline.hits,
        "site {site}, workers {workers}"
    );
    assert!(
        outcome.is_complete(),
        "site {site}: every pair must recover"
    );
    assert_eq!(outcome.faulted_pairs, 0);
    assert!(
        outcome.faults.iter().any(|f| f.recovered),
        "site {site}: the injected fault must appear in the ledger: {:?}",
        outcome.faults
    );
    assert!(
        outcome
            .faults
            .iter()
            .any(|f| f.message == format!("failpoint: {site}")),
        "site {site}: the ledger must carry the injected panic: {:?}",
        outcome.faults
    );
    assert!(
        outcome
            .faults
            .iter()
            .all(|f| f.message.contains("failpoint") || f.site == "scratch-budget"),
        "unexpected fault messages: {:?}",
        outcome.faults
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A panic injected into any single stripe sweep never changes the
    /// final top-k: the stripe is quarantined and its members retried on
    /// the scalar rolling-row kernel, whose scores are byte-identical.
    #[test]
    fn stripe_panic_preserves_topk(seed in 0_u64..10_000) {
        let _guard = failpoint::lock_for_test();
        failpoint::quiet_failpoint_panics();
        for workers in [1, 4] {
            assert_recovered_identical("stripe-sweep", fig4_striped(), seed, workers);
        }
    }

    /// A panic injected into a bit-parallel unit (site `bitpar-sweep`)
    /// never changes the final top-k: the unit is quarantined and its
    /// unfinished members retried on the scalar rolling row — under
    /// both recurrences, at 1 and 4 workers.
    #[test]
    fn bitpar_panic_preserves_topk(seed in 0_u64..10_000) {
        let _guard = failpoint::lock_for_test();
        failpoint::quiet_failpoint_panics();
        let levenshtein =
            AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal);
        for cfg in [AlignConfig::new(RaceWeights::fig4()), levenshtein] {
            for workers in [1, 4] {
                assert_recovered_identical("bitpar-sweep", cfg, seed, workers);
            }
        }
    }
}

#[test]
fn packer_panic_degrades_to_per_pair_plan() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();
    assert_recovered_identical("packer", AlignConfig::new(RaceWeights::fig4()), 42, 2);
}

#[test]
fn ratchet_panic_loses_only_an_observation() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();
    // A lost observation leaves the ratchet looser (fewer abandons) but
    // can never change which entries win.
    assert_recovered_identical("ratchet", AlignConfig::new(RaceWeights::fig4()), 7, 2);
}

#[test]
fn simd_diag_panic_recovers_on_rolling_row() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();
    assert_recovered_identical("simd-diag", fig4_striped(), 99, 1);
}

#[test]
fn affine_panic_falls_back_per_pair() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    // 3 pairs < STRIPE_MIN_PAIRS: the planner leaves them per-pair, so
    // the per-pair affine kernel (site `affine`) still runs and its
    // fallback path stays covered now that larger affine cohorts stripe.
    let cfg = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
    let mut rng = seeded_rng(5);
    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..3)
        .map(|_| {
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)),
            )
        })
        .collect();
    let mut engine = AlignEngine::new(cfg);
    let baseline: Vec<_> = pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();

    failpoint::arm_times("affine", Action::Panic, 1);
    let ctrl = ScanControl::new();
    let report = align_batch(&cfg, &refs, &ctrl);
    failpoint::disarm_all();

    assert!(report.is_complete());
    for (supervised, expected) in report.outcomes.iter().zip(&baseline) {
        assert_eq!(supervised.as_ref(), Some(expected));
    }
    assert!(
        report
            .faults
            .iter()
            .any(|f| f.site == "per-pair" && f.recovered),
        "expected a recovered per-pair fault: {:?}",
        report.faults
    );
}

/// A panic injected into the striped three-plane affine sweep (site
/// `affine-stripe`) never changes the affine top-k: the stripe is
/// quarantined and its members retried per-pair on the scalar Gotoh
/// path, byte-identically — at 1 and 4 workers.
#[test]
fn affine_stripe_panic_preserves_topk() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
    let (q, database) = db(31, 24, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
    for workers in [1, 4] {
        failpoint::arm_times("affine-stripe", Action::Panic, 1);
        let ctrl = ScanControl::new();
        let outcome = supervised(&cfg, &q, &database, 3, Some(workers), &ctrl).unwrap();
        failpoint::disarm_all();

        assert_eq!(outcome.hits, baseline.hits, "workers {workers}");
        assert!(outcome.is_complete(), "workers {workers}");
        assert_eq!(outcome.faulted_pairs, 0);
        assert!(
            outcome.faults.iter().any(|f| f.recovered),
            "workers {workers}: the injected stripe fault must be ledgered: {:?}",
            outcome.faults
        );
    }
}

/// The batch path recovers from an affine stripe panic the same way:
/// quarantine, per-pair Gotoh retry, outcomes byte-identical.
#[test]
fn affine_stripe_panic_recovers_in_batches() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
    let mut rng = seeded_rng(32);
    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..8)
        .map(|_| {
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)),
            )
        })
        .collect();
    let mut engine = AlignEngine::new(cfg);
    let baseline: Vec<_> = pairs.iter().map(|(q, p)| engine.align(q, p)).collect();
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();

    failpoint::arm_times("affine-stripe", Action::Panic, 1);
    let ctrl = ScanControl::new();
    let report = align_batch(&cfg, &refs, &ctrl);
    failpoint::disarm_all();

    assert!(report.is_complete());
    for (supervised, expected) in report.outcomes.iter().zip(&baseline) {
        assert_eq!(supervised.as_ref(), Some(expected));
    }
    assert!(
        report.faults.iter().any(|f| f.recovered),
        "expected a recovered stripe fault: {:?}",
        report.faults
    );
}

/// Every batch is supervised: a stripe panic under an unconstrained
/// control is quarantined and retried per pair, so the plain
/// `align_batch_refs` returns the unarmed outcomes instead of
/// unwinding.
#[test]
fn unconstrained_batch_recovers_from_a_stripe_panic() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(33, 16, 64);
    let pairs: Vec<_> = database.iter().map(|p| (&q, p)).collect();
    let baseline = align_batch_refs(&cfg, &pairs);

    failpoint::arm_times("stripe-sweep", Action::Panic, 1);
    let recovered = align_batch_refs(&cfg, &pairs);
    failpoint::disarm_all();

    assert_eq!(recovered, baseline);
}

#[test]
fn sleep_injection_expires_the_deadline() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    // 40 pairs split across two u8 stripes (32 + 8), so at least one
    // unit remains when the first sleeping sweep blows the deadline.
    let cfg = fig4_striped();
    let (q, database) = db(3, 40, 64);
    failpoint::arm("stripe-sweep", Action::Sleep(Duration::from_millis(50)));
    let ctrl = ScanControl::new().with_deadline_after(Duration::from_millis(10));
    let outcome = supervised(&cfg, &q, &database, 3, Some(1), &ctrl).unwrap();
    failpoint::disarm_all();

    assert_eq!(outcome.stop, Some(StopReason::DeadlineExpired));
    assert!(
        outcome.remaining_pairs() > 0,
        "the delay must cut the scan short"
    );
    assert_eq!(
        outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
        outcome.total_pairs,
        "no pair may be lost or double-counted"
    );
    assert_eq!(outcome.faulted_pairs, 0);
}

#[test]
fn persistent_stripe_panics_still_complete_the_scan() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    // Arm (not arm_times): EVERY stripe sweep panics; the whole striped
    // tier degrades to rolling-row retries and the scan still finishes
    // with the exact top-k.
    let cfg = fig4_striped();
    let (q, database) = db(12, 24, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
    failpoint::arm("stripe-sweep", Action::Panic);
    let ctrl = ScanControl::new();
    let outcome = supervised(&cfg, &q, &database, 3, Some(2), &ctrl).unwrap();
    failpoint::disarm_all();

    assert_eq!(outcome.hits, baseline.hits);
    assert!(outcome.is_complete());
    assert!(outcome.faults.iter().all(|f| f.recovered));
}

// ---------------------------------------------------------------------
// Service-layer sites and interruption attribution (PR 8).

use std::sync::{Arc, Mutex};

use race_logic::early_termination::scan_packed_topk_resumable;
use race_logic::service::{BackoffTimer, ScanRequest, ScanService, ServiceConfig, SubmitError};
use race_logic::AlignError;

/// A test timer that records every backoff pause instead of sleeping,
/// keeping retry tests deterministic and instant.
struct RecordingTimer(Mutex<Vec<Duration>>);

impl BackoffTimer for RecordingTimer {
    fn pause(&self, delay: Duration) {
        self.0.lock().unwrap().push(delay);
    }
}

/// Satellite: a budget trip *during* a quarantined stripe's per-pair
/// fallback is attributed as an interruption on the fault, and the
/// unreached members stay `remaining` — they are not folded into
/// `faulted_pairs` as if the worker had lost them.
#[test]
fn budget_trip_during_quarantine_is_interrupted_not_lost() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = fig4_striped();
    let (q, database) = db(21, 24, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    // The sweep panics, then the very first fallback row exhausts the
    // 1-cell budget: the fallback is cut off before recovering anyone.
    failpoint::arm_times("stripe-sweep", Action::Panic, 1);
    let ctrl = ScanControl::new().with_cells_budget(1);
    let (outcome, token) =
        scan_packed_topk_resumable(&cfg, &q, &database, 3, Some(1), &ctrl).unwrap();
    failpoint::disarm_all();

    assert_eq!(outcome.stop, Some(StopReason::BudgetExhausted));
    let fault = outcome
        .faults
        .iter()
        .find(|f| f.site == "stripe-sweep")
        .expect("the injected stripe fault must be ledgered");
    assert_eq!(
        fault.interrupted,
        Some(StopReason::BudgetExhausted),
        "the cut-off fallback must carry the stop reason"
    );
    assert!(fault.recovered, "an interrupted fallback is not a loss");
    assert_eq!(
        outcome.faulted_pairs, 0,
        "interrupted members stay remaining, not lost: {outcome:?}"
    );
    assert_eq!(
        outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
        outcome.total_pairs
    );

    // The token resumes the interrupted members to the exact baseline.
    let token = token.expect("an interrupted scan must be resumable");
    let (full, none) = scan(
        &cfg,
        &q,
        ScanEntries::Memory(&database),
        3,
        Some(token),
        Some(1),
        &ScanControl::new(),
    )
    .unwrap();
    assert!(none.is_none());
    assert!(full.is_complete());
    assert_eq!(full.hits, baseline.hits);
}

/// Site `service-enqueue`: a control-plane panic at admission surfaces
/// as a typed rejection and leaves the service healthy.
#[test]
fn service_enqueue_panic_rejects_then_recovers() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(23, 16, 48);
    let database = Arc::new(database);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    let service = ScanService::new(ServiceConfig::default());
    failpoint::arm_times("service-enqueue", Action::Panic, 1);
    match service.try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 3)) {
        Err(SubmitError::Rejected {
            reason: AlignError::WorkerFault { site, .. },
        }) => assert_eq!(site, "service-enqueue"),
        other => panic!("expected a WorkerFault rejection, got {other:?}"),
    }
    failpoint::disarm_all();

    let handle = service
        .try_submit(ScanRequest::new(cfg, q, database, 3))
        .expect("the service must stay healthy after the rejection");
    let report = handle.wait().expect("completes");
    assert_eq!(report.outcome.hits, baseline.hits);
    assert_eq!(service.stats().completed, 1);
}

/// Site `service-resume`: a panic in the resume control plane is a
/// failed attempt — backed off (recorded, not slept) and re-run clean,
/// with the retry history ledgered on the final outcome.
#[test]
fn service_resume_panic_backs_off_and_recovers() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(25, 96, 48);
    let database = Arc::new(database);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    let timer = Arc::new(RecordingTimer(Mutex::new(Vec::new())));
    let base = Duration::from_millis(10);
    let service = ScanService::with_timer(
        ServiceConfig::default().with_backoff(base, Duration::from_secs(1)),
        Arc::clone(&timer) as Arc<dyn BackoffTimer>,
    );

    // First run under a budget: a partial outcome plus a resume token.
    let handle = service
        .try_submit(
            ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 3).with_cells_budget(6_000),
        )
        .expect("admitted");
    let partial = handle.wait().expect("partial");
    assert_eq!(partial.outcome.stop, Some(StopReason::BudgetExhausted));
    let token = partial.resume.expect("resumable");

    failpoint::arm_times("service-resume", Action::Panic, 1);
    let handle = service
        .resume(ScanRequest::new(cfg, q, database, 3), token)
        .expect("resume admitted");
    let report = handle.wait().expect("recovers");
    failpoint::disarm_all();

    assert_eq!(report.attempts, 2, "one failed attempt, one clean");
    assert!(report.outcome.is_complete());
    assert_eq!(report.outcome.hits, baseline.hits);
    assert_eq!(*timer.0.lock().unwrap(), vec![base], "attempt 1 backoff");
    let fault = report
        .outcome
        .faults
        .iter()
        .find(|f| f.site == "service-resume")
        .expect("the failed attempt must be ledgered");
    assert_eq!(fault.attempt, 1, "stamped with the attempt that failed");
    assert_eq!(fault.backoff, base);
}

/// Site `service-retry`: a panic at the retry decision finalizes the
/// query with its partial outcome and resume token instead of wedging
/// it; a later resume still completes byte-identically.
#[test]
fn service_retry_panic_finalizes_partial_after_watchdog() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = fig4_striped();
    // 40 pairs = two u8 stripes: the first sweep sleeps through the
    // watchdog timeout, the second unit observes the trip and stops.
    // One worker, so the two units run one after the other.
    let (q, database) = db(3, 40, 64);
    let database = Arc::new(database);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    let service = ScanService::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_watchdog(Duration::from_millis(30))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    failpoint::arm_times("stripe-sweep", Action::Sleep(Duration::from_millis(250)), 1);
    failpoint::arm_times("service-retry", Action::Panic, 1);
    let handle = service
        .try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 3))
        .expect("admitted");
    let report = handle.wait().expect("finalized, not wedged");
    failpoint::disarm_all();

    assert_eq!(report.outcome.stop, Some(StopReason::Watchdog));
    assert!(report.watchdog_trips >= 1);
    assert_eq!(report.attempts, 1, "the retry was abandoned");
    let token = report.resume.expect("partial outcome keeps its token");

    let handle = service
        .resume(ScanRequest::new(cfg, q, database, 3), token)
        .expect("resume admitted");
    let full = handle.wait().expect("completes");
    assert!(full.outcome.is_complete());
    assert_eq!(full.outcome.hits, baseline.hits);
}

/// Site `watchdog-heartbeat`: a worker stuck *outside* the kernels (the
/// heartbeat epoch stalls with a segment published) is tripped by the
/// watchdog thread and the query is retried to the exact baseline.
#[test]
fn watchdog_trips_stalled_heartbeat_and_retries() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(27, 24, 48);
    let database = Arc::new(database);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    let service = ScanService::new(
        ServiceConfig::default()
            .with_watchdog(Duration::from_millis(25))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    failpoint::arm_times(
        "watchdog-heartbeat",
        Action::Sleep(Duration::from_millis(200)),
        1,
    );
    let handle = service
        .try_submit(ScanRequest::new(cfg, q, database, 3))
        .expect("admitted");
    let report = handle.wait().expect("retried to completion");
    failpoint::disarm_all();

    assert!(
        report.watchdog_trips >= 1,
        "the stall must trip: {report:?}"
    );
    assert_eq!(report.attempts, 2, "one tripped attempt, one clean");
    assert!(report.outcome.is_complete());
    assert_eq!(report.outcome.hits, baseline.hits);
    let fault = report
        .outcome
        .faults
        .iter()
        .find(|f| f.site == "service-retry")
        .expect("the watchdog retry must be ledgered");
    assert_eq!(fault.interrupted, Some(StopReason::Watchdog));
    assert!(fault.backoff >= Duration::from_millis(1));
    assert_eq!(service.stats().watchdog_trips, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite: resume determinism holds even when EVERY stripe sweep
    /// (or bit-parallel unit) panics — each budget-bounded segment
    /// degrades to the per-pair fallback (sometimes cut off
    /// mid-quarantine), and the chained resume still lands on the
    /// uninterrupted baseline top-k.
    #[test]
    fn resume_chain_under_stripe_panics_matches_baseline(
        seed in 0_u64..1_000,
        budget_step in 12_000_u64..40_000,
        wide in 0_u32..2,
        kernel in 0_u32..3,
    ) {
        let _guard = failpoint::lock_for_test();
        failpoint::quiet_failpoint_panics();

        let workers = Some(if wide == 1 { 4 } else { 1 });
        let cfg = match kernel {
            0 => fig4_striped(),
            1 => AlignConfig::new(RaceWeights::fig4())
                .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
            _ => AlignConfig::new(RaceWeights::fig4()),
        };
        let entries = 40_usize;
        let (q, database) = db(seed, entries, 48);
        let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, workers);

        failpoint::arm("stripe-sweep", Action::Panic);
        failpoint::arm("affine-stripe", Action::Panic);
        failpoint::arm("bitpar-sweep", Action::Panic);
        let ctrl = ScanControl::new().with_cells_budget(budget_step);
        let (mut outcome, mut token) =
            scan_packed_topk_resumable(&cfg, &q, &database, 3, workers, &ctrl).unwrap();
        let mut segments = 1_usize;
        while let Some(tok) = token {
            prop_assert!(segments <= entries, "chain stopped making progress");
            let ctrl = ScanControl::new().with_cells_budget(budget_step);
            let (next, next_token) =
                scan(&cfg, &q, ScanEntries::Memory(&database), 3, Some(tok), workers, &ctrl)
                    .unwrap();
            prop_assert_eq!(
                next.completed_pairs + next.faulted_pairs + next.remaining_pairs(),
                entries
            );
            outcome = next;
            token = next_token;
            segments += 1;
        }
        failpoint::disarm_all();

        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.faulted_pairs, 0);
        prop_assert!(outcome.faults.iter().all(|f| f.recovered));
        prop_assert_eq!(&outcome.hits, &baseline.hits);
    }
}

/// The service soak: 8 concurrent queries while every stripe sweep
/// panics and every packer call sleeps 1 ms. Odd-numbered queries carry
/// a budget of a sixteenth of their estimated cells and are resumed from
/// their tokens to the end. Every query stays accounted, completes and
/// returns the direct scan's hits, and the service completes each
/// submission and each resumption exactly once.
#[test]
fn service_soak_under_persistent_stripe_panics() {
    use race_logic::early_termination::estimate_scan_cells;

    const QUERIES: usize = 8;
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = fig4_striped();
    let mut rng = seeded_rng(0xBA7C4 ^ 0x50AC);
    let jobs: Vec<_> = (0..QUERIES)
        .map(|_| {
            let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64));
            let database: Vec<PackedSeq<Dna>> = (0..48)
                .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)))
                .collect();
            (query, Arc::new(database))
        })
        .collect();
    let baselines: Vec<_> = jobs
        .iter()
        .map(|(q, db)| scan_packed_topk_with(&cfg, q, db, 3, None))
        .collect();

    let service = ScanService::new(
        ServiceConfig::default().with_backoff(Duration::from_millis(1), Duration::from_millis(10)),
    );
    failpoint::arm("stripe-sweep", Action::Panic);
    failpoint::arm("packer", Action::Sleep(Duration::from_millis(1)));
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, (q, db))| {
            let mut req = ScanRequest::new(cfg, q.clone(), Arc::clone(db), 3);
            if i % 2 == 1 {
                req = req.with_cells_budget(estimate_scan_cells(&cfg, q, db) / 16);
            }
            service.try_submit(req).expect("soak query admitted")
        })
        .collect();

    let mut resumed = 0;
    for (i, handle) in handles.iter().enumerate() {
        let mut report = handle.wait().expect("soak query finalizes");
        while let Some(token) = report.resume.take() {
            resumed += 1;
            let (q, db) = &jobs[i];
            report = service
                .resume(ScanRequest::new(cfg, q.clone(), Arc::clone(db), 3), token)
                .expect("soak resume admitted")
                .wait()
                .expect("soak resume finalizes");
        }
        let o = &report.outcome;
        assert_eq!(
            o.completed_pairs + o.faulted_pairs + o.remaining_pairs(),
            o.total_pairs,
            "soak query {i}: accounting invariant"
        );
        assert!(o.is_complete(), "soak query {i} must complete: {o:?}");
        assert_eq!(
            o.hits, baselines[i].hits,
            "soak query {i}: top-k must survive the injected faults"
        );
    }
    failpoint::disarm_all();
    assert!(resumed > 0, "the budgeted queries must be cut short");
    assert_eq!(service.stats().completed as usize, QUERIES + resumed);
}

// ---------------------------------------------------------------------
// Store sites (PR 9): injected I/O faults on the persistent packed-shard
// store must surface as typed errors, quarantine at shard granularity,
// and stay retryable through the same token/backoff machinery.

use std::path::PathBuf;

use race_logic::store::{
    build_store, scan_store_topk_resumable, PackedStore, StoreError, StoreParams, StoreTarget,
};

fn fp_store_path(tag: &str) -> (PathBuf, StoreFileGuard) {
    let path = std::env::temp_dir().join(format!("rl_store_fp_{}_{tag}.rlp", std::process::id()));
    let guard = StoreFileGuard(path.clone());
    (path, guard)
}

struct StoreFileGuard(PathBuf);

impl Drop for StoreFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Site `store-write`: a crash injected between the payload and manifest
/// writes must never publish a partial database — the previous file (if
/// any) survives intact and the temp sibling is cleaned up.
#[test]
fn store_write_panic_publishes_nothing_and_keeps_the_old_db() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let (_q, database) = db(61, 10, 40);
    let (path, _fguard) = fp_store_path("write");

    // Crash on a fresh build: no destination file may appear.
    failpoint::arm_times("store-write", Action::Panic, 1);
    match build_store(&path, &database, &StoreParams::default()) {
        Err(StoreError::Io { context }) => assert!(context.contains("store-write")),
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    failpoint::disarm_all();
    assert!(!path.exists(), "a torn build must not be openable");

    // Publish a good DB, then crash a rebuild over it: the old file
    // still opens with its original content hash.
    let hash = build_store(&path, &database, &StoreParams::default()).expect("build");
    let (_q2, other_db) = db(62, 10, 40);
    failpoint::arm_times("store-write", Action::Panic, 1);
    assert!(build_store(&path, &other_db, &StoreParams::default()).is_err());
    failpoint::disarm_all();
    let store = PackedStore::<Dna>::open_validated(&path).expect("old DB intact");
    assert_eq!(store.content_hash(), hash);

    // No temp droppings next to the destination.
    let dir = path.parent().unwrap();
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(&name) && *n != name)
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

/// Site `store-open`: a transient open-time fault is a typed I/O error,
/// not a panic, and the very next open succeeds.
#[test]
fn store_open_panic_is_typed_and_transient() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let (_q, database) = db(63, 8, 32);
    let (path, _fguard) = fp_store_path("open");
    build_store(&path, &database, &StoreParams::default()).expect("build");

    failpoint::arm_times("store-open", Action::Panic, 1);
    match PackedStore::<Dna>::open_validated(&path) {
        Err(StoreError::Io { context }) => assert!(context.contains("store-open")),
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    failpoint::disarm_all();
    PackedStore::<Dna>::open_validated(&path).expect("transient fault clears");
}

/// Sites `store-chunk-read` / `store-mmap`: a transient read fault
/// quarantines exactly one shard group as retryable; the resume (fault
/// cleared) completes byte-identical to the in-memory baseline.
#[test]
fn store_read_panic_quarantines_then_resume_completes() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    for site in ["store-chunk-read", "store-mmap"] {
        let cfg = AlignConfig::new(RaceWeights::fig4());
        let (q, database) = db(64, 18, 40);
        let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
        let (path, _fguard) = fp_store_path(site);
        build_store(
            &path,
            &database,
            &StoreParams {
                chunk_size: 64,
                shard_entries: 4,
            },
        )
        .expect("build");
        let target = StoreTarget::new(Arc::new(
            PackedStore::<Dna>::open_validated(&path).expect("open"),
        ));

        failpoint::arm_times(site, Action::Panic, 1);
        let (outcome, token) =
            scan_store_topk_resumable(&cfg, &q, &target, 3, Some(2), &ScanControl::new())
                .expect("valid request");
        failpoint::disarm_all();

        assert!(outcome.faulted_pairs > 0, "site {site}: shard quarantined");
        assert!(
            outcome.faulted_pairs <= 4,
            "site {site}: at most one shard group lost, got {}",
            outcome.faulted_pairs
        );
        let fault = outcome
            .faults
            .iter()
            .find(|f| f.site == "store-chunk-read")
            .expect("store fault ledgered");
        assert!(!fault.recovered);
        assert!(fault.message.contains(site), "message: {}", fault.message);
        assert_eq!(
            outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
            outcome.total_pairs
        );

        let mut tok = token.expect("quarantined pairs are retryable");
        assert_eq!(tok.retryable_pairs(), outcome.faulted_pairs);
        tok.retry_faulted();
        let (full, none) = scan(
            &cfg,
            &q,
            ScanEntries::Store(&target),
            3,
            Some(tok),
            Some(2),
            &ScanControl::new(),
        )
        .expect("resume accepted");
        assert!(none.is_none());
        assert!(full.is_complete(), "site {site}: retry completes");
        assert_eq!(full.hits, baseline.hits, "site {site}");
    }
}

/// A transient chunk fault with a healthy replica attached never loses a
/// pair at all: the replica serves the quarantined shard in-flight and
/// the recovered fault lands in the ledger.
#[test]
fn store_read_panic_recovers_via_replica_in_flight() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(65, 15, 36);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
    let (path, _fguard) = fp_store_path("replica_primary");
    let (rpath, _rguard) = fp_store_path("replica_copy");
    let params = StoreParams {
        chunk_size: 64,
        shard_entries: 3,
    };
    build_store(&path, &database, &params).expect("build");
    std::fs::copy(&path, &rpath).expect("copy");
    let target = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open"),
    ))
    .with_replica(Arc::new(
        PackedStore::<Dna>::open_validated(&rpath).expect("open replica"),
    ))
    .expect("same content");

    // One injected fault: the primary's read fails, the replica's
    // succeeds (arm_times(1) is consumed by the primary).
    failpoint::arm_times("store-chunk-read", Action::Panic, 1);
    let (outcome, token) =
        scan_store_topk_resumable(&cfg, &q, &target, 3, Some(2), &ScanControl::new())
            .expect("valid request");
    failpoint::disarm_all();

    assert!(outcome.is_complete(), "replica absorbs the fault");
    assert!(token.is_none());
    assert_eq!(outcome.hits, baseline.hits);
    let fault = outcome
        .faults
        .iter()
        .find(|f| f.site == "store-chunk-read")
        .expect("recovered fault ledgered");
    assert!(fault.recovered);
    assert!(fault.message.contains("served by replica 0"));
}

/// End-to-end: a store-backed service query hit by a transient chunk
/// fault retries through the existing backoff machinery and finishes
/// byte-identical, with the failed attempt ledgered.
#[test]
fn service_store_chunk_fault_backs_off_and_completes() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(66, 20, 40);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));
    let (path, _fguard) = fp_store_path("service");
    build_store(
        &path,
        &database,
        &StoreParams {
            chunk_size: 64,
            shard_entries: 5,
        },
    )
    .expect("build");
    let target = Arc::new(StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open"),
    )));

    let timer = Arc::new(RecordingTimer(Mutex::new(Vec::new())));
    let base = Duration::from_millis(10);
    let service: ScanService<Dna> = ScanService::with_timer(
        ServiceConfig::default().with_backoff(base, Duration::from_secs(1)),
        Arc::clone(&timer) as Arc<dyn BackoffTimer>,
    );

    failpoint::arm_times("store-chunk-read", Action::Panic, 1);
    let handle = service
        .try_submit(ScanRequest::from_store(cfg, q, Arc::clone(&target), 3))
        .expect("admitted");
    let report = handle.wait().expect("completes");
    failpoint::disarm_all();

    assert_eq!(report.attempts, 2, "one quarantined attempt, one clean");
    assert!(report.outcome.is_complete());
    assert_eq!(report.outcome.hits, baseline.hits);
    assert_eq!(*timer.0.lock().unwrap(), vec![base]);
    assert!(
        report
            .outcome
            .faults
            .iter()
            .any(|f| f.site == "store-chunk-read" && !f.recovered),
        "the quarantined attempt must stay in the cumulative ledger: {:?}",
        report.outcome.faults
    );
}

/// The store corruption soak: random payload bytes of four shards are
/// bit-flipped, then 8 concurrent store-backed service queries run with
/// every chunk read delayed 50 µs. Each query stays accounted, loses
/// pairs and carries an unrecovered fault attributed to
/// `store-chunk-read`; with a pristine replica attached, every query
/// completes with the in-memory scan's hits.
#[test]
fn store_corruption_soak_quarantines_then_replica_recovers() {
    use rand::Rng as _;
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};

    const QUERIES: usize = 8;
    const FLIPS: usize = 4;
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let mut rng = seeded_rng(0xBA7C4 ^ 0x50BE);
    let database: Vec<PackedSeq<Dna>> = (0..96)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)))
        .collect();
    let queries: Vec<PackedSeq<Dna>> = (0..QUERIES)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)))
        .collect();
    let (path, _fguard) = fp_store_path("soak");
    let (rpath, _rguard) = fp_store_path("soak_replica");
    let params = StoreParams {
        chunk_size: 256,
        shard_entries: 8,
    };
    build_store(&path, &database, &params).expect("build");
    std::fs::copy(&path, &rpath).expect("copy replica");

    // Flip one bit in one random chunk of each of FLIPS distinct shards
    // of the primary; the replica stays pristine.
    let probe = PackedStore::<Dna>::open_validated(&path).expect("open for corruption");
    let shards = probe.shard_count();
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("open for corruption");
    let mut corrupted = std::collections::BTreeSet::new();
    let mut pick = seeded_rng(0xBA7C4 ^ 0xF11B);
    while corrupted.len() < FLIPS.min(shards - 1) {
        let shard = pick.random_range(0..shards);
        let chunk = pick.random_range(0..probe.shard_chunk_count(shard));
        let (off, len) = probe.chunk_file_range(shard, chunk);
        let byte = off + pick.random_range(0..len as u64);
        let mut b = [0_u8; 1];
        file.seek(SeekFrom::Start(byte)).expect("seek");
        file.read_exact(&mut b).expect("read");
        b[0] ^= 1 << pick.random_range(0..8_u8);
        file.seek(SeekFrom::Start(byte)).expect("seek");
        file.write_all(&b).expect("write flip");
        corrupted.insert(shard);
    }
    drop((file, probe));

    let open = |p: &PathBuf| Arc::new(PackedStore::<Dna>::open_validated(p).expect("open"));
    let service: ScanService<Dna> = ScanService::new(
        ServiceConfig::default().with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    let run_all = |target: &Arc<StoreTarget<Dna>>| -> Vec<ScanOutcome> {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                service
                    .try_submit(ScanRequest::from_store(
                        cfg,
                        q.clone(),
                        Arc::clone(target),
                        3,
                    ))
                    .expect("soak query admitted")
            })
            .collect();
        handles
            .iter()
            .map(|h| {
                h.wait()
                    .expect("soak query finalizes without panicking")
                    .outcome
            })
            .collect()
    };

    failpoint::arm("store-chunk-read", Action::Sleep(Duration::from_micros(50)));
    let corrupt_only = Arc::new(StoreTarget::new(open(&path)));
    for (i, o) in run_all(&corrupt_only).iter().enumerate() {
        assert_eq!(
            o.completed_pairs + o.faulted_pairs + o.remaining_pairs(),
            o.total_pairs,
            "soak query {i}: accounting invariant under corruption"
        );
        assert!(
            o.faulted_pairs > 0,
            "soak query {i}: corruption must surface"
        );
        assert!(
            o.faults
                .iter()
                .any(|f| f.site == "store-chunk-read" && !f.recovered),
            "soak query {i}: quarantine must be attributed: {:?}",
            o.faults
        );
    }
    failpoint::disarm_all();

    let with_replica = Arc::new(
        StoreTarget::new(open(&path))
            .with_replica(open(&rpath))
            .expect("replica content matches"),
    );
    for (i, o) in run_all(&with_replica).iter().enumerate() {
        assert!(o.is_complete(), "replica query {i} must complete");
        assert_eq!(
            o.hits,
            scan_packed_topk_with(&cfg, &queries[i], &database, 3, None).hits,
            "replica query {i}: hits must match the in-memory scan"
        );
    }
}

// ---------------------------------------------------------------------
// Telemetry (PR 10): the observability plane must never change results,
// and its timelines/flight dumps must be exactly pinnable under a
// deterministic clock.

use race_logic::supervisor::{ResumeToken, ScanOutcome};
use race_logic::telemetry::{self, flight, ManualClock, TraceEvent, TraceHandle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tentpole invariant: a telemetry-enabled scan (registry recording
    /// on, a tracer attached) returns hits/ledger/tokens byte-identical
    /// to the telemetry-off run, across modes × workers {1, 4} × injected
    /// stripe panics, with or without a cell budget. At one worker the
    /// whole (outcome, token) pair is compared strictly; at four, every
    /// field but the abandon counts and cells, which thread
    /// interleaving retunes run to run through the ratchet's timing,
    /// with or without telemetry. The budget admits the same plan
    /// prefix at either worker count, and the ledger is in canonical
    /// order, so stops, faults and pending pairs compare as-is.
    #[test]
    fn telemetry_toggle_is_result_invariant(
        seed in 0_u64..1_000,
        affine in 0_u32..2,
        use_budget in 0_u32..2,
        budget_cells in 10_000_u64..30_000,
    ) {
        let _guard = failpoint::lock_for_test();
        failpoint::quiet_failpoint_panics();

        let cfg = if affine == 1 {
            AlignConfig::new(RaceWeights::fig4())
                .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }))
        } else {
            fig4_striped()
        };
        let (q, database) = db(seed, 40, 48);

        for workers in [1_usize, 4] {
            let budget = (use_budget == 1).then_some(budget_cells);
            let run = |on: bool| {
                let prior = telemetry::set_enabled(on);
                failpoint::arm("stripe-sweep", Action::Panic);
                failpoint::arm("affine-stripe", Action::Panic);
                let mut ctrl = ScanControl::new();
                if on {
                    ctrl = ctrl.with_tracer(TraceHandle::new(seed));
                }
                if let Some(b) = budget {
                    ctrl = ctrl.with_cells_budget(b);
                }
                let res = scan_packed_topk_resumable(&cfg, &q, &database, 3, Some(workers), &ctrl)
                    .expect("valid request");
                failpoint::disarm_all();
                telemetry::set_enabled(prior);
                res
            };
            let (off_out, off_tok) = run(false);
            let (on_out, on_tok) = run(true);

            if workers == 1 {
                prop_assert_eq!(&off_out, &on_out, "single-worker outcome must be byte-identical");
                prop_assert_eq!(&off_tok, &on_tok, "single-worker token must be byte-identical");
            } else {
                prop_assert_eq!(&off_out.hits, &on_out.hits);
                prop_assert_eq!(off_out.completed_pairs, on_out.completed_pairs);
                prop_assert_eq!(off_out.faulted_pairs, on_out.faulted_pairs);
                prop_assert_eq!(off_out.total_pairs, on_out.total_pairs);
                prop_assert_eq!(off_out.stop, on_out.stop);
                prop_assert_eq!(&off_out.faults, &on_out.faults);
                let pending = |tok: &Option<ResumeToken>| {
                    tok.as_ref().map(|t| t.pending_indices().collect::<Vec<_>>())
                };
                prop_assert_eq!(pending(&off_tok), pending(&on_tok));
            }
        }
    }
}

/// A test timer that advances the pinned telemetry clock by each backoff
/// delay instead of sleeping, so retried segments land at exactly
/// `T + backoff` in the timeline.
struct ClockTimer {
    clock: Arc<ManualClock>,
    log: Mutex<Vec<Duration>>,
}

impl BackoffTimer for ClockTimer {
    fn pause(&self, delay: Duration) {
        self.clock.advance(delay);
        self.log.lock().unwrap().push(delay);
    }
}

/// Satellite: the deterministic-clock timeline pin for a
/// budget → resume → retry chain. Every event kind, stop reason, and
/// timestamp in both `QueryReport` timelines is asserted exactly.
#[test]
fn deterministic_clock_pins_budget_resume_retry_timeline() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    const T0: u64 = 1_000_000;
    let clock = Arc::new(ManualClock::at(T0));
    telemetry::set_clock_override(Some(Arc::clone(&clock) as Arc<_>));

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(25, 96, 48);
    let database = Arc::new(database);

    let timer = Arc::new(ClockTimer {
        clock: Arc::clone(&clock),
        log: Mutex::new(Vec::new()),
    });
    let base = Duration::from_millis(10);
    let service = ScanService::with_timer(
        ServiceConfig::default().with_backoff(base, Duration::from_secs(1)),
        Arc::clone(&timer) as Arc<dyn BackoffTimer>,
    );

    // Segment 1: a cell budget stops the scan partway and issues a token.
    let handle = service
        .try_submit(
            ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 3).with_cells_budget(6_000),
        )
        .expect("admitted");
    let partial = handle.wait().expect("partial");
    assert_eq!(partial.outcome.stop, Some(StopReason::BudgetExhausted));
    let token = partial.resume.clone().expect("resumable");

    assert_eq!(
        partial.trace.kinds(),
        vec![
            "admission-priced",
            "queued",
            "segment-start",
            "segment-stop",
            "resume-token-issued",
        ],
        "budget segment timeline: {:?}",
        partial.trace
    );
    // No timer pause ran, so every event sits at the pinned origin.
    assert!(
        partial.trace.events.iter().all(|e| e.at_nanos == T0),
        "untouched clock pins every timestamp at T0: {:?}",
        partial.trace
    );
    match &partial.trace.events[3].event {
        TraceEvent::SegmentStop { stop, cells } => {
            assert_eq!(*stop, Some(StopReason::BudgetExhausted));
            assert!(*cells <= 6_000, "the budget is a hard cap");
        }
        other => panic!("expected SegmentStop, got {other:?}"),
    }
    let pending = (token.remaining_pairs() + token.retryable_pairs()) as u64;
    assert!(pending > 0);
    assert_eq!(
        partial.trace.events[4].event,
        TraceEvent::ResumeTokenIssued { pending }
    );

    // Segment 2 + 3: resume, with one injected control-plane panic — the
    // retry backs off through the clock-advancing timer.
    failpoint::arm_times("service-resume", Action::Panic, 1);
    let handle = service
        .resume(ScanRequest::new(cfg, q, database, 3), token)
        .expect("resume admitted");
    let report = handle.wait().expect("recovers");
    failpoint::disarm_all();
    telemetry::set_clock_override(None);

    assert_eq!(report.attempts, 2);
    assert!(report.outcome.is_complete());
    assert_eq!(
        report.trace.kinds(),
        vec![
            "admission-priced",
            "queued",
            "resume-token-consumed",
            "segment-start",
            "retry",
            "resume-token-consumed",
            "segment-start",
            "segment-stop",
        ],
        "resume/retry timeline: {:?}",
        report.trace
    );
    assert_eq!(
        report.trace.events[4].event,
        TraceEvent::Retry {
            attempt: 2,
            backoff: base
        }
    );
    // The panic consumed no cells, and the clean rerun stops on nothing.
    match &report.trace.events[7].event {
        TraceEvent::SegmentStop { stop, .. } => assert_eq!(*stop, None),
        other => panic!("expected SegmentStop, got {other:?}"),
    }
    // Everything through the retry decision happened at T0; the backoff
    // pause advanced the pinned clock, so the rerun lands at exactly
    // T0 + base.
    let nanos: Vec<u64> = report.trace.events.iter().map(|e| e.at_nanos).collect();
    let after = T0 + base.as_nanos() as u64;
    assert_eq!(nanos, vec![T0, T0, T0, T0, T0, after, after, after]);
    assert_eq!(*timer.log.lock().unwrap(), vec![base]);

    // Satellite: the new ServiceStats fields are live views.
    let stats = service.stats();
    assert_eq!(stats.cumulative_backoff, base, "one backoff pause total");
    assert!(stats.queue_depth_hwm >= 1);
    assert_eq!(stats.completed, 2);
}

/// Acceptance criterion: a failpoint-injected unrecovered `WorkerFault`
/// (a store shard with no replica) produces a flight-recorder dump whose
/// event sequence is pinned under the deterministic clock.
#[test]
fn flight_dump_pins_worker_fault_sequence() {
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    const T0: u64 = 5_000_000;
    let clock = Arc::new(ManualClock::at(T0));
    telemetry::set_clock_override(Some(Arc::clone(&clock) as Arc<_>));
    flight::reset_for_test();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(64, 18, 40);
    let (path, _fguard) = fp_store_path("flight");
    build_store(
        &path,
        &database,
        &StoreParams {
            chunk_size: 64,
            shard_entries: 4,
        },
    )
    .expect("build");
    let target = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open"),
    ));

    const QUERY: u64 = 0xF11E;
    let ctrl = ScanControl::new().with_tracer(TraceHandle::new(QUERY));
    failpoint::arm_times("store-chunk-read", Action::Panic, 1);
    let (outcome, token) =
        scan_store_topk_resumable(&cfg, &q, &target, 3, Some(1), &ctrl).expect("valid request");
    failpoint::disarm_all();
    telemetry::set_clock_override(None);

    // The injected fault is an unrecovered WorkerFault: a whole shard
    // group is lost (no replica) and stays retryable.
    assert!(outcome.faulted_pairs > 0);
    assert!(token.is_some());

    let dump = flight::take_last_dump().expect("unrecovered fault must dump");
    assert_eq!(dump.reason, "worker-fault");
    assert_eq!(dump.at_nanos, T0, "dump taken under the pinned clock");
    // Pin this query's event sequence inside the dump: the failing shard
    // is quarantined unrecovered before any later shard loads (shard 0
    // reads first, groups iterate in shard order), so the dump holds
    // exactly one event for this query.
    let ours: Vec<_> = dump.records.iter().filter(|r| r.query == QUERY).collect();
    assert_eq!(ours.len(), 1, "dump records: {:?}", dump.records);
    assert_eq!(ours[0].kind, "store-quarantine");
    assert_eq!(ours[0].at_nanos, T0);
    assert_eq!(ours[0].a, 0, "shard 0 is the quarantined shard");
    assert_eq!(ours[0].b, 0, "recovered = false");

    // The trace ring carries the same pinned sequence plus the healthy
    // shard loads that followed the dump.
    let trace = ctrl.tracer().expect("attached").finish();
    assert_eq!(
        trace.events[0].event,
        TraceEvent::StoreQuarantine {
            shard: 0,
            recovered: false
        }
    );
    assert!(
        trace
            .kinds()
            .iter()
            .skip(1)
            .all(|k| *k == "store-shard-loaded"),
        "remaining shards load healthily: {:?}",
        trace.kinds()
    );
}
