//! Integration tests for the scan service (`race_logic::service`):
//! byte-identical results through the service path, typed admission
//! backpressure, overload shedding, cancellation with resume, the
//! deterministic backoff schedule, and resume-token round trips at the
//! entry-point level. Injected-fault service paths (`service-*`
//! failpoints, watchdog trips) live in `crates/core/tests/failpoints.rs`.

use std::sync::Arc;
use std::time::Duration;

use race_logic::alignment::RaceWeights;
use race_logic::early_termination::{
    estimate_scan_cells, scan, scan_packed_topk_resumable, scan_packed_topk_with, ScanEntries,
};
use race_logic::engine::{AffineWeights, AlignConfig, AlignMode};
use race_logic::service::{
    backoff_delay, QueryError, QueryStatus, ScanRequest, ScanService, ScanSource, ServiceConfig,
    SubmitError,
};
use race_logic::supervisor::{ScanControl, StopReason};
use race_logic::AlignError;
use rl_bio::{Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

fn db(seed: u64, entries: usize, len: usize) -> (PackedSeq<Dna>, Arc<Vec<PackedSeq<Dna>>>) {
    let mut rng = seeded_rng(seed);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len));
    let database = (0..entries)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len)))
        .collect();
    (query, Arc::new(database))
}

#[test]
fn service_path_is_byte_identical_to_direct_scan() {
    let service = ScanService::new(ServiceConfig::default());
    let modes = [
        AlignConfig::new(RaceWeights::fig4()),
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal),
        AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
    ];
    let mut handles = Vec::new();
    let mut baselines = Vec::new();
    for (i, cfg) in modes.iter().enumerate() {
        let (q, database) = db(40 + i as u64, 24, 48);
        baselines.push(scan_packed_topk_with(cfg, &q, &database, 3, None));
        handles.push(
            service
                .try_submit(ScanRequest::new(*cfg, q, database, 3))
                .expect("admitted"),
        );
    }
    for (handle, baseline) in handles.iter().zip(&baselines) {
        let report = handle.wait().expect("completed");
        assert!(report.outcome.is_complete());
        assert_eq!(report.outcome.hits, baseline.hits);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.watchdog_trips, 0);
        assert!(report.resume.is_none());
        assert_eq!(handle.poll(), QueryStatus::Done);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queued, 0);
}

#[test]
fn admission_returns_typed_backpressure() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(50, 8, 32);

    // Invalid request: typed rejection, same rules as the direct scan.
    let service = ScanService::new(ServiceConfig::default());
    match service.try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 0)) {
        Err(SubmitError::Rejected {
            reason: AlignError::InvalidConfig { reason },
        }) => assert!(reason.contains("k >= 1"), "reason {reason:?}"),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Queue-length bound.
    let service = ScanService::new(ServiceConfig::default().with_max_queue(0));
    match service.try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 2)) {
        Err(SubmitError::Overloaded { queued, .. }) => assert_eq!(queued, 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Queued-cells bound: the estimate is the banded grid-cell total.
    let est = estimate_scan_cells(&cfg, &q, &database);
    assert!(est > 0);
    let service = ScanService::new(ServiceConfig::default().with_max_queued_cells(est - 1));
    match service.try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 2)) {
        Err(SubmitError::Overloaded {
            estimated_cells, ..
        }) => assert_eq!(estimated_cells, est),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // A mismatched resume token is rejected before touching the queue.
    // Budget trips are unit-granular (a striped sweep always finishes),
    // so the database must span several units for work to remain.
    let (q_wide, wide_db) = db(52, 128, 32);
    let ctrl = ScanControl::new().with_cells_budget(1);
    let (_, token) =
        scan_packed_topk_resumable(&cfg, &q_wide, &wide_db, 2, Some(1), &ctrl).unwrap();
    let token = token.expect("budget of 1 cell leaves work");
    let (q2, other_db) = db(51, 5, 32);
    let service = ScanService::new(ServiceConfig::default());
    match service.resume(ScanRequest::new(cfg, q2, other_db, 2), token) {
        Err(SubmitError::Rejected { .. }) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn overload_sheds_costliest_queued_query_and_cancel_yields_resume() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    // A deliberately heavy head query so the queue backs up behind it:
    // semi-global, whose wider lanes and unpruned scan keep it running
    // until the cancel lands.
    let head_cfg = cfg.with_mode(AlignMode::SemiGlobal);
    let (q_big, db_big) = db(60, 400, 160);
    let (q_small, db_small) = db(61, 8, 32);
    let (q_mid, db_mid) = db(62, 24, 48);
    let small_est = estimate_scan_cells(&cfg, &q_small, &db_small);
    let mid_est = estimate_scan_cells(&cfg, &q_mid, &db_mid);
    assert!(mid_est > small_est);

    // Watermark admits the small query but not small + mid together.
    let service =
        ScanService::new(ServiceConfig::default().with_shed_watermark(small_est + mid_est - 1));
    let h_big = service
        .try_submit(ScanRequest::new(
            head_cfg,
            q_big.clone(),
            Arc::clone(&db_big),
            5,
        ))
        .expect("head admitted");
    // Wait for the worker to pick it up: a running query no longer
    // counts toward queued cells and is never a shedding victim.
    while h_big.poll() == QueryStatus::Queued {
        std::thread::yield_now();
    }
    let h_small = service
        .try_submit(ScanRequest::new(
            cfg,
            q_small.clone(),
            Arc::clone(&db_small),
            2,
        ))
        .expect("small admitted");
    let h_mid = service
        .try_submit(ScanRequest::new(cfg, q_mid, db_mid, 2))
        .expect("mid admitted (then shed)");
    // The mid query is the costliest *queued* entry past the watermark
    // (the big one is already running and is never a victim).
    h_big.cancel();
    assert_eq!(
        h_mid.wait(),
        Err(QueryError::Shed {
            estimated_cells: mid_est
        })
    );
    assert_eq!(h_mid.poll(), QueryStatus::Shed);

    let small_report = h_small.wait().expect("small completes");
    let small_baseline = scan_packed_topk_with(&cfg, &q_small, &db_small, 2, None);
    assert!(small_report.outcome.is_complete());
    assert_eq!(small_report.outcome.hits, small_baseline.hits);

    // The cancelled head query finalized with a partial ledger and a
    // resume token; the accounting invariant spans the whole database.
    let big_report = h_big.wait().expect("cancelled head finalizes");
    let o = &big_report.outcome;
    assert_eq!(o.stop, Some(StopReason::Cancelled));
    assert_eq!(
        o.completed_pairs + o.faulted_pairs + o.remaining_pairs(),
        o.total_pairs
    );
    assert!(o.remaining_pairs() > 0, "cancel landed before completion");
    let token = big_report.resume.expect("cancelled scan is resumable");

    // Resuming the cancelled query completes it byte-identically.
    let h_resumed = service
        .resume(
            ScanRequest::new(head_cfg, q_big.clone(), Arc::clone(&db_big), 5),
            token,
        )
        .expect("resume admitted");
    // The resume estimate covers only the pairs the cancelled run left
    // behind (equal when cancel landed before the first unit finished).
    assert!(h_resumed.estimated_cells() <= h_big.estimated_cells());
    let resumed = h_resumed.wait().expect("resume completes");
    assert!(resumed.outcome.is_complete());
    let baseline = scan_packed_topk_with(&head_cfg, &q_big, &db_big, 5, None);
    assert_eq!(resumed.outcome.hits, baseline.hits);

    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn budget_stop_finalizes_with_token_service_resume_completes() {
    let cfg = AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal);
    let (q, database) = db(70, 40, 64);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 4, None);

    let service = ScanService::new(ServiceConfig::default());
    let handle = service
        .try_submit(
            ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 4).with_cells_budget(9_000),
        )
        .expect("admitted");
    let partial = handle.wait().expect("partial result, not an error");
    assert_eq!(partial.outcome.stop, Some(StopReason::BudgetExhausted));
    assert_eq!(partial.attempts, 1, "budget stops are final, not retried");
    assert!(partial.outcome.remaining_pairs() > 0);
    let token = partial.resume.expect("resumable");

    let handle = service
        .resume(ScanRequest::new(cfg, q, database, 4), token)
        .expect("resume admitted");
    let full = handle.wait().expect("completes");
    assert!(full.outcome.is_complete());
    assert_eq!(full.outcome.faulted_pairs, 0);
    assert_eq!(full.outcome.hits, baseline.hits);
    assert_eq!(full.outcome.abandoned, baseline.abandoned);
}

#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let base = Duration::from_millis(10);
    let cap = Duration::from_secs(1);
    assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(10));
    assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(20));
    assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(40));
    assert_eq!(backoff_delay(base, cap, 5), Duration::from_millis(160));
    assert_eq!(
        backoff_delay(base, cap, 8),
        cap,
        "2^7 · 10ms > 1s saturates"
    );
    assert_eq!(backoff_delay(base, cap, 60), cap, "shift is clamped");
    assert_eq!(
        backoff_delay(Duration::from_secs(5), cap, 1),
        cap,
        "cap binds even on the first attempt"
    );
}

#[test]
fn idle_watchdog_never_trips_healthy_queries() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(80, 24, 48);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, None);
    let service =
        ScanService::new(ServiceConfig::default().with_watchdog(Duration::from_millis(200)));
    for _ in 0..2 {
        let handle = service
            .try_submit(ScanRequest::new(cfg, q.clone(), Arc::clone(&database), 3))
            .expect("admitted");
        let report = handle.wait().expect("completed");
        assert_eq!(report.outcome.hits, baseline.hits);
        assert_eq!(report.watchdog_trips, 0);
    }
    assert_eq!(service.stats().watchdog_trips, 0);
    service.shutdown();
}

#[test]
fn entry_point_resume_merges_exact_accounting() {
    // Deadline-interrupted at the entry-point level: resume with a
    // pre-expired deadline makes no progress but stays sound, then an
    // unconstrained resume finishes the job.
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(90, 120, 48);
    let baseline = scan_packed_topk_with(&cfg, &q, &database, 3, Some(1));

    let ctrl = ScanControl::new().with_cells_budget(8_000);
    let (first, token) =
        scan_packed_topk_resumable(&cfg, &q, &database, 3, Some(1), &ctrl).unwrap();
    assert_eq!(first.stop, Some(StopReason::BudgetExhausted));
    let token = token.expect("resumable");

    let expired = ScanControl::new().with_deadline_after(Duration::ZERO);
    let (stalled, token) = scan(
        &cfg,
        &q,
        ScanEntries::Memory(&database),
        3,
        Some(token.clone()),
        Some(1),
        &expired,
    )
    .unwrap();
    assert_eq!(stalled.stop, Some(StopReason::DeadlineExpired));
    assert_eq!(stalled.completed_pairs, first.completed_pairs);
    let token = token.expect("still resumable");

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
    assert_eq!(full.faulted_pairs, 0);
    // Top-k is byte-identical; cells/abandons may differ because the
    // resumed subset stripes differently than the full database.
    assert_eq!(full.hits, baseline.hits);
}

// ---------------------------------------------------------------------
// Store-backed requests (PR 9): a `ScanSource::Store` query rides the
// same admission, budget, and resume machinery as an in-memory one, and
// its results are byte-identical to the in-memory scan.

use race_logic::store::{build_store, PackedStore, StoreParams, StoreTarget};

/// Builds the database into a temp store file and opens it; the guard
/// removes the file on drop.
fn store_target(
    tag: &str,
    database: &[PackedSeq<Dna>],
) -> (Arc<StoreTarget<Dna>>, ServiceStoreGuard) {
    let path =
        std::env::temp_dir().join(format!("rl_service_store_{}_{tag}.rlp", std::process::id()));
    build_store(&path, database, &StoreParams::default()).expect("build store");
    let target = Arc::new(StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open store"),
    )));
    (target, ServiceStoreGuard(path))
}

struct ServiceStoreGuard(std::path::PathBuf);

impl Drop for ServiceStoreGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn store_backed_service_is_byte_identical_to_memory_backed() {
    let (query, database) = db(31, 24, 48);
    let (target, _guard) = store_target("identical", &database);
    let service: ScanService<Dna> = ScanService::new(ServiceConfig::default());
    for (name, cfg) in [
        ("global", AlignConfig::new(RaceWeights::fig4())),
        (
            "semi",
            AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal),
        ),
        (
            "affine",
            AlignConfig::new(RaceWeights::fig4())
                .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
        ),
    ] {
        let mem = service
            .try_submit(ScanRequest::new(
                cfg,
                query.clone(),
                Arc::clone(&database),
                4,
            ))
            .expect("admitted")
            .wait()
            .expect("memory run completes");
        let store = service
            .try_submit(ScanRequest::from_store(
                cfg,
                query.clone(),
                Arc::clone(&target),
                4,
            ))
            .expect("admitted")
            .wait()
            .expect("store run completes");
        assert!(store.outcome.is_complete(), "{name}");
        assert_eq!(store.outcome.hits, mem.outcome.hits, "{name}");
        assert_eq!(store.outcome.total_pairs, mem.outcome.total_pairs, "{name}");
    }
    assert_eq!(service.stats().completed, 6);
}

#[test]
fn store_backed_budget_stop_resumes_through_the_service() {
    let (query, database) = db(32, 40, 48);
    let (target, _guard) = store_target("resume", &database);
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let baseline = scan_packed_topk_with(&cfg, &query, &database, 3, Some(1));

    let service: ScanService<Dna> = ScanService::new(ServiceConfig::default());
    let partial = service
        .try_submit(
            ScanRequest::from_store(cfg, query.clone(), Arc::clone(&target), 3)
                .with_cells_budget(4_000),
        )
        .expect("admitted")
        .wait()
        .expect("partial");
    assert_eq!(partial.outcome.stop, Some(StopReason::BudgetExhausted));
    let token = partial.resume.expect("budget stop leaves a token");
    assert_eq!(token.db_hash(), Some(target.content_hash()));

    let full = service
        .resume(
            ScanRequest::from_store(cfg, query, Arc::clone(&target), 3),
            token,
        )
        .expect("resume admitted")
        .wait()
        .expect("completes");
    assert!(full.outcome.is_complete());
    assert_eq!(full.outcome.hits, baseline.hits);
    assert_eq!(
        full.outcome.completed_pairs + full.outcome.faulted_pairs,
        full.outcome.total_pairs
    );
}

#[test]
fn store_backed_admission_prices_from_the_manifest() {
    let (query, database) = db(33, 30, 48);
    let (target, _guard) = store_target("pricing", &database);
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let expected = estimate_scan_cells(&cfg, &query, &database);

    // A service whose cell ceiling sits below the estimate rejects the
    // store-backed request, quoting the exact manifest-derived estimate
    // — without touching a single payload chunk.
    let service: ScanService<Dna> =
        ScanService::new(ServiceConfig::default().with_max_queued_cells(expected - 1));
    match service.try_submit(ScanRequest::from_store(
        cfg,
        query.clone(),
        Arc::clone(&target),
        3,
    )) {
        Err(SubmitError::Overloaded {
            estimated_cells, ..
        }) => assert_eq!(estimated_cells, expected),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(
        target.store().chunks_loaded(),
        0,
        "admission must price store queries from the manifest alone"
    );
}

#[test]
fn resume_rejects_a_token_issued_for_a_different_k() {
    // A token from a top-3 scan must not silently finish as a top-3
    // scan when the resumed request asks for the top 7.
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(34, 128, 32);
    let ctrl = ScanControl::new().with_cells_budget(1);
    let (_, token) = scan_packed_topk_resumable(&cfg, &q, &database, 3, Some(1), &ctrl).unwrap();
    let token = token.expect("budget of 1 cell leaves work");
    assert_eq!(token.k(), 3);
    let service = ScanService::new(ServiceConfig::default());
    match service.resume(ScanRequest::new(cfg, q, database, 7), token) {
        Err(SubmitError::Rejected {
            reason: AlignError::InvalidConfig { reason },
        }) => assert!(reason.contains("top-3"), "reason {reason:?}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn every_bad_token_is_rejected_alike_by_the_service_and_scan() {
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(35, 128, 32);
    let (_, small_db) = db(36, 5, 32);
    let (_, other_db) = db(37, 128, 32);
    let (target, _guard) = store_target("bad_tokens", &database);
    let (rebuilt, _rguard) = store_target("bad_tokens_rebuilt", &other_db);
    let memory = ScanSource::Memory(Arc::clone(&database));
    let store = ScanSource::Store(Arc::clone(&target));

    // Budget trips are unit-granular, so a one-cell budget over several
    // units leaves work behind.
    let interrupted = |source: &ScanSource<Dna>, k: usize| {
        let ctrl = ScanControl::new().with_cells_budget(1);
        scan(&cfg, &q, source.entries(), k, None, Some(1), &ctrl)
            .unwrap()
            .1
            .expect("budget of 1 cell leaves work")
    };
    let mem_token = interrupted(&memory, 3);
    let store_token = interrupted(&store, 3);

    let cases = [
        (
            "memory token, store source",
            mem_token.clone(),
            store.clone(),
            3,
            "in-memory",
        ),
        (
            "store token, memory source",
            store_token.clone(),
            memory.clone(),
            3,
            "store",
        ),
        (
            "rebuilt store",
            store_token,
            ScanSource::Store(Arc::clone(&rebuilt)),
            3,
            "rebuilt",
        ),
        (
            "wrong database size",
            mem_token.clone(),
            ScanSource::Memory(small_db),
            3,
            "128 entries",
        ),
        ("mismatched k", mem_token, memory, 7, "top-3"),
    ];
    let service = ScanService::new(ServiceConfig::default());
    for (name, token, source, k, needle) in cases {
        let direct = match scan(
            &cfg,
            &q,
            source.entries(),
            k,
            Some(token.clone()),
            Some(1),
            &ScanControl::new(),
        ) {
            Err(AlignError::InvalidConfig { reason }) => reason,
            other => panic!("{name}: expected InvalidConfig from scan, got {other:?}"),
        };
        assert!(direct.contains(needle), "{name}: reason {direct:?}");
        let req = ScanRequest {
            cfg,
            query: q.clone(),
            source,
            k,
            deadline: None,
            cells_budget: None,
        };
        match service.resume(req, token) {
            Err(SubmitError::Rejected {
                reason: AlignError::InvalidConfig { reason },
            }) => assert_eq!(reason, direct, "{name}: the two doors disagree"),
            other => panic!("{name}: expected Rejected from the service, got {other:?}"),
        }
    }
    assert_eq!(
        service.stats().queued,
        0,
        "no rejected token reached the queue"
    );
}
