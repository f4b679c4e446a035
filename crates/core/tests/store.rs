//! Integration tests for the persistent packed-shard store
//! (`race_logic::store`): build → open → scan round trips byte-identical
//! to the in-memory scan, bit-flip fuzzing of the header and manifest
//! (typed errors only, never a panic), chunk-corruption quarantine with
//! replica fallback, manifest-only admission costing (zero payload
//! touches on a cold DB), and resume-token ↔ content-hash binding.
//! Injected `store-*` failpoint paths live in `failpoints.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use race_logic::alignment::RaceWeights;
use race_logic::early_termination::{
    estimate_scan_cells, scan, scan_packed_topk_resumable, scan_packed_topk_with, ScanEntries,
};
use race_logic::engine::{AffineWeights, AlignConfig, AlignMode, LocalScores};
use race_logic::service::{ScanRequest, ScanService, ServiceConfig, SubmitError};
use race_logic::store::{
    build_store, estimate_store_scan_cells, scan_store_topk_resumable, PackedStore, StoreError,
    StoreParams, StoreTarget,
};
use race_logic::supervisor::ScanControl;
use race_logic::AlignError;
use rl_bio::{alphabet::AminoAcid, Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

/// A unique temp path per call (tests run concurrently); the returned
/// guard removes the file on drop.
fn tmp_store(tag: &str) -> (PathBuf, FileGuard) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "rl_store_test_{}_{tag}_{n}.rlp",
        std::process::id()
    ));
    let guard = FileGuard(path.clone());
    (path, guard)
}

struct FileGuard(PathBuf);

impl Drop for FileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A ragged random DNA database plus a query, all derived from `seed`.
fn ragged_db(seed: u64, entries: usize, max_len: usize) -> (PackedSeq<Dna>, Vec<PackedSeq<Dna>>) {
    let mut rng = seeded_rng(seed);
    let qlen = 8 + (seed as usize % 24);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, qlen));
    let database = (0..entries)
        .map(|i| {
            let len = 1 + (seed as usize * 7 + i * 13) % max_len;
            PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len))
        })
        .collect();
    (query, database)
}

fn modes() -> [AlignConfig; 3] {
    [
        AlignConfig::new(RaceWeights::fig4()),
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::SemiGlobal),
        AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
    ]
}

/// Flips one bit of one byte in the file at `offset`.
fn flip_byte(path: &std::path::Path, offset: u64, mask: u8) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open for corruption");
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0_u8; 1];
    f.read_exact(&mut b).unwrap();
    b[0] ^= mask;
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&b).unwrap();
}

#[test]
fn store_scan_is_byte_identical_to_in_memory_scan() {
    // Small chunks force entries to span chunk boundaries.
    let params = StoreParams {
        chunk_size: 32,
        shard_entries: 5,
    };
    for (mi, cfg) in modes().iter().enumerate() {
        let (query, database) = ragged_db(100 + mi as u64, 23, 40);
        let (path, _guard) = tmp_store("roundtrip");
        let built_hash = build_store(&path, &database, &params).expect("build");
        let store = PackedStore::<Dna>::open_validated(&path).expect("open");
        assert_eq!(store.content_hash(), built_hash);
        assert_eq!(store.len(), database.len());
        for (i, e) in database.iter().enumerate() {
            assert_eq!(store.entry_len(i), e.len());
        }
        let target = StoreTarget::new(Arc::new(store));
        for workers in [1, 4] {
            let baseline = scan_packed_topk_with(cfg, &query, &database, 4, Some(workers));
            let (outcome, token) = scan_store_topk_resumable(
                cfg,
                &query,
                &target,
                4,
                Some(workers),
                &ScanControl::new(),
            )
            .expect("valid request");
            assert!(outcome.is_complete(), "mode {mi} workers {workers}");
            assert!(token.is_none());
            assert_eq!(outcome.hits, baseline.hits, "mode {mi} workers {workers}");
            assert!(outcome.faults.is_empty());
        }
        // Entries materialize exactly, in the caller's index space.
        for (i, e) in database.iter().enumerate() {
            assert_eq!(&target.store().entry(i).expect("entry"), e);
        }
    }
}

#[test]
fn amino_store_round_trips() {
    // 5-bit codes: every word has dead top bits — the padding-
    // validation path of try_from_words.
    let mut rng = seeded_rng(7);
    let database: Vec<PackedSeq<AminoAcid>> = (0..9)
        .map(|i| PackedSeq::from_seq(&Seq::<AminoAcid>::random(&mut rng, 5 + i * 3)))
        .collect();
    let (path, _guard) = tmp_store("amino");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    let store = PackedStore::<AminoAcid>::open_validated(&path).expect("open");
    for (i, e) in database.iter().enumerate() {
        assert_eq!(&store.entry(i).expect("entry"), e);
    }
    // The same file is not openable under the DNA alphabet.
    match PackedStore::<Dna>::open_validated(&path) {
        Err(StoreError::AlphabetMismatch { bits, count }) => {
            assert_eq!((bits, count), (5, 20));
        }
        other => panic!("expected AlphabetMismatch, got {other:?}"),
    }
}

#[test]
fn bit_flip_fuzz_every_byte_yields_typed_errors_only() {
    let (query, database) = ragged_db(42, 12, 20);
    let params = StoreParams {
        chunk_size: 64,
        shard_entries: 4,
    };
    let (path, _guard) = tmp_store("fuzz");
    build_store(&path, &database, &params).expect("build");
    let file_len = std::fs::metadata(&path).unwrap().len();
    let cfg = AlignConfig::new(RaceWeights::fig4());

    for offset in 0..file_len {
        flip_byte(&path, offset, 0x80);
        // Open must either reject with a typed error or succeed; if it
        // succeeds (payload-region flip — verification is lazy), every
        // read path must still be panic-free: scanning the corrupted
        // store yields a typed partial ledger.
        let outcome =
            std::panic::catch_unwind(|| match PackedStore::<Dna>::open_validated(&path) {
                Err(_) => {}
                Ok(store) => {
                    let target = StoreTarget::new(Arc::new(store));
                    let (outcome, _token) = scan_store_topk_resumable(
                        &cfg,
                        &query,
                        &target,
                        2,
                        Some(1),
                        &ScanControl::new(),
                    )
                    .expect("validation is metadata-only");
                    assert_eq!(
                        outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
                        outcome.total_pairs
                    );
                }
            });
        assert!(outcome.is_ok(), "byte {offset}: store path panicked");
        flip_byte(&path, offset, 0x80); // restore
    }
    // Restored file is pristine again.
    PackedStore::<Dna>::open_validated(&path).expect("restored file reopens");
}

#[test]
fn truncated_files_are_rejected_typed() {
    let (_query, database) = ragged_db(43, 8, 24);
    let (path, _guard) = tmp_store("trunc");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    let file_len = std::fs::metadata(&path).unwrap().len();
    for keep in [0, 1, 50, 95, 96, 200, file_len - 9, file_len - 1] {
        if keep >= file_len {
            continue;
        }
        let (tpath, _tguard) = tmp_store("trunc_cut");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&tpath, &bytes[..keep as usize]).unwrap();
        assert!(
            PackedStore::<Dna>::open_validated(&tpath).is_err(),
            "a {keep}-byte prefix of a {file_len}-byte store must not open"
        );
    }
}

#[test]
fn corrupt_chunk_quarantines_its_shard_as_retryable() {
    let (query, database) = ragged_db(44, 20, 32);
    let params = StoreParams {
        chunk_size: 48,
        shard_entries: 4,
    };
    let (path, _guard) = tmp_store("quarantine");
    build_store(&path, &database, &params).expect("build");
    let store = PackedStore::<Dna>::open_validated(&path).expect("open");
    assert!(store.shard_count() >= 3);
    let bad_shard = 1_usize;
    let mut victims: Vec<usize> = store.shard_members(bad_shard).collect();
    victims.sort_unstable();
    let (off, _len) = store.chunk_file_range(bad_shard, 0);
    flip_byte(&path, off, 0x01);
    // Reopen: header/manifest still verify (payload is lazy).
    let store = PackedStore::<Dna>::open_validated(&path).expect("reopen");
    let target = StoreTarget::new(Arc::new(store));
    let cfg = AlignConfig::new(RaceWeights::fig4());

    let (outcome, token) =
        scan_store_topk_resumable(&cfg, &query, &target, 3, Some(2), &ScanControl::new())
            .expect("valid request");
    assert_eq!(outcome.faulted_pairs, victims.len());
    assert_eq!(
        outcome.completed_pairs + outcome.faulted_pairs,
        outcome.total_pairs
    );
    let fault = outcome
        .faults
        .iter()
        .find(|f| f.site == "store-chunk-read")
        .expect("quarantine fault in the ledger");
    assert!(!fault.recovered);
    assert_eq!(fault.pairs, victims);
    assert!(fault.message.contains(&format!("shard {bad_shard}")));
    assert!(fault.message.contains("no healthy replica"));
    // Hits are exactly the in-memory top-k over the surviving entries.
    let survivors: Vec<PackedSeq<Dna>> = database
        .iter()
        .enumerate()
        .filter(|(i, _)| !victims.contains(i))
        .map(|(_, e)| e.clone())
        .collect();
    let surviving_ids: Vec<usize> = (0..database.len())
        .filter(|i| !victims.contains(i))
        .collect();
    let baseline = scan_packed_topk_with(&cfg, &query, &survivors, 3, Some(2));
    let remapped: Vec<(usize, u64)> = baseline
        .hits
        .iter()
        .map(|&(i, s)| (surviving_ids[i], s))
        .collect();
    assert_eq!(outcome.hits, remapped);
    // The quarantined pairs are retryable; persistent corruption fails
    // them again on resume (still typed, still accounted).
    let mut tok = token.expect("token for retryable pairs");
    assert_eq!(tok.retryable_pairs(), victims.len());
    tok.retry_faulted();
    let (outcome2, token2) = scan(
        &cfg,
        &query,
        ScanEntries::Store(&target),
        3,
        Some(tok),
        Some(2),
        &ScanControl::new(),
    )
    .expect("resume accepted");
    assert_eq!(outcome2.faulted_pairs, victims.len());
    assert_eq!(outcome2.hits, remapped);
    assert!(token2.is_some(), "still-corrupt shard stays retryable");
}

#[test]
fn replica_fallback_serves_quarantined_shard_byte_identical() {
    let (query, database) = ragged_db(45, 18, 28);
    let params = StoreParams {
        chunk_size: 64,
        shard_entries: 3,
    };
    let (path, _guard) = tmp_store("replica_primary");
    let (rpath, _rguard) = tmp_store("replica_copy");
    build_store(&path, &database, &params).expect("build");
    std::fs::copy(&path, &rpath).expect("copy replica");

    let store = PackedStore::<Dna>::open_validated(&path).expect("open");
    let bad_shard = store.shard_count() - 1;
    let mut victims: Vec<usize> = store.shard_members(bad_shard).collect();
    victims.sort_unstable();
    let (off, len) = store.chunk_file_range(bad_shard, store.shard_chunk_count(bad_shard) - 1);
    flip_byte(&path, off + len as u64 - 1, 0xFF);

    let primary = Arc::new(PackedStore::<Dna>::open_validated(&path).expect("reopen"));
    let replica = Arc::new(PackedStore::<Dna>::open_validated(&rpath).expect("open replica"));
    let target = StoreTarget::new(primary)
        .with_replica(replica)
        .expect("same content hash");
    assert_eq!(target.replica_count(), 1);

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let baseline = scan_packed_topk_with(&cfg, &query, &database, 4, Some(2));
    let (outcome, token) =
        scan_store_topk_resumable(&cfg, &query, &target, 4, Some(2), &ScanControl::new())
            .expect("valid request");
    assert!(
        outcome.is_complete(),
        "replica serves the quarantined shard"
    );
    assert!(token.is_none());
    assert_eq!(outcome.hits, baseline.hits);
    let fault = outcome
        .faults
        .iter()
        .find(|f| f.site == "store-chunk-read")
        .expect("quarantine fault recorded");
    assert!(fault.recovered);
    assert_eq!(fault.pairs, victims);
    assert!(fault.message.contains("served by replica 0"));
}

#[test]
fn replica_of_different_content_is_rejected() {
    let (_q, database) = ragged_db(46, 8, 20);
    let (_q2, other) = ragged_db(47, 8, 20);
    let (path, _guard) = tmp_store("mismatch_a");
    let (opath, _oguard) = tmp_store("mismatch_b");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    build_store(&opath, &other, &StoreParams::default()).expect("build other");
    let a = Arc::new(PackedStore::<Dna>::open_validated(&path).expect("open"));
    let b = Arc::new(PackedStore::<Dna>::open_validated(&opath).expect("open other"));
    match StoreTarget::new(a).with_replica(b) {
        Err(StoreError::ContentHashMismatch { .. }) => {}
        other => panic!("expected ContentHashMismatch, got {other:?}"),
    }
}

#[test]
fn cold_admission_touches_zero_chunks() {
    let (query, database) = ragged_db(48, 30, 40);
    let (path, _guard) = tmp_store("cold");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    let store = Arc::new(PackedStore::<Dna>::open_validated(&path).expect("open"));
    let cfg = AlignConfig::new(RaceWeights::fig4()).with_band(12);

    // The manifest-priced estimate matches the in-memory one exactly…
    let est = estimate_store_scan_cells(&cfg, &query, &store, None);
    assert_eq!(est, estimate_scan_cells(&cfg, &query, &database));
    // …and neither open_validated nor the estimate touched the payload.
    assert_eq!(store.chunks_loaded(), 0);

    // Service admission on a cold DB: a zero-length queue answers
    // `Overloaded` *after* computing the estimate, deterministically —
    // still zero payload touches.
    let target = Arc::new(StoreTarget::new(Arc::clone(&store)));
    let service: ScanService<Dna> = ScanService::new(ServiceConfig::default().with_max_queue(0));
    let req = ScanRequest::from_store(cfg, query.clone(), Arc::clone(&target), 3);
    match service.try_submit(req.clone()) {
        Err(SubmitError::Overloaded {
            estimated_cells, ..
        }) => assert_eq!(estimated_cells, est),
        other => panic!("expected Overloaded from a zero-length queue, got {other:?}"),
    }
    assert_eq!(
        store.chunks_loaded(),
        0,
        "admission of a cold store DB must not touch payload chunks"
    );
    drop(service);

    // A real service run then does touch (and verify) chunks, and the
    // result equals the in-memory scan.
    let service: ScanService<Dna> = ScanService::new(ServiceConfig::default());
    let handle = service.try_submit(req).expect("admitted");
    let report = handle.wait().expect("completed");
    assert!(report.outcome.is_complete());
    let baseline = scan_packed_topk_with(
        &AlignConfig::new(RaceWeights::fig4()).with_band(12),
        &query,
        &database,
        3,
        None,
    );
    assert_eq!(report.outcome.hits, baseline.hits);
    assert!(store.chunks_loaded() > 0);
}

#[test]
fn resume_token_binds_to_db_content_hash() {
    let (query, database) = ragged_db(49, 16, 30);
    let (_q2, other) = ragged_db(50, 16, 30);
    let (path, _guard) = tmp_store("bind_a");
    let (opath, _oguard) = tmp_store("bind_b");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    build_store(&opath, &other, &StoreParams::default()).expect("build other");
    let target = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open"),
    ));
    let rebuilt = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&opath).expect("open other"),
    ));
    let cfg = AlignConfig::new(RaceWeights::fig4());

    // Interrupt a store scan mid-flight to get a token.
    let ctrl = ScanControl::new().with_cells_budget(1);
    let (outcome, token) =
        scan_store_topk_resumable(&cfg, &query, &target, 2, Some(1), &ctrl).expect("valid");
    assert!(!outcome.is_complete());
    let token = token.expect("interrupted scan leaves a token");
    assert_eq!(token.db_hash(), Some(target.content_hash()));

    // Same content, different file/store instance: accepted.
    let (outcome2, _t2) = scan(
        &cfg,
        &query,
        ScanEntries::Store(&target),
        2,
        Some(token.clone()),
        Some(1),
        &ScanControl::new(),
    )
    .expect("same-content resume accepted");
    let baseline = scan_packed_topk_with(&cfg, &query, &database, 2, Some(1));
    assert_eq!(outcome2.hits, baseline.hits);

    // A rebuilt (different-content) store: typed rejection.
    match scan(
        &cfg,
        &query,
        ScanEntries::Store(&rebuilt),
        2,
        Some(token.clone()),
        Some(1),
        &ScanControl::new(),
    ) {
        Err(AlignError::InvalidConfig { reason }) => {
            assert!(reason.contains("rebuilt"), "got: {reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // A store token against the in-memory resume: typed rejection.
    match scan(
        &cfg,
        &query,
        ScanEntries::Memory(&database),
        2,
        Some(token.clone()),
        Some(1),
        &ScanControl::new(),
    ) {
        Err(AlignError::InvalidConfig { reason }) => {
            assert!(reason.contains("store"), "got: {reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // An in-memory token against the store resume: typed rejection.
    let ctrl = ScanControl::new().with_cells_budget(1);
    let (_, mem_token) =
        scan_packed_topk_resumable(&cfg, &query, &database, 2, Some(1), &ctrl).expect("valid");
    let mem_token = mem_token.expect("token");
    assert_eq!(mem_token.db_hash(), None);
    match scan(
        &cfg,
        &query,
        ScanEntries::Store(&target),
        2,
        Some(mem_token.clone()),
        Some(1),
        &ScanControl::new(),
    ) {
        Err(AlignError::InvalidConfig { reason }) => {
            assert!(reason.contains("in-memory"), "got: {reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // The same bindings hold at the service layer, as typed admission
    // rejections.
    let service: ScanService<Dna> = ScanService::new(ServiceConfig::default());
    let store_req = ScanRequest::from_store(cfg, query.clone(), Arc::new(rebuilt), 2);
    match service.resume(store_req, token) {
        Err(SubmitError::Rejected { reason }) => {
            assert!(reason.to_string().contains("rebuilt"));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let mem_req = ScanRequest::new(cfg, query, Arc::new(database), 2);
    let store_token_for_mem = {
        let ctrl = ScanControl::new().with_cells_budget(1);
        scan_store_topk_resumable(&cfg, &mem_req.query, &target, 2, Some(1), &ctrl)
            .expect("valid")
            .1
            .expect("token")
    };
    match service.resume(mem_req, store_token_for_mem) {
        Err(SubmitError::Rejected { reason }) => {
            assert!(reason.to_string().contains("store"));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn build_rejects_degenerate_inputs_and_commits_atomically() {
    let empty: Vec<PackedSeq<Dna>> = Vec::new();
    let (path, _guard) = tmp_store("degenerate");
    assert!(build_store(&path, &empty, &StoreParams::default()).is_err());
    assert!(!path.exists(), "failed build must not leave a file");

    let with_empty = vec![
        PackedSeq::<Dna>::from_codes([0_u8], 1),
        PackedSeq::from_codes([], 0),
    ];
    assert!(build_store(&path, &with_empty, &StoreParams::default()).is_err());
    assert!(!path.exists());

    let db = vec![PackedSeq::<Dna>::from_codes([0, 1, 2], 3)];
    assert!(build_store(
        &path,
        &db,
        &StoreParams {
            chunk_size: 0,
            shard_entries: 4
        }
    )
    .is_err());
    assert!(!path.exists());

    // A successful build leaves exactly the destination file — no temp
    // droppings in the directory.
    build_store(&path, &db, &StoreParams::default()).expect("build");
    assert!(path.exists());
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

    // Rebuilding identical content over the old file is idempotent.
    let h1 = PackedStore::<Dna>::open_validated(&path)
        .unwrap()
        .content_hash();
    let h2 = build_store(&path, &db, &StoreParams::default()).expect("rebuild");
    assert_eq!(h1, h2);
}

#[test]
fn store_scan_validation_rejects_bad_requests() {
    let (query, database) = ragged_db(51, 6, 16);
    let (path, _guard) = tmp_store("validate");
    build_store(&path, &database, &StoreParams::default()).expect("build");
    let target = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open"),
    ));
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let ctrl = ScanControl::new();
    assert!(matches!(
        scan_store_topk_resumable(&cfg, &query, &target, 0, None, &ctrl),
        Err(AlignError::InvalidConfig { .. })
    ));
    assert!(matches!(
        scan_store_topk_resumable(&cfg, &query, &target, 7, None, &ctrl),
        Err(AlignError::InvalidConfig { .. })
    ));
    let empty_q = PackedSeq::<Dna>::from_codes([], 0);
    assert!(matches!(
        scan_store_topk_resumable(&cfg, &empty_q, &target, 1, None, &ctrl),
        Err(AlignError::InvalidConfig { .. })
    ));
    let local =
        AlignConfig::new(RaceWeights::fig4()).with_mode(AlignMode::Local(LocalScores::blast()));
    assert!(matches!(
        scan_store_topk_resumable(&local, &query, &target, 1, None, &ctrl),
        Err(AlignError::InvalidConfig { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite round-trip property: pack → write → open_validated
    /// → scan is byte-identical to the in-memory scan across modes
    /// {global, semi, affine}, worker counts {1, 4}, and random
    /// interruption/resume points.
    #[test]
    fn store_round_trip_matches_in_memory(
        seed in 0_u64..10_000,
        mode_idx in 0_usize..3,
        workers_idx in 0_usize..2,
        cut_permille in 1_u64..1000,
    ) {
        let cfg = modes()[mode_idx];
        let workers = [1, 4][workers_idx];
        let entries = 6 + (seed as usize % 18);
        let (query, database) = ragged_db(seed, entries, 36);
        let k = 1 + (seed as usize % 4).min(entries - 1);
        let params = StoreParams {
            chunk_size: 24 + (seed as usize % 101),
            shard_entries: 1 + (seed as usize % 7),
        };
        let (path, _guard) = tmp_store("prop");
        build_store(&path, &database, &params).expect("build");
        let target = StoreTarget::new(Arc::new(
            PackedStore::<Dna>::open_validated(&path).expect("open"),
        ));
        let baseline = scan_packed_topk_with(&cfg, &query, &database, k, Some(workers));

        // Interrupt the first segment at a random fraction of the full
        // cell cost, then resume (unbounded) until done.
        let full_cells = estimate_store_scan_cells(&cfg, &query, target.store(), None);
        let budget = (full_cells * cut_permille / 1000).max(1);
        let ctrl = ScanControl::new().with_cells_budget(budget);
        let (mut outcome, mut token) =
            scan_store_topk_resumable(&cfg, &query, &target, k, Some(workers), &ctrl)
                .expect("valid request");
        let mut segments = 1;
        while let Some(tok) = token {
            prop_assert!(segments < 50, "resume chain must terminate");
            let (o, t) = scan(
                &cfg,
                &query,
                ScanEntries::Store(&target),
                k,
                Some(tok),
                Some(workers),
                &ScanControl::new(),
            )
            .expect("resume accepted");
            outcome = o;
            token = t;
            segments += 1;
        }
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.hits, baseline.hits);
        prop_assert_eq!(
            outcome.completed_pairs + outcome.faulted_pairs + outcome.remaining_pairs(),
            outcome.total_pairs
        );
    }
}
