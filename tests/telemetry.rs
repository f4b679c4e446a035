//! Integration tests for the telemetry subsystem (`race_logic::telemetry`)
//! at the public-API level: instrument semantics, both exposition
//! formats, snapshot lookups, result invariance of a traced striped
//! batch, per-query timelines on service reports, per-instance store
//! counters across cold and warm scans, and the registry-backed
//! `ServiceStats` views. Fault-injected telemetry paths
//! (flight dumps, retry timelines) live in
//! `crates/core/tests/failpoints.rs`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use race_logic::alignment::RaceWeights;
use race_logic::early_termination::{scan, ScanEntries};
use race_logic::engine::{align_batch, AffineWeights, AlignConfig, AlignMode};
use race_logic::service::{ScanRequest, ScanService, ServiceConfig};
use race_logic::store::{
    build_store, scan_store_topk_resumable, PackedStore, StoreParams, StoreTarget,
};
use race_logic::supervisor::ScanControl;
use race_logic::telemetry::{
    self, flight, Counter, Gauge, Histogram, ManualClock, Snapshot, TraceEvent, TraceHandle,
};
use rl_bio::{Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

/// The metrics registry and flight ring are process-global; tests that
/// read them serialize here so a concurrently running test can't
/// interleave its own increments.
fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn db(seed: u64, entries: usize, len: usize) -> (PackedSeq<Dna>, Vec<PackedSeq<Dna>>) {
    let mut rng = seeded_rng(seed);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len));
    let database = (0..entries)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, len)))
        .collect();
    (query, database)
}

struct TempStore(PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_store_path(tag: &str) -> (PathBuf, TempStore) {
    let path = std::env::temp_dir().join(format!("rl_telemetry_{}_{tag}.rlp", std::process::id()));
    let guard = TempStore(path.clone());
    (path, guard)
}

#[test]
fn instruments_count_and_clamp_without_locking() {
    static C: Counter = Counter::new("t_counter_total", "test counter");
    static G: Gauge = Gauge::new("t_gauge", "test gauge");
    static H: Histogram = Histogram::new("t_hist", "test histogram");

    C.inc();
    C.add(4);
    assert_eq!(C.get(), 5);

    G.set(7);
    G.set_max(3); // lower value must not regress the high-water mark
    assert_eq!(G.get(), 7);
    G.set_max(11);
    assert_eq!(G.get(), 11);

    // Log2 buckets: bucket i covers the values with bit-length i.
    for v in [0_u64, 1, 2, 3, 4, 1023, 1024] {
        H.observe(v);
    }
    assert_eq!(H.count(), 7);
    assert_eq!(H.sum(), 2057);
    let buckets = H.bucket_counts();
    assert_eq!(buckets[0], 1, "only 0 has bit-length 0");
    assert_eq!(buckets[1], 1, "1");
    assert_eq!(buckets[2], 2, "2 and 3");
    assert_eq!(buckets[3], 1, "4");
    assert_eq!(buckets[10], 1, "1023 is the last 10-bit value");
    assert_eq!(buckets[11], 1, "1024 opens the 11-bit bucket");
}

#[test]
fn exposition_formats_cover_the_whole_catalog() {
    let _g = registry_lock();
    telemetry::metrics::CHECKPOINTS.inc();

    let text = telemetry::prometheus_text();
    // Every catalog instrument renders with HELP/TYPE preambles.
    for needle in [
        "# HELP rl_checkpoints_total",
        "# TYPE rl_checkpoints_total counter",
        "# TYPE rl_service_queue_depth gauge",
        "# TYPE rl_unit_cells histogram",
        "rl_unit_cells_bucket{le=\"+Inf\"}",
        "rl_unit_cells_sum",
        "rl_unit_cells_count",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    let json = telemetry::json_snapshot();
    for needle in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"rl_checkpoints_total\"",
        "\"rl_unit_cells\"",
        "\"buckets\"",
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }

    let snap = Snapshot::capture();
    assert!(snap.counter("rl_checkpoints_total").expect("known counter") >= 1);
    assert!(snap.gauge("rl_service_queue_depth").is_some());
    assert!(snap.counter("rl_no_such_metric").is_none());
    let (count, _sum) = snap.histogram("rl_unit_cells").expect("known histogram");
    let _ = count;
}

/// Telemetry never changes results and feeds the catalog: a supervised
/// striped batch (32 fixed 256 bp fig4 pairs) returns identical
/// outcomes with the registry and a tracer enabled and with telemetry
/// globally off; the enabled run counts striped units and checkpoints
/// and observes per-unit cells, and both exposition formats render
/// them.
#[test]
fn traced_batch_is_result_invariant_and_populates_the_catalog() {
    let _g = registry_lock();
    let mut rng = seeded_rng(0xBA7C4);
    let pairs: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..32)
        .map(|_| {
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 256)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 256)),
            )
        })
        .collect();
    let refs: Vec<_> = pairs.iter().map(|(q, p)| (q, p)).collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let run = |on: bool| {
        let prior = telemetry::set_enabled(on);
        let mut ctrl = ScanControl::new();
        if on {
            ctrl = ctrl.with_tracer(TraceHandle::new(u64::MAX));
        }
        let report = align_batch(&cfg, &refs, &ctrl);
        telemetry::set_enabled(prior);
        assert!(report.is_complete(), "unconstrained batch must complete");
        report.outcomes
    };
    let catalog = || {
        let snap = Snapshot::capture();
        (
            snap.counter("rl_stripe_units_total")
                .expect("catalog counter"),
            snap.counter("rl_checkpoints_total")
                .expect("catalog counter"),
            snap.histogram("rl_unit_cells")
                .expect("catalog histogram")
                .0,
        )
    };

    let off = run(false);
    let (units, checkpoints, unit_cells) = catalog();
    assert_eq!(run(true), off, "telemetry must not change results");
    let (units_on, checkpoints_on, unit_cells_on) = catalog();
    assert!(units_on > units, "enabled runs must count striped units");
    assert!(
        checkpoints_on > checkpoints,
        "enabled runs must count checkpoints"
    );
    assert!(
        unit_cells_on > unit_cells,
        "enabled runs must observe unit cells"
    );

    let prom = telemetry::prometheus_text();
    assert!(
        prom.contains("# TYPE rl_stripe_units_total counter")
            && prom.contains("rl_unit_cells_bucket{le=\"+Inf\"}"),
        "prometheus exposition must render the catalog"
    );
    let js = telemetry::json_snapshot();
    assert!(
        js.contains("\"counters\"") && js.contains("\"rl_unit_cells\""),
        "json exposition must render the catalog"
    );
}

/// `rl_bitpar_pairs_total` counts the pairs a scan sweeps on the
/// bit-parallel kernel: it grows on fig4 global and Levenshtein
/// semi-global scans, stays flat on an affine scan (striped DP
/// kernels), and turning telemetry off leaves every scan's outcome and
/// token byte-identical.
#[test]
fn bitpar_counter_grows_only_on_eligible_scans() {
    let _g = registry_lock();
    let (q, database) = db(0xB17, 24, 64);
    let run = |cfg: &AlignConfig, on: bool| {
        let prior = telemetry::set_enabled(on);
        let before = telemetry::metrics::BITPAR_PAIRS.get();
        let result = scan(
            cfg,
            &q,
            ScanEntries::Memory(&database),
            3,
            None,
            Some(1),
            &ScanControl::new(),
        )
        .expect("valid request");
        let swept = telemetry::metrics::BITPAR_PAIRS.get() - before;
        telemetry::set_enabled(prior);
        (result, swept)
    };
    let levenshtein = AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal);
    let affine = AlignConfig::new(RaceWeights::fig4())
        .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 }));
    for (cfg, eligible) in [
        (AlignConfig::new(RaceWeights::fig4()), true),
        (levenshtein, true),
        (affine, false),
    ] {
        let (off, swept_off) = run(&cfg, false);
        let (on, swept_on) = run(&cfg, true);
        assert_eq!(on, off, "{cfg:?}: telemetry must not change the scan");
        assert_eq!(swept_off, 0, "{cfg:?}: disabled telemetry records nothing");
        assert_eq!(swept_on > 0, eligible, "{cfg:?}: swept {swept_on} pairs");
    }
}

#[test]
fn service_reports_carry_a_timeline_and_registry_backed_stats() {
    let _g = registry_lock();
    let submitted_before = telemetry::metrics::SERVICE_SUBMITTED.get();
    let completed_before = telemetry::metrics::SERVICE_COMPLETED.get();

    let service = ScanService::new(ServiceConfig::default());
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(7, 24, 48);
    let handle = service
        .try_submit(ScanRequest::new(cfg, q, Arc::new(database), 3))
        .expect("admitted");
    let report = handle.wait().expect("completed");
    assert!(report.outcome.is_complete());

    // The happy-path timeline: priced, queued, one segment, no stop.
    assert_eq!(
        report.trace.kinds(),
        vec![
            "admission-priced",
            "queued",
            "segment-start",
            "segment-stop"
        ]
    );
    assert_eq!(report.trace.dropped, 0);
    match &report.trace.events[0].event {
        TraceEvent::AdmissionPriced { estimated_cells } => assert!(*estimated_cells > 0),
        other => panic!("expected AdmissionPriced, got {other:?}"),
    }
    // Timestamps are monotone non-decreasing along the timeline.
    assert!(report
        .trace
        .events
        .windows(2)
        .all(|w| w[0].at_nanos <= w[1].at_nanos));

    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.shed, 0);
    assert!(stats.queue_depth_hwm >= 1, "one query was queued");
    assert_eq!(stats.cumulative_backoff, std::time::Duration::ZERO);

    assert!(telemetry::metrics::SERVICE_SUBMITTED.get() > submitted_before);
    assert!(telemetry::metrics::SERVICE_COMPLETED.get() > completed_before);
}

#[test]
fn store_scans_expose_cold_and_warm_chunk_counters() {
    let _g = registry_lock();
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(11, 16, 40);
    let (path, _guard) = temp_store_path("warm");
    build_store(
        &path,
        &database,
        &StoreParams {
            chunk_size: 64,
            shard_entries: 4,
        },
    )
    .expect("build");

    let store = Arc::new(PackedStore::<Dna>::open_validated(&path).expect("open"));
    // Opening (manifest + admission metadata) touches no payload chunks.
    assert_eq!(store.chunks_loaded(), 0);
    assert_eq!(store.chunk_cache_hits(), 0);
    assert_eq!(store.verify_failures(), 0);

    let target = StoreTarget::new(Arc::clone(&store));
    let ctrl = ScanControl::new();
    let (cold, _) = scan_store_topk_resumable(&cfg, &q, &target, 3, Some(1), &ctrl).expect("cold");
    assert!(cold.is_complete());
    let loaded_cold = store.chunks_loaded();
    assert!(loaded_cold > 0, "cold scan must read payload chunks");
    let hits_cold = store.chunk_cache_hits();

    // A warm re-scan of the same store serves every chunk from cache.
    let (warm, _) = scan_store_topk_resumable(&cfg, &q, &target, 3, Some(1), &ctrl).expect("warm");
    assert!(warm.is_complete());
    assert_eq!(warm.hits, cold.hits, "cache must not change results");
    assert_eq!(store.chunks_loaded(), loaded_cold, "no new chunk loads");
    assert!(store.chunk_cache_hits() > hits_cold, "warm scan hits cache");
    assert_eq!(store.verify_failures(), 0);
}

#[test]
fn flight_recorder_mirrors_trace_events_in_order() {
    let _g = registry_lock();
    flight::reset_for_test();
    let clock = Arc::new(ManualClock::at(42));

    let tracer = TraceHandle::with_clock(0xBEEF, Arc::clone(&clock) as Arc<_>);
    tracer.record(TraceEvent::SegmentStart { attempt: 1 });
    clock.advance(std::time::Duration::from_nanos(8));
    tracer.record(TraceEvent::WatchdogTrip);

    let ours: Vec<_> = flight::snapshot()
        .into_iter()
        .filter(|r| r.query == 0xBEEF)
        .collect();
    assert_eq!(ours.len(), 2);
    assert_eq!(ours[0].kind, "segment-start");
    assert_eq!(ours[0].at_nanos, 42);
    assert_eq!(ours[1].kind, "watchdog-trip");
    assert_eq!(ours[1].at_nanos, 50);
    assert!(ours[0].seq < ours[1].seq);

    let n = flight::dump("test-dump");
    assert!(n >= 2);
    let dump = flight::take_last_dump().expect("dump stored");
    assert_eq!(dump.reason, "test-dump");
    assert!(dump.records.iter().any(|r| r.query == 0xBEEF));
}

#[test]
fn disabling_telemetry_stops_catalog_and_flight_recording() {
    let _g = registry_lock();
    let prior = telemetry::set_enabled(false);
    let flight_before = telemetry::metrics::FLIGHT_EVENTS.get();
    let checkpoints_before = telemetry::metrics::CHECKPOINTS.get();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let (q, database) = db(13, 12, 40);
    let service = ScanService::new(ServiceConfig::default());
    let report = service
        .try_submit(ScanRequest::new(cfg, q, Arc::new(database), 3))
        .expect("admitted")
        .wait()
        .expect("completed");
    assert!(report.outcome.is_complete());

    // Global catalog counters and the flight mirror stay frozen; the
    // per-query timeline itself still rides on the report (its ring is
    // per-instance, not shared state).
    assert_eq!(telemetry::metrics::CHECKPOINTS.get(), checkpoints_before);
    assert_eq!(telemetry::metrics::FLIGHT_EVENTS.get(), flight_before);
    assert!(!report.trace.kinds().is_empty());

    telemetry::set_enabled(prior);
}
