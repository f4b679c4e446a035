//! The thread count stays bounded by configuration: a scan starts its
//! helper threads when it starts and joins them before it returns, both
//! on a `ScanService` and on direct `align_batch` calls. After every
//! query the process runs exactly the threads it ran before it, and
//! while a query runs, at most one scan's helpers more. Linux only (it
//! reads `Threads:` from `/proc/self/status`), and a test binary of its
//! own, so no other test's threads come and go while it counts.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use race_logic::alignment::RaceWeights;
use race_logic::engine::{align_batch, AlignConfig};
use race_logic::service::{ScanRequest, ScanService, ServiceConfig};
use race_logic::supervisor::ScanControl;
use rl_bio::{Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

/// The scan workers of the service: its own thread and 3 helpers.
const WORKERS: usize = 4;

/// Threads of this process, from `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// The thread count once it has settled at `base`. A joined thread can
/// stay counted for a moment after its join returns, so the count gets
/// a short grace period to fall; a thread left running never does.
fn settled(base: usize) -> usize {
    let start = Instant::now();
    loop {
        let now = threads();
        if now <= base || start.elapsed() > Duration::from_secs(2) {
            return now;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The worker count an `align_batch` call defaults to, as the rayon
/// shim resolves it: `RAYON_NUM_THREADS`, else the hardware threads.
fn batch_workers() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(Into::into))
        .unwrap_or(1)
}

/// Clears the poller's run flag when dropped, so a failed assertion
/// cannot leave the scope waiting on the poller forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

#[test]
fn scans_join_every_helper_they_start() {
    let mut rng = seeded_rng(0x7EAD);
    // `scan_long`'s shape at a tenth of its size: 256 bp global fig4
    // queries over entries of 192–319 bp, so every scan takes the
    // bit-parallel kernel and plans about a dozen units.
    let db: Arc<Vec<PackedSeq<Dna>>> = Arc::new(
        (0..200)
            .map(|i| PackedSeq::from_seq(&Seq::random(&mut rng, 192 + i % 128)))
            .collect(),
    );
    let queries: Vec<PackedSeq<Dna>> = (0..8)
        .map(|_| PackedSeq::from_seq(&Seq::random(&mut rng, 256)))
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());
    // A ragged batch of short pairs: several stripes, so the batch
    // plans more units than one worker.
    let batch: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..256)
        .map(|i| {
            (
                PackedSeq::from_seq(&Seq::random(&mut rng, 24 + i % 40)),
                PackedSeq::from_seq(&Seq::random(&mut rng, 24 + i % 37)),
            )
        })
        .collect();
    let batch: Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> =
        batch.iter().map(|(q, p)| (q, p)).collect();

    let running = AtomicBool::new(true);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while running.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let _stop = StopOnDrop(&running);
        let service = ScanService::new(ServiceConfig::default().with_workers(WORKERS));
        // This thread, the poller, the service's worker and the harness.
        let base = threads();
        for (n, query) in queries.iter().cycle().take(200).enumerate() {
            let report = service
                .try_submit(ScanRequest::new(cfg, query.clone(), Arc::clone(&db), 10))
                .expect("admitted")
                .wait()
                .expect("query ran");
            assert_eq!(report.outcome.completed_pairs, db.len());
            assert_eq!(settled(base), base, "threads left after query {n}");
        }
        let service_peak = peak.swap(0, Ordering::Relaxed);
        assert!(
            service_peak <= base + (WORKERS - 1),
            "{service_peak} threads at peak, {base} at rest"
        );
        assert!(service_peak > base, "no scan started a helper");
        for n in 0..20 {
            let outcomes = align_batch(&cfg, &batch, &ScanControl::new()).expect_complete();
            assert_eq!(outcomes.len(), batch.len());
            assert_eq!(settled(base), base, "threads left after batch {n}");
        }
        let batch_peak = peak.load(Ordering::Relaxed);
        let helpers = batch_workers().max(WORKERS) - 1;
        assert!(
            batch_peak <= base + helpers,
            "{batch_peak} threads at peak, {base} at rest"
        );
    });
}
