//! Engine throughput baseline: measures the score-only alignment engine
//! — per kernel path — against a `run_functional` loop and writes
//! `BENCH_engine.json` so the perf trajectory is tracked from PR 1
//! onward.
//!
//! Paths measured per workload:
//!
//! - `run_functional_loop` — the allocating per-pair full-grid baseline
//!   (same rolling-row kernel, but a fresh `(N+1)·(M+1)` grid per pair).
//! - `engine_rolling_row` — zero-alloc rolling row.
//! - `engine_wavefront` — the per-pair anti-diagonal SIMD kernel at its
//!   auto-selected (narrowest profitable) lane width, compacted layout
//!   on narrow bands.
//! - `engine_wavefront_u32` — the wavefront with the lane floor pinned
//!   at `u32`, emitted when auto picks a different width: the fixed
//!   ruler for the lane-width win (and, since the u32 kernel moved to
//!   its flat-loop form, the entry that pins that codegen choice).
//! - `engine_align_batch` — `align_batch`: the inter-pair **striped
//!   batch kernel** (each SIMD lane a different pair) under the
//!   length-aware packer, plus rayon across cores.
//! - `engine_align_batch_u16` — the same batch with the lane floor
//!   pinned at `u16`: the byte-lane ruler, emitted when the stripe
//!   width auto-resolves to the biased 32-lane `u8` kernel (the
//!   short-read rows), recorded as `speedup_u8_vs_u16`.
//! - `engine_align_batch_exact_bucket` — the same batch under the
//!   legacy PR 3 exact-bucket planner: the packer ruler (only emitted
//!   on ragged workloads, where the planners differ).
//! - `engine_align_batch_supervised` — the same batch through
//!   `BatchEngine::align_batch_supervised` under an unconstrained
//!   `ScanControl`: the supervisor tax (unit-boundary stop checks,
//!   `catch_unwind` per work unit, the fault ledger) on record as
//!   `supervisor_overhead_pct`.
//! - `engine_align_batch_mt` — `align_batch` with `RAYON_NUM_THREADS`
//!   forced to 4: rayon scaling on record (honest on a 1-core host —
//!   compare against `host_cores`).
//!
//! Run with no arguments to reproduce the committed sweep (long reads,
//! short reads, narrow band, ragged log-normal, the alignment-mode
//! sweep, and the global + semi-global top-k scans) and rewrite
//! `BENCH_engine.json`. Flags narrow the run to one configuration and
//! print its JSON to stdout without touching the committed file:
//!
//! ```text
//! engine_baseline [--pairs N] [--length N] [--band K] [--ragged]
//!                 [--occupancy] [--scan K] [--deadline-ms N]
//!                 [--service] [--store]
//!                 [--mode global|semi|local|affine]
//!                 [--strategy rolling-row|wavefront|batch|all]
//! ```
//!
//! `--ragged` draws pair lengths from a seed-pinned log-normal
//! distribution (median = `--length`, σ = [`RAGGED_SIGMA`] = 1.2, pattern jittered ±15%)
//! instead of fixed lengths; `--occupancy` adds the batch planner's
//! stripe occupancy and striped-vs-fallback counts (for both packer
//! policies) to the JSON; `--scan K` benchmarks the threshold-ratcheted
//! top-k database scan against the unratcheted batch scan;
//! `--deadline-ms N` replaces the sweep with a supervised deadline demo:
//! a ratcheted scan raced against an `N`-millisecond wall-clock budget,
//! reporting the typed partial outcome (stop reason, per-pair
//! accounting, cells charged) instead of throughput; `--mode`
//! runs the whole workload (scan included) in an alignment mode —
//! `semi` and `affine` race the configured weights with free ends /
//! affine gaps, `local` races BLAST-ish similarity scores
//! ([`race_logic::engine::LocalScores::blast`]) on the max-plus dual.
//!
//! The workload is deterministic (seeded), so numbers move only when the
//! code or the machine does.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use race_logic::alignment::{AlignmentRace, RaceWeights};
use race_logic::early_termination::{scan, scan_packed_topk_with, ScanEntries};
use race_logic::engine::{
    align_batch, batch_plan_stats, AffineWeights, AlignConfig, AlignEngine, AlignMode, BatchEngine,
    BatchPlanStats, KernelStrategy, LaneWidth, LocalScores, PackerPolicy,
};
use race_logic::service::{ScanRequest, ScanService, ServiceConfig};
use race_logic::store::{
    build_store, scan_store_topk_resumable, PackedStore, StoreParams, StoreTarget,
};
use race_logic::supervisor::ScanControl;
use rl_bench::lognormal_len;
use rl_bio::{alphabet::Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;

/// Timed repetitions per measurement; the median is reported.
const REPS: usize = 5;

/// Seed of every committed workload.
const SEED: u64 = 0xBA7C4;

/// σ of the ragged workload's log-normal length distribution: wide
/// enough that a 1000-pair batch leaves most exact 16-rounded `(n, m)`
/// buckets below `STRIPE_MIN_PAIRS` — the regime the length-aware
/// packer exists for.
const RAGGED_SIGMA: f64 = 1.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrategyFilter {
    RollingRow,
    Wavefront,
    Batch,
    All,
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    pairs: usize,
    len: usize,
    band: Option<usize>,
    /// Log-normal lengths (median `len`, σ = [`RAGGED_SIGMA`], clamp
    /// `[8, 8·len]`, pattern ±15%) instead of fixed `len × len`.
    ragged: bool,
    /// Alignment mode the whole workload runs in (`--mode`).
    mode: AlignMode,
}

struct Entry {
    key: &'static str,
    strategy: String,
    lane_width: String,
    threads: usize,
    seconds: f64,
    checksum: u64,
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_reps(mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut checksum = 0;
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        checksum = f();
        samples.push(start.elapsed().as_secs_f64());
    }
    (median_secs(samples), checksum)
}

fn build_pairs(wl: Workload) -> Vec<(Seq<Dna>, Seq<Dna>)> {
    use rand::Rng;
    let mut rng = seeded_rng(SEED);
    (0..wl.pairs)
        .map(|_| {
            let (n, m) = if wl.ragged {
                let n = lognormal_len(&mut rng, wl.len as f64, RAGGED_SIGMA, 8, wl.len * 8);
                let m = ((n as f64) * rng.random_range(0.85..=1.15))
                    .round()
                    .max(1.0) as usize;
                (n, m)
            } else {
                (wl.len, wl.len)
            };
            (Seq::random(&mut rng, n), Seq::random(&mut rng, m))
        })
        .collect()
}

fn plan_json(label: &str, stats: BatchPlanStats) -> String {
    format!(
        "\"{label}\": {{\"wavefront_eligible\": {}, \"striped_pairs\": {}, \"stripes\": {}, \
         \"half_width_stripes\": {}, \"striped_fraction\": {:.3}, \"useful_cells\": {}, \
         \"swept_cells\": {}, \"occupancy\": {:.3}}}",
        stats.wavefront_eligible,
        stats.striped_pairs,
        stats.stripes,
        stats.half_width_stripes,
        stats.striped_fraction(),
        stats.useful_cells,
        stats.swept_cells,
        stats.occupancy()
    )
}

fn run_workload(wl: Workload, filter: StrategyFilter, occupancy: bool) -> String {
    let seqs = build_pairs(wl);
    let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
        .iter()
        .map(|(q, p)| (PackedSeq::from_seq(q), PackedSeq::from_seq(p)))
        .collect();
    let mut cfg = AlignConfig::new(RaceWeights::fig4()).with_mode(wl.mode);
    if let Some(k) = wl.band {
        cfg = cfg.with_band(k);
    }
    let wave_lanes = cfg
        .with_strategy(KernelStrategy::Wavefront)
        .resolve_kernel(wl.len, wl.len)
        .lanes;

    let mut entries: Vec<Entry> = Vec::new();
    let wants = |f: StrategyFilter| filter == StrategyFilter::All || filter == f;

    // The allocating full-grid loop only covers the unbanded global
    // recurrence.
    if wants(StrategyFilter::RollingRow) && wl.band.is_none() && wl.mode == AlignMode::Global {
        let (t, sum) = time_reps(|| {
            seqs.iter()
                .map(|(q, p)| {
                    AlignmentRace::new(q, p, RaceWeights::fig4())
                        .run_functional()
                        .latency_cycles()
                        .unwrap_or(0)
                })
                .sum()
        });
        entries.push(Entry {
            key: "run_functional_loop",
            strategy: "rolling-row (allocating full grid)".into(),
            lane_width: "u64".into(),
            threads: 1,
            seconds: t,
            checksum: sum,
        });
    }

    let time_engine = |cfg: AlignConfig| {
        let mut engine = AlignEngine::new(cfg);
        time_reps(|| {
            packed
                .iter()
                .map(|(q, p)| engine.align(q, p).score.cycles().unwrap_or(0))
                .sum()
        })
    };

    if wants(StrategyFilter::RollingRow) {
        let (t, sum) = time_engine(cfg.with_strategy(KernelStrategy::RollingRow));
        entries.push(Entry {
            key: "engine_rolling_row",
            strategy: "rolling-row".into(),
            lane_width: "u64".into(),
            threads: 1,
            seconds: t,
            checksum: sum,
        });
    }
    if wants(StrategyFilter::Wavefront) {
        if wave_lanes == LaneWidth::U16 {
            // The fixed u32 ruler, emitted when auto picks the narrower
            // u16 (the lane floor clamps from below, so it cannot
            // produce a u32 entry when auto already needs u64).
            let (t, sum) = time_engine(
                cfg.with_strategy(KernelStrategy::Wavefront)
                    .with_lane_floor(LaneWidth::U32),
            );
            entries.push(Entry {
                key: "engine_wavefront_u32",
                strategy: "wavefront".into(),
                lane_width: "u32".into(),
                threads: 1,
                seconds: t,
                checksum: sum,
            });
        }
        let (t, sum) = time_engine(cfg.with_strategy(KernelStrategy::Wavefront));
        entries.push(Entry {
            key: "engine_wavefront",
            strategy: "wavefront".into(),
            lane_width: wave_lanes.to_string(),
            threads: 1,
            seconds: t,
            checksum: sum,
        });
    }
    if wants(StrategyFilter::Batch) {
        let time_batch = |cfg: AlignConfig| {
            time_reps(|| {
                align_batch(&cfg, &packed)
                    .iter()
                    .map(|o| o.score.cycles().unwrap_or(0))
                    .sum()
            })
        };
        let threads = rayon::current_num_threads();
        let stripe_lanes = cfg.resolve_stripe_lanes(wl.len, wl.len);
        let (t, sum) = time_batch(cfg);
        entries.push(Entry {
            key: "engine_align_batch",
            strategy: "striped-batch (length-aware)".into(),
            lane_width: stripe_lanes.to_string(),
            threads,
            seconds: t,
            checksum: sum,
        });
        if stripe_lanes == LaneWidth::U8 {
            // The byte-lane ruler: the identical batch with the lane
            // floor pinned at u16, emitted when auto rides the biased
            // 32-lane u8 stripes. On record so the u8-vs-u16 call is
            // auditable per row: the three-plane affine sweep is where
            // byte lanes win outright; the linear sweep runs at parity
            // (same bytes per diagonal on 128-bit vectors).
            let (t, sum) = time_batch(cfg.with_lane_floor(LaneWidth::U16));
            entries.push(Entry {
                key: "engine_align_batch_u16",
                strategy: "striped-batch (length-aware)".into(),
                lane_width: "u16".into(),
                threads,
                seconds: t,
                checksum: sum,
            });
        }
        if wl.ragged {
            // The packer ruler: identical batch under the PR 3 planner.
            let (t, sum) = time_batch(cfg.with_packer(PackerPolicy::ExactBucket));
            entries.push(Entry {
                key: "engine_align_batch_exact_bucket",
                strategy: "striped-batch (exact-bucket)".into(),
                lane_width: cfg.resolve_stripe_lanes(wl.len, wl.len).to_string(),
                threads,
                seconds: t,
                checksum: sum,
            });
        }
        // The supervisor tax: the identical batch through the
        // supervised entry point with nothing armed and no constraints,
        // so the delta is pure checkpoint + catch_unwind + ledger cost.
        let (t, sum) = time_reps(|| {
            let ctrl = ScanControl::new();
            let report = BatchEngine::new(cfg).align_batch_supervised(&packed, &ctrl);
            assert!(
                report.is_complete(),
                "an unconstrained supervised batch must complete every pair"
            );
            report
                .outcomes
                .iter()
                .flatten()
                .map(|o| o.score.cycles().unwrap_or(0))
                .sum()
        });
        entries.push(Entry {
            key: "engine_align_batch_supervised",
            strategy: "striped-batch (supervised)".into(),
            lane_width: cfg.resolve_stripe_lanes(wl.len, wl.len).to_string(),
            threads,
            seconds: t,
            checksum: sum,
        });
        // Rayon scaling on record: force 4 workers (honest on a 1-core
        // host — the entry carries its own thread count). Restore any
        // caller-set override afterwards.
        let prev = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mt_threads = rayon::current_num_threads();
        let (t, sum) = time_batch(cfg);
        match prev {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        entries.push(Entry {
            key: "engine_align_batch_mt",
            strategy: "striped-batch (length-aware)".into(),
            lane_width: cfg.resolve_stripe_lanes(wl.len, wl.len).to_string(),
            threads: mt_threads,
            seconds: t,
            checksum: sum,
        });
    }

    for e in &entries[1..] {
        assert_eq!(
            e.checksum, entries[0].checksum,
            "{} disagrees with {}",
            e.key, entries[0].key
        );
    }

    let pps = |t: f64| wl.pairs as f64 / t;
    let mut json = String::new();
    let _ = writeln!(json, "    {{");
    let band_json = wl.band.map_or("null".into(), |k| k.to_string());
    let lengths = if wl.ragged {
        format!(
            "\"lognormal(median={}, sigma={RAGGED_SIGMA}, jitter=0.15)\"",
            wl.len
        )
    } else {
        format!("\"fixed({})\"", wl.len)
    };
    let _ = writeln!(
        json,
        "      \"workload\": {{\"pairs\": {}, \"lengths\": {lengths}, \"band\": {band_json}, \"mode\": \"{}\", \"alphabet\": \"DNA\", \"weights\": \"fig4\", \"seed\": \"0xBA7C4\"}},",
        wl.pairs, wl.mode
    );
    let _ = writeln!(json, "      \"score_checksum\": {},", entries[0].checksum);
    if occupancy || wl.ragged {
        let aware = batch_plan_stats(&cfg, &packed);
        let exact = batch_plan_stats(&cfg.with_packer(PackerPolicy::ExactBucket), &packed);
        let _ = writeln!(json, "      \"plan\": {{");
        let _ = writeln!(json, "        {},", plan_json("length_aware", aware));
        let _ = writeln!(json, "        {}", plan_json("exact_bucket", exact));
        let _ = writeln!(json, "      }},");
    }
    let by_key = |k: &str| entries.iter().find(|e| e.key == k);
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut speedup = |name: &str, a: Option<&Entry>, b: Option<&Entry>| {
        if let (Some(a), Some(b)) = (a, b) {
            speedups.push((name.into(), a.seconds / b.seconds));
        }
    };
    speedup(
        "speedup_wavefront_vs_rolling_row",
        by_key("engine_rolling_row"),
        by_key("engine_wavefront"),
    );
    speedup(
        "speedup_auto_lanes_vs_u32",
        by_key("engine_wavefront_u32"),
        by_key("engine_wavefront"),
    );
    speedup(
        "speedup_batch_vs_wavefront",
        by_key("engine_wavefront"),
        by_key("engine_align_batch"),
    );
    speedup(
        "speedup_u8_vs_u16",
        by_key("engine_align_batch_u16"),
        by_key("engine_align_batch"),
    );
    speedup(
        "speedup_packer_vs_exact_bucket",
        by_key("engine_align_batch_exact_bucket"),
        by_key("engine_align_batch"),
    );
    speedup(
        "speedup_batch_vs_run_functional",
        by_key("run_functional_loop"),
        by_key("engine_align_batch"),
    );
    // Not a speedup: the supervised entry's cost over the plain batch,
    // as a percentage (negative values are timer noise).
    if let (Some(sup), Some(plain)) = (
        by_key("engine_align_batch_supervised"),
        by_key("engine_align_batch"),
    ) {
        speedups.push((
            "supervisor_overhead_pct".into(),
            (sup.seconds / plain.seconds - 1.0) * 100.0,
        ));
    }
    let _ = writeln!(json, "      \"entries\": {{");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "        \"{}\": {{\"strategy\": \"{}\", \"lane_width\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \"pairs_per_sec\": {:.1}}}{comma}",
            e.key, e.strategy, e.lane_width, e.threads, e.seconds, pps(e.seconds)
        );
    }
    // Single-strategy runs may have no speedup pairs: the comma after
    // "entries" is only valid when something follows it.
    let entries_comma = if speedups.is_empty() { "" } else { "," };
    let _ = writeln!(json, "      }}{entries_comma}");
    for (i, (k, v)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(json, "      \"{k}\": {v:.2}{comma}");
    }
    let _ = write!(json, "    }}");
    json
}

/// The top-k scan workload: one query against a ragged log-normal
/// database, ratcheted pipeline vs unratcheted batch scan + selection.
/// Both must select the identical hits (asserted), so the speedup is
/// pure early-termination win.
///
/// In semi-global mode — the paper's literal §6 question, "does Q occur
/// anywhere in this entry?" — the query is a *read* a third the entry
/// length and the weights are Levenshtein (a zero match cost, so
/// occurrences race to low scores; under fig4 skipping the query is as
/// cheap as matching it).
fn run_scan(
    db_size: usize,
    median_len: usize,
    k: usize,
    workers: usize,
    mode: AlignMode,
) -> String {
    let semi = mode == AlignMode::SemiGlobal;
    let mut rng = seeded_rng(SEED ^ 0x5CA9);
    let query_len = if semi {
        (median_len / 3).max(16)
    } else {
        median_len
    };
    let query = Seq::<Dna>::random(&mut rng, query_len);
    let db: Vec<Seq<Dna>> = (0..db_size)
        .map(|_| {
            let len = lognormal_len(&mut rng, median_len as f64, 0.5, 8, median_len * 4);
            Seq::random(&mut rng, len)
        })
        .collect();
    let w = if semi {
        RaceWeights::levenshtein()
    } else {
        RaceWeights::fig4()
    };
    let cfg = AlignConfig::new(w).with_mode(mode);

    // Both sides scan the same pre-packed database: the comparison is
    // ratcheted pipeline vs full batch + selection, nothing else.
    let q = PackedSeq::from_seq(&query);
    let patterns: Vec<PackedSeq<Dna>> = db.iter().map(PackedSeq::from_seq).collect();

    let (t_ratchet, _) = time_reps(|| {
        let scan = scan_packed_topk_with(&cfg, &q, &patterns, k, None);
        scan.hits.iter().map(|&(_, s)| s).sum()
    });
    let ratcheted = scan_packed_topk_with(&cfg, &q, &patterns, k, None);

    let pairs: Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> = patterns.iter().map(|p| (&q, p)).collect();
    let full_topk = || {
        let outcomes = race_logic::engine::align_batch_refs(&cfg, &pairs);
        let mut hits: Vec<(usize, u64)> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.score.cycles().map(|s| (i, s)))
            .collect();
        hits.sort_unstable_by_key(|&(idx, score)| (score, idx));
        hits.truncate(k);
        hits
    };
    let (t_full, _) = time_reps(|| full_topk().iter().map(|&(_, s)| s).sum());
    // The determinism contract, enforced at bench time too.
    assert_eq!(ratcheted.hits, full_topk(), "ratcheted top-k must be exact");

    let mut json = String::new();
    let key = if semi { "scan_topk_semi" } else { "scan_topk" };
    let _ = writeln!(json, "  \"{key}\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": {{\"database\": {db_size}, \"query_len\": {query_len}, \"lengths\": \"lognormal(median={median_len}, sigma=0.5)\", \"k\": {k}, \"workers\": {workers}, \"mode\": \"{mode}\", \"weights\": \"{}\", \"seed\": \"0xBA7C4^0x5CA9\"}},",
        if semi { "levenshtein" } else { "fig4" }
    );
    let _ = writeln!(
        json,
        "    \"ratcheted_seconds\": {t_ratchet:.6}, \"ratcheted_entries_per_sec\": {:.1}, \"abandoned\": {},",
        db_size as f64 / t_ratchet,
        ratcheted.abandoned
    );
    let _ = writeln!(
        json,
        "    \"unratcheted_seconds\": {t_full:.6}, \"unratcheted_entries_per_sec\": {:.1},",
        db_size as f64 / t_full
    );
    let _ = writeln!(
        json,
        "    \"speedup_ratchet_vs_batch_scan\": {:.2}",
        t_full / t_ratchet
    );
    let _ = write!(json, "  }}");
    json
}

/// The `--deadline-ms` demo: a supervised ratcheted scan raced against
/// a wall-clock deadline. Prints the typed partial outcome — stop
/// reason, per-pair accounting, cells charged — as JSON; never touches
/// `BENCH_engine.json` (a deadline-truncated run is not a throughput
/// number).
fn run_deadline_demo(db_size: usize, median_len: usize, k: usize, mode: AlignMode, ms: u64) {
    let mut rng = seeded_rng(SEED ^ 0x5CA9);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, median_len));
    let database: Vec<PackedSeq<Dna>> = (0..db_size)
        .map(|_| {
            let len = lognormal_len(&mut rng, median_len as f64, 0.5, 8, median_len * 4);
            PackedSeq::from_seq(&Seq::random(&mut rng, len))
        })
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4()).with_mode(mode);

    let ctrl = ScanControl::new().with_deadline_after(Duration::from_millis(ms));
    let start = Instant::now();
    let (outcome, _) = scan(
        &cfg,
        &query,
        ScanEntries::Memory(&database),
        k,
        None,
        None,
        &ctrl,
    )
    .expect("the demo workload is valid");
    let elapsed = start.elapsed().as_secs_f64();

    let stop = outcome.stop.map_or("null".into(), |s| format!("\"{s}\""));
    println!("{{");
    println!(
        "  \"deadline_demo\": {{\"database\": {db_size}, \"query_len\": {median_len}, \"k\": {k}, \"mode\": \"{mode}\", \"deadline_ms\": {ms}}},"
    );
    println!("  \"elapsed_seconds\": {elapsed:.6},");
    println!("  \"stop\": {stop},");
    println!(
        "  \"completed_pairs\": {}, \"faulted_pairs\": {}, \"remaining_pairs\": {}, \"total_pairs\": {},",
        outcome.completed_pairs,
        outcome.faulted_pairs,
        outcome.remaining_pairs(),
        outcome.total_pairs
    );
    println!(
        "  \"abandoned\": {}, \"cells_computed\": {}, \"hits\": {}",
        outcome.abandoned,
        outcome.cells_computed,
        outcome.hits.len()
    );
    println!("}}");
    eprintln!("deadline demo: BENCH_engine.json left untouched");
}

/// The `--service` section: the scan-service tax on record. The same
/// ragged top-k scan as `scan_topk`, run once directly and once through
/// a [`ScanService`] (admission, queue, worker thread, supervised
/// segments), with the delta committed as `service_overhead_pct`. With
/// the `failpoints` feature (the CI soak), a second stage drives
/// concurrent queries through the service with persistent stripe panics
/// and packer delays armed, resuming the budget-cut ones, and asserts
/// the accounting invariant and exact top-k agreement throughout.
fn run_service(db_size: usize, median_len: usize, k: usize) -> String {
    let mut rng = seeded_rng(SEED ^ 0x5CA9);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, median_len));
    let database: Vec<PackedSeq<Dna>> = (0..db_size)
        .map(|_| {
            let len = lognormal_len(&mut rng, median_len as f64, 0.5, 8, median_len * 4);
            PackedSeq::from_seq(&Seq::random(&mut rng, len))
        })
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());

    let baseline = scan_packed_topk_with(&cfg, &query, &database, k, None);
    let database = Arc::new(database);
    let service = ScanService::new(ServiceConfig::default());

    // One ~10 ms scan is below this host's scheduler/frequency noise
    // floor, so each timed sample is a *batch* of queries — submitted
    // back-to-back, then drained — against the same batch run directly.
    // That is also the service's intended shape: admission overlaps the
    // worker. Each rep times both sides and keeps their ratio, and the
    // order within a rep alternates: under monotonic drift (thermal
    // throttle after the long sweep) whichever side runs second loses a
    // little, so alternating flips the bias's sign rep to rep and the
    // median ratio cancels it. An even rep count keeps the flip
    // balanced.
    const BATCH: usize = 8;
    let reps = REPS + (REPS % 2);
    let time_direct = || {
        let start = Instant::now();
        for _ in 0..BATCH {
            let direct = scan_packed_topk_with(&cfg, &query, &database, k, None);
            assert_eq!(direct.hits, baseline.hits);
        }
        start.elapsed().as_secs_f64()
    };
    let time_service = || {
        let start = Instant::now();
        let handles: Vec<_> = (0..BATCH)
            .map(|_| {
                service
                    .try_submit(ScanRequest::new(
                        cfg,
                        query.clone(),
                        Arc::clone(&database),
                        k,
                    ))
                    .expect("admitted")
            })
            .collect();
        for handle in &handles {
            let report = handle.wait().expect("completes");
            assert!(report.outcome.is_complete());
            assert_eq!(
                report.outcome.hits, baseline.hits,
                "the service top-k must be byte-identical to the direct scan"
            );
        }
        start.elapsed().as_secs_f64()
    };
    let mut direct_samples = Vec::with_capacity(reps);
    let mut service_samples = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (d, s) = if rep % 2 == 0 {
            let d = time_direct();
            let s = time_service();
            (d, s)
        } else {
            let s = time_service();
            let d = time_direct();
            (d, s)
        };
        direct_samples.push(d);
        service_samples.push(s);
        ratios.push(s / d);
    }
    drop(service);
    let t_direct = median_secs(direct_samples) / BATCH as f64;
    let t_service = median_secs(service_samples) / BATCH as f64;
    let overhead_pct = (median_secs(ratios) - 1.0) * 100.0;

    let mut json = String::new();
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": {{\"database\": {db_size}, \"query_len\": {median_len}, \"lengths\": \"lognormal(median={median_len}, sigma=0.5)\", \"k\": {k}, \"mode\": \"global\", \"weights\": \"fig4\", \"seed\": \"0xBA7C4^0x5CA9\"}},"
    );
    let _ = writeln!(
        json,
        "    \"direct_seconds\": {t_direct:.6}, \"service_seconds\": {t_service:.6},"
    );
    let soak = run_soak();
    let comma = if soak.is_empty() { "" } else { "," };
    let _ = writeln!(
        json,
        "    \"service_overhead_pct\": {overhead_pct:.2}{comma}"
    );
    if !soak.is_empty() {
        let _ = writeln!(json, "{soak}");
    }
    let _ = write!(json, "  }}");
    json
}

/// The failpoints soak stage of `--service`: concurrent queries against
/// a service while every stripe sweep panics and every packer call is
/// delayed, half the queries budget-cut and resumed from their tokens.
/// Asserts the accounting invariant and exact top-k agreement for every
/// query; returns the JSON fragment summarizing the run.
#[cfg(feature = "failpoints")]
fn run_soak() -> String {
    use race_logic::early_termination::estimate_scan_cells;
    use race_logic::supervisor::failpoint::{self, Action};

    const QUERIES: usize = 8;
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let mut rng = seeded_rng(SEED ^ 0x50AC);
    let jobs: Vec<(PackedSeq<Dna>, Arc<Vec<PackedSeq<Dna>>>)> = (0..QUERIES)
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

    // Odd-numbered queries carry a budget that cuts the first attempt
    // short (the budget trips after the first stripe's quarantined
    // fallback); they finalize with a token and are resumed to the end.
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

    let mut resumed = 0_usize;
    let mut attempts = 0_u32;
    let mut recovered_faults = 0_usize;
    for (i, handle) in handles.iter().enumerate() {
        let mut report = handle.wait().expect("soak query finalizes");
        attempts += report.attempts;
        while let Some(token) = report.resume.take() {
            resumed += 1;
            let (q, db) = &jobs[i];
            let next = service
                .resume(ScanRequest::new(cfg, q.clone(), Arc::clone(db), 3), token)
                .expect("soak resume admitted");
            report = next.wait().expect("soak resume finalizes");
            attempts += report.attempts;
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
        recovered_faults += o.faults.iter().filter(|f| f.recovered).count();
    }
    failpoint::disarm_all();
    let stats = service.stats();
    assert_eq!(stats.completed as usize, QUERIES + resumed);

    let mut json = String::new();
    let _ = writeln!(
        json,
        "    \"soak\": {{\"queries\": {QUERIES}, \"injected\": \"stripe-sweep panic (persistent) + packer sleep 1ms\", \"resumed_queries\": {resumed}, \"total_attempts\": {attempts}, \"recovered_faults\": {recovered_faults}, \"topk_identical\": true}}"
    );
    json.pop();
    json
}

#[cfg(not(feature = "failpoints"))]
fn run_soak() -> String {
    String::new()
}

/// The `--store` section: the persistent packed-shard store on record.
/// The same ragged database as `--service`, built into an on-disk store,
/// then measured three ways — cold open (full header + manifest
/// validation, zero payload touches), cold scan (first touch verifies
/// every chunk checksum), warm scan (verified cache) — against the
/// in-memory scan, all asserting byte-identical hits. With the
/// `failpoints` feature (the CI corruption soak), a second stage
/// bit-flips random chunks and drives concurrent store-backed service
/// queries through the quarantine ladder.
fn run_store(db_size: usize, median_len: usize, k: usize) -> String {
    let mut rng = seeded_rng(SEED ^ 0x570E);
    let query = PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, median_len));
    let database: Vec<PackedSeq<Dna>> = (0..db_size)
        .map(|_| {
            let len = lognormal_len(&mut rng, median_len as f64, 0.5, 8, median_len * 4);
            PackedSeq::from_seq(&Seq::random(&mut rng, len))
        })
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());
    let baseline = scan_packed_topk_with(&cfg, &query, &database, k, None);

    let path = std::env::temp_dir().join(format!("rl_bench_store_{}.rlp", std::process::id()));
    let params = StoreParams::default();
    let t_build = median_secs(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                build_store(&path, &database, &params).expect("build store");
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );

    // Cold open: eager header + manifest verification. The accounting
    // contract — admission prices queries without touching payload — is
    // asserted, not just documented.
    let t_open = median_secs(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                let store = PackedStore::<Dna>::open_validated(&path).expect("open store");
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(store.chunks_loaded(), 0, "open must not touch payload");
                secs
            })
            .collect(),
    );

    let scan_store = |target: &StoreTarget<Dna>| {
        let start = Instant::now();
        let (outcome, token) =
            scan_store_topk_resumable(&cfg, &query, target, k, None, &ScanControl::new())
                .expect("valid store scan");
        let secs = start.elapsed().as_secs_f64();
        assert!(outcome.is_complete() && token.is_none());
        assert_eq!(
            outcome.hits, baseline.hits,
            "the store scan must be byte-identical to the in-memory scan"
        );
        secs
    };
    // Cold store scan: a fresh open per rep, so every chunk checksum is
    // re-verified on first touch. Warm: one open, cache populated by the
    // first rep (not timed), then the steady state.
    let t_cold = median_secs(
        (0..REPS)
            .map(|_| {
                let target = StoreTarget::new(Arc::new(
                    PackedStore::<Dna>::open_validated(&path).expect("open store"),
                ));
                scan_store(&target)
            })
            .collect(),
    );
    let warm_target = StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("open store"),
    ));
    scan_store(&warm_target);
    let t_warm = median_secs((0..REPS).map(|_| scan_store(&warm_target)).collect());
    // The per-instance chunk counters on record: the warm target decoded
    // each chunk once (the priming pass) and served every later read
    // from cache; a pristine store never fails verification.
    let warm_store = warm_target.store();
    let warm_loads = warm_store.chunks_loaded();
    let warm_hits = warm_store.chunk_cache_hits();
    assert!(
        warm_loads > 0,
        "the priming scan must decode payload chunks"
    );
    assert!(
        warm_hits > 0,
        "warm scans must be served from the chunk cache"
    );
    assert_eq!(
        warm_store.verify_failures(),
        0,
        "a pristine store must never fail checksum verification"
    );
    let t_mem = median_secs(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                let direct = scan_packed_topk_with(&cfg, &query, &database, k, None);
                assert_eq!(direct.hits, baseline.hits);
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);

    let mut json = String::new();
    let _ = writeln!(json, "  \"store\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": {{\"database\": {db_size}, \"query_len\": {median_len}, \"lengths\": \"lognormal(median={median_len}, sigma=0.5)\", \"k\": {k}, \"mode\": \"global\", \"weights\": \"fig4\", \"seed\": \"0xBA7C4^0x570E\"}},"
    );
    let _ = writeln!(
        json,
        "    \"file_bytes\": {file_len}, \"chunk_size\": {}, \"shard_entries\": {},",
        params.chunk_size, params.shard_entries
    );
    let _ = writeln!(
        json,
        "    \"warm_chunks_loaded\": {warm_loads}, \"warm_chunk_cache_hits\": {warm_hits}, \"warm_verify_failures\": 0,"
    );
    let _ = writeln!(
        json,
        "    \"build_seconds\": {t_build:.6}, \"cold_open_seconds\": {t_open:.6},"
    );
    let _ = writeln!(
        json,
        "    \"memory_scan_seconds\": {t_mem:.6}, \"store_scan_cold_seconds\": {t_cold:.6}, \"store_scan_warm_seconds\": {t_warm:.6},"
    );
    let soak = run_store_soak();
    let comma = if soak.is_empty() { "" } else { "," };
    let _ = writeln!(
        json,
        "    \"store_warm_overhead_pct\": {:.2}{comma}",
        (t_warm / t_mem - 1.0) * 100.0
    );
    if !soak.is_empty() {
        let _ = writeln!(json, "{soak}");
    }
    let _ = write!(json, "  }}");
    json
}

/// The corruption soak stage of `--store`: random chunks of an on-disk
/// store are bit-flipped, a read-delay failpoint widens the race
/// windows, and concurrent store-backed service queries must all
/// finalize with typed, attributed quarantines — the accounting
/// invariant `completed + faulted + remaining == total` intact, never a
/// panic — while a pristine replica restores byte-identical hits.
#[cfg(feature = "failpoints")]
fn run_store_soak() -> String {
    use race_logic::supervisor::failpoint::{self, Action};
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};

    const QUERIES: usize = 8;
    const FLIPS: usize = 4;
    let _guard = failpoint::lock_for_test();
    failpoint::quiet_failpoint_panics();

    let cfg = AlignConfig::new(RaceWeights::fig4());
    let mut rng = seeded_rng(SEED ^ 0x50BE);
    let database: Vec<PackedSeq<Dna>> = (0..96)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)))
        .collect();
    let queries: Vec<PackedSeq<Dna>> = (0..QUERIES)
        .map(|_| PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, 64)))
        .collect();
    let baselines: Vec<_> = queries
        .iter()
        .map(|q| scan_packed_topk_with(&cfg, q, &database, 3, None))
        .collect();

    let dir = std::env::temp_dir();
    let path = dir.join(format!("rl_bench_store_soak_{}.rlp", std::process::id()));
    let rpath = dir.join(format!(
        "rl_bench_store_soak_{}_replica.rlp",
        std::process::id()
    ));
    let params = StoreParams {
        chunk_size: 256,
        shard_entries: 8,
    };
    build_store(&path, &database, &params).expect("build soak store");
    std::fs::copy(&path, &rpath).expect("copy replica");

    // Bit-flip FLIPS random chunks (deterministically chosen) in the
    // primary; the replica stays pristine.
    let probe = PackedStore::<Dna>::open_validated(&path).expect("open for corruption");
    let shards = probe.shard_count();
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("open for corruption");
    let mut corrupted_shards = std::collections::BTreeSet::new();
    let mut pick = seeded_rng(SEED ^ 0xF11B);
    use rand::Rng as _;
    while corrupted_shards.len() < FLIPS.min(shards.saturating_sub(1)) {
        let shard = pick.random_range(0..shards);
        let chunk = pick.random_range(0..probe.shard_chunk_count(shard));
        let (off, len) = probe.chunk_file_range(shard, chunk);
        let byte = off + pick.random_range(0..len as u64);
        file.seek(SeekFrom::Start(byte)).expect("seek");
        let mut b = [0_u8; 1];
        file.read_exact(&mut b).expect("read");
        b[0] ^= 1 << pick.random_range(0..8_u8);
        file.seek(SeekFrom::Start(byte)).expect("seek");
        file.write_all(&b).expect("write flip");
        corrupted_shards.insert(shard);
    }
    drop(file);
    drop(probe);

    // Stage 1: no replica. Every query must finalize typed and
    // accounted; the corrupted shards quarantine, everything else
    // completes.
    let corrupt_only = Arc::new(StoreTarget::new(Arc::new(
        PackedStore::<Dna>::open_validated(&path).expect("reopen corrupted"),
    )));
    let service: ScanService<Dna> = ScanService::new(
        ServiceConfig::default()
            .with_max_attempts(2)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(5)),
    );
    failpoint::arm("store-chunk-read", Action::Sleep(Duration::from_micros(50)));
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .try_submit(ScanRequest::from_store(
                    cfg,
                    q.clone(),
                    Arc::clone(&corrupt_only),
                    3,
                ))
                .expect("soak query admitted")
        })
        .collect();
    let mut quarantined_pairs = 0_usize;
    for (i, handle) in handles.iter().enumerate() {
        let report = handle
            .wait()
            .expect("soak query finalizes without panicking");
        let o = &report.outcome;
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
            "soak query {i}: quarantine must be attributed"
        );
        quarantined_pairs += o.faulted_pairs;
    }
    failpoint::disarm_all();

    // Stage 2: same corrupted primary, pristine replica attached — the
    // ladder recovers every query to the exact in-memory hits.
    let with_replica = Arc::new(
        StoreTarget::new(Arc::new(
            PackedStore::<Dna>::open_validated(&path).expect("reopen corrupted"),
        ))
        .with_replica(Arc::new(
            PackedStore::<Dna>::open_validated(&rpath).expect("open replica"),
        ))
        .expect("replica content matches"),
    );
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .try_submit(ScanRequest::from_store(
                    cfg,
                    q.clone(),
                    Arc::clone(&with_replica),
                    3,
                ))
                .expect("replica query admitted")
        })
        .collect();
    let mut recovered_faults = 0_usize;
    for (i, handle) in handles.iter().enumerate() {
        let report = handle.wait().expect("replica query finalizes");
        let o = &report.outcome;
        assert!(o.is_complete(), "replica query {i} must complete");
        assert_eq!(
            o.hits, baselines[i].hits,
            "replica query {i}: hits must match the in-memory scan"
        );
        recovered_faults += o.faults.iter().filter(|f| f.recovered).count();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&rpath);

    let mut json = String::new();
    let _ = writeln!(
        json,
        "    \"soak\": {{\"queries\": {QUERIES}, \"corrupted_shards\": {}, \"injected\": \"random chunk bit-flips + store-chunk-read sleep 50us\", \"quarantined_pairs\": {quarantined_pairs}, \"replica_recovered_faults\": {recovered_faults}, \"topk_identical_via_replica\": true}}",
        corrupted_shards.len()
    );
    json.pop();
    json
}

#[cfg(not(feature = "failpoints"))]
fn run_store_soak() -> String {
    String::new()
}

/// The `--telemetry` section: the observability tax on record. The
/// committed striped len-256 batch row, run through the supervised
/// entry point with the metrics registry and a query tracer enabled vs
/// globally disabled, with the delta committed as
/// `telemetry_overhead_pct` (the same alternating-order
/// median-of-ratios method as `service_overhead_pct`: within each rep
/// both sides run back to back, the order flips rep to rep so monotonic
/// drift cancels, and the median ratio is reported). The enabled run
/// must be byte-identical to the disabled one (asserted), and the
/// snapshot shape is asserted too: the run must have populated the
/// stripe/checkpoint counters and the per-unit cells histogram, and
/// both exposition formats must render them.
fn run_telemetry(pairs: usize, len: usize) -> (String, f64) {
    use race_logic::telemetry::{self, Snapshot, TraceHandle};

    let wl = Workload {
        pairs,
        len,
        band: None,
        ragged: false,
        mode: AlignMode::Global,
    };
    let seqs = build_pairs(wl);
    let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
        .iter()
        .map(|(q, p)| (PackedSeq::from_seq(q), PackedSeq::from_seq(p)))
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());

    // One supervised batch is ~20 ms here — inside this host's
    // scheduler-noise floor — so each timed sample is BATCH back-to-back
    // batches per side (the same dampening the service section uses).
    const BATCH: usize = 4;
    let run = |on: bool| {
        let prior = telemetry::set_enabled(on);
        let mut sum = 0_u64;
        let start = Instant::now();
        for _ in 0..BATCH {
            let mut ctrl = ScanControl::new();
            if on {
                ctrl = ctrl.with_tracer(TraceHandle::new(u64::MAX));
            }
            let report = BatchEngine::new(cfg).align_batch_supervised(&packed, &ctrl);
            assert!(report.is_complete(), "unconstrained batch must complete");
            sum = report
                .outcomes
                .iter()
                .flatten()
                .map(|o| o.score.cycles().unwrap_or(0))
                .sum();
        }
        let secs = start.elapsed().as_secs_f64();
        telemetry::set_enabled(prior);
        (secs, sum)
    };
    let (_, checksum) = run(false); // warm-up, untimed

    let reps = REPS + (REPS % 2);
    let mut off_samples = Vec::with_capacity(reps);
    let mut on_samples = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (off, on) = if rep % 2 == 0 {
            let off = run(false);
            let on = run(true);
            (off, on)
        } else {
            let on = run(true);
            let off = run(false);
            (off, on)
        };
        assert_eq!(off.1, checksum);
        assert_eq!(on.1, checksum, "telemetry must not change results");
        off_samples.push(off.0);
        on_samples.push(on.0);
        ratios.push(on.0 / off.0);
    }
    let t_off = median_secs(off_samples) / BATCH as f64;
    let t_on = median_secs(on_samples) / BATCH as f64;
    let overhead_pct = (median_secs(ratios) - 1.0) * 100.0;

    // Snapshot-shape assertions: the enabled runs must have fed the
    // registry, and both exposition formats must carry the result.
    let snap = Snapshot::capture();
    let stripe_units = snap
        .counter("rl_stripe_units_total")
        .expect("catalog counter");
    let checkpoints = snap
        .counter("rl_checkpoints_total")
        .expect("catalog counter");
    let (unit_cells_count, unit_cells_sum) =
        snap.histogram("rl_unit_cells").expect("catalog histogram");
    assert!(stripe_units > 0, "enabled runs must count striped units");
    assert!(checkpoints > 0, "enabled runs must count checkpoints");
    assert!(unit_cells_count > 0, "enabled runs must observe unit cells");
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

    let mut json = String::new();
    let _ = writeln!(json, "  \"telemetry\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": {{\"pairs\": {pairs}, \"lengths\": \"fixed({len})\", \"band\": null, \"mode\": \"global\", \"alphabet\": \"DNA\", \"weights\": \"fig4\", \"seed\": \"0xBA7C4\"}},"
    );
    let _ = writeln!(
        json,
        "    \"disabled_seconds\": {t_off:.6}, \"enabled_seconds\": {t_on:.6},"
    );
    let _ = writeln!(json, "    \"telemetry_overhead_pct\": {overhead_pct:.2},");
    let _ = writeln!(
        json,
        "    \"snapshot\": {{\"stripe_units\": {stripe_units}, \"checkpoints\": {checkpoints}, \"unit_cells_observations\": {unit_cells_count}, \"unit_cells_sum\": {unit_cells_sum}, \"prometheus_bytes\": {}, \"json_bytes\": {}}}",
        prom.len(),
        js.len()
    );
    let _ = write!(json, "  }}");
    (json, overhead_pct)
}

fn usage() -> ! {
    eprintln!(
        "usage: engine_baseline [--pairs N] [--length N] [--band K] [--ragged] \
         [--occupancy] [--scan K] [--deadline-ms N] [--service] [--store] \
         [--telemetry] [--mode global|semi|local|affine] \
         [--strategy rolling-row|wavefront|batch|all]"
    );
    std::process::exit(2);
}

fn main() {
    let mut pairs: Option<usize> = None;
    let mut length: Option<usize> = None;
    let mut band: Option<usize> = None;
    let mut ragged = false;
    let mut occupancy = false;
    let mut scan_k: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut service = false;
    let mut store = false;
    let mut telemetry = false;
    let mut mode = AlignMode::Global;
    let mut filter = StrategyFilter::All;
    let mut custom = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        custom = true;
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--pairs" => pairs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--length" => length = Some(value().parse().unwrap_or_else(|_| usage())),
            "--band" => band = Some(value().parse().unwrap_or_else(|_| usage())),
            "--ragged" => ragged = true,
            "--occupancy" => occupancy = true,
            "--scan" => scan_k = Some(value().parse().unwrap_or_else(|_| usage())),
            "--deadline-ms" => deadline_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--service" => service = true,
            "--store" => store = true,
            "--telemetry" => telemetry = true,
            "--mode" => {
                mode = match value().as_str() {
                    "global" => AlignMode::Global,
                    "semi" => AlignMode::SemiGlobal,
                    "local" => AlignMode::Local(LocalScores::blast()),
                    "affine" => AlignMode::GlobalAffine(AffineWeights { open: 2 }),
                    _ => usage(),
                }
            }
            "--strategy" => {
                filter = match value().as_str() {
                    "rolling-row" => StrategyFilter::RollingRow,
                    "wavefront" => StrategyFilter::Wavefront,
                    "batch" => StrategyFilter::Batch,
                    "all" => StrategyFilter::All,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if (scan_k.is_some() || deadline_ms.is_some()) && !mode.is_min_plus() {
        eprintln!("--scan/--deadline-ms race min-plus modes only (local has no ratchet)");
        std::process::exit(2);
    }
    if let Some(ms) = deadline_ms {
        run_deadline_demo(
            pairs.unwrap_or(1_000),
            length.unwrap_or(192),
            scan_k.unwrap_or(10),
            mode,
            ms,
        );
        return;
    }

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if service {
        // `--service` alone: just the service section (plus the
        // failpoints soak when the feature is on), stdout only — the
        // committed sweep re-measures it for BENCH_engine.json.
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"engine_baseline\",");
        let _ = writeln!(json, "  \"host_cores\": {host_cores},");
        let _ = writeln!(json, "  \"reps_median_of\": {REPS},");
        let _ = writeln!(json, "{}", run_service(1_000, 192, 10));
        let _ = writeln!(json, "}}");
        print!("{json}");
        eprintln!("service configuration: BENCH_engine.json left untouched ({host_cores} core(s))");
        return;
    }
    if telemetry {
        // `--telemetry` alone: the CI smoke — just the telemetry
        // section, stdout only, with the overhead gated against a
        // noise-tolerant ceiling (the committed sweep re-measures the
        // number for BENCH_engine.json, where the target is 2%).
        const SMOKE_MAX_PCT: f64 = 5.0;
        let (section, overhead_pct) = run_telemetry(1_000, 256);
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"engine_baseline\",");
        let _ = writeln!(json, "  \"host_cores\": {host_cores},");
        let _ = writeln!(json, "  \"reps_median_of\": {REPS},");
        let _ = writeln!(json, "{section}");
        let _ = writeln!(json, "}}");
        print!("{json}");
        assert!(
            overhead_pct <= SMOKE_MAX_PCT,
            "telemetry overhead {overhead_pct:.2}% exceeds the {SMOKE_MAX_PCT}% smoke ceiling"
        );
        eprintln!(
            "telemetry smoke: overhead {overhead_pct:.2}% <= {SMOKE_MAX_PCT}%; BENCH_engine.json left untouched ({host_cores} core(s))"
        );
        return;
    }
    if store {
        // `--store` alone: just the store section (plus the corruption
        // soak when the failpoints feature is on), stdout only — the
        // committed sweep re-measures it for BENCH_engine.json.
        let mut json = String::new();
        let _ = writeln!(json, "{{");
        let _ = writeln!(json, "  \"benchmark\": \"engine_baseline\",");
        let _ = writeln!(json, "  \"host_cores\": {host_cores},");
        let _ = writeln!(json, "  \"reps_median_of\": {REPS},");
        let _ = writeln!(json, "{}", run_store(1_000, 192, 10));
        let _ = writeln!(json, "}}");
        print!("{json}");
        eprintln!("store configuration: BENCH_engine.json left untouched ({host_cores} core(s))");
        return;
    }
    let workloads: Vec<Workload> = if custom {
        vec![Workload {
            pairs: pairs.unwrap_or(1_000),
            len: length.unwrap_or(256),
            band,
            ragged,
            mode,
        }]
    } else {
        // The committed sweep: long reads, short reads, narrow band,
        // ragged log-normal — all global — plus the short-read shape in
        // every other alignment mode (the mode sweep).
        let global = |pairs, len, band, ragged| Workload {
            pairs,
            len,
            band,
            ragged,
            mode: AlignMode::Global,
        };
        let mut w = vec![
            global(1_000, 256, None, false),
            global(1_000, 64, None, false),
            global(1_000, 256, Some(4), false),
            global(1_000, 96, None, true),
        ];
        for mode in [
            AlignMode::SemiGlobal,
            AlignMode::Local(LocalScores::blast()),
            AlignMode::GlobalAffine(AffineWeights { open: 2 }),
        ] {
            w.push(Workload {
                pairs: 500,
                len: 64,
                band: None,
                ragged: false,
                mode,
            });
        }
        w
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"engine_baseline\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"reps_median_of\": {REPS},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, wl) in workloads.iter().enumerate() {
        let section = run_workload(*wl, filter, occupancy);
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(json, "{section}{comma}");
    }
    let scan_sections: Vec<String> = if custom {
        scan_k
            .map(|k| {
                vec![run_scan(
                    pairs.unwrap_or(1_000),
                    length.unwrap_or(96),
                    k,
                    rayon::current_num_threads(),
                    mode,
                )]
            })
            .unwrap_or_default()
    } else {
        vec![
            run_scan(
                1_000,
                192,
                10,
                rayon::current_num_threads(),
                AlignMode::Global,
            ),
            run_scan(
                1_000,
                192,
                10,
                rayon::current_num_threads(),
                AlignMode::SemiGlobal,
            ),
            run_service(1_000, 192, 10),
            run_store(1_000, 192, 10),
            run_telemetry(1_000, 256).0,
        ]
    };
    if scan_sections.is_empty() {
        let _ = writeln!(json, "  ]");
        let _ = writeln!(json, "}}");
    } else {
        let _ = writeln!(json, "  ],");
        for (i, scan) in scan_sections.iter().enumerate() {
            let comma = if i + 1 < scan_sections.len() { "," } else { "" };
            let _ = writeln!(json, "{scan}{comma}");
        }
        let _ = writeln!(json, "}}");
    }

    print!("{json}");
    if custom {
        eprintln!("custom configuration: BENCH_engine.json left untouched ({host_cores} core(s))");
    } else {
        std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
        eprintln!("wrote BENCH_engine.json ({host_cores} core(s) available)");
    }
}
