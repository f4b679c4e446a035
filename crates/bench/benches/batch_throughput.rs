//! Batch alignment throughput: the engine's reason to exist.
//!
//! Two workloads — long reads (length 256) and short reads (length 64),
//! 1,000 random DNA pairs each — comparing:
//! - the allocating baseline (an `AlignmentRace::run_functional` loop:
//!   same rolling-row kernel, but a fresh `(N+1)·(M+1)` `Time` grid and
//!   code buffers per pair),
//! - the zero-allocation engine driven sequentially on each explicit
//!   `KernelStrategy` (rolling-row: scratch reuse + rolling rows;
//!   wavefront: anti-diagonal SIMD lanes at the auto-picked width), and
//! - `align_batch`: the inter-pair **striped batch kernel** (each SIMD
//!   lane a different pair) fanned out across cores.
//!
//! Two more groups sweep the alignment modes: the striped batch at
//! 64 bp, and the per-pair wavefront at 256² and 1024², unbanded and at
//! band 16 (`per_pair_wavefront`). The `short_pairs` group times the
//! routing of pairs under 32 symbols, per pair and in batches. The
//! `scan_workers` group times one ratcheted `scan` at 1 and 2 workers.
//!
//! Pass a name filter to time one group or row:
//! `cargo bench -p rl-bench --bench batch_throughput -- short_pairs`.
//!
//! Every path computes identical scores (`tests/conformance.rs`); the
//! kernels and their layouts are described in `docs/KERNELS.md`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use race_logic::alignment::{AlignmentRace, RaceWeights};
use race_logic::engine::{align_batch, AlignConfig, AlignEngine, KernelStrategy};
use race_logic::supervisor::ScanControl;
use rl_bio::{alphabet::Dna, PackedSeq, Seq};
use rl_dag::generate::seeded_rng;
use std::hint::black_box;

const PAIRS: usize = 1_000;

fn random_pairs(len: usize) -> Vec<(Seq<Dna>, Seq<Dna>)> {
    let mut rng = seeded_rng(0xBA7C4);
    (0..PAIRS)
        .map(|_| (Seq::random(&mut rng, len), Seq::random(&mut rng, len)))
        .collect()
}

/// Borrowed views of owned pairs, the form [`align_batch`] takes.
fn refs(pairs: &[(PackedSeq<Dna>, PackedSeq<Dna>)]) -> Vec<(&PackedSeq<Dna>, &PackedSeq<Dna>)> {
    pairs.iter().map(|(q, p)| (q, p)).collect()
}

fn bench_batch_throughput(c: &mut Criterion) {
    for len in [256_usize, 64] {
        let seqs = random_pairs(len);
        let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
            .iter()
            .map(|(q, p)| (PackedSeq::from_seq(q), PackedSeq::from_seq(p)))
            .collect();
        let cfg = AlignConfig::new(RaceWeights::fig4());

        let mut group = c.benchmark_group(format!(
            "batch_throughput/{PAIRS}x{len}bp/threads={}",
            rayon::current_num_threads()
        ));
        group.sample_size(10);
        group.throughput(Throughput::Elements(PAIRS as u64));

        group.bench_function("sequential_run_functional", |b| {
            b.iter(|| {
                let mut acc = 0_u64;
                for (q, p) in &seqs {
                    let out = AlignmentRace::new(q, p, RaceWeights::fig4()).run_functional();
                    acc += out.latency_cycles().unwrap_or(0);
                }
                black_box(acc)
            });
        });

        for strategy in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
            group.bench_function(format!("engine_sequential/{strategy}"), |b| {
                let mut engine = AlignEngine::new(cfg.with_strategy(strategy));
                b.iter(|| {
                    let mut acc = 0_u64;
                    for (q, p) in &packed {
                        acc += engine.align(q, p).score.cycles().unwrap_or(0);
                    }
                    black_box(acc)
                });
            });
        }

        let refs = refs(&packed);
        group.bench_function("engine_align_batch/striped", |b| {
            b.iter(|| black_box(align_batch(&cfg, &refs, &ScanControl::new())));
        });

        group.finish();
    }
}

/// The ragged counterpart: log-normal lengths
/// ([`rl_bench::lognormal_len`], σ = 1.2) through the length-aware
/// packer.
fn bench_ragged(c: &mut Criterion) {
    use rand::Rng;
    use rl_bench::lognormal_len;

    let mut rng = seeded_rng(0xBA7C4);
    let lens: Vec<usize> = (0..PAIRS)
        .map(|_| lognormal_len(&mut rng, 96.0, 1.2, 8, 768))
        .collect();
    let mut rng = seeded_rng(0xBA7C4 ^ 0x5EED);
    let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = lens
        .iter()
        .map(|&n| {
            let m = ((n as f64) * rng.random_range(0.85..=1.15))
                .round()
                .max(1.0) as usize;
            (
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n)),
                PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, m)),
            )
        })
        .collect();
    let cfg = AlignConfig::new(RaceWeights::fig4());

    let mut group = c.benchmark_group(format!(
        "batch_throughput/{PAIRS}x~96bp-lognormal/threads={}",
        rayon::current_num_threads()
    ));
    group.sample_size(10);
    group.throughput(Throughput::Elements(PAIRS as u64));
    let refs = refs(&packed);
    group.bench_function("engine_align_batch/ragged", |b| {
        b.iter(|| black_box(align_batch(&cfg, &refs, &ScanControl::new())));
    });
    group.finish();
}

/// Mode sweep: the striped batch kernel under every alignment mode at
/// one fixed shape — how much the free-end bookkeeping (semi-global
/// best registers), the max-plus dual (local), and the three-plane
/// affine stripes cost relative to global.
fn bench_mode_sweep(c: &mut Criterion) {
    use race_logic::engine::{AffineWeights, AlignMode, LocalScores};

    let seqs = random_pairs(64);
    let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = seqs
        .iter()
        .map(|(q, p)| (PackedSeq::from_seq(q), PackedSeq::from_seq(p)))
        .collect();

    let mut group = c.benchmark_group(format!(
        "batch_throughput/{PAIRS}x64bp-modes/threads={}",
        rayon::current_num_threads()
    ));
    group.sample_size(10);
    group.throughput(Throughput::Elements(PAIRS as u64));
    let refs = refs(&packed);
    for mode in [
        AlignMode::Global,
        AlignMode::SemiGlobal,
        AlignMode::Local(LocalScores::blast()),
        AlignMode::GlobalAffine(AffineWeights { open: 2 }),
    ] {
        let cfg = AlignConfig::new(RaceWeights::fig4()).with_mode(mode);
        group.bench_function(format!("engine_align_batch/{mode}"), |b| {
            b.iter(|| black_box(align_batch(&cfg, &refs, &ScanControl::new())));
        });
    }
    group.finish();
}

/// Per-pair wavefront: pinned-`Wavefront` `AlignEngine::align` at a
/// `u32` lane floor on 64 random DNA pairs of shape `n × (n + 7)`, per
/// mode, unbanded and at band 16 (affine at 256² also under a
/// threshold of 300) — the per-pair table of `docs/KERNELS.md`. Every
/// mode runs the 1-lane stripe sweep, one `Recurrence` per mode (local
/// the max-plus one).
///
/// Global and SemiGlobal also run at the other per-pair words, with the
/// word in the row's label: at a `u64` floor at 256², unbanded and at
/// band 16, and at the default floor at 1024² unbanded, which the
/// planner runs at `u16` (the span reaches `U16_MIN_LEN`). Together with the
/// `u32` rows they time the one-lane linear segment on both sides of
/// `KernelWord::FLAT_MIN_LEN` at every word.
///
/// `cargo bench -p rl-bench --bench batch_throughput -- per_pair_wavefront`
/// runs this group alone (a few seconds).
fn bench_per_pair_wavefront(c: &mut Criterion) {
    use race_logic::engine::{AffineWeights, AlignMode, LaneWidth, LocalScores};
    const PER_PAIR: usize = 64;

    for n in [256_usize, 1024] {
        let mut rng = seeded_rng(0xF164 ^ n as u64);
        let packed: Vec<(PackedSeq<Dna>, PackedSeq<Dna>)> = (0..PER_PAIR)
            .map(|_| {
                (
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n)),
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n + 7)),
                )
            })
            .collect();
        let mut group = c.benchmark_group(format!("per_pair_wavefront/{PER_PAIR}x{n}x{}", n + 7));
        group.sample_size(10);
        group.throughput(Throughput::Elements(PER_PAIR as u64));
        for mode in [
            AlignMode::Global,
            AlignMode::SemiGlobal,
            AlignMode::Local(LocalScores::unit()),
            AlignMode::GlobalAffine(AffineWeights { open: 2 }),
        ] {
            let thresholds: &[Option<u64>] = match mode {
                AlignMode::GlobalAffine(_) if n == 256 => &[None, Some(300)],
                _ => &[None],
            };
            let linear = matches!(mode, AlignMode::Global | AlignMode::SemiGlobal);
            // `(floor, band, threshold)`: the `u32` rows, then the linear
            // modes at the other per-pair words.
            let mut rows: Vec<(LaneWidth, Option<usize>, Option<u64>)> = Vec::new();
            for band in [None, Some(16)] {
                for &threshold in thresholds {
                    rows.push((LaneWidth::U32, band, threshold));
                }
            }
            if linear && n == 256 {
                rows.push((LaneWidth::U64, None, None));
                rows.push((LaneWidth::U64, Some(16), None));
            }
            if linear && n == 1024 {
                rows.push((AlignConfig::new(RaceWeights::fig4()).lane_floor, None, None));
            }
            for (floor, band, threshold) in rows {
                let mut cfg = AlignConfig::new(RaceWeights::fig4())
                    .with_mode(mode)
                    .with_strategy(KernelStrategy::Wavefront)
                    .with_lane_floor(floor);
                let mut label = mode.to_string();
                if let Some(k) = band {
                    cfg = cfg.with_band(k);
                    label += &format!("/band={k}");
                }
                if let Some(t) = threshold {
                    cfg = cfg.with_threshold(t);
                    label += &format!("/threshold={t}");
                }
                if floor != LaneWidth::U32 {
                    label += &format!("/{}", cfg.resolve_kernel(n, n + 7).lanes);
                }
                group.bench_function(label, |b| {
                    let mut engine = AlignEngine::new(cfg);
                    b.iter(|| {
                        let mut acc = 0_u64;
                        for (q, p) in &packed {
                            acc += engine.align(q, p).cells_computed;
                        }
                        black_box(acc)
                    });
                });
            }
        }
        group.finish();
    }
}

/// Short pairs, where `KernelStrategy::Auto`'s routing is decided, on
/// 256 random DNA pairs per row, in every alignment mode:
/// - `short_pairs/per_pair/…`: pinned-`Wavefront` against
///   pinned-`RollingRow` `AlignEngine::align` at `n × n`. The smallest
///   `n` at which the wavefront wins in every mode is
///   `WAVEFRONT_MIN_LEN`.
/// - `short_pairs/batch/…`: `align_batch` under `Auto` (every pair on
///   stripes) against the `RollingRow` pin (every pair on the rolling
///   row), at fixed shapes from 1 × 1 and on ragged 1–31 bp pairs.
///
/// `cargo bench -p rl-bench --bench batch_throughput -- short_pairs`
/// runs this group alone (about 20 s); 30 samples per row, because a
/// short row is a few milliseconds. Set `RAYON_NUM_THREADS=1`
/// and pin the process to one CPU for the per-core tables of
/// `docs/KERNELS.md`.
fn bench_short_pairs(c: &mut Criterion) {
    use race_logic::engine::{AffineWeights, AlignMode, LocalScores};
    use rand::Rng;
    const SHORT: usize = 256;

    let modes = [
        AlignMode::Global,
        AlignMode::SemiGlobal,
        AlignMode::GlobalAffine(AffineWeights { open: 2 }),
        AlignMode::Local(LocalScores::unit()),
    ];
    let strategies = [KernelStrategy::Wavefront, KernelStrategy::RollingRow];
    let random = |seed: u64, shape: &dyn Fn(&mut rand::rngs::StdRng) -> (usize, usize)| {
        let mut rng = seeded_rng(seed);
        (0..SHORT)
            .map(|_| {
                let (n, m) = shape(&mut rng);
                (
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, n)),
                    PackedSeq::from_seq(&Seq::<Dna>::random(&mut rng, m)),
                )
            })
            .collect::<Vec<(PackedSeq<Dna>, PackedSeq<Dna>)>>()
    };

    for n in [4_usize, 6, 8, 10, 12, 16] {
        let packed = random(0x5407 ^ n as u64, &|_| (n, n));
        let mut group = c.benchmark_group(format!("short_pairs/per_pair/{SHORT}x{n}x{n}"));
        group.sample_size(30);
        group.throughput(Throughput::Elements(SHORT as u64));
        for mode in modes {
            for strategy in strategies {
                let cfg = AlignConfig::new(RaceWeights::fig4())
                    .with_mode(mode)
                    .with_strategy(strategy);
                group.bench_function(format!("{mode}/{strategy}"), |b| {
                    let mut engine = AlignEngine::new(cfg);
                    b.iter(|| {
                        let mut acc = 0_u64;
                        for (q, p) in &packed {
                            acc += engine.align(q, p).cells_computed;
                        }
                        black_box(acc)
                    });
                });
            }
        }
        group.finish();
    }

    let fixed = |n: usize, m: usize| (format!("{n}x{m}"), random(0x5408, &move |_| (n, m)));
    let ragged = (
        "ragged1-31".to_string(),
        random(0x5409, &|rng| {
            (rng.random_range(1..=31), rng.random_range(1..=31))
        }),
    );
    for (shape, packed) in [fixed(1, 1), fixed(4, 4), fixed(8, 8), fixed(24, 64), ragged] {
        let mut group = c.benchmark_group(format!(
            "short_pairs/batch/{SHORT}x{shape}/threads={}",
            rayon::current_num_threads()
        ));
        group.sample_size(30);
        group.throughput(Throughput::Elements(SHORT as u64));
        let refs = refs(&packed);
        for mode in modes {
            for strategy in [KernelStrategy::Auto, KernelStrategy::RollingRow] {
                let cfg = AlignConfig::new(RaceWeights::fig4())
                    .with_mode(mode)
                    .with_strategy(strategy);
                group.bench_function(format!("{mode}/{strategy}"), |b| {
                    b.iter(|| black_box(align_batch(&cfg, &refs, &ScanControl::new())));
                });
            }
        }
        group.finish();
    }
}

/// One ratcheted `scan` at 1 and 2 workers, on two inputs shaped like
/// perfbench's workloads:
/// - `bitpar-2000x256`: 2,000 log-normal entries (median 256 bp,
///   σ = 0.5, 8–1,024 bp) against a 256 bp global fig4 query, k = 10,
///   on the bit-parallel kernel (`scan_long`). The query is an edited
///   copy of an entry, so the ratchet meets a real hit.
/// - `affine-128x64`: 128 entries (median 64 bp, 8–256 bp) against a
///   random 64 bp global-affine (open 2) query, k = 3, on the striped
///   kernel (`scan_short`'s affine half).
///
/// The two rows of a group differ only in the worker count, so their
/// ratio is what the second worker gains or costs per scan.
/// `cargo bench -p rl-bench --bench batch_throughput -- scan_workers`
/// runs this group alone (a few seconds); `docs/KERNELS.md`, "Work
/// units", holds its table.
fn bench_scan_workers(c: &mut Criterion) {
    use race_logic::early_termination::{scan, ScanEntries};
    use race_logic::engine::{AffineWeights, AlignMode};
    use rl_bench::lognormal_len;
    use rl_bio::mutate::{mutate, MutationConfig};

    let mut rng = seeded_rng(0x5CA4);
    let mut database = |entries: usize, median: f64, max: usize| -> Vec<Seq<Dna>> {
        (0..entries)
            .map(|_| {
                let len = lognormal_len(&mut rng, median, 0.5, 8, max);
                Seq::random(&mut rng, len)
            })
            .collect()
    };
    let long = database(2_000, 256.0, 1_024);
    let short = database(128, 64.0, 256);
    let mut rng = seeded_rng(0x5CA5);
    let source = long
        .iter()
        .find(|e| (240..=272).contains(&e.len()))
        .expect("an entry near 256 bp");
    let inputs = [
        (
            "bitpar-2000x256",
            AlignConfig::new(RaceWeights::fig4()),
            mutate(source, &MutationConfig::balanced(0.1 / 3.0), &mut rng),
            long,
            10,
        ),
        (
            "affine-128x64",
            AlignConfig::new(RaceWeights::fig4())
                .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
            Seq::random(&mut rng, 64),
            short,
            3,
        ),
    ];
    for (label, cfg, query, entries, k) in inputs {
        let query = PackedSeq::from_seq(&query);
        let db: Vec<PackedSeq<Dna>> = entries.iter().map(PackedSeq::from_seq).collect();
        let mut group = c.benchmark_group(format!("scan_workers/{label}"));
        group.sample_size(30);
        group.throughput(Throughput::Elements(db.len() as u64));
        for workers in [1_usize, 2] {
            group.bench_function(format!("workers={workers}"), |b| {
                b.iter(|| {
                    let (outcome, _) = scan(
                        &cfg,
                        &query,
                        ScanEntries::Memory(&db),
                        k,
                        None,
                        Some(workers),
                        &ScanControl::new(),
                    )
                    .expect("admitted");
                    black_box(outcome.hits)
                });
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_batch_throughput,
    bench_ragged,
    bench_mode_sweep,
    bench_per_pair_wavefront,
    bench_short_pairs,
    bench_scan_workers
);
criterion_main!(benches);
