//! The three workloads and their seeded input generators. The program
//! under test only ever sees the generated sequences and configurations.

use race_logic::alignment::RaceWeights;
use race_logic::engine::{AffineWeights, AlignConfig, AlignMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_bio::mutate::{mutate, MutationConfig};
use rl_bio::{Dna, PackedSeq, Seq};

/// One workload's fixed shape. Everything random is drawn from the seed.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Database entries.
    pub entries: usize,
    /// Log-normal entry lengths: median, σ, clamp.
    pub median_len: f64,
    pub sigma: f64,
    pub min_len: usize,
    pub max_len: usize,
    /// Distinct queries; traffic cycles through them in order.
    pub distinct_queries: usize,
    /// Open-loop Poisson arrival rate, queries per second: about a fifth
    /// of the closed-loop capacity measured when the benchmark was
    /// defined, so the rate stays below half of it on a slowed host.
    pub open_rate: f64,
    /// Queries per store session (each session opens the store fresh);
    /// `None` for the in-memory workloads.
    pub session: Option<usize>,
    /// Requests (store: sessions × queries) in the traced phase.
    pub traced_requests: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "scan_long",
        entries: 2000,
        median_len: 256.0,
        sigma: 0.5,
        min_len: 8,
        max_len: 1024,
        distinct_queries: 32,
        open_rate: 8.0,
        session: None,
        traced_requests: 24,
    },
    Spec {
        name: "scan_short",
        entries: 128,
        median_len: 64.0,
        sigma: 0.5,
        min_len: 8,
        max_len: 256,
        distinct_queries: 64,
        open_rate: 300.0,
        session: None,
        traced_requests: 400,
    },
    Spec {
        name: "store_session",
        entries: 4000,
        median_len: 128.0,
        sigma: 0.5,
        min_len: 8,
        max_len: 512,
        distinct_queries: 64,
        open_rate: 12.0,
        session: Some(4),
        traced_requests: 64,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One distinct query: configuration, packed sequence and `k`.
#[derive(Debug, Clone)]
pub struct Query {
    pub cfg: AlignConfig,
    pub seq: PackedSeq<Dna>,
    pub k: usize,
}

/// A workload's generated inputs. Entries stay unpacked: packing is part
/// of the measured set-up of the in-memory workloads.
#[derive(Debug)]
pub struct Inputs {
    pub entries: Vec<Seq<Dna>>,
    pub queries: Vec<Query>,
}

/// Generates `spec`'s inputs from `seed`; the same seed gives the same
/// inputs.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    // The multiset of entry lengths comes from a fixed stream, so the
    // database's size, and the cells a query plans, do not vary with the
    // seed. The seed sets their order, every symbol, the queries and the
    // arrivals.
    let mut fixed = StdRng::seed_from_u64(0x1E46_7A5C);
    let mut lens: Vec<usize> = (0..spec.entries)
        .map(|_| lognormal_len(&mut fixed, spec.median_len, spec.sigma))
        .map(|len| len.clamp(spec.min_len, spec.max_len))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA7_BE4C);
    for i in (1..lens.len()).rev() {
        lens.swap(i, rng.random_range(0..=i));
    }
    let entries: Vec<Seq<Dna>> = lens.iter().map(|&len| Seq::random(&mut rng, len)).collect();
    let queries = (0..spec.distinct_queries)
        .map(|i| match spec.name {
            "scan_long" => long_query(&mut rng, &entries, i),
            "scan_short" => short_query(&mut rng, &entries, i),
            _ => read_query(&mut rng, &entries, 32, 5, levenshtein_semi_global()),
        })
        .collect();
    Inputs { entries, queries }
}

/// 256 bp, global, fig4 weights, k = 10. Even queries are copies of a
/// 240–272 bp entry at about 10% edits (the ratchet meets a real hit);
/// odd queries are random and match nothing.
fn long_query(rng: &mut StdRng, entries: &[Seq<Dna>], i: usize) -> Query {
    let seq = if i.is_multiple_of(2) {
        mutated_entry(rng, entries, 240..=272)
    } else {
        Seq::random(rng, 256)
    };
    Query {
        cfg: AlignConfig::new(RaceWeights::fig4()),
        seq: PackedSeq::from_seq(&seq),
        k: 10,
    }
}

/// Alternates 48 bp semi-global Levenshtein read searches with 64 bp
/// global-affine (open 2) fig4 queries, k = 3. Half the affine queries
/// are edited copies of a 56–72 bp entry, half random.
fn short_query(rng: &mut StdRng, entries: &[Seq<Dna>], i: usize) -> Query {
    if i.is_multiple_of(2) {
        return read_query(rng, entries, 48, 3, levenshtein_semi_global());
    }
    let seq = if i % 4 == 1 {
        mutated_entry(rng, entries, 56..=72)
    } else {
        Seq::random(rng, 64)
    };
    Query {
        cfg: AlignConfig::new(RaceWeights::fig4())
            .with_mode(AlignMode::GlobalAffine(AffineWeights { open: 2 })),
        seq: PackedSeq::from_seq(&seq),
        k: 3,
    }
}

fn levenshtein_semi_global() -> AlignConfig {
    AlignConfig::new(RaceWeights::levenshtein()).with_mode(AlignMode::SemiGlobal)
}

/// A `len` bp read: a window of a random entry at least that long, with
/// 5% substitutions (so the read keeps its length).
fn read_query(
    rng: &mut StdRng,
    entries: &[Seq<Dna>],
    len: usize,
    k: usize,
    cfg: AlignConfig,
) -> Query {
    let source = pick(rng, entries, len..=usize::MAX);
    let start = rng.random_range(0..=source.len() - len);
    let window: Seq<Dna> = source.as_slice()[start..start + len]
        .iter()
        .copied()
        .collect();
    let read = mutate(&window, &MutationConfig::substitutions_only(0.05), rng);
    Query {
        cfg,
        seq: PackedSeq::from_seq(&read),
        k,
    }
}

/// A copy of a random entry whose length lies in `lens`, at about 10%
/// edits split evenly over substitutions, insertions and deletions.
fn mutated_entry(
    rng: &mut StdRng,
    entries: &[Seq<Dna>],
    lens: std::ops::RangeInclusive<usize>,
) -> Seq<Dna> {
    let source = pick(rng, entries, lens);
    mutate(source, &MutationConfig::balanced(0.1 / 3.0), rng)
}

fn pick<'a>(
    rng: &mut StdRng,
    entries: &'a [Seq<Dna>],
    lens: std::ops::RangeInclusive<usize>,
) -> &'a Seq<Dna> {
    let fits: Vec<&Seq<Dna>> = entries.iter().filter(|e| lens.contains(&e.len())).collect();
    assert!(!fits.is_empty(), "no entry has a length in {lens:?}");
    fits[rng.random_range(0..fits.len())]
}

/// `exp(ln median + σ·z)` rounded, with `z` standard normal (Box–Muller).
fn lognormal_len(rng: &mut StdRng, median: f64, sigma: f64) -> usize {
    let u1 = 1.0 - rng.unit_f64();
    let u2 = rng.unit_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (median.ln() + sigma * z).exp().round() as usize
}

/// Arrival times (seconds from the episode start) of a Poisson process
/// at `rate` per second until `horizon`: open-loop episode `episode`'s
/// schedule.
pub fn poisson_schedule(seed: u64, episode: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA441_7A15 ^ (episode << 40));
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit_f64()).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(t);
    }
}
