//! # race-logic — temporal computing for dynamic programming
//!
//! A from-scratch implementation of **Race Logic** (Madhavan, Sherwood,
//! Strukov — *"Race Logic: A Hardware Acceleration for Dynamic Programming
//! Algorithms"*, ISCA 2014).
//!
//! Race Logic represents a value `n` as the clock cycle at which a wire
//! rises. Under that encoding, an OR gate computes `min` (first arrival
//! wins), an AND gate computes `max` (last arrival wins), and a chain of
//! `c` flip-flops adds the constant `c`. A weighted-DAG shortest-path (or
//! longest-path) problem — and therefore any dynamic-programming
//! recurrence built from `min`/`max` and additive weights, such as edit
//! distance — is solved by *racing a signal through the graph* and timing
//! its arrival.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`compiler`] | §3, Fig. 3 | weighted DAG → gate-level race circuit (OR/AND type), plus execution |
//! | [`functional`] | §3 | fast event-driven race simulation (no gates), the race as a discrete-event process |
//! | [`alignment`] | §4, Fig. 4 | the DNA global-alignment race array, gate-level and functional |
//! | [`engine`] | throughput | the batched zero-allocation alignment engine: four alignment modes (global, semi-global, local max-plus, three-plane affine) on fused kernels (rolling-row; SIMD wavefront over in-band diagonal spans; banding + early termination) over packed sequences, plus `align_batch`, the one (always supervised) batch entry point, with its inter-pair striped batch kernel |
//! | [`simd`] | throughput | portable lane operations (`u16`/`u32`/`u64` kernel words) behind the wavefront kernels' inner loops |
//! | [`wavefront`] | §4.3, Fig. 6 | per-cycle wavefront traces of the propagating signal |
//! | [`gating`] | §4.3, Fig. 7 | data-dependent clock gating over m×m multi-cell regions |
//! | [`score_transform`] | §5 | arbitrary score matrices (BLOSUM62…) → positive delay weights, and exact score recovery |
//! | [`generalized`] | §5, Fig. 8 | the generalized cell: saturating counter + weight taps + set-on-arrival |
//! | [`early_termination`] | §6 | thresholded races that abandon dissimilar pairs early, and `scan` — the one ratcheted top-k scan over a `ScanEntries` view of an in-memory database or a store, fresh or resumed |
//! | [`supervisor`] | robustness | supervised scan execution: cancellation, deadlines, cell budgets, per-stripe panic isolation with fallback retry, resume tokens, and a feature-gated fault-injection harness |
//! | [`service`] | robustness | the long-lived scan service: bounded admission by estimated cells, overload shedding, retry with exponential backoff, resumable queries, and a heartbeat watchdog |
//! | [`store`] | robustness | the crash-safe persistent packed-shard store: versioned checksummed on-disk format, lazy integrity verification, corruption quarantine with replica fallback, and content-hash-bound resume tokens |
//! | [`telemetry`] | observability | lock-free metrics registry, per-query trace timelines, global flight recorder, Prometheus/JSON exposition |
//! | [`asynchronous`] | §6, Fig. 3d | continuous-time races with analog delay variation (extension) |
//! | [`banded`] | design space | Ukkonen-banded arrays with certified exactness (extension) |
//! | [`semi_global`] | §6 scans | query-in-reference races via multi-point injection — thin wrapper over the engine's semi-global mode (extension) |
//! | [`traceback`] | §2.3 refs 21–22 | recovering the winning alignment from arrival times (extension) |
//!
//! ## Quick start
//!
//! ```
//! use race_logic::alignment::{AlignmentRace, RaceWeights};
//! use rl_bio::{Seq, alphabet::Dna};
//!
//! // The paper's running example (Fig. 1 / Fig. 4c).
//! let p: Seq<Dna> = "ACTGAGA".parse()?;
//! let q: Seq<Dna> = "GATTCGA".parse()?;
//! let race = AlignmentRace::new(&q, &p, RaceWeights::fig4());
//! let outcome = race.run_functional();
//! assert_eq!(outcome.score().cycles(), Some(10)); // Fig. 4c: 10 cycles
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod asynchronous;
pub mod banded;
mod bitpar;
pub mod compiler;
pub mod early_termination;
pub mod engine;
mod error;
pub mod functional;
pub mod gating;
pub mod generalized;
pub mod score_transform;
pub mod semi_global;
pub mod service;
pub mod simd;
pub mod store;
mod striped;
pub mod supervisor;
pub mod telemetry;
pub mod traceback;
pub mod wavefront;

pub use error::{AlignError, RaceError};

/// The two race types of the paper: OR gates race for the *first* arrival
/// (shortest path), AND gates wait for the *last* (longest path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// OR-type race: nodes are OR gates; computes `min` / shortest paths.
    Or,
    /// AND-type race: nodes are AND gates; computes `max` / longest paths.
    And,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceKind::Or => write!(f, "OR-type (shortest path)"),
            RaceKind::And => write!(f, "AND-type (longest path)"),
        }
    }
}
