//! Unified telemetry: lock-free metrics registry, per-query trace timelines,
//! and a global flight recorder with Prometheus/JSON exposition.
//!
//! The subsystem has three planes, all cheap enough to leave enabled in
//! production builds:
//!
//! 1. **Metrics registry** — process-global [`Counter`]s, [`Gauge`]s and
//!    fixed-bucket log₂ [`Histogram`]s built purely from `AtomicU64`s.  Every
//!    instrument is a `&'static` declared in [`metrics`]; recording is a single
//!    relaxed RMW with no allocation, no locks, and no hashing on the hot
//!    path.  [`prometheus_text`] and [`json_snapshot`] render the whole
//!    catalog; [`Snapshot`] parses the JSON form back for assertions.
//! 2. **Per-query traces** — a bounded ring of typed [`TraceEvent`]s per
//!    query ([`QueryTrace`]), stamped by an injectable [`TelemetryClock`] so tests can
//!    pin exact timelines.  The service attaches the finished trace to each
//!    `QueryReport`.
//! 3. **Flight recorder** — a global, bounded, lock-free ring of the most
//!    recent events across *all* queries ([`flight`]), dumped automatically
//!    on unrecovered worker faults, store corruption, and watchdog trips so
//!    a post-mortem snapshot survives the failing query.
//!
//! Telemetry is globally gated by [`set_enabled`]; when disabled, hot-path
//! helpers reduce to one relaxed load and a branch.  The identity property
//! (scan results are byte-identical with telemetry on or off) is enforced by
//! property tests in `tests/failpoints.rs`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::supervisor::StopReason;

// ---------------------------------------------------------------------------
// Global enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Returns whether global telemetry recording is enabled.
///
/// Per-instance counters (e.g. the store's `chunks_loaded`) are *not* gated:
/// they are part of component contracts.  Only the global registry mirrors,
/// trace rings and the flight recorder honour this switch.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables global telemetry recording; returns the prior value.
///
/// Used by the overhead benchmark (alternating on/off reps) and by the
/// identity property tests.  Telemetry never changes scan results either way.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
///
/// `inc`/`add` are single relaxed `fetch_add`s — safe to call from any
/// worker thread with no coordination.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter with a Prometheus-style `name` and `help` line.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Metric name as exposed in the text/JSON dumps.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test/bench support; not part of the hot path).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can move both ways, plus a `set_max` ratchet used
/// for high-water marks.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge with a Prometheus-style `name` and `help` line.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Metric name as exposed in the text/JSON dumps.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v`.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Ratchets the gauge up to at least `v` (lock-free high-water mark).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test/bench support).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets in a [`Histogram`] (the last bucket is `+Inf`).
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-bucket log₂ histogram.
///
/// Bucket `i` (for `i < HISTOGRAM_BUCKETS - 1`) counts observations with
/// upper bound `2^(i+1) - 1`; the final bucket is `+Inf`.  `observe` is a
/// leading-zeros computation plus two relaxed `fetch_add`s — no allocation,
/// no locks.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with a Prometheus-style `name` and `help` line.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Self {
            name,
            help,
            buckets: [Z; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Metric name as exposed in the text/JSON dumps.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index for a value: its bit length, clamped to the last bucket.
    fn bucket_index(v: u64) -> usize {
        let bits = (u64::BITS - v.leading_zeros()) as usize; // 0 for v == 0
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation of `v`.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Resets all buckets (test/bench support).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry catalog
// ---------------------------------------------------------------------------

/// The process-global metric catalog.
///
/// Every instrument the runtime records into lives here as a `&'static`;
/// [`catalog`] enumerates them for exposition.  Names follow
/// the Prometheus convention with an `rl_` prefix.
pub mod metrics {
    use super::{Counter, Gauge, Histogram};

    /// Supervisor cursor checkpoints (deadline/cancel polls) taken.
    pub static CHECKPOINTS: Counter = Counter::new(
        "rl_checkpoints_total",
        "supervised checkpoints taken (cursor ticks and striped unit boundaries)",
    );
    /// Striped work units completed without fault.
    pub static STRIPE_UNITS: Counter =
        Counter::new("rl_stripe_units_total", "striped work units completed");
    /// Pairs aligned through completed striped units.
    pub static UNIT_PAIRS: Counter = Counter::new(
        "rl_unit_pairs_total",
        "pairs aligned in completed striped units",
    );
    /// Striped units quarantined after a worker panic.
    pub static QUARANTINES: Counter = Counter::new(
        "rl_quarantines_total",
        "striped units quarantined after a panic",
    );
    /// Per-pair rolling-row fallbacks attempted inside quarantined units.
    pub static PAIR_FALLBACKS: Counter = Counter::new(
        "rl_pair_fallbacks_total",
        "per-pair fallbacks inside quarantined units",
    );
    /// Pairs lost to unrecovered worker faults.
    pub static WORKER_FAULTS: Counter = Counter::new(
        "rl_worker_faults_total",
        "pairs lost to unrecovered worker faults",
    );
    /// Early-termination ratchet observations folded into the shared limit.
    pub static RATCHET_OBSERVATIONS: Counter = Counter::new(
        "rl_ratchet_observations_total",
        "ratchet observations folded",
    );
    /// Pairs the ratcheted scan ruled out by the length bound, unswept.
    pub static PAIRS_PRUNED: Counter = Counter::new(
        "rl_pairs_pruned_total",
        "pairs pruned by the length bound before any sweep",
    );
    /// Pairs the ratcheted scan swept on the bit-parallel kernel.
    pub static BITPAR_PAIRS: Counter = Counter::new(
        "rl_bitpar_pairs_total",
        "pairs swept on the bit-parallel kernel",
    );

    /// Queries submitted to the service (accepted into the queue).
    pub static SERVICE_SUBMITTED: Counter = Counter::new(
        "rl_service_submitted_total",
        "queries accepted into the service queue",
    );
    /// Queries rejected at admission (invalid or faulted pricing).
    pub static SERVICE_REJECTED: Counter =
        Counter::new("rl_service_rejected_total", "queries rejected at admission");
    /// Queries refused because the queue was full (overload).
    pub static SERVICE_OVERLOADED: Counter = Counter::new(
        "rl_service_overloaded_total",
        "queries refused due to a full queue",
    );
    /// Queries completed (any terminal outcome).
    pub static SERVICE_COMPLETED: Counter =
        Counter::new("rl_service_completed_total", "queries completed by workers");
    /// Queries shed by the over-watermark load shedder.
    pub static SERVICE_SHED: Counter = Counter::new(
        "rl_service_shed_total",
        "queries shed over the cell watermark",
    );
    /// Segment retries performed after recoverable faults.
    pub static SERVICE_RETRIES: Counter = Counter::new(
        "rl_service_retries_total",
        "segment retries after recoverable faults",
    );
    /// Watchdog trips (stalled heartbeat detected).
    pub static SERVICE_WATCHDOG_TRIPS: Counter = Counter::new(
        "rl_service_watchdog_trips_total",
        "watchdog trips on stalled heartbeats",
    );
    /// Watchdog poll iterations (visible even when idle-but-armed).
    pub static SERVICE_WATCHDOG_POLLS: Counter = Counter::new(
        "rl_service_watchdog_polls_total",
        "watchdog poll iterations",
    );
    /// Cumulative backoff delay requested between retries, in nanoseconds.
    pub static SERVICE_BACKOFF_NANOS: Counter = Counter::new(
        "rl_service_backoff_nanos_total",
        "cumulative retry backoff in nanoseconds",
    );

    /// Store chunks decoded from disk (cache misses).
    pub static STORE_CHUNKS_LOADED: Counter = Counter::new(
        "rl_store_chunks_loaded_total",
        "store chunks decoded from disk",
    );
    /// Store chunk reads served from the in-memory cache.
    pub static STORE_CHUNK_CACHE_HITS: Counter = Counter::new(
        "rl_store_chunk_cache_hits_total",
        "store chunk reads served from cache",
    );
    /// Store chunk checksum verification failures.
    pub static STORE_VERIFY_FAILURES: Counter = Counter::new(
        "rl_store_verify_failures_total",
        "store chunk checksum verification failures",
    );
    /// Store shard-group quarantines (primary fault, replica ladder entered).
    pub static STORE_QUARANTINES: Counter = Counter::new(
        "rl_store_quarantines_total",
        "store shard groups quarantined to replicas",
    );

    /// Events written into the flight-recorder ring.
    pub static FLIGHT_EVENTS: Counter = Counter::new(
        "rl_flight_events_total",
        "events written to the flight recorder",
    );
    /// Flight-recorder dumps taken on faults.
    pub static FLIGHT_DUMPS: Counter = Counter::new(
        "rl_flight_dumps_total",
        "flight recorder dumps taken on faults",
    );

    /// Current service queue depth.
    pub static SERVICE_QUEUE_DEPTH: Gauge =
        Gauge::new("rl_service_queue_depth", "current service queue depth");
    /// High-water mark of the service queue depth.
    pub static SERVICE_QUEUE_DEPTH_HWM: Gauge = Gauge::new(
        "rl_service_queue_depth_hwm",
        "service queue depth high-water mark",
    );
    /// Estimated cells currently queued.
    pub static SERVICE_QUEUED_CELLS: Gauge = Gauge::new(
        "rl_service_queued_cells",
        "estimated cells currently queued",
    );
    /// Whether a watchdog is currently armed over a running segment (0/1).
    pub static SERVICE_WATCHDOG_ARMED: Gauge = Gauge::new(
        "rl_service_watchdog_armed",
        "1 while a watchdog is armed over a segment",
    );

    /// Cells charged per completed striped unit.
    pub static UNIT_CELLS: Histogram =
        Histogram::new("rl_unit_cells", "cells charged per completed striped unit");
    /// Cells spent per service segment.
    pub static QUERY_SEGMENT_CELLS: Histogram =
        Histogram::new("rl_query_segment_cells", "cells spent per service segment");
    /// Attempts used per completed query.
    pub static QUERY_ATTEMPTS: Histogram =
        Histogram::new("rl_query_attempts", "attempts used per completed query");
}

/// A reference to one instrument in the catalog.
#[derive(Debug, Clone, Copy)]
pub enum Instrument {
    /// A counter.
    C(&'static Counter),
    /// A gauge.
    G(&'static Gauge),
    /// A histogram.
    H(&'static Histogram),
}

/// Enumerates every instrument in the global catalog, in exposition order.
pub fn catalog() -> Vec<Instrument> {
    use metrics::*;
    use Instrument::*;
    vec![
        C(&CHECKPOINTS),
        C(&STRIPE_UNITS),
        C(&UNIT_PAIRS),
        C(&QUARANTINES),
        C(&PAIR_FALLBACKS),
        C(&WORKER_FAULTS),
        C(&RATCHET_OBSERVATIONS),
        C(&PAIRS_PRUNED),
        C(&BITPAR_PAIRS),
        C(&SERVICE_SUBMITTED),
        C(&SERVICE_REJECTED),
        C(&SERVICE_OVERLOADED),
        C(&SERVICE_COMPLETED),
        C(&SERVICE_SHED),
        C(&SERVICE_RETRIES),
        C(&SERVICE_WATCHDOG_TRIPS),
        C(&SERVICE_WATCHDOG_POLLS),
        C(&SERVICE_BACKOFF_NANOS),
        C(&STORE_CHUNKS_LOADED),
        C(&STORE_CHUNK_CACHE_HITS),
        C(&STORE_VERIFY_FAILURES),
        C(&STORE_QUARANTINES),
        C(&FLIGHT_EVENTS),
        C(&FLIGHT_DUMPS),
        G(&SERVICE_QUEUE_DEPTH),
        G(&SERVICE_QUEUE_DEPTH_HWM),
        G(&SERVICE_QUEUED_CELLS),
        G(&SERVICE_WATCHDOG_ARMED),
        H(&UNIT_CELLS),
        H(&QUERY_SEGMENT_CELLS),
        H(&QUERY_ATTEMPTS),
    ]
}

/// Resets every instrument in the catalog to zero (test/bench support).
pub fn reset_metrics() {
    for i in catalog() {
        match i {
            Instrument::C(c) => c.reset(),
            Instrument::G(g) => g.reset(),
            Instrument::H(h) => h.reset(),
        }
    }
}

/// Gated counter add: records only when telemetry is [`enabled`].
pub(crate) fn count(c: &'static Counter, n: u64) {
    if enabled() {
        c.add(n);
    }
}

/// Gated gauge store.
pub(crate) fn gauge_set(g: &'static Gauge, v: u64) {
    if enabled() {
        g.set(v);
    }
}

/// Gated gauge high-water ratchet.
pub(crate) fn gauge_set_max(g: &'static Gauge, v: u64) {
    if enabled() {
        g.set_max(v);
    }
}

/// Gated histogram observation.
pub(crate) fn observe(h: &'static Histogram, v: u64) {
    if enabled() {
        h.observe(v);
    }
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Renders the full catalog in Prometheus text exposition format.
///
/// Histograms use cumulative `_bucket{le="..."}` series plus `_sum` and
/// `_count`, matching the classic client-library layout.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for i in catalog() {
        match i {
            Instrument::C(c) => {
                out.push_str(&format!("# HELP {} {}\n", c.name, c.help));
                out.push_str(&format!("# TYPE {} counter\n", c.name));
                out.push_str(&format!("{} {}\n", c.name, c.get()));
            }
            Instrument::G(g) => {
                out.push_str(&format!("# HELP {} {}\n", g.name, g.help));
                out.push_str(&format!("# TYPE {} gauge\n", g.name));
                out.push_str(&format!("{} {}\n", g.name, g.get()));
            }
            Instrument::H(h) => {
                out.push_str(&format!("# HELP {} {}\n", h.name, h.help));
                out.push_str(&format!("# TYPE {} histogram\n", h.name));
                let counts = h.bucket_counts();
                let mut cum = 0u64;
                for (idx, c) in counts.iter().enumerate() {
                    cum += c;
                    if idx + 1 < HISTOGRAM_BUCKETS {
                        let le = (1u64 << (idx + 1)) - 1;
                        out.push_str(&format!("{}_bucket{{le=\"{}\"}} {}\n", h.name, le, cum));
                    } else {
                        out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name, cum));
                    }
                }
                out.push_str(&format!("{}_sum {}\n", h.name, h.sum()));
                out.push_str(&format!("{}_count {}\n", h.name, h.count()));
            }
        }
    }
    out
}

/// Renders the full catalog as a JSON object:
/// `{"counters": {..}, "gauges": {..}, "histograms": {name: {"count": n, "sum": s, "buckets": [..]}}}`.
pub fn json_snapshot() -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    for i in catalog() {
        match i {
            Instrument::C(c) => {
                if !counters.is_empty() {
                    counters.push(',');
                }
                counters.push_str(&format!("\"{}\":{}", c.name, c.get()));
            }
            Instrument::G(g) => {
                if !gauges.is_empty() {
                    gauges.push(',');
                }
                gauges.push_str(&format!("\"{}\":{}", g.name, g.get()));
            }
            Instrument::H(h) => {
                if !histograms.is_empty() {
                    histograms.push(',');
                }
                let counts = h.bucket_counts();
                let buckets: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
                histograms.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    h.name,
                    h.count(),
                    h.sum(),
                    buckets.join(",")
                ));
            }
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters, gauges, histograms
    )
}

/// A parsed metrics snapshot, for bench/test assertions on [`json_snapshot`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → (count, sum).
    pub histograms: Vec<(String, u64, u64)>,
}

impl Snapshot {
    /// Captures the current registry state directly (no JSON round trip).
    pub fn capture() -> Self {
        let mut s = Snapshot::default();
        for i in catalog() {
            match i {
                Instrument::C(c) => s.counters.push((c.name.to_string(), c.get())),
                Instrument::G(g) => s.gauges.push((g.name.to_string(), g.get())),
                Instrument::H(h) => s.histograms.push((h.name.to_string(), h.count(), h.sum())),
            }
        }
        s
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram's (count, sum) by name.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, c, s)| (*c, *s))
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// A source of monotonic nanosecond timestamps for trace events.
///
/// The default [`MonotonicClock`] anchors at first use; tests install a
/// [`ManualClock`] (per-trace or globally via [`set_clock_override`]) to pin
/// exact timelines.
pub trait TelemetryClock: Send + Sync + fmt::Debug {
    /// Current time in nanoseconds since an arbitrary fixed origin.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock monotonic time, anchored at the first call in the process.
#[derive(Debug, Default)]
pub struct MonotonicClock;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

impl TelemetryClock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        let anchor = *ANCHOR.get_or_init(Instant::now);
        Instant::now().duration_since(anchor).as_nanos() as u64
    }
}

/// A hand-advanced clock for deterministic timeline tests.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// Creates a manual clock starting at `nanos`.
    pub fn at(nanos: u64) -> Self {
        Self(AtomicU64::new(nanos))
    }

    /// Sets the current time.
    pub fn set(&self, nanos: u64) {
        self.0.store(nanos, Ordering::Relaxed);
    }

    /// Advances the current time by `d`.
    pub fn advance(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl TelemetryClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static CLOCK_OVERRIDDEN: AtomicBool = AtomicBool::new(false);
static CLOCK_OVERRIDE: Mutex<Option<Arc<dyn TelemetryClock>>> = Mutex::new(None);

/// Installs (or clears, with `None`) a process-global clock override.
///
/// The override applies to every trace/flight timestamp taken while set;
/// tests that use it must serialize (the failpoint test lock suffices).
pub fn set_clock_override(clock: Option<Arc<dyn TelemetryClock>>) {
    let mut slot = CLOCK_OVERRIDE.lock().unwrap();
    CLOCK_OVERRIDDEN.store(clock.is_some(), Ordering::Release);
    *slot = clock;
}

/// Current telemetry timestamp in nanoseconds (override-aware).
pub fn now_nanos() -> u64 {
    if CLOCK_OVERRIDDEN.load(Ordering::Acquire) {
        if let Some(c) = CLOCK_OVERRIDE.lock().unwrap().as_ref() {
            return c.now_nanos();
        }
    }
    MonotonicClock.now_nanos()
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// A typed event in a query's lifecycle timeline.
///
/// Events are recorded by the service, supervisor, striped kernel and store
/// as the query flows through them; the full schema is documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Admission control priced the query.
    AdmissionPriced {
        /// Estimated DP cells for the whole query.
        estimated_cells: u64,
    },
    /// The query entered the service queue.
    Queued {
        /// Queue depth after the push (this query included).
        depth: u64,
    },
    /// The shedder examined the queue because the cell watermark was crossed.
    ShedConsidered {
        /// Estimated cells queued at the time.
        queued_cells: u64,
        /// Number of victims shed in this pass.
        victims: u64,
    },
    /// This query was shed by the load shedder.
    Shed {
        /// The query's estimated cells at shed time.
        estimated_cells: u64,
    },
    /// A worker started executing a segment.
    SegmentStart {
        /// 1-based attempt number.
        attempt: u64,
    },
    /// A segment finished (completed or stopped early).
    SegmentStop {
        /// Why the segment stopped, or `None` if it ran to completion.
        stop: Option<StopReason>,
        /// Cells spent during this segment.
        cells: u64,
    },
    /// A striped unit was quarantined after a worker panic.
    StripeQuarantined {
        /// Number of pairs in the quarantined unit.
        members: u64,
    },
    /// A quarantined pair was retried via the rolling-row fallback.
    PairFallback {
        /// Pair index within the batch.
        pair: u64,
        /// Whether the fallback recovered the pair.
        recovered: bool,
    },
    /// The service scheduled a retry after a recoverable fault.
    Retry {
        /// 1-based attempt number that will run next.
        attempt: u64,
        /// Backoff delay before the retry.
        backoff: Duration,
    },
    /// The watchdog tripped on a stalled heartbeat.
    WatchdogTrip,
    /// A resume token was issued for an interrupted scan.
    ResumeTokenIssued {
        /// Pairs still pending in the token.
        pending: u64,
    },
    /// A resume token was consumed to continue a scan.
    ResumeTokenConsumed {
        /// Pairs pending at resume time.
        pending: u64,
    },
    /// A store shard served a segment's pending entries.
    StoreShardLoaded {
        /// Shard index.
        shard: u64,
        /// The segment's pending entries the shard serves.
        entries: u64,
        /// Chunks read and verified from disk during the load (0 when
        /// the decoded shard was cached).
        chunks_loaded: u64,
        /// Decoded-shard cache hits during the load (1 when cached).
        cache_hits: u64,
    },
    /// A store chunk failed checksum verification.
    StoreChunkCorrupt {
        /// Shard index.
        shard: u64,
        /// Chunk index within the shard.
        chunk: u64,
    },
    /// A store shard group fell back to the replica ladder.
    StoreQuarantine {
        /// Shard index.
        shard: u64,
        /// Whether a replica recovered the group.
        recovered: bool,
    },
}

impl TraceEvent {
    /// Short stable label for the event kind (used by the flight recorder).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::AdmissionPriced { .. } => "admission-priced",
            TraceEvent::Queued { .. } => "queued",
            TraceEvent::ShedConsidered { .. } => "shed-considered",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::SegmentStart { .. } => "segment-start",
            TraceEvent::SegmentStop { .. } => "segment-stop",
            TraceEvent::StripeQuarantined { .. } => "stripe-quarantined",
            TraceEvent::PairFallback { .. } => "pair-fallback",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::WatchdogTrip => "watchdog-trip",
            TraceEvent::ResumeTokenIssued { .. } => "resume-token-issued",
            TraceEvent::ResumeTokenConsumed { .. } => "resume-token-consumed",
            TraceEvent::StoreShardLoaded { .. } => "store-shard-loaded",
            TraceEvent::StoreChunkCorrupt { .. } => "store-chunk-corrupt",
            TraceEvent::StoreQuarantine { .. } => "store-quarantine",
        }
    }

    /// Packs the event payload into two `u64` words for the flight ring.
    fn pack(&self) -> (u64, u64) {
        fn stop_code(stop: &Option<StopReason>) -> u64 {
            match stop {
                None => 0,
                Some(StopReason::Cancelled) => 1,
                Some(StopReason::DeadlineExpired) => 2,
                Some(StopReason::BudgetExhausted) => 3,
                Some(StopReason::Watchdog) => 4,
            }
        }
        match *self {
            TraceEvent::AdmissionPriced { estimated_cells } => (estimated_cells, 0),
            TraceEvent::Queued { depth } => (depth, 0),
            TraceEvent::ShedConsidered {
                queued_cells,
                victims,
            } => (queued_cells, victims),
            TraceEvent::Shed { estimated_cells } => (estimated_cells, 0),
            TraceEvent::SegmentStart { attempt } => (attempt, 0),
            TraceEvent::SegmentStop { ref stop, cells } => (stop_code(stop), cells),
            TraceEvent::StripeQuarantined { members } => (members, 0),
            TraceEvent::PairFallback { pair, recovered } => (pair, recovered as u64),
            TraceEvent::Retry { attempt, backoff } => (attempt, backoff.as_nanos() as u64),
            TraceEvent::WatchdogTrip => (0, 0),
            TraceEvent::ResumeTokenIssued { pending } => (pending, 0),
            TraceEvent::ResumeTokenConsumed { pending } => (pending, 0),
            TraceEvent::StoreShardLoaded {
                shard,
                entries,
                chunks_loaded,
                cache_hits,
            } => {
                // Pack the two load counts into the second word (32/32): shard
                // loads are bounded by the chunk count, far below 2^32.
                (shard << 32 | entries, chunks_loaded << 32 | cache_hits)
            }
            TraceEvent::StoreChunkCorrupt { shard, chunk } => (shard, chunk),
            TraceEvent::StoreQuarantine { shard, recovered } => (shard, recovered as u64),
        }
    }
}

/// One timestamped entry in a [`QueryTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Timestamp in nanoseconds from the telemetry clock.
    pub at_nanos: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The finished timeline of a query, attached to `QueryReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Events in arrival order (oldest first).  Bounded by the ring
    /// capacity; oldest events are dropped when full.
    pub events: Vec<TraceEntry>,
    /// Events dropped because the ring was full.
    pub dropped: u64,
}

impl QueryTrace {
    /// The sequence of event kinds, for compact assertions.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.event.kind()).collect()
    }
}

/// Default per-query trace ring capacity.
pub const TRACE_CAPACITY: usize = 256;

#[derive(Debug)]
struct TraceBuf {
    query_id: u64,
    cap: usize,
    clock: Option<Arc<dyn TelemetryClock>>,
    ring: Mutex<VecDeque<TraceEntry>>,
    dropped: AtomicU64,
}

/// A shared handle for recording events into one query's timeline.
///
/// Cloning is cheap (an `Arc` bump); the supervisor carries one through
/// `ScanControl` so the striped kernel and store can record into the same
/// timeline as the service.  Recording takes a short mutex — trace events
/// are rare (per segment / fault, never per cell), so this is off the DP
/// hot path by construction.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<TraceBuf>);

impl TraceHandle {
    /// Creates a trace for `query_id` using the global clock.
    pub fn new(query_id: u64) -> Self {
        Self::with_capacity(query_id, TRACE_CAPACITY)
    }

    /// Creates a trace with an explicit ring capacity.
    pub fn with_capacity(query_id: u64, cap: usize) -> Self {
        Self(Arc::new(TraceBuf {
            query_id,
            cap: cap.max(1),
            clock: None,
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }))
    }

    /// Creates a trace driven by an explicit clock (deterministic tests).
    pub fn with_clock(query_id: u64, clock: Arc<dyn TelemetryClock>) -> Self {
        Self(Arc::new(TraceBuf {
            query_id,
            cap: TRACE_CAPACITY,
            clock: Some(clock),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }))
    }

    /// The query id this trace belongs to.
    pub fn query_id(&self) -> u64 {
        self.0.query_id
    }

    /// Records `event`, stamping it with the trace clock and mirroring it
    /// into the global flight recorder.
    pub fn record(&self, event: TraceEvent) {
        let at = match &self.0.clock {
            Some(c) => c.now_nanos(),
            None => now_nanos(),
        };
        flight::record(self.0.query_id, at, &event);
        let mut ring = self.0.ring.lock().unwrap();
        if ring.len() == self.0.cap {
            ring.pop_front();
            self.0.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(TraceEntry {
            at_nanos: at,
            event,
        });
    }

    /// Snapshots the timeline accumulated so far.
    pub fn finish(&self) -> QueryTrace {
        let ring = self.0.ring.lock().unwrap();
        QueryTrace {
            events: ring.iter().cloned().collect(),
            dropped: self.0.dropped.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Global flight recorder: a bounded lock-free ring of the most recent
/// events across all queries, dumped on faults for post-mortem analysis.
pub mod flight {
    use super::*;
    use std::sync::atomic::fence;

    /// Number of slots in the flight ring.
    pub const FLIGHT_CAPACITY: usize = 256;

    /// Event kind codes stored in the ring (index into [`KIND_LABELS`]).
    const KIND_LABELS: [&str; 15] = [
        "admission-priced",
        "queued",
        "shed-considered",
        "shed",
        "segment-start",
        "segment-stop",
        "stripe-quarantined",
        "pair-fallback",
        "retry",
        "watchdog-trip",
        "resume-token-issued",
        "resume-token-consumed",
        "store-shard-loaded",
        "store-chunk-corrupt",
        "store-quarantine",
    ];

    fn kind_code(event: &TraceEvent) -> u64 {
        match event {
            TraceEvent::AdmissionPriced { .. } => 0,
            TraceEvent::Queued { .. } => 1,
            TraceEvent::ShedConsidered { .. } => 2,
            TraceEvent::Shed { .. } => 3,
            TraceEvent::SegmentStart { .. } => 4,
            TraceEvent::SegmentStop { .. } => 5,
            TraceEvent::StripeQuarantined { .. } => 6,
            TraceEvent::PairFallback { .. } => 7,
            TraceEvent::Retry { .. } => 8,
            TraceEvent::WatchdogTrip => 9,
            TraceEvent::ResumeTokenIssued { .. } => 10,
            TraceEvent::ResumeTokenConsumed { .. } => 11,
            TraceEvent::StoreShardLoaded { .. } => 12,
            TraceEvent::StoreChunkCorrupt { .. } => 13,
            TraceEvent::StoreQuarantine { .. } => 14,
        }
    }

    struct Slot {
        // Seqlock per slot, in the fence form of Boehm (2012), "Can
        // seqlocks get along with programming language memory models?".
        // The writer of ticket `n` claims the slot by moving its seq
        // from an earlier ticket's even value to `2n + 1`, issues a
        // release fence, stores the fields and publishes `2n + 2`. A
        // reader loads the seq, then the fields, then issues an acquire
        // fence and loads the seq again; it accepts the slot only if
        // both loads saw `2n + 2`. A reader that saw any field of a
        // later write therefore sees that write's odd seq (or later) on
        // its second load. All fields are atomics, so no single field
        // tears and the protocol needs no unsafe code.
        seq: AtomicU64,
        at: AtomicU64,
        query: AtomicU64,
        kind: AtomicU64,
        a: AtomicU64,
        b: AtomicU64,
    }

    impl Slot {
        const fn new() -> Self {
            Self {
                seq: AtomicU64::new(0),
                at: AtomicU64::new(0),
                query: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            }
        }
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_SLOT: Slot = Slot::new();
    static RING: [Slot; FLIGHT_CAPACITY] = [EMPTY_SLOT; FLIGHT_CAPACITY];
    static HEAD: AtomicU64 = AtomicU64::new(0);

    /// One decoded record from the flight ring.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FlightRecord {
        /// Global sequence number (monotonic across the process).
        pub seq: u64,
        /// Timestamp in nanoseconds from the telemetry clock.
        pub at_nanos: u64,
        /// Query id the event belongs to (0 for non-query events).
        pub query: u64,
        /// Stable event-kind label.
        pub kind: &'static str,
        /// First packed payload word (event-specific).
        pub a: u64,
        /// Second packed payload word (event-specific).
        pub b: u64,
    }

    /// A dump of the flight ring taken at a fault.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FlightDump {
        /// Why the dump was taken (`"worker-fault"`, `"corrupt"`, `"watchdog"`).
        pub reason: &'static str,
        /// When the dump was taken.
        pub at_nanos: u64,
        /// Records in sequence order (oldest first).
        pub records: Vec<FlightRecord>,
    }

    static LAST_DUMP: Mutex<Option<FlightDump>> = Mutex::new(None);

    /// Writes one event into the ring (no-op when telemetry is disabled).
    pub(crate) fn record(query: u64, at: u64, event: &TraceEvent) {
        if !super::enabled() {
            return;
        }
        let (a, b) = event.pack();
        record_raw(query, at, kind_code(event), a, b);
    }

    /// Writes a raw record into the ring.  Used by `record` and by the
    /// store, which records corruption before any trace handle exists.
    ///
    /// The record is dropped when its slot is not free to claim: another
    /// writer is still in it, or a later ticket already reached it (this
    /// writer was descheduled for a whole lap of the ring).
    pub(crate) fn record_raw(query: u64, at: u64, kind: u64, a: u64, b: u64) {
        let ticket = HEAD.fetch_add(1, Ordering::Relaxed);
        let slot = &RING[(ticket as usize) % FLIGHT_CAPACITY];
        let claim = 2 * ticket + 1;
        let prev = slot.seq.load(Ordering::Relaxed);
        if prev % 2 == 1
            || prev >= claim
            || slot
                .seq
                .compare_exchange(prev, claim, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        slot.at.store(at, Ordering::Relaxed);
        slot.query.store(query, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
        super::metrics::FLIGHT_EVENTS.add(1);
    }

    /// Records a store-corruption event without a trace handle.
    pub(crate) fn record_corrupt(shard: u64, chunk: u64) {
        if !super::enabled() {
            return;
        }
        record_raw(0, super::now_nanos(), 13, shard, chunk);
    }

    /// Snapshots the ring contents in sequence order (oldest first).
    ///
    /// Slots being concurrently rewritten are skipped — the seqlock check
    /// rejects any slot whose sequence moved during the read.
    pub fn snapshot() -> Vec<FlightRecord> {
        let head = HEAD.load(Ordering::Acquire);
        let start = head.saturating_sub(FLIGHT_CAPACITY as u64);
        let mut out = Vec::new();
        for ticket in start..head {
            let slot = &RING[(ticket as usize) % FLIGHT_CAPACITY];
            let before = slot.seq.load(Ordering::Acquire);
            if before != 2 * ticket + 2 {
                continue;
            }
            let rec = FlightRecord {
                seq: ticket,
                at_nanos: slot.at.load(Ordering::Relaxed),
                query: slot.query.load(Ordering::Relaxed),
                kind: KIND_LABELS
                    [(slot.kind.load(Ordering::Relaxed) as usize).min(KIND_LABELS.len() - 1)],
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if after == before {
                out.push(rec);
            }
        }
        out
    }

    /// Dumps the current ring under `reason`, stores it as the last dump and
    /// returns the number of records captured.  No-op (returning 0) when
    /// telemetry is disabled.
    pub fn dump(reason: &'static str) -> usize {
        if !super::enabled() {
            return 0;
        }
        let records = snapshot();
        let n = records.len();
        let dump = FlightDump {
            reason,
            at_nanos: super::now_nanos(),
            records,
        };
        *LAST_DUMP.lock().unwrap() = Some(dump);
        super::metrics::FLIGHT_DUMPS.add(1);
        n
    }

    /// Returns a clone of the most recent dump, if any.
    pub fn last_dump() -> Option<FlightDump> {
        LAST_DUMP.lock().unwrap().clone()
    }

    /// Takes (and clears) the most recent dump.
    pub fn take_last_dump() -> Option<FlightDump> {
        LAST_DUMP.lock().unwrap().take()
    }

    /// Clears the ring head bookkeeping and last dump (test support).
    ///
    /// Slots themselves are left in place; `snapshot` only reads slots whose
    /// sequence matches the current head window, so stale slots are ignored.
    pub fn reset_for_test() {
        *LAST_DUMP.lock().unwrap() = None;
        // Advance HEAD past the capacity window so stale slots fail the
        // seqlock check (their stored seq belongs to old tickets).
        let head = HEAD.load(Ordering::Acquire);
        let aligned = head.saturating_add(FLIGHT_CAPACITY as u64);
        HEAD.store(aligned, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Unit tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight ring, its last dump and the enable flag are
    /// process-global: the tests that reset, dump or switch them off
    /// take turns, or one test's reset or disable hides another's
    /// records.
    fn flight_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn histogram_buckets_follow_bit_length() {
        let h = Histogram::new("t_h", "test");
        h.observe(0); // bucket 0 (le 1)
        h.observe(1); // bucket 1 (le 1)... bit length of 1 is 1
        h.observe(2); // bit length 2
        h.observe(3); // bit length 2
        h.observe(u64::MAX); // clamped to last bucket
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "zero lands in bucket 0");
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 6u64.wrapping_add(u64::MAX)); // sum wraps by design
    }

    #[test]
    fn prometheus_text_renders_cumulative_buckets() {
        let text = prometheus_text();
        assert!(text.contains("# TYPE rl_checkpoints_total counter"));
        assert!(text.contains("# TYPE rl_service_queue_depth gauge"));
        assert!(text.contains("rl_unit_cells_bucket{le=\"1\"}"));
        assert!(text.contains("rl_unit_cells_bucket{le=\"+Inf\"}"));
        assert!(text.contains("rl_unit_cells_sum"));
        assert!(text.contains("rl_unit_cells_count"));
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let json = json_snapshot();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"gauges\":{"));
        assert!(json.contains("\"histograms\":{"));
        assert!(json.contains("\"rl_checkpoints_total\":"));
        assert!(json.contains("\"rl_unit_cells\":{\"count\":"));
    }

    #[test]
    fn trace_ring_drops_oldest_when_full() {
        let t = TraceHandle::with_capacity(7, 2);
        t.record(TraceEvent::SegmentStart { attempt: 1 });
        t.record(TraceEvent::SegmentStop {
            stop: None,
            cells: 10,
        });
        t.record(TraceEvent::WatchdogTrip);
        let trace = t.finish();
        assert_eq!(trace.dropped, 1);
        assert_eq!(trace.kinds(), vec!["segment-stop", "watchdog-trip"]);
    }

    #[test]
    fn manual_clock_pins_timestamps() {
        let clock = Arc::new(ManualClock::at(100));
        let t = TraceHandle::with_clock(3, clock.clone());
        t.record(TraceEvent::SegmentStart { attempt: 1 });
        clock.advance(Duration::from_nanos(50));
        t.record(TraceEvent::SegmentStop {
            stop: None,
            cells: 5,
        });
        let trace = t.finish();
        assert_eq!(trace.events[0].at_nanos, 100);
        assert_eq!(trace.events[1].at_nanos, 150);
    }

    #[test]
    fn flight_snapshot_returns_sequence_order() {
        let _flight = flight_lock();
        flight::reset_for_test();
        let t = TraceHandle::with_clock(9, Arc::new(ManualClock::at(1)));
        t.record(TraceEvent::SegmentStart { attempt: 1 });
        t.record(TraceEvent::WatchdogTrip);
        let recs = flight::snapshot();
        let ours: Vec<_> = recs.iter().filter(|r| r.query == 9).collect();
        assert_eq!(ours.len(), 2);
        assert!(ours[0].seq < ours[1].seq);
        assert_eq!(ours[0].kind, "segment-start");
        assert_eq!(ours[1].kind, "watchdog-trip");
    }

    #[test]
    fn dump_stores_last_dump() {
        let _flight = flight_lock();
        flight::reset_for_test();
        let t = TraceHandle::with_clock(11, Arc::new(ManualClock::at(5)));
        t.record(TraceEvent::StripeQuarantined { members: 4 });
        let n = flight::dump("worker-fault");
        assert!(n >= 1);
        let d = flight::take_last_dump().expect("dump stored");
        assert_eq!(d.reason, "worker-fault");
        assert!(d
            .records
            .iter()
            .any(|r| r.query == 11 && r.kind == "stripe-quarantined"));
        assert!(flight::last_dump().is_none());
    }

    #[test]
    fn disabling_telemetry_skips_recording() {
        let _flight = flight_lock();
        let prior = set_enabled(false);
        flight::reset_for_test();
        let before = metrics::FLIGHT_EVENTS.get();
        let t = TraceHandle::new(21);
        t.record(TraceEvent::WatchdogTrip);
        // The per-query ring still records (it is the query's own report)...
        assert_eq!(t.finish().events.len(), 1);
        // ...but the flight recorder mirror is skipped.
        assert_eq!(metrics::FLIGHT_EVENTS.get(), before);
        assert_eq!(flight::dump("worker-fault"), 0);
        set_enabled(prior);
    }

    #[test]
    fn snapshot_lookup_helpers() {
        metrics::CHECKPOINTS.add(3);
        let s = Snapshot::capture();
        assert!(s.counter("rl_checkpoints_total").unwrap() >= 3);
        assert!(s.gauge("rl_service_queue_depth").is_some());
        assert!(s.histogram("rl_unit_cells").is_some());
        assert!(s.counter("no_such_metric").is_none());
    }
}
