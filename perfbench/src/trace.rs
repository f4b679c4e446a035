//! The traced run: requests one at a time with in-memory spans recorded
//! around each call into a layer, then a replay of the same query
//! through the layers' direct entry points.
//!
//! Span tree per request (`request` ids tie a request to its replay):
//!
//! ```text
//! request
//!   store.open              (store_session, first query of a session)
//!   service.submit          ScanService::try_submit
//!   service.wait            QueryHandle::wait
//! replay
//!   early_termination.scan       scan_packed_topk_resumable (same workers)
//!   store.scan                   scan_store_topk_resumable (store_session)
//!   early_termination.estimate   estimate_scan_cells / estimate_store_scan_cells
//!   engine.plan                  batch_plan_stats over the query × entry pairs
//!   engine.align_batch           align_batch_refs, unratcheted
//! ```

use std::sync::Arc;
use std::time::Instant;

use race_logic::early_termination::{estimate_scan_cells, scan_packed_topk_resumable};
use race_logic::engine::{align_batch_refs, batch_plan_stats, BatchPlanStats};
use race_logic::store::{estimate_store_scan_cells, scan_store_topk_resumable, StoreTarget};
use race_logic::supervisor::{ScanControl, ScanOutcome};
use race_logic::telemetry::Snapshot;
use rl_bio::{Dna, PackedSeq};

use crate::bench::{Bench, Tally};
use crate::json::Json;

/// Telemetry counters whose per-request deltas the traced run reports.
pub const TELEMETRY_COUNTERS: [(&str, &str); 4] = [
    ("telemetry.stripe_units", "rl_stripe_units_total"),
    ("telemetry.unit_pairs", "rl_unit_pairs_total"),
    ("telemetry.checkpoints", "rl_checkpoints_total"),
    (
        "telemetry.ratchet_observations",
        "rl_ratchet_observations_total",
    ),
];

/// One span: a layer call's interval, its parent, its request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a child span of `parent`; returns `f`'s value and
    /// the span's duration in milliseconds.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), self.spans[parent].request);
        let value = f();
        self.close(id);
        (value, self.spans[id].ms())
    }

    /// A span's duration minus the time its children cover (children
    /// run one after another, so they never overlap).
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("request", s.request);
                    if let Some(parent) = s.parent {
                        o.set("parent", parent);
                    }
                    o
                })
                .collect(),
        )
    }
}

/// What one traced request and its replay measured.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub request_span: usize,
    pub request_ms: f64,
    pub first_of_session: bool,
    pub open_ms: f64,
    pub submit_ms: f64,
    pub wait_ms: f64,
    pub estimate_ms: f64,
    pub plan_ms: f64,
    pub scan_ms: f64,
    pub store_scan_ms: f64,
    pub align_ms: f64,
    pub planned: u64,
    pub computed: u64,
    pub abandoned: u64,
    pub pairs: u64,
    pub plan: BatchPlanStats,
    pub batch_cells: u64,
    pub chunks_loaded: u64,
    pub chunk_cache_hits: u64,
    pub verify_failures: u64,
    pub telemetry: [u64; 4],
}

/// The traced phase's product: spans, per-request samples, and the
/// untraced twin's request times for the overhead ratio.
pub struct Traced {
    pub rec: Recorder,
    pub samples: Vec<Sample>,
    pub traced_ms: f64,
    pub untraced_ms: f64,
}

/// Runs `spec.traced_requests` requests one at a time, in units of one
/// request (one session for a store workload). Each unit runs twice, once
/// untraced and once traced, alternating which goes first, so
/// `traced_ms / untraced_ms` is the tracing overhead.
pub fn traced_phase(bench: &Bench, tally: &mut Tally) -> Traced {
    let unit = bench.spec.session.unwrap_or(1);
    let mut out = Traced {
        rec: Recorder::new(),
        samples: Vec::new(),
        traced_ms: 0.0,
        untraced_ms: 0.0,
    };
    for u in 0..bench.spec.traced_requests / unit {
        let first = u * unit;
        let traced_first = u % 2 == 1;
        if traced_first {
            traced_unit(bench, first, unit, tally, &mut out);
        }
        out.untraced_ms += untraced_unit(bench, first, unit, tally);
        if !traced_first {
            traced_unit(bench, first, unit, tally, &mut out);
        }
    }
    out
}

fn untraced_unit(bench: &Bench, first: usize, unit: usize, tally: &mut Tally) -> f64 {
    let mut target = None;
    let mut total = 0.0;
    for i in first..first + unit {
        let qi = i % bench.queries.len();
        let t = Instant::now();
        if bench.store.is_some() && i == first {
            target = Some(bench.open_target());
        }
        let handle = bench
            .service
            .try_submit(bench.request(qi, target.as_ref()))
            .expect("one request at a time is always admitted");
        let result = handle.wait();
        total += t.elapsed().as_secs_f64() * 1e3;
        bench.judge(qi, &result, tally);
    }
    total
}

fn traced_unit(bench: &Bench, first: usize, unit: usize, tally: &mut Tally, out: &mut Traced) {
    let mut target: Option<Arc<StoreTarget<Dna>>> = None;
    for i in first..first + unit {
        let qi = i % bench.queries.len();
        let rid = i as u64;
        let mut s = Sample {
            first_of_session: bench.store.is_some() && i == first,
            ..Sample::default()
        };
        let before = Snapshot::capture();
        let rec = &mut out.rec;
        let req = rec.open("request", None, rid);
        if s.first_of_session {
            let (t, ms) = rec.child("store.open", req, || bench.open_target());
            target = Some(t);
            s.open_ms = ms;
        }
        let (handle, submit_ms) = rec.child("service.submit", req, || {
            bench.service.try_submit(bench.request(qi, target.as_ref()))
        });
        let handle = handle.expect("one request at a time is always admitted");
        let (result, wait_ms) = rec.child("service.wait", req, || handle.wait());
        rec.close(req);
        let after = Snapshot::capture();
        (s.request_span, s.request_ms, s.submit_ms, s.wait_ms) =
            (req, rec.spans[req].ms(), submit_ms, wait_ms);
        out.traced_ms += s.request_ms;
        bench.judge(qi, &result, tally);
        for (slot, (_, counter)) in s.telemetry.iter_mut().zip(TELEMETRY_COUNTERS) {
            *slot = after.counter(counter).unwrap_or(0) - before.counter(counter).unwrap_or(0);
        }
        replay(bench, qi, rid, target.as_ref(), &mut s, tally, rec);
        out.samples.push(s);
    }
}

/// Replays query `qi` through each layer's direct entry point.
fn replay(
    bench: &Bench,
    qi: usize,
    rid: u64,
    session: Option<&Arc<StoreTarget<Dna>>>,
    s: &mut Sample,
    tally: &mut Tally,
    rec: &mut Recorder,
) {
    let q = &bench.queries[qi];
    let db: &[PackedSeq<Dna>] = &bench.db;
    let root = rec.open("replay", None, rid);
    // The direct scans come first, so they meet the caches in the state
    // the service's scan left them.
    let (scan, scan_ms) = rec.child("early_termination.scan", root, || {
        scan_packed_topk_resumable(
            &q.cfg,
            &q.seq,
            db,
            q.k,
            Some(bench.workers),
            &ScanControl::new(),
        )
    });
    s.scan_ms = scan_ms;
    let outcome = scan.expect("a valid scan").0;
    check(bench, qi, &outcome, tally);
    (s.computed, s.abandoned, s.pairs) = (
        outcome.cells_computed,
        outcome.abandoned as u64,
        outcome.total_pairs as u64,
    );
    if let Some(session) = session {
        // The direct store scan sees the store in the state the service
        // saw it: cold for a session's first query, warm after.
        let target = if s.first_of_session {
            bench.open_target()
        } else {
            Arc::clone(session)
        };
        let store = target.store();
        let (loaded, hits, failures) = (
            store.chunks_loaded(),
            store.chunk_cache_hits(),
            store.verify_failures(),
        );
        let (scan, ms) = rec.child("store.scan", root, || {
            scan_store_topk_resumable(
                &q.cfg,
                &q.seq,
                &target,
                q.k,
                Some(bench.workers),
                &ScanControl::new(),
            )
        });
        s.store_scan_ms = ms;
        check(bench, qi, &scan.expect("a valid store scan").0, tally);
        s.chunks_loaded = store.chunks_loaded() - loaded;
        s.chunk_cache_hits = store.chunk_cache_hits() - hits;
        s.verify_failures = store.verify_failures() - failures;
    }
    (s.planned, s.estimate_ms) = rec.child("early_termination.estimate", root, || match session {
        Some(t) => estimate_store_scan_cells(&q.cfg, &q.seq, t.store(), None),
        None => estimate_scan_cells(&q.cfg, &q.seq, db),
    });
    let owned: Vec<_> = db.iter().map(|p| (q.seq.clone(), p.clone())).collect();
    (s.plan, s.plan_ms) = rec.child("engine.plan", root, || batch_plan_stats(&q.cfg, &owned));
    drop(owned);
    let refs: Vec<_> = db.iter().map(|p| (&q.seq, p)).collect();
    let (outcomes, align_ms) = rec.child("engine.align_batch", root, || {
        align_batch_refs(&q.cfg, &refs)
    });
    s.align_ms = align_ms;
    s.batch_cells = outcomes.iter().map(|o| o.cells_computed).sum();
    rec.close(root);
}

fn check(bench: &Bench, qi: usize, outcome: &ScanOutcome, tally: &mut Tally) {
    tally.attempted += 1;
    if !outcome.is_complete() || outcome.hits != bench.oracle[qi] {
        tally.failed += 1;
        tally.mismatched += 1;
    }
}
