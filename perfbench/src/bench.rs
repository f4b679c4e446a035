//! Set-up, the correctness oracle, and the two load generators (closed
//! and open loop) that drive the scan service from outside.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use race_logic::early_termination::{estimate_scan_cells, scan_packed_topk_with};
use race_logic::service::{
    QueryError, QueryHandle, QueryReport, ScanRequest, ScanService, ServiceConfig, SubmitError,
};
use race_logic::store::{
    build_store, scan_store_topk_resumable, PackedStore, StoreParams, StoreTarget,
};
use race_logic::supervisor::ScanControl;
use rl_bio::{Dna, PackedSeq, Seq};

use crate::stats::mean;
use crate::workload::{Inputs, Query, Spec};

pub type Hits = Vec<(usize, u64)>;

/// Outcome counts of every request a phase attempted.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub rejected: u64,
    pub shed: u64,
    pub errored: u64,
    pub incomplete: u64,
    pub mismatched: u64,
    /// Σ (attempts − 1) over finished queries.
    pub retries: u64,
    /// Σ ledger faults over finished queries.
    pub faults: u64,
}

impl Tally {
    /// Records a request [`ScanService::try_submit`] refused.
    pub fn refused(&mut self, err: &SubmitError) {
        self.attempted += 1;
        self.failed += 1;
        match err {
            SubmitError::Overloaded { .. } => self.overloaded += 1,
            SubmitError::Rejected { .. } | SubmitError::ShuttingDown => self.rejected += 1,
        }
    }
}

/// The on-disk store of the `store_session` workload, removed on drop.
#[derive(Debug)]
pub struct StoreFile {
    dir: PathBuf,
    pub path: PathBuf,
    pub bytes: u64,
    /// Each set-up repetition's `build_store` time, seconds.
    pub build_s: Vec<f64>,
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A workload made ready: database, running service, oracle answers.
pub struct Bench {
    pub spec: &'static Spec,
    /// The generated entries, kept for further timed set-ups.
    entries: Vec<Seq<Dna>>,
    pub queries: Vec<Query>,
    pub db: Arc<Vec<PackedSeq<Dna>>>,
    pub store: Option<StoreFile>,
    pub service: ScanService<Dna>,
    /// Scan workers per query, and requests the closed loop keeps in
    /// flight: the host's core count.
    pub workers: usize,
    /// Each distinct query's top-k from a sequential scan.
    pub oracle: Vec<Hits>,
    /// Each distinct query's planned DP cells.
    pub planned: Vec<u64>,
    /// Each timed set-up's duration, seconds.
    pub setup_s: Vec<f64>,
}

impl Bench {
    /// Makes the database ready (timed) and computes the oracle
    /// (untimed). `out_dir` holds the store file, if the workload has one.
    pub fn new(
        spec: &'static Spec,
        inputs: Inputs,
        workers: usize,
        out_dir: &std::path::Path,
    ) -> Result<Self, String> {
        let service_cfg = ServiceConfig::default().with_workers(workers);
        let (setup, db, store, service) = if spec.session.is_none() {
            let t = Instant::now();
            let db = pack(&inputs.entries);
            let service = ScanService::new(service_cfg);
            (t.elapsed().as_secs_f64(), db, None, service)
        } else {
            // Packing is the input of `build_store`, not part of its set-up.
            let db = pack(&inputs.entries);
            let dir = out_dir.join(format!("{}-{}", spec.name, std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let mut file = StoreFile {
                path: dir.join("db.rlpk"),
                dir,
                bytes: 0,
                build_s: Vec::new(),
            };
            let setup = build_and_open(&file.path, &db, &mut file.build_s)?;
            file.bytes = std::fs::metadata(&file.path)
                .map_err(|e| format!("stat store: {e}"))?
                .len();
            (setup, db, Some(file), ScanService::new(service_cfg))
        };
        let oracle = oracle(&inputs.queries, &db, workers);
        let planned = inputs
            .queries
            .iter()
            .map(|q| estimate_scan_cells(&q.cfg, &q.seq, &db))
            .collect();
        Ok(Bench {
            spec,
            entries: inputs.entries,
            queries: inputs.queries,
            db,
            store,
            service,
            workers,
            oracle,
            planned,
            setup_s: vec![setup],
        })
    }

    /// Times `reps` more set-ups like the first and throws their products
    /// away. Runs call it between phases, so `setup_s` (their median)
    /// samples the host at several points of the run.
    pub fn time_setup(&mut self, reps: usize) -> Result<(), String> {
        for _ in 0..reps {
            let secs = match &mut self.store {
                None => {
                    let t = Instant::now();
                    let ready = (
                        pack(&self.entries),
                        ScanService::<Dna>::new(
                            ServiceConfig::default().with_workers(self.workers),
                        ),
                    );
                    let secs = t.elapsed().as_secs_f64();
                    // Dropping the service joins its thread, untimed.
                    drop(ready);
                    secs
                }
                Some(file) => {
                    let path = file.dir.join("setup.rlpk");
                    build_and_open(&path, &self.db, &mut file.build_s)?
                }
            };
            self.setup_s.push(secs);
        }
        Ok(())
    }

    /// Opens the store fresh: `open_validated` and a new target, so the
    /// chunk cache starts cold.
    pub fn open_target(&self) -> Arc<StoreTarget<Dna>> {
        let file = self.store.as_ref().expect("a store workload");
        let store = PackedStore::open_validated(&file.path).expect("the built store opens");
        Arc::new(StoreTarget::new(Arc::new(store)))
    }

    /// The request for distinct query `qi`, against `target` when given,
    /// else against the in-memory database.
    pub fn request(&self, qi: usize, target: Option<&Arc<StoreTarget<Dna>>>) -> ScanRequest<Dna> {
        let q = &self.queries[qi];
        match target {
            Some(t) => ScanRequest::from_store(q.cfg, q.seq.clone(), Arc::clone(t), q.k),
            None => ScanRequest::new(q.cfg, q.seq.clone(), Arc::clone(&self.db), q.k),
        }
    }

    /// Scores one finished query against the oracle; `true` when it
    /// completed with exactly the oracle's top-k.
    pub fn judge(
        &self,
        qi: usize,
        result: &Result<QueryReport, QueryError>,
        tally: &mut Tally,
    ) -> bool {
        tally.attempted += 1;
        let ok = match result {
            Ok(report) => {
                tally.retries += u64::from(report.attempts.saturating_sub(1));
                tally.faults += report.outcome.faults.len() as u64;
                if !report.outcome.is_complete() {
                    tally.incomplete += 1;
                    false
                } else if report.outcome.hits != self.oracle[qi] {
                    tally.mismatched += 1;
                    false
                } else {
                    true
                }
            }
            Err(QueryError::Shed { .. }) => {
                tally.shed += 1;
                false
            }
            Err(QueryError::Failed { .. }) => {
                tally.errored += 1;
                false
            }
        };
        if !ok {
            tally.failed += 1;
        }
        ok
    }

    /// One untimed cold store scan, sequential: the store-layer counts of
    /// the work gate, and a check that the store answers like the oracle.
    pub fn store_probe(&self) -> Option<(u64, u64, bool)> {
        self.store.as_ref()?;
        let target = self.open_target();
        let q = &self.queries[0];
        let (outcome, _) =
            scan_store_topk_resumable(&q.cfg, &q.seq, &target, q.k, Some(1), &ScanControl::new())
                .expect("a valid store scan");
        let store = target.store();
        Some((
            store.chunks_loaded(),
            store.verify_failures(),
            outcome.is_complete() && outcome.hits == self.oracle[0],
        ))
    }

    /// Closed loop: keeps `workers` requests in flight for `dur`, then
    /// drains. Counts the queries that completed correctly and their
    /// planned cells.
    pub fn closed_loop(&self, dur: Duration, tally: &mut Tally) -> ClosedLoop {
        let mut sessions = Sessions::default();
        let mut inflight: VecDeque<(usize, QueryHandle)> = VecDeque::new();
        let mut out = ClosedLoop::default();
        let start = Instant::now();
        let mut next = 0;
        loop {
            while inflight.len() < self.workers && start.elapsed() < dur {
                let qi = next % self.queries.len();
                let target = sessions.target_for(self, next);
                next += 1;
                match self.service.try_submit(self.request(qi, target.as_ref())) {
                    Ok(handle) => inflight.push_back((qi, handle)),
                    Err(e) => tally.refused(&e),
                }
            }
            let Some((qi, handle)) = inflight.pop_front() else {
                break;
            };
            if self.judge(qi, &handle.wait(), tally) {
                out.completed += 1;
                out.planned_cells += self.planned[qi];
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }

    /// Open loop: submits request `i` at `due[i]` seconds after start
    /// from a generator thread, whatever the backlog, while this thread
    /// waits for each reply in submission order (the service finishes
    /// queries in that order). A request is timed from when it was due.
    pub fn open_loop(&self, due: &[f64], tally: &mut Tally) -> OpenLoop {
        let (tx, rx) = mpsc::channel::<(usize, Instant, Result<QueryHandle, SubmitError>)>();
        let finished = AtomicUsize::new(0);
        let start = Instant::now() + Duration::from_millis(2);
        let mut out = OpenLoop::default();
        std::thread::scope(|s| {
            let generator = s.spawn(|| {
                let tx = tx;
                let mut sessions = Sessions::default();
                let mut lag_ms = Vec::with_capacity(due.len());
                let mut backlog = Vec::with_capacity(due.len());
                for (i, &t) in due.iter().enumerate() {
                    let at = start + Duration::from_secs_f64(t);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    lag_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    backlog.push(i - finished.load(Ordering::Relaxed));
                    let qi = i % self.queries.len();
                    let target = sessions.target_for(self, i);
                    let sent = self.service.try_submit(self.request(qi, target.as_ref()));
                    if tx.send((qi, at, sent)).is_err() {
                        break;
                    }
                }
                (lag_ms, backlog)
            });
            for (qi, at, sent) in rx {
                let latency_ms = match sent {
                    Ok(handle) => {
                        let result = handle.wait();
                        let ms = at.elapsed().as_secs_f64() * 1e3;
                        if self.judge(qi, &result, tally) {
                            ms
                        } else {
                            f64::INFINITY
                        }
                    }
                    Err(e) => {
                        tally.refused(&e);
                        f64::INFINITY
                    }
                };
                finished.fetch_add(1, Ordering::Relaxed);
                out.latency_ms.push(latency_ms);
            }
            (out.gen_lag_ms, out.backlog) = generator.join().expect("generator thread");
        });
        out.wall_s = start.elapsed().as_secs_f64();
        out.grew = out.backlog_grew();
        out
    }
}

/// The store session a request belongs to: request `i` of a store
/// workload opens a fresh target when it starts a session, and the
/// session's later requests reuse it.
#[derive(Default)]
pub struct Sessions {
    current: Option<Arc<StoreTarget<Dna>>>,
}

impl Sessions {
    pub fn target_for(&mut self, bench: &Bench, i: usize) -> Option<Arc<StoreTarget<Dna>>> {
        let len = bench.spec.session?;
        if i.is_multiple_of(len) || self.current.is_none() {
            self.current = Some(bench.open_target());
        }
        self.current.clone()
    }
}

#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub completed: u64,
    pub planned_cells: u64,
    pub wall_s: f64,
}

#[derive(Debug, Default)]
pub struct OpenLoop {
    /// One per attempted request; `+∞` for a failed one.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request.
    pub gen_lag_ms: Vec<f64>,
    /// Requests submitted but not yet answered, seen at each arrival.
    pub backlog: Vec<usize>,
    /// Whether the backlog of any episode grew through it.
    pub grew: bool,
    pub wall_s: f64,
}

impl OpenLoop {
    /// Pools another episode's samples into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.latency_ms.extend(other.latency_ms);
        self.gen_lag_ms.extend(other.gen_lag_ms);
        self.backlog.extend(other.backlog);
        self.grew |= other.grew;
        self.wall_s += other.wall_s;
    }

    /// `true` when the backlog grew through the run — the rate is beyond
    /// capacity and the latencies describe a queue still filling, so the
    /// run is invalid. Compares the mean backlog over the last quarter
    /// of arrivals with the first quarter's.
    fn backlog_grew(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q < 8 {
            return false;
        }
        let as_f64 = |s: &[usize]| s.iter().map(|&b| b as f64).collect::<Vec<_>>();
        let first = mean(&as_f64(&self.backlog[..q]));
        let last = mean(&as_f64(&self.backlog[self.backlog.len() - q..]));
        last > 2.0 * first + 4.0
    }
}

fn pack(entries: &[Seq<Dna>]) -> Arc<Vec<PackedSeq<Dna>>> {
    Arc::new(entries.iter().map(PackedSeq::from_seq).collect())
}

/// The store workload's set-up: `build_store` plus the first
/// `open_validated`. Returns its seconds and appends the build's to
/// `build_s`.
fn build_and_open(
    path: &std::path::Path,
    db: &[PackedSeq<Dna>],
    build_s: &mut Vec<f64>,
) -> Result<f64, String> {
    let t = Instant::now();
    build_store(path, db, &StoreParams::default()).map_err(|e| format!("build_store: {e}"))?;
    build_s.push(t.elapsed().as_secs_f64());
    PackedStore::<Dna>::open_validated(path).map_err(|e| format!("open_validated: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Each query's top-k from a sequential scan (`workers = Some(1)`),
/// queries spread over `threads` threads.
fn oracle(queries: &[Query], db: &[PackedSeq<Dna>], threads: usize) -> Vec<Hits> {
    let threads = threads.max(1);
    let mut out = vec![Vec::new(); queries.len()];
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..queries.len())
                        .step_by(threads)
                        .map(|i| {
                            let q = &queries[i];
                            (
                                i,
                                scan_packed_topk_with(&q.cfg, &q.seq, db, q.k, Some(1)).hits,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for part in parts {
            for (i, hits) in part.join().expect("oracle thread") {
                out[i] = hits;
            }
        }
    });
    out
}
