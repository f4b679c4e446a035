//! Scan-service benchmark. Runs one workload at one seed against the
//! public `race_logic` API, checks every answer against a sequential
//! oracle, and prints one JSON result line last. See `README.md` beside
//! this crate for the workloads, the metrics and how to read a trace.

mod bench;
mod json;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use race_logic::engine::{batch_plan_stats, BatchPlanStats};
use race_logic::telemetry;

use crate::bench::{Bench, OpenLoop, Tally};
use crate::json::Json;
use crate::stats::{beyond, median, quantile};
use crate::trace::{Sample, Traced, TELEMETRY_COUNTERS};
use crate::workload::{generate, poisson_schedule, Spec};

const USAGE: &str = "usage: perfbench --workload <scan_long|scan_short|store_session> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where run records and the store file go, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".bench_out";

/// The traced run's check: the time a traced request spends outside its
/// child spans, summed over requests, as a share of the summed request
/// time, must stay below this.
const TRACE_TOLERANCE: f64 = 0.02;

/// Closed-loop/open-loop episode pairs per untraced run.
const EPISODES: usize = 6;

/// Timed set-ups before each episode (the traced run times as many).
const SETUP_REPS: usize = 3;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = workload::spec(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut bench = Bench::new(args.spec, generate(args.spec, args.seed), workers, out_dir)?;
    let probe = bench.store_probe();
    let work = work_counts(&bench, probe);
    let mut tally = Tally::default();
    let mut checks_ok = probe.is_none_or(|(_, _, ok)| ok);

    let mut record = run_record(args, &bench);
    let (metrics, open) = if args.trace {
        bench.time_setup(SETUP_REPS * EPISODES)?;
        let due = poisson_schedule(args.seed, 0, args.spec.open_rate, args.seconds / 2.0);
        let open = bench.open_loop(&due, &mut tally);
        let traced = trace::traced_phase(&bench, &mut tally);
        let metrics = layer_metrics(&bench, &open, &traced, &tally);
        let unaccounted = metrics
            .iter()
            .find(|m| m.name == "trace.unaccounted_frac")
            .map_or(f64::NAN, |m| m.value);
        if unaccounted.is_nan() || unaccounted > TRACE_TOLERANCE {
            eprintln!(
                "perfbench: traced requests spent {:.2}% outside their layer spans \
                 (tolerance {:.0}%)",
                unaccounted * 100.0,
                TRACE_TOLERANCE * 100.0
            );
            checks_ok = false;
        }
        print_layers(&traced);
        record.set("advisory", advisory_counts(&traced));
        record.set("spans", traced.rec.to_json());
        (metrics, open)
    } else {
        // Closed- and open-loop episodes alternate, with set-ups timed
        // between them, so a slow spell of the host lands on every metric
        // alike. Throughput pools the closed-loop episodes.
        let mut open = OpenLoop::default();
        let (mut completed, mut cells, mut closed_s) = (0, 0, 0.0);
        let mut qps = Vec::new();
        for episode in 0..EPISODES {
            bench.time_setup(SETUP_REPS)?;
            let closed = bench.closed_loop(
                Duration::from_secs_f64(args.seconds / 2.0 / EPISODES as f64),
                &mut tally,
            );
            completed += closed.completed;
            cells += closed.planned_cells;
            closed_s += closed.wall_s;
            qps.push(closed.completed as f64 / closed.wall_s);
            let due = poisson_schedule(
                args.seed,
                episode as u64,
                args.spec.open_rate,
                args.seconds / 2.0 / EPISODES as f64,
            );
            open.absorb(bench.open_loop(&due, &mut tally));
        }
        let attempted = tally.attempted as f64;
        let metrics = vec![
            m("queries_per_s", completed as f64 / closed_s, "1/s"),
            m("gcups", cells as f64 / closed_s / 1e9, "GCUPS"),
            m("latency_p50_ms", quantile(&open.latency_ms, 0.5), "ms"),
            m("setup_s", median(&bench.setup_s), "s"),
            m(
                "completed_frac",
                (attempted - tally.failed as f64) / attempted,
                "fraction",
            ),
            m("rss_peak_mb", rss_peak_mb(), "MB"),
        ];
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let mut e = Json::obj();
        e.set("in_flight", bench.workers)
            .set("closed_completed", completed)
            .set("closed_planned_cells", cells)
            .set("closed_wall_s", closed_s)
            .set("queries_per_s", nums(&qps))
            .set("setup_s", nums(&bench.setup_s));
        record.set("episodes", e);
        (metrics, open)
    };

    let mut o = Json::obj();
    o.set("rate_per_s", args.spec.open_rate)
        .set("samples", open.latency_ms.len())
        .set("latency_p50_ms", quantile(&open.latency_ms, 0.5))
        .set("latency_p99_ms", quantile(&open.latency_ms, 0.99))
        .set("beyond_p99", beyond(&open.latency_ms, 0.99))
        .set("gen_lag_p50_ms", quantile(&open.gen_lag_ms, 0.5))
        .set("gen_lag_p99_ms", quantile(&open.gen_lag_ms, 0.99))
        .set(
            "backlog_max",
            open.backlog.iter().copied().max().unwrap_or(0),
        )
        .set("backlog_grew", open.grew)
        .set("wall_s", open.wall_s);
    record.set("open_loop", o);
    record.set("work", work);
    record.set("tally", tally_json(&tally));
    let mut metrics_json = Json::obj();
    for metric in &metrics {
        let mut v = Json::obj();
        v.set("value", metric.value).set("unit", metric.unit);
        metrics_json.set(metric.name, v);
    }
    record.set("metrics", metrics_json.clone());
    let record_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record.render() + "\n")
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;

    if open.grew {
        return Err(format!(
            "open-loop backlog grew through the run at {} requests/s (max {}); the rate \
             exceeds capacity, so its latencies are not reported (record: {})",
            args.spec.open_rate,
            open.backlog.iter().copied().max().unwrap_or(0),
            record_path.display()
        ));
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} is not finite: a request failed or nothing ran",
            bad.name
        ));
    }

    println!(
        "workload {} seed {} trace {} | nproc {} | open loop at {}/s: {} samples, \
         p99 {:.3} ms with {} beyond, generator lag p99 {:.3} ms | record {}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        bench.workers,
        args.spec.open_rate,
        open.latency_ms.len(),
        quantile(&open.latency_ms, 0.99),
        beyond(&open.latency_ms, 0.99),
        quantile(&open.gen_lag_ms, 0.99),
        record_path.display()
    );
    for metric in &metrics {
        println!(
            "  {:<36} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let mut result = Json::obj();
    result
        .set("correct", checks_ok && tally.failed == 0)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", metrics_json);
    println!("{}", result.render());
    Ok(())
}

/// Names the host and program a result came from.
fn run_record(args: &Args, bench: &Bench) -> Json {
    let mut r = Json::obj();
    r.set("workload", args.spec.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("git_commit", git_commit())
        .set("source_xxh64", format!("{:016x}", source_hash()))
        .set("nproc", bench.workers)
        .set("scan_workers", bench.workers)
        .set("cpu_model", cpu_model())
        .set("telemetry_enabled", telemetry::enabled())
        .set(
            "rayon_num_threads",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        );
    let mut top = Json::obj();
    top.set("record", r);
    top
}

/// The counts that must repeat exactly across runs of the same code at
/// the same seed: planned cells and the batch plan of every distinct
/// query, and the store's layout and cold-scan chunk loads (`probe`).
fn work_counts(bench: &Bench, probe: Option<(u64, u64, bool)>) -> Json {
    let mut plan = BatchPlanStats::default();
    for q in &bench.queries {
        let pairs: Vec<_> = bench
            .db
            .iter()
            .map(|p| (q.seq.clone(), p.clone()))
            .collect();
        let p = batch_plan_stats(&q.cfg, &pairs);
        plan.pairs += p.pairs;
        plan.wavefront_eligible += p.wavefront_eligible;
        plan.striped_pairs += p.striped_pairs;
        plan.stripes += p.stripes;
        plan.half_width_stripes += p.half_width_stripes;
        plan.useful_cells += p.useful_cells;
        plan.swept_cells += p.swept_cells;
    }
    let mut w = Json::obj();
    w.set("queries", bench.queries.len())
        .set("cells_planned", bench.planned.iter().sum::<u64>())
        .set("pairs", plan.pairs)
        .set("wavefront_eligible", plan.wavefront_eligible)
        .set("striped_pairs", plan.striped_pairs)
        .set("stripes", plan.stripes)
        .set("half_width_stripes", plan.half_width_stripes)
        .set("useful_cells", plan.useful_cells)
        .set("swept_cells", plan.swept_cells);
    if let (Some(store), Some((chunks, failures, _))) = (&bench.store, probe) {
        w.set("store_file_bytes", store.bytes)
            .set("store_residues", residues(bench))
            .set("store_chunks_per_cold_scan", chunks)
            .set("store_verify_failures", failures);
    }
    w
}

/// Counts that depend on thread interleaving: reported, never gated.
fn advisory_counts(traced: &Traced) -> Json {
    let sum = |f: fn(&Sample) -> u64| traced.samples.iter().map(f).sum::<u64>();
    let mut a = Json::obj();
    a.set("cells_computed", sum(|s| s.computed))
        .set("abandoned", sum(|s| s.abandoned))
        .set("ratchet_observations", sum(|s| s.telemetry[3]));
    a
}

fn residues(bench: &Bench) -> u64 {
    bench.db.iter().map(|p| p.len() as u64).sum()
}

fn layer_metrics(bench: &Bench, open: &OpenLoop, traced: &Traced, tally: &Tally) -> Vec<Metric> {
    let samples = &traced.samples;
    let n = samples.len() as f64;
    let col = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: &dyn Fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let cold: Vec<&Sample> = samples.iter().filter(|s| s.first_of_session).collect();
    let cold_median = |f: &dyn Fn(&Sample) -> f64| {
        if cold.is_empty() {
            0.0
        } else {
            median(&cold.iter().map(|s| f(s)).collect::<Vec<f64>>())
        }
    };
    let cold_mean = |f: &dyn Fn(&Sample) -> u64| {
        ratio(
            cold.iter().map(|s| f(s)).sum::<u64>() as f64,
            cold.len() as f64,
        )
    };
    let request_ms = col(&|s| s.request_ms);
    // The direct scan of the same query, on the same kind of source in the
    // same cache state as the service's.
    let direct_ms = |s: &Sample| {
        if bench.store.is_some() {
            s.store_scan_ms
        } else {
            s.scan_ms
        }
    };
    let plan = |f: &dyn Fn(&race_logic::engine::BatchPlanStats) -> usize| {
        samples.iter().map(|s| f(&s.plan) as f64).sum::<f64>()
    };
    let unaccounted: f64 = samples
        .iter()
        .map(|s| traced.rec.self_ms(s.request_span))
        .sum();
    let store_bytes = bench.store.as_ref().map_or(0, |s| s.bytes);
    let mut out = vec![
        m(
            "service.submit_us",
            median(&col(&|s| s.submit_ms)) * 1e3,
            "us",
        ),
        m(
            "service.self_ms",
            median(&col(&|s| s.submit_ms + s.wait_ms - direct_ms(s))),
            "ms",
        ),
        m(
            "service.queue_wait_p50_ms",
            quantile(&open.latency_ms, 0.5) - quantile(&request_ms, 0.5),
            "ms",
        ),
        m(
            "service.queue_wait_p99_ms",
            quantile(&open.latency_ms, 0.99) - quantile(&request_ms, 0.99),
            "ms",
        ),
        m(
            "service.queue_depth_hwm",
            bench.service.stats().queue_depth_hwm as f64,
            "count",
        ),
        m("service.shed", tally.shed as f64, "count"),
        m("service.overloaded", tally.overloaded as f64, "count"),
        m("supervisor.retries", tally.retries as f64, "count"),
        m("supervisor.faults", tally.faults as f64, "count"),
        m(
            "early_termination.estimate_us",
            median(&col(&|s| s.estimate_ms)) * 1e3,
            "us",
        ),
        m(
            "early_termination.scan_ms",
            median(&col(&|s| s.scan_ms)),
            "ms",
        ),
        m(
            "early_termination.cells_planned",
            sum(&|s| s.planned) / n,
            "count",
        ),
        m(
            "early_termination.computed_frac",
            ratio(sum(&|s| s.computed), sum(&|s| s.planned)),
            "fraction",
        ),
        m(
            "early_termination.abandon_frac",
            ratio(sum(&|s| s.abandoned), sum(&|s| s.pairs)),
            "fraction",
        ),
        m(
            "early_termination.swept_gcups",
            ratio(
                sum(&|s| s.computed),
                col(&|s| s.scan_ms).iter().sum::<f64>() * 1e6,
            ),
            "GCUPS",
        ),
        m("engine.plan_us", median(&col(&|s| s.plan_ms)) * 1e3, "us"),
        m("engine.stripes", plan(&|p| p.stripes) / n, "count"),
        m(
            "engine.striped_frac",
            ratio(plan(&|p| p.striped_pairs), plan(&|p| p.wavefront_eligible)),
            "fraction",
        ),
        m(
            "engine.half_width_stripes",
            plan(&|p| p.half_width_stripes) / n,
            "count",
        ),
        m(
            "engine.occupancy",
            ratio(sum(&|s| s.plan.useful_cells), sum(&|s| s.plan.swept_cells)),
            "fraction",
        ),
        m(
            "engine.batch_gcups",
            ratio(
                sum(&|s| s.batch_cells),
                col(&|s| s.align_ms).iter().sum::<f64>() * 1e6,
            ),
            "GCUPS",
        ),
        m("store.open_ms", cold_median(&|s| s.open_ms), "ms"),
        m(
            "store.scan_extra_ms",
            cold_median(&|s| s.store_scan_ms - s.scan_ms),
            "ms",
        ),
        m(
            "store.chunks_loaded",
            cold_mean(&|s| s.chunks_loaded),
            "count",
        ),
        m(
            "store.chunk_cache_hits",
            cold_mean(&|s| s.chunk_cache_hits),
            "count",
        ),
        m(
            "store.verify_failures",
            sum(&|s| s.verify_failures),
            "count",
        ),
        m(
            "store.build_s",
            bench.store.as_ref().map_or(0.0, |s| median(&s.build_s)),
            "s",
        ),
        m(
            "store.bytes_per_residue",
            ratio(store_bytes as f64, residues(bench) as f64),
            "B/residue",
        ),
    ];
    for (i, (name, _)) in TELEMETRY_COUNTERS.iter().enumerate() {
        out.push(m(name, sum(&|s| s.telemetry[i]) / n, "count"));
    }
    out.extend([
        m(
            "trace_overhead_frac",
            traced.traced_ms / traced.untraced_ms,
            "ratio",
        ),
        m(
            "trace.unaccounted_frac",
            unaccounted / request_ms.iter().sum::<f64>(),
            "fraction",
        ),
        m(
            "open_loop.latency_p99_ms",
            quantile(&open.latency_ms, 0.99),
            "ms",
        ),
        m("open_loop.samples", open.latency_ms.len() as f64, "count"),
        m(
            "open_loop.gen_lag_p99_ms",
            quantile(&open.gen_lag_ms, 0.99),
            "ms",
        ),
    ]);
    out
}

/// The traced run's layer table: per span name, count and medians.
fn print_layers(traced: &Traced) {
    let rec = &traced.rec;
    let mut names: Vec<&'static str> = Vec::new();
    for s in &rec.spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    println!(
        "  {:<28} {:>6} {:>12} {:>12}",
        "span", "count", "p50 ms", "p50 self ms"
    );
    for name in names {
        let ids: Vec<usize> = (0..rec.spans.len())
            .filter(|&i| rec.spans[i].name == name)
            .collect();
        let total: Vec<f64> = ids.iter().map(|&i| rec.spans[i].ms()).collect();
        let own: Vec<f64> = ids.iter().map(|&i| rec.self_ms(i)).collect();
        println!(
            "  {:<28} {:>6} {:>12.4} {:>12.4}",
            name,
            ids.len(),
            median(&total),
            median(&own)
        );
    }
}

fn tally_json(t: &Tally) -> Json {
    let mut j = Json::obj();
    j.set("attempted", t.attempted)
        .set("failed", t.failed)
        .set("overloaded", t.overloaded)
        .set("rejected", t.rejected)
        .set("shed", t.shed)
        .set("errored", t.errored)
        .set("incomplete", t.incomplete)
        .set("mismatched", t.mismatched)
        .set("retries", t.retries)
        .set("faults", t.faults);
    j
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD` when the working directory is itself a git checkout, else
/// `"unknown"` (an exported tree: see `source_xxh64`).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// XXH64 over the library sources (`crates/`, `shims/`) and build
/// settings, so a result names the code that produced it even where no
/// git history exists.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.push(Path::new(".cargo/config.toml").to_path_buf());
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    race_logic::store::xxh64(&bytes, 0)
}
