//! The SafeFlow benchmark: one command per workload that times what a
//! user of the analyzer waits for, checks every verdict against a known
//! answer, and (with `--trace 1`) breaks the time down by layer with spans
//! recorded around each call into a layer's public entry point.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload monorepo-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every line before the last is human-readable (provenance, each metric
//! with its unit, per-check notes). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, whose
//! metrics are exactly those `BENCHMARK.json` declares for the mode
//! ([`END_TO_END`] or [`PER_LAYER`]). Metrics only one workload has are
//! printed before it. See `benchmark/README.md` for the workloads, the
//! metrics and what each one is expected to move.

mod answers;
mod layers;
mod monorepo;
mod serve;
mod stats;
mod trace;

use safeflow_util::json::Json;
use std::process::ExitCode;
use std::time::Duration;

/// The three workloads, by the names `BENCHMARK.json` declares.
const WORKLOADS: [&str; 3] = ["monorepo-cold", "monorepo-edit", "serve-mix"];

/// The `end_to_end` metrics of `BENCHMARK.json`, with their units: every
/// workload reports each of them with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms", "ms"),
    ("alt_latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The `per_layer` metrics of `BENCHMARK.json`, with their units: every
/// workload reports each of them with `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("syntax.parse_s", "s"),
    ("syntax.loc_per_s", "loc/s"),
    ("ir.lower_s", "s"),
    ("ir.ssa_s", "s"),
    ("ir.callgraph_s", "s"),
    ("ir.insts", "count"),
    ("ir.insts_per_loc", "ratio"),
    ("core.regions_s", "s"),
    ("core.shmptr_s", "s"),
    ("core.restrict_s", "s"),
    ("restrict.solver_calls", "count"),
    ("solver.steps", "count"),
    ("points_to.analyze_s", "s"),
    ("taint.analyze_s", "s"),
    ("taint.contexts", "count"),
    ("taint.vfg_nodes_visited", "count"),
    ("core.analyze_module_s", "s"),
    ("summary.value_flow_s", "s"),
    ("engine.scc_hash_s", "s"),
    ("engine.functions_hashed", "count"),
    ("summary.sccs", "count"),
    ("summary.summarize_calls", "count"),
    ("summary.cache_misses", "count"),
    ("summary.cache_hit_ratio", "ratio"),
    ("pool.summary.busy_s", "s"),
    ("pool.summary.utilisation", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.unattributed_s", "s"),
    ("repeat.ir.insts", "bool"),
    ("repeat.restrict.solver_calls", "bool"),
    ("repeat.solver.steps", "bool"),
    ("repeat.taint.contexts", "bool"),
    ("repeat.taint.vfg_nodes_visited", "bool"),
    ("repeat.engine.functions_hashed", "bool"),
    ("repeat.summary.sccs", "bool"),
    ("repeat.summary.summarize_calls", "bool"),
    ("repeat.summary.cache_misses", "bool"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run produced: checks attempted and failed, the
/// metrics it measured, and human-readable lines printed before the
/// result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    /// Peak RSS right after the process's first completed check.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Takes the process's peak RSS once, after its first check: the
    /// footprint of one check in a fresh process. Later checks in the same
    /// process raise the high-water mark by however much the allocator
    /// happens to retain, which says nothing about the analyzer.
    pub fn first_check_rss(&mut self) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Records one checked verdict; a mismatch is a failed check. The
    /// first few failures are described in the notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// Host and toolchain facts recorded with every run.
pub fn host_facts() -> String {
    format!("nproc={} rustc=\"{}\"", nproc(), env!("BENCH_RUSTC_VERSION"))
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A per-run scratch directory inside the working directory (the
/// benchmark reads and writes nothing outside the checkout it runs in).
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("benchmark")
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
    dir
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        host_facts()
    );
    let mut out = match args.workload.as_str() {
        "monorepo-cold" => monorepo::cold(&args),
        "monorepo-edit" => monorepo::edit(&args),
        _ => serve::mix(&args),
    };
    if !args.trace {
        let rss = out.peak_rss_mb.or_else(peak_rss_mb).unwrap_or(f64::NAN);
        out.metric("peak_rss_mb", rss, "MB");
    }
    // Each workload removed its own directories; this only succeeds if
    // nothing else is using the work area.
    let _ = std::fs::remove_dir(std::path::Path::new("benchmark").join(".work"));

    for line in &out.notes {
        println!("{line}");
    }
    // A run that checked nothing has failed.
    let (attempted, failed) = if out.attempted == 0 { (1, 1) } else { (out.attempted, out.failed) };
    let failed_share = failed as f64 / attempted as f64;
    println!("checks: attempted={attempted} failed={failed} failed_share={failed_share}");
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    // The result line holds exactly the manifest's metrics; a run that
    // could not measure one of them prints no result.
    let manifest: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in manifest {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, u)) if *u == unit && value.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                Json::from(name).render(),
                Json::from(unit).render()
            )),
            Some((_, value, u)) => {
                eprintln!(
                    "benchmark: metric {name} measured as {value} {u}, not a number in {unit}"
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("benchmark: metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
