//! The traced pass every workload shares: one program's trip through each
//! analysis layer, every call in its own span, and the ledger that turns
//! traced and untraced passes into the per-layer metrics.
//!
//! The frontend runs once. Then the context-sensitive engine's phases are
//! called one by one (`CallGraph::build`, `extract_regions`,
//! `identify_shm_pointers`, `check_restrictions`, `PointsTo::analyze`,
//! `analyze_taint`), and last the summary engine runs through
//! `Analyzer::analyze_module`, whose registry supplies the numbers of the
//! crate-private summary engine, SCC hashing and pool.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use safeflow::regions::extract_regions;
use safeflow::restrict::check_restrictions;
use safeflow::shmptr::identify_shm_pointers;
use safeflow::taint::{analyze_taint, TaintResults};
use safeflow::{AnalysisConfig, AnalysisReport, Analyzer, MetricsSnapshot};
use safeflow_ir::{lower, ssa, CallGraph, Module};
use safeflow_points_to::PointsTo;
use safeflow_syntax::{parse_program_jobs, Diagnostics, VirtualFs};
use safeflow_util::metrics::Metrics;
use std::collections::BTreeMap;
use std::time::Instant;

/// A value from any section of a metrics snapshot.
pub fn reg(s: &MetricsSnapshot, key: &str) -> u64 {
    [&s.counters, &s.work, &s.sched, &s.timings_ns]
        .iter()
        .find_map(|section| section.get(key))
        .copied()
        .unwrap_or(0)
}

pub fn ir_insts(module: &Module) -> usize {
    module.functions.iter().map(|f| f.insts.len()).sum()
}

/// Per-layer results of one pass, summed over the programs it checked.
#[derive(Default)]
pub struct Pass {
    /// Exact counts, compared between passes.
    pub counts: BTreeMap<&'static str, u64>,
    /// Seconds read from the registries the calls returned.
    secs: BTreeMap<&'static str, f64>,
    cache_hits: u64,
    cache_probes: u64,
    /// Analysis jobs, for the pool's utilisation.
    jobs: usize,
}

impl Pass {
    pub fn new(jobs: usize) -> Pass {
        Pass { jobs, ..Pass::default() }
    }

    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    fn secs(&mut self, key: &'static str, s: f64) {
        *self.secs.entry(key).or_insert(0.0) += s;
    }

    /// Reads the summary engine's numbers from `analyze_module`'s
    /// registry.
    fn summary_registry(&mut self, m: &MetricsSnapshot) {
        self.secs("summary.value_flow_s", reg(m, "phase.value_flow") as f64 / 1e9);
        self.secs("engine.scc_hash_s", reg(m, "engine.scc_hash_ns") as f64 / 1e9);
        self.secs("pool.summary.busy_s", reg(m, "pool.summary.busy_ns") as f64 / 1e9);
        self.cache_hits += reg(m, "summary.cache_hits");
        self.cache_probes += reg(m, "summary.cache_probes");
        for key in [
            "engine.functions_hashed",
            "summary.sccs",
            "summary.summarize_calls",
            "summary.cache_misses",
        ] {
            self.count(key, reg(m, key));
        }
    }

    /// The seconds and ratios of this pass.
    fn values(&self) -> BTreeMap<&'static str, f64> {
        let mut v = self.secs.clone();
        let value_flow = v.get("summary.value_flow_s").copied().unwrap_or(0.0);
        let busy = v.get("pool.summary.busy_s").copied().unwrap_or(0.0);
        v.insert("pool.summary.utilisation", busy / (value_flow * self.jobs as f64));
        v.insert(
            "summary.cache_hit_ratio",
            self.cache_hits as f64 / self.cache_probes.max(1) as f64,
        );
        v
    }
}

/// What the layers found in one program: the summary engine's report, and
/// the context-sensitive engine's phases' findings.
pub struct Findings {
    pub report: AnalysisReport,
    pub taint: TaintResults,
    pub violations: usize,
    pub degradations: usize,
}

/// Runs every layer over the program rooted at `root`, each call in its
/// own span, and adds its numbers to `pass`. `ctx` configures the
/// context-sensitive phases; `analyzer` runs the summary engine (a store-
/// seeded analyzer on the edit workload). The programs checked here
/// declare no labels, so the default policy compiled with no extra
/// declarations is the table `analyze_module` would build.
pub fn run_layers(
    root: &str,
    fs: &VirtualFs,
    analyzer: &Analyzer,
    ctx: &AnalysisConfig,
    t: &mut Tracer,
    pass: &mut Pass,
) -> Result<Findings, String> {
    let parsed = t.span("syntax.parse", |_| parse_program_jobs(root, fs, ctx.jobs));
    let mut diags: Diagnostics = parsed.diags;
    if diags.has_errors() {
        return Err(format!("{root} failed to parse"));
    }
    let mut module = t.span("ir.lower", |_| lower::lower(&parsed.unit, &mut diags));
    t.span("ir.ssa", |_| ssa::promote_module(&mut module));
    let callgraph = t.span("ir.callgraph", |_| CallGraph::build(&module));
    let regions =
        t.span("core.regions", |_| extract_regions(&module, &ctx.shm_attach_functions, &mut diags));
    let shm = t.span("core.shmptr", |_| identify_shm_pointers(&module, &regions));
    let metrics = Metrics::new();
    let (violations, degradations) = t.span("core.restrict", |_| {
        check_restrictions(&module, &regions, &shm, &callgraph, ctx, None, &metrics)
    });
    let pt = t.span("points_to.analyze", |_| PointsTo::analyze(&module));
    let (table, _) = ctx.policy.compile(&[], &[]);
    let taint = t.span("taint.analyze", |_| {
        analyze_taint(&module, &regions, &shm, &pt, ctx, &table, None, &metrics)
    });
    let report = t.span("core.analyze_module", |_| analyzer.analyze_module(&module, &mut diags));
    if diags.has_errors() {
        return Err(format!("{root} failed to lower"));
    }

    pass.summary_registry(&analyzer.last_metrics());
    let m = metrics.snapshot();
    pass.count("ir.insts", ir_insts(&module) as u64);
    for key in ["restrict.solver_calls", "solver.steps", "taint.vfg_nodes_visited"] {
        pass.count(key, reg(&m, key));
    }
    pass.count("taint.contexts", taint.contexts_analyzed as u64);
    Ok(Findings { report, taint, violations: violations.len(), degradations: degradations.len() })
}

/// Collects traced and untraced passes and reports the per-layer metrics.
#[derive(Default)]
pub struct TraceLedger {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    self_times: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts of each traced pass, tagged with the input they ran
    /// on: passes over the same input must repeat them exactly.
    pub counts: Vec<(usize, BTreeMap<&'static str, u64>)>,
}

impl TraceLedger {
    /// Runs `pass` once untraced and once traced on input `input`, each
    /// inside a root span called `pass`, recording both. Which of the two
    /// goes first alternates per call, so neither side always runs on a
    /// freshly released heap.
    pub fn run_pair(
        &mut self,
        out: &mut Outcome,
        input: usize,
        what: &str,
        mut pass: impl FnMut(&mut Tracer) -> Result<Pass, String>,
    ) {
        let traced_first = self.counts.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let mut tracer = Tracer::new(traced);
            let t0 = Instant::now();
            let result = tracer.span("pass", &mut pass);
            let elapsed = t0.elapsed().as_secs_f64();
            match result {
                Ok(p) if traced => {
                    out.check(true, String::new);
                    self.traced.push(elapsed);
                    for (name, s) in tracer.self_times() {
                        self.self_times.entry(name).or_default().push(s);
                    }
                    for (name, v) in p.values() {
                        self.values.entry(name).or_default().push(v);
                    }
                    self.counts.push((input, p.counts));
                }
                Ok(_) => {
                    out.check(true, String::new);
                    self.untraced.push(elapsed);
                }
                Err(e) => out.check(false, || format!("{what} (traced={traced}): {e}")),
            }
        }
    }

    /// Emits every per-layer metric: span self times, registry values,
    /// counts, whether each count repeated exactly, and the attribution
    /// (traced vs untraced pass, and the part no layer span covers).
    /// `loc` is the lines of code one pass checks.
    pub fn report(&self, out: &mut Outcome, loc: usize) {
        for (name, samples) in &self.self_times {
            if *name != "pass" {
                out.metric(format!("{name}_s"), median(samples), "s");
            }
        }
        if let Some(parse) = self.self_times.get("syntax.parse") {
            out.metric("syntax.loc_per_s", loc as f64 / median(parse), "loc/s");
        }
        for (name, samples) in &self.values {
            let unit = if name.ends_with("_s") { "s" } else { "ratio" };
            out.metric(*name, median(samples), unit);
        }
        let names: Vec<&'static str> =
            self.counts.first().map(|(_, c)| c.keys().copied().collect()).unwrap_or_default();
        for name in names {
            let values: Vec<(usize, Option<u64>)> =
                self.counts.iter().map(|(input, c)| (*input, c.get(name).copied())).collect();
            let repeats = values.iter().all(|(input, v)| {
                values.iter().filter(|(other, _)| other == input).all(|(_, w)| w == v)
            });
            let samples: Vec<f64> =
                values.iter().filter_map(|(_, v)| v.map(|n| n as f64)).collect();
            out.metric(name, median(&samples), "count");
            out.metric(format!("repeat.{name}"), f64::from(u8::from(repeats)), "bool");
            let listed: Vec<String> = values
                .iter()
                .map(|(input, v)| {
                    format!("{input}:{}", v.map_or("-".to_string(), |n| n.to_string()))
                })
                .collect();
            out.note(format!(
                "count {name} (input:value) [{}]: {}",
                listed.join(" "),
                if repeats { "repeats exactly on each input" } else { "VARIES on one input" }
            ));
            if name == "ir.insts" {
                out.metric("ir.insts_per_loc", median(&samples) / loc as f64, "ratio");
            }
        }
        out.metric("trace.traced_s", median(&self.traced), "s");
        out.metric("trace.untraced_s", median(&self.untraced), "s");
        out.metric(
            "trace.unattributed_s",
            self.self_times.get("pass").map_or(f64::NAN, |s| median(s)),
            "s",
        );
        out.note(format!(
            "trace: {} traced passes {:?}, {} untraced {:?}",
            self.traced.len(),
            self.traced,
            self.untraced.len(),
            self.untraced
        ));
    }
}
