//! The monorepo corpus must flow through the whole pipeline (ISSUE 8):
//! preprocess (guarded headers, config macros, function-like macros),
//! parallel parse, lower, analyze — with byte-identical reports at every
//! `--jobs` value, like every other corpus program.

use safeflow::{AnalysisConfig, Analyzer, Engine};
use safeflow_corpus::monorepo::{generate_monorepo, total_loc, MonorepoParams};
use safeflow_ir::verify::verify_module;
use safeflow_ir::{lower, ssa, CallGraph, InstKind, Module};
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::pp::VirtualFs;

/// A mid-size monorepo: big enough to exercise cross-package call depth
/// and the config-macro conditionals, small enough for a debug-build test.
fn medium() -> MonorepoParams {
    MonorepoParams {
        packages: 5,
        units_per_package: 4,
        stages: 4,
        branches: 6,
        regions: 6,
        configs: 4,
        lib_depth: 3,
    }
}

fn load(params: MonorepoParams) -> (VirtualFs, usize) {
    let files = generate_monorepo(params);
    let loc = total_loc(&files);
    let mut fs = VirtualFs::new();
    for (name, text) in files {
        fs.add(name, text);
    }
    (fs, loc)
}

#[test]
fn monorepo_analyzes_cleanly() {
    let (fs, loc) = load(medium());
    assert!(loc > 1_500, "medium preset should be a real workload, got {loc} LOC");
    let result = Analyzer::new(AnalysisConfig::default())
        .analyze_program("main.c", &fs)
        .expect("monorepo must analyze");
    // Every region read sits under a chain-head monitor, so the corpus
    // scales without scaling the report.
    assert!(!result.diags.has_errors());
    assert!(!result.render().is_empty());
}

#[test]
fn monorepo_reports_identical_across_thread_counts() {
    let (fs, _) = load(medium());
    let reference = Analyzer::new(AnalysisConfig::default().with_jobs(1))
        .analyze_program("main.c", &fs)
        .expect("monorepo must analyze")
        .render();
    for jobs in [2usize, 4, 8] {
        let got = Analyzer::new(AnalysisConfig::default().with_jobs(jobs))
            .analyze_program("main.c", &fs)
            .expect("monorepo must analyze")
            .render();
        assert_eq!(got, reference, "monorepo report diverged at jobs={jobs}");
    }
}

#[test]
fn config_macros_select_real_code() {
    // Flipping a feature flag in config.h must change the analyzed
    // program (the conditionals are live, not decorative).
    let base = generate_monorepo(medium());
    let mut flipped = base.clone();
    for (name, text) in &mut flipped {
        if name == "config.h" {
            *text = text.replace("#define CFG_FEATURE_0 1", "#define CFG_FEATURE_0 0");
        }
    }
    let to_fs = |files: &[(String, String)]| {
        let mut fs = VirtualFs::new();
        for (n, t) in files {
            fs.add(n.clone(), t.clone());
        }
        fs
    };
    let parse = |fs: &VirtualFs| {
        let r = safeflow_syntax::parse_program_jobs("main.c", fs, 2);
        assert!(!r.diags.has_errors(), "monorepo must preprocess cleanly");
        safeflow_syntax::printer::print_unit(&r.unit)
    };
    let a = parse(&to_fs(&base));
    let b = parse(&to_fs(&flipped));
    assert_ne!(a, b, "CFG_FEATURE_0 must gate real program text");
}

/// Work-counter ratchet: exact, deterministic counts (never wall-clock)
/// that fail on unexplained growth of the summary engine's work.
#[test]
fn summary_engine_work_counts_are_exact() {
    let (fs, _) = load(medium());
    let analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(2));
    let result = analyzer.analyze_program("main.c", &fs).expect("monorepo must analyze");
    let metrics = analyzer.last_metrics();
    let module = &result.module;
    let callgraph = CallGraph::build(module);
    assert!(
        module.definitions().all(|f| !callgraph.is_recursive(f)),
        "the monorepo corpus is recursion-free; the counts below assume it"
    );
    let summarizable = module
        .definitions()
        .map(|f| module.function(f))
        .filter(|f| !f.is_shminit() && !f.blocks.is_empty())
        .count() as u64;
    // Non-recursive SCCs converge in one round: one summarize call each.
    assert_eq!(metrics.work["summary.summarize_calls"], summarizable);
    let members: usize = callgraph.sccs.iter().map(Vec::len).sum();
    assert_eq!(metrics.counters["engine.functions_hashed"], members as u64);
}

/// The medium preset lowered to (not yet promoted) IR.
fn lowered_medium() -> Module {
    let (fs, _) = load(medium());
    let parsed = safeflow_syntax::parse_program_jobs("main.c", &fs, 1);
    assert!(!parsed.diags.has_errors(), "monorepo must preprocess cleanly");
    let mut diags = Diagnostics::new();
    let module = lower::lower(&parsed.unit, &mut diags);
    assert!(!diags.has_errors(), "monorepo must lower cleanly");
    module
}

/// SSA construction runs per function on the pool; the IR (and hence every
/// content hash built from it) must not depend on the worker count. The
/// exact counts extend the work ratchet to the frontend.
#[test]
fn ssa_is_identical_across_thread_counts_and_its_counts_are_exact() {
    let lowered = lowered_medium();
    let mut reference = lowered.clone();
    let promoted = ssa::promote_module_jobs(&mut reference, 1);
    assert!(verify_module(&reference).is_empty(), "{:?}", verify_module(&reference));
    for jobs in [2usize, 8] {
        let mut module = lowered.clone();
        assert_eq!(ssa::promote_module_jobs(&mut module, jobs), promoted, "jobs={jobs}");
        assert!(module.functions == reference.functions, "SSA IR diverged at jobs={jobs}");
    }

    // Recorded before SSA construction went linear and per-function; the
    // rewrite had to reproduce them exactly.
    let insts: usize = reference.functions.iter().map(|f| f.insts.len()).sum();
    let phis = reference
        .functions
        .iter()
        .flat_map(|f| &f.insts)
        .filter(|i| matches!(i.kind, InstKind::Phi { .. }))
        .count();
    assert_eq!(insts, 8_335, "ir.insts");
    assert_eq!(promoted, 263, "promoted slots");
    assert_eq!(phis, 492, "φ count");
}
