//! Observability lockdown (ISSUE 3): the metrics registry and the JSON
//! report document participate in the determinism contract.
//!
//! * `counters` metrics are byte-identical across worker counts AND cache
//!   states;
//! * `work` metrics are byte-identical across worker counts (they may move
//!   between cache-cold and cache-warm runs — that is their definition);
//! * the full `safeflow-report-v1` document is byte-identical across
//!   worker counts once the schedule-dependent sections (`sched`, `dist`,
//!   `timings_ns`) are stripped, and across cache states once `work` and
//!   `cache` are additionally stripped.
//!
//! Also locks down `flowgraph::error_to_dot` output shape for every error
//! the corpus produces (balanced quotes and braces — the diagnostics
//! correctness sweep's property test).

use safeflow::{AnalysisConfig, Analyzer, Engine, Json, MetricsSnapshot};
use safeflow_corpus::synthetic::{generate_wide, WideParams};
use safeflow_corpus::{figure2_example, systems};
use std::collections::BTreeMap;

/// Every corpus program the suite locks down, as (name, source) pairs.
fn corpus_programs() -> Vec<(String, String)> {
    let mut progs: Vec<(String, String)> = systems()
        .into_iter()
        .map(|s| (s.core_file.to_string(), s.core_source.to_string()))
        .collect();
    progs.push(("figure2.c".to_string(), figure2_example().to_string()));
    progs.push((
        "wide.c".to_string(),
        generate_wide(WideParams { families: 12, depth: 3, regions: 4, branches: 2 }),
    ));
    progs
}

fn run_once(engine: Engine, jobs: usize, file: &str, src: &str) -> (Analyzer, MetricsSnapshot) {
    let analyzer = Analyzer::new(AnalysisConfig::with_engine(engine).with_jobs(jobs));
    analyzer.analyze_source(file, src).unwrap_or_else(|e| panic!("{file} must analyze: {e}"));
    let snapshot = analyzer.last_metrics();
    (analyzer, snapshot)
}

/// The deterministic metric sections: (counters, work).
fn deterministic_sections(s: &MetricsSnapshot) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    (s.counters.clone(), s.work.clone())
}

#[test]
fn counters_and_work_metrics_identical_across_thread_counts() {
    for (file, src) in corpus_programs() {
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let (_, reference) = run_once(engine, 1, &file, &src);
            assert!(!reference.counters.is_empty(), "{file} ({engine:?}) recorded no counters");
            let reference = deterministic_sections(&reference);
            for jobs in [1usize, 4, 8] {
                for round in 0..2 {
                    let (_, got) = run_once(engine, jobs, &file, &src);
                    assert_eq!(
                        deterministic_sections(&got),
                        reference,
                        "{file} ({engine:?}) metrics diverged at jobs={jobs} round={round}"
                    );
                }
            }
        }
    }
}

#[test]
fn warm_cache_preserves_counters_and_moves_work_to_hits() {
    for (file, src) in corpus_programs() {
        let analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(4));
        analyzer.analyze_source(&file, &src).unwrap();
        let cold = analyzer.last_metrics();
        analyzer.analyze_source(&file, &src).unwrap();
        let warm = analyzer.last_metrics();

        assert_eq!(cold.counters, warm.counters, "{file}: counters must not move with cache state");
        assert_eq!(cold.work["summary.cache_hits"], 0, "{file}: first run cannot hit the cache");
        assert!(cold.work["summary.cache_misses"] > 0, "{file}: first run must miss");
        assert!(warm.work["summary.cache_hits"] > 0, "{file}: second run must hit");
        assert_eq!(warm.work["summary.cache_misses"], 0, "{file}: second run must not miss");
        // Cache probes (hits + misses) are cache-state invariant.
        assert_eq!(
            cold.work["summary.cache_hits"] + cold.work["summary.cache_misses"],
            warm.work["summary.cache_hits"] + warm.work["summary.cache_misses"],
            "{file}: probe count moved with cache state"
        );
    }
}

#[test]
fn frontend_phases_are_timed_next_to_the_analysis_phases() {
    let (_, snapshot) = run_once(Engine::Summary, 2, "figure2.c", figure2_example());
    for phase in ["phase.parse", "phase.lower", "phase.ssa", "phase.regions", "phase.value_flow"] {
        assert!(snapshot.timings_ns.contains_key(phase), "{phase} missing from timings_ns");
    }
    // Timings only: the frontend adds nothing to the deterministic sections.
    assert!(!snapshot.counters.keys().chain(snapshot.work.keys()).any(|k| k.starts_with("phase.")));
}

/// Removes the named sections from the document's `metrics` object, plus
/// any listed top-level keys.
fn strip(doc: &mut Json, metric_sections: &[&str], top_level: &[&str]) {
    let Json::Obj(members) = doc else { panic!("report document must be an object") };
    members.retain(|(k, _)| !top_level.contains(&k.as_str()));
    for (k, v) in members.iter_mut() {
        if k == "metrics" {
            let Json::Obj(sections) = v else { panic!("metrics must be an object") };
            sections.retain(|(k, _)| !metric_sections.contains(&k.as_str()));
        }
    }
}

#[test]
fn report_json_identical_across_thread_counts() {
    for (file, src) in corpus_programs() {
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let reference = {
                let analyzer = Analyzer::new(AnalysisConfig::with_engine(engine).with_jobs(1));
                let result = analyzer.analyze_source(&file, &src).unwrap();
                let mut doc = analyzer.report_json(&result);
                strip(&mut doc, &["sched", "dist", "timings_ns"], &[]);
                doc.render()
            };
            for jobs in [4usize, 8] {
                let analyzer = Analyzer::new(AnalysisConfig::with_engine(engine).with_jobs(jobs));
                let result = analyzer.analyze_source(&file, &src).unwrap();
                let mut doc = analyzer.report_json(&result);
                strip(&mut doc, &["sched", "dist", "timings_ns"], &[]);
                assert_eq!(
                    doc.render(),
                    reference,
                    "{file} ({engine:?}) JSON document diverged at jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn report_json_identical_across_cache_states() {
    for (file, src) in corpus_programs() {
        let analyzer = Analyzer::new(AnalysisConfig::with_engine(Engine::Summary).with_jobs(4));
        let docs: Vec<String> = (0..2)
            .map(|_| {
                let result = analyzer.analyze_source(&file, &src).unwrap();
                let mut doc = analyzer.report_json(&result);
                strip(&mut doc, &["sched", "dist", "timings_ns", "work"], &["cache"]);
                doc.render()
            })
            .collect();
        assert_eq!(docs[0], docs[1], "{file}: JSON document moved with cache state");
    }
}

// ------------------------------------------------------------- DOT shape

/// Counts unescaped `"` delimiters in one line (a `\"` inside a label is
/// content, not a delimiter).
fn delimiter_quotes(line: &str) -> usize {
    let mut count = 0;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            count += 1;
        }
    }
    count
}

/// Brace balance of `text` counting only braces outside string literals.
fn brace_balance(text: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' if !in_string => depth += 1,
            '}' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth
}

#[test]
fn error_to_dot_is_well_formed_for_every_corpus_error() {
    let mut errors_seen = 0;
    for (file, src) in corpus_programs() {
        for engine in [Engine::ContextSensitive, Engine::Summary] {
            let analyzer = Analyzer::new(AnalysisConfig::with_engine(engine));
            let result = analyzer.analyze_source(&file, &src).unwrap();
            for e in &result.report.errors {
                errors_seen += 1;
                let dot = safeflow::flowgraph::error_to_dot(e, &result.sources);
                assert!(
                    dot.starts_with("digraph "),
                    "{file} ({engine:?}): DOT must start with a digraph header:\n{dot}"
                );
                assert_eq!(
                    brace_balance(&dot),
                    0,
                    "{file} ({engine:?}): unbalanced braces in DOT:\n{dot}"
                );
                assert_eq!(
                    dot.trim_end().lines().last().map(str::trim),
                    Some("}"),
                    "{file} ({engine:?}): DOT must end with a closing brace:\n{dot}"
                );
                for line in dot.lines() {
                    assert_eq!(
                        delimiter_quotes(line) % 2,
                        0,
                        "{file} ({engine:?}): odd number of quote delimiters in {line:?}"
                    );
                }
            }
        }
    }
    assert!(errors_seen > 0, "corpus must produce at least one error to exercise");
}
