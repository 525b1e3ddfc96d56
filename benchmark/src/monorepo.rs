//! The two monorepo workloads: `monorepo-cold` (no store, both engines)
//! and `monorepo-edit` (a store-backed edit loop).
//!
//! Both run the standing 146-TU corpus (`MonorepoParams::bench()`), which
//! is a pure function of its parameters. The seed picks what varies: the
//! engine order of each cold round, and the sequence of edited functions.

use crate::answers;
use crate::layers::{ir_insts, reg, run_layers, Findings, Pass, TraceLedger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{nproc, work_dir, Args, Outcome};
use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, SessionOutcome, SessionRun};
use safeflow_corpus::monorepo::{generate_monorepo, total_loc, MonorepoParams};
use safeflow_syntax::VirtualFs;
use safeflow_util::prop::Gen;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The corpus root translation unit.
const ROOT: &str = "main.c";
/// Set-ups per `monorepo-cold` run; `setup_s` is their median. One takes
/// ~15 ms, so 201 of them span ~3 s, long enough that the median does not
/// rest on a single moment of a shared host's speed.
const COLD_SETUPS: usize = 201;
/// Set-ups per `monorepo-edit` run (each includes a store-populating
/// cold check, so fewer).
const EDIT_SETUPS: usize = 3;
/// Re-checks of each edit, each from the store state before the edit.
const RECHECKS_PER_EDIT: usize = 3;
/// No-change re-checks after each edit.
const REPLAYS_PER_EDIT: usize = 2;
/// Traced passes per traced run (at least two, so counts can be compared).
const MIN_TRACED_PASSES: usize = 2;

/// The generated corpus, as file pairs and loaded into a virtual FS.
struct Corpus {
    files: Vec<(String, String)>,
    fs: VirtualFs,
}

impl Corpus {
    fn generate() -> Corpus {
        let files = generate_monorepo(MonorepoParams::bench());
        let mut fs = VirtualFs::new();
        for (name, text) in &files {
            fs.add(name.as_str(), text.as_str());
        }
        Corpus { files, fs }
    }

    fn loc(&self) -> usize {
        total_loc(&self.files)
    }

    /// Corpus provenance: TUs, files, LOC, raw lines, IR instructions.
    fn facts(&self, insts: Option<usize>) -> String {
        let tus = self.files.iter().filter(|(n, _)| n.ends_with(".c")).count();
        let raw: usize = self.files.iter().map(|(_, t)| t.lines().count()).sum();
        let insts = insts.map_or("unknown".to_string(), |n| n.to_string());
        format!(
            "corpus: MonorepoParams::bench() tus={tus} files={} loc={} raw_lines={raw} ir_insts={insts}",
            self.files.len(),
            self.loc()
        )
    }

    /// Applies `edit` to the corpus text and the FS.
    fn apply(&mut self, edit: &Edit) -> Result<(), String> {
        let (_, text) = self
            .files
            .iter_mut()
            .find(|(n, _)| *n == edit.file)
            .ok_or_else(|| format!("edit target `{}` missing", edit.file))?;
        // Every stage's first statement is `acc = CFG_SCALE(x) + {s}.125;`
        // and is unique in its unit; an edit appends a term to it.
        let head = format!("    acc = CFG_SCALE(x) + {}.125", edit.stage);
        let start = text
            .find(&format!("{head};"))
            .or_else(|| text.find(&format!("{head} +")))
            .ok_or_else(|| format!("stage {} not found in `{}`", edit.stage, edit.file))?;
        let end = start + text[start..].find('\n').expect("statement ends its line");
        text.replace_range(start..end, &format!("{head} + {}.0625;", edit.serial));
        self.fs.add(edit.file.as_str(), text.as_str());
        Ok(())
    }
}

/// A one-function edit: a new constant term in one stage function. It adds
/// no shared-memory read, so the edited tree stays clean by construction.
struct Edit {
    file: String,
    stage: usize,
    /// Distinct per edit, so no edited tree repeats an earlier one.
    serial: usize,
}

impl Edit {
    fn draw(rng: &mut Gen, serial: usize) -> Edit {
        let p = MonorepoParams::bench();
        let pkg = rng.usize(0, p.packages);
        let unit = rng.usize(0, p.units_per_package);
        Edit {
            file: format!("pkg{pkg}/unit{unit}.c"),
            stage: rng.usize(0, p.stages),
            serial: serial + 1,
        }
    }

    fn function(&self) -> String {
        let unit = self.file.trim_end_matches(".c").replace("/unit", "u").replace("pkg", "p");
        format!("{unit}_s{}", self.stage)
    }
}

fn config(engine: Engine, jobs: usize) -> AnalysisConfig {
    AnalysisConfig::builder().engine(engine).jobs(jobs).build_config()
}

/// Checks an analyzed session outcome against the clean known answer and
/// returns its verdict (the part a replay or reference must reproduce).
fn clean_verdict(outcome: &SessionOutcome) -> Result<String, String> {
    let result = outcome.result.as_ref().ok_or("expected an analyzed run, got a replay")?;
    answers::clean(&result.report)?;
    Ok(verdict_of(outcome))
}

fn verdict_of(outcome: &SessionOutcome) -> String {
    format!("{}\n{}", outcome.rendered, answers::verdict(&outcome.report_json))
}

// ---------------------------------------------------------------- cold

/// `monorepo-cold`: cold `AnalysisSession::check` of the whole corpus
/// under the summary engine and the context-sensitive engine, no store.
pub fn cold(args: &Args) -> Outcome {
    let jobs = nproc();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..COLD_SETUPS {
        let t = Instant::now();
        corpus = Some(Corpus::generate());
        setups.push(t.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");
    out.note(format!("jobs={jobs} engines=summary,context store=none"));
    if args.trace {
        cold_traced(args, &corpus, jobs, &mut out);
        return out;
    }

    let mut rng = Gen::new(args.seed);
    let (mut summary, mut context) = (Vec::new(), Vec::new());
    let mut insts = None;
    let deadline = Instant::now() + args.seconds;
    loop {
        // The first round starts with the summary engine (the `check`
        // default), so `peak_rss_mb` is that of one check in a fresh
        // process, as a CLI user sees it.
        let order = if summary.is_empty() || rng.bool() {
            [Engine::Summary, Engine::ContextSensitive]
        } else {
            [Engine::ContextSensitive, Engine::Summary]
        };
        for engine in order {
            let mut session = AnalysisSession::new(config(engine, jobs));
            let t = Instant::now();
            let result = session.check(ROOT, &corpus.fs);
            let elapsed = t.elapsed().as_secs_f64();
            match result.map_err(|e| e.to_string()).and_then(|o| {
                insts = o.result.as_ref().map(|r| ir_insts(&r.module));
                clean_verdict(&o)
            }) {
                Ok(_) => {
                    out.check(true, String::new);
                    out.first_check_rss();
                    match engine {
                        Engine::Summary => summary.push(elapsed),
                        _ => context.push(elapsed),
                    }
                }
                Err(e) => out.check(false, || format!("cold check, {engine:?} engine: {e}")),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.note(corpus.facts(insts));
    report_checks(&mut out, ("summary engine", &summary), ("context engine", &context));
    out.metric("setup_s", median(&setups), "s");
    out
}

/// Reports the end-to-end metrics of a monorepo workload's timed checks,
/// each given in seconds under a label: `latency_ms` is the median of the
/// main kind, `alt_latency_ms` that of the other kind, and
/// `throughput_per_s` counts checks of both kinds per second spent
/// checking.
fn report_checks(out: &mut Outcome, main: (&str, &[f64]), alt: (&str, &[f64])) {
    for (label, samples) in [main, alt] {
        out.note(format!("{label}: {} checks, seconds {:?}", samples.len(), samples));
    }
    out.metric("latency_ms", median(main.1) * 1e3, "ms");
    out.metric("alt_latency_ms", median(alt.1) * 1e3, "ms");
    let spent: f64 = main.1.iter().chain(alt.1).sum();
    out.metric("throughput_per_s", (main.1.len() + alt.1.len()) as f64 / spent, "1/s");
}

/// One cold pass through every layer: a fresh summary-engine analyzer, no
/// store. The corpus must be clean under both engines.
fn cold_pass(corpus: &Corpus, jobs: usize, t: &mut Tracer) -> Result<Pass, String> {
    let ctx = config(Engine::ContextSensitive, jobs);
    let analyzer = Analyzer::new(config(Engine::Summary, jobs));
    let mut pass = Pass::new(jobs);
    let found = run_layers(ROOT, &corpus.fs, &analyzer, &ctx, t, &mut pass)?;
    clean_layers(&found)?;
    Ok(pass)
}

/// The clean known answer, for every layer's findings.
fn clean_layers(found: &Findings) -> Result<(), String> {
    let taint = &found.taint;
    let findings = found.violations
        + found.degradations
        + taint.warnings.len()
        + taint.errors.len()
        + taint.degradations.len();
    if findings != 0 {
        return Err(format!("context-sensitive layers reported {findings} findings"));
    }
    answers::clean(&found.report)
}

fn cold_traced(args: &Args, corpus: &Corpus, jobs: usize, out: &mut Outcome) {
    let deadline = Instant::now() + args.seconds;
    let mut ledger = TraceLedger::default();
    while ledger.counts.len() < MIN_TRACED_PASSES || Instant::now() < deadline {
        ledger.run_pair(out, 0, "cold pass", |t| cold_pass(corpus, jobs, t));
        if out.failed > 0 && ledger.counts.is_empty() {
            break;
        }
    }
    let insts = ledger.counts.first().and_then(|(_, c)| c.get("ir.insts")).map(|&n| n as usize);
    out.note(corpus.facts(insts));
    ledger.report(out, corpus.loc());
}

// ---------------------------------------------------------------- edit

/// Total size of the files in the store directory.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// Opens a fresh session on the store and checks the corpus: what one
/// `safeflow check --store DIR` invocation does.
fn store_check(corpus: &Corpus, dir: &Path, jobs: usize) -> Result<SessionOutcome, String> {
    let mut session = AnalysisSession::with_store(config(Engine::Summary, jobs), dir)
        .map_err(|e| e.to_string())?;
    session.check(ROOT, &corpus.fs).map_err(|e| e.to_string())
}

/// `monorepo-edit`: a seeded sequence of one-function edits, each checked
/// through a fresh store-backed session and followed by no-change
/// re-checks; every re-check is compared with a cold check of the same
/// tree.
pub fn edit(args: &Args) -> Outcome {
    let jobs = nproc();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut state = None;
    let mut insts = None;
    for i in 0..EDIT_SETUPS {
        let t = Instant::now();
        let corpus = Corpus::generate();
        let dir = work_dir(&format!("edit-store-{i}"));
        let populated = store_check(&corpus, &dir, jobs).and_then(|o| {
            insts = o.result.as_ref().map(|r| ir_insts(&r.module));
            clean_verdict(&o)
        });
        setups.push(t.elapsed().as_secs_f64());
        out.first_check_rss();
        out.check(populated.is_ok(), || format!("store-populating check: {:?}", populated.err()));
        if let Some((_, old)) = state.replace((corpus, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (mut corpus, dir) = state.expect("at least one set-up");
    out.note(format!("jobs={jobs} engine=summary store=fresh session per check"));
    out.note(corpus.facts(insts));
    let mut rng = Gen::new(args.seed);
    if args.trace {
        edit_traced(args, &mut corpus, &dir, jobs, &mut rng, &mut out);
    } else {
        edit_timed(args, &mut corpus, &dir, jobs, &mut rng, &mut out);
        out.metric("setup_s", median(&setups), "s");
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn edit_timed(
    args: &Args,
    corpus: &mut Corpus,
    dir: &Path,
    jobs: usize,
    rng: &mut Gen,
    out: &mut Outcome,
) {
    let snapshot = dir.with_extension("before-edit");
    let mut edit_times = Vec::new();
    let mut replay_times = Vec::new();
    let mut edited = Vec::new();
    let deadline = Instant::now() + args.seconds;
    while edit_times.is_empty() || Instant::now() < deadline {
        let edit = Edit::draw(rng, edited.len());
        if let Err(e) = corpus.apply(&edit) {
            out.check(false, || e);
            break;
        }
        edited.push(edit.function());

        // Each re-check of this edit starts from the store as it was
        // before the edit, so one cold reference serves several samples.
        if let Err(e) = copy_files(dir, &snapshot) {
            out.check(false, || format!("snapshotting the store: {e}"));
            break;
        }
        let mut verdicts = Vec::new();
        for i in 0..RECHECKS_PER_EDIT {
            if i > 0 {
                if let Err(e) = copy_files(&snapshot, dir) {
                    out.check(false, || format!("restoring the store: {e}"));
                    continue;
                }
            }
            let t = Instant::now();
            let checked = store_check(corpus, dir, jobs);
            let elapsed = t.elapsed().as_secs_f64();
            match checked.and_then(|o| clean_verdict(&o)) {
                Ok(v) => {
                    edit_times.push(elapsed);
                    verdicts.push(v);
                }
                Err(e) => out.check(false, || format!("edit re-check of {}: {e}", edit.function())),
            }
        }
        let Some(verdict) = verdicts.first().cloned() else { continue };

        for _ in 0..REPLAYS_PER_EDIT {
            let t = Instant::now();
            let replayed = store_check(corpus, dir, jobs);
            let elapsed = t.elapsed().as_secs_f64();
            match replayed {
                Ok(o) if o.run == SessionRun::Replayed && verdict_of(&o) == verdict => {
                    out.check(true, String::new);
                    replay_times.push(elapsed);
                }
                Ok(o) => out.check(false, || {
                    format!(
                        "no-change re-check: run {:?}, verdict differs from the edit re-check",
                        o.run
                    )
                }),
                Err(e) => out.check(false, || format!("no-change re-check: {e}")),
            }
        }

        // The known answer for the re-checks: a cold check of the same
        // edited tree, with no store.
        let cold = AnalysisSession::new(config(Engine::Summary, jobs))
            .check(ROOT, &corpus.fs)
            .map_err(|e| e.to_string())
            .and_then(|o| clean_verdict(&o));
        for v in &verdicts {
            out.check(cold.as_deref() == Ok(v.as_str()), || {
                format!(
                    "edit re-check of {} differs from a cold check of the same tree",
                    edit.function()
                )
            });
        }
    }
    let _ = std::fs::remove_dir_all(&snapshot);
    out.note(format!("edited functions, in order: {}", edited.join(" ")));
    report_checks(out, ("edit re-check", &edit_times), ("no-change re-check", &replay_times));
}

/// Copies the regular files of directory `from` into `to` (created if
/// missing), replacing files of the same name.
fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One store-backed re-check pass, layer by layer: open the store, then
/// every layer, with the session's store-seeded analyzer running the
/// summary engine. It persists nothing, so repeated passes see the same
/// store.
fn edit_pass(corpus: &Corpus, dir: &Path, jobs: usize, t: &mut Tracer) -> Result<Pass, String> {
    let session = t
        .span("store.open", |_| AnalysisSession::with_store(config(Engine::Summary, jobs), dir))
        .map_err(|e| e.to_string())?;
    let ctx = config(Engine::ContextSensitive, jobs);
    let mut pass = Pass::new(jobs);
    let found = run_layers(ROOT, &corpus.fs, session.analyzer(), &ctx, t, &mut pass)?;
    clean_layers(&found)?;
    Ok(pass)
}

fn edit_traced(
    args: &Args,
    corpus: &mut Corpus,
    dir: &Path,
    jobs: usize,
    rng: &mut Gen,
    out: &mut Outcome,
) {
    let deadline = Instant::now() + args.seconds;
    let mut ledger = TraceLedger::default();
    let mut store: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut serial = 0;
    while ledger.counts.len() < MIN_TRACED_PASSES || Instant::now() < deadline {
        let edit = Edit::draw(rng, serial);
        serial += 1;
        if let Err(e) = corpus.apply(&edit) {
            out.check(false, || e);
            break;
        }
        // Two pairs on the same store state, so the counts of one edit
        // can be compared exactly.
        for _ in 0..MIN_TRACED_PASSES {
            ledger.run_pair(out, serial, "edit pass", |t| edit_pass(corpus, dir, jobs, t));
        }
        // Persist the edit the way `check --store` does, and read the
        // store's bookkeeping from that check's metrics.
        match store_check(corpus, dir, jobs).and_then(|o| clean_verdict(&o).map(|_| o)) {
            Ok(o) => {
                out.check(true, String::new);
                for key in ["store.sccs_loaded", "store.sccs_saved", "store.sccs_invalidated"] {
                    store.entry(key).or_default().push(reg(&o.metrics, key) as f64);
                }
                store.entry("store.bytes").or_default().push(store_bytes(dir) as f64);
            }
            Err(e) => out.check(false, || format!("persisting edit {}: {e}", edit.function())),
        }
        if ledger.counts.is_empty() {
            break;
        }
    }
    ledger.report(out, corpus.loc());
    for (name, samples) in &store {
        let unit = if *name == "store.bytes" { "bytes" } else { "count" };
        out.metric(*name, median(samples), unit);
    }
}
