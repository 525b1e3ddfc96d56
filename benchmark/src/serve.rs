//! `serve-mix`: an in-process `safeflow serve` daemon on loopback, driven
//! by `nproc / 2` closed-loop clients (each sends its next request only
//! after the previous reply arrived, like an IDE or CI caller). A client
//! has at most two requests in flight, so at most `nproc` are: the load
//! keeps the CPUs busy without oversubscribing them.
//!
//! Each client's request stream is a pure function of the seed and the
//! client's index: rounds of a fresh `oracle_gen` program, one of the
//! three paper-system cores or Figure 2, a repeat of the fresh program
//! (store replay), and one more fresh program sent twice at once
//! (coalescing). See [`Round`].
//!
//! The traced run also sends every fixed program through each analysis
//! layer (see [`crate::layers`]): the per-layer cost of the programs the
//! daemon serves.

use crate::answers;
use crate::layers::{run_layers, Pass, TraceLedger};
use crate::stats::{mean, median, ms_of_ns, percentile};
use crate::trace::Tracer;
use crate::{nproc, peak_rss_mb, work_dir, Args, Outcome};
use safeflow::{AnalysisConfig, AnalysisSession, Analyzer, Engine, ErrorDependency, Json, Warning};
use safeflow_corpus::monorepo::total_loc;
use safeflow_corpus::{figure2_example, oracle_gen, systems, System};
use safeflow_serve::{Client, Daemon, DaemonHandle, Response, RunKind, ServeOptions};
use safeflow_syntax::VirtualFs;
use safeflow_util::hash::hash_str;
use safeflow_util::prop::Gen;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Set-ups per run (daemon start plus priming); `setup_s` is their median.
const SETUPS: usize = 15;
/// Socket timeout for every client call.
const IO_TIMEOUT_MS: u64 = 60_000;
/// `peak_rss_mb` is read once this many requests have been answered. The
/// resident session's memory grows with every distinct program it serves,
/// so a fixed request count keeps throughput out of the memory figure.
const RSS_AFTER_REQUESTS: u64 = 8000;
/// Traced and untraced layer passes over the fixed programs, each.
const LAYER_PASSES: usize = 20;
/// Clients at most (a cap that only hosts with more than 32 CPUs reach). Every `oracle_gen` program has the same root,
/// `oracle_main.c`, so all of them share one resident session, and its
/// store keeps 64 whole-program manifests. Between a client's fresh
/// program and its repeat, every other client saves about two more, so up
/// to 16 clients the repeat still finds its manifest and replays.
const MAX_CLIENTS: usize = 16;

/// A program the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Program {
    /// Index into [`fixed_programs`]: the paper systems, then Figure 2.
    Fixed(usize),
    /// An `oracle_gen` program, by generator seed.
    Fresh(u64),
}

impl Program {
    fn files(self, fixed: &[Fixed]) -> Vec<(String, String)> {
        match self {
            Program::Fixed(i) => vec![(fixed[i].file.to_string(), fixed[i].source.to_string())],
            Program::Fresh(seed) => oracle_gen::generate_for_seed(seed),
        }
    }
}

/// A fixed program and its known answer.
struct Fixed {
    file: &'static str,
    source: &'static str,
    /// `None` for Figure 2, which answers to [`answers::figure2`].
    system: Option<System>,
}

impl Fixed {
    /// Checks findings against this program's known answer.
    fn answer(
        &self,
        warnings: &[Warning],
        errors: &[ErrorDependency],
        violations: usize,
    ) -> Result<(), String> {
        match &self.system {
            Some(system) => answers::paper_row(system, warnings, errors),
            None => answers::figure2(warnings, errors, violations),
        }
    }

    fn fs(&self) -> VirtualFs {
        let mut fs = VirtualFs::new();
        fs.add(self.file, self.source);
        fs
    }
}

fn fixed_programs() -> Vec<Fixed> {
    let mut out: Vec<Fixed> = systems()
        .into_iter()
        .map(|s| Fixed { file: s.core_file, source: s.core_source, system: Some(s) })
        .collect();
    out.push(Fixed { file: "figure2.c", source: figure2_example(), system: None });
    out
}

/// One round of a client's stream: one request down each serve path, in
/// this order.
///
/// 1. `fresh`, a never-seen program: a full analysis.
/// 2. `fixed`, a paper program the daemon was primed with.
/// 3. `fresh` again: a store replay.
/// 4. `pair`, another never-seen program, sent twice at once over two
///    connections (an editor's save hook and a CI job on the same file).
///    The second copy coalesces onto the first while that one is still
///    queued; otherwise it runs or replays.
///
/// The repository keeps no record of real traffic, so these equal shares
/// are an assumption, not a measurement: the smallest mix that reaches
/// every path once per round.
struct Round {
    fresh: u64,
    fixed: usize,
    pair: u64,
}

/// One client's seeded stream of rounds.
struct Stream {
    rng: Gen,
    fixed: usize,
}

impl Stream {
    fn new(seed: u64, client: usize, fixed: usize) -> Stream {
        let mix = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream { rng: Gen::new(seed ^ mix), fixed }
    }

    fn round(&mut self) -> Round {
        Round { fresh: self.rng.u64(), fixed: self.rng.usize(0, self.fixed), pair: self.rng.u64() }
    }
}

/// One answered (or failed) request.
struct Sample {
    program: Program,
    latency_ns: u64,
    /// `None` when the request failed in transport or got a non-report
    /// status.
    reply: Option<Reply>,
    traced: bool,
}

struct Reply {
    run: RunKind,
    /// Hash of the rendered report and the report document's verdict.
    verdict: u64,
}

fn verdict_hash(rendered: &str, doc: &Json) -> u64 {
    hash_str(&format!("{rendered}\n{}", answers::verdict(doc)))
}

fn reply_of(resp: &Response) -> Option<Reply> {
    if !resp.status.is_report() {
        return None;
    }
    let doc = Json::parse(&resp.report_json).ok()?;
    Some(Reply { run: resp.run, verdict: verdict_hash(&resp.rendered, &doc) })
}

struct RunningDaemon {
    handle: DaemonHandle,
    dir: PathBuf,
}

impl RunningDaemon {
    fn stop(self) {
        self.handle.begin_shutdown();
        self.handle.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a daemon with a fresh store and primes it with one request per
/// fixed program; fails unless every priming request answers with a
/// report.
fn start_daemon(tag: usize, workers: usize, fixed: &[Fixed]) -> Result<RunningDaemon, String> {
    let dir = work_dir(&format!("serve-store-{tag}"));
    let opts = ServeOptions { store_dir: Some(dir.clone()), workers, ..ServeOptions::default() };
    let handle = Daemon::start(opts, "127.0.0.1:0").map_err(|e| format!("daemon start: {e}"))?;
    let daemon = RunningDaemon { handle, dir };
    let addr = daemon.handle.addr().to_string();
    let primed = Client::connect(&addr, IO_TIMEOUT_MS).and_then(|mut c| {
        (0..fixed.len())
            .map(|i| c.check(fixed[i].file, &Program::Fixed(i).files(fixed), 0))
            .collect::<std::io::Result<Vec<Response>>>()
    });
    match primed {
        Ok(resps) if resps.iter().all(|r| r.status.is_report()) => Ok(daemon),
        Ok(_) => {
            daemon.stop();
            Err("priming request answered without a report".into())
        }
        Err(e) => {
            daemon.stop();
            Err(format!("priming: {e}"))
        }
    }
}

/// What the clients share: the end of the timed loop, and the answered
/// request count that triggers the RSS reading.
struct Shared {
    deadline: Instant,
    answered: AtomicU64,
    rss_mb: OnceLock<Option<f64>>,
}

impl Shared {
    fn answered_one(&self) {
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
            let _ = self.rss_mb.set(peak_rss_mb());
        }
    }
}

/// One connection of a client, with the tracer for the requests sent on
/// it.
struct Lane {
    conn: Option<Client>,
    tracer: Tracer,
    sent: u64,
}

impl Lane {
    fn new(addr: &str, trace: bool) -> Lane {
        Lane {
            conn: Client::connect(addr, IO_TIMEOUT_MS).ok(),
            tracer: Tracer::new(trace),
            sent: 0,
        }
    }

    /// Sends one request and waits for its reply. With `traced`, the
    /// request is recorded as a span whose children are the
    /// daemon-reported queue and run intervals.
    fn send(
        &mut self,
        addr: &str,
        program: Program,
        fixed: &[Fixed],
        shared: &Shared,
        traced: bool,
    ) -> Sample {
        let Lane { conn, tracer, sent } = self;
        if conn.is_none() {
            *conn = Client::connect(addr, IO_TIMEOUT_MS).ok();
        }
        let Some(client) = conn.as_mut() else {
            // Back off so a dead daemon does not turn into a busy loop.
            std::thread::sleep(Duration::from_millis(10));
            return Sample { program, latency_ns: 0, reply: None, traced };
        };
        let files = program.files(fixed);
        let root = &files[0].0;
        *sent += 1;
        let start = tracer.now();
        let t = Instant::now();
        let result = if traced {
            tracer.set_request(*sent);
            tracer.span("serve.request", |tr| {
                let r = client.check(root, &files, 0);
                let end = tr.now();
                if let Ok(resp) = &r {
                    // `queue_ns` runs from admission to completion, so it
                    // covers the run as well; the wait is the rest.
                    let queue_end = (start + resp.queue_ns as f64 / 1e9).min(end);
                    let run_start = (queue_end - resp.run_ns as f64 / 1e9).max(start);
                    tr.record("serve.queue", start, run_start);
                    tr.record("serve.run", run_start, queue_end);
                }
                r
            })
        } else {
            client.check(root, &files, 0)
        };
        let latency_ns = t.elapsed().as_nanos() as u64;
        let reply = match result {
            Ok(resp) => {
                shared.answered_one();
                reply_of(&resp)
            }
            Err(_) => {
                *conn = None;
                None
            }
        };
        Sample { program, latency_ns, reply, traced }
    }
}

/// One closed-loop client: sends whole rounds until the timed loop is
/// over. With `trace`, every other round is traced, so traced and
/// untraced requests follow the same mix.
fn client_loop(
    addr: &str,
    stream: &mut Stream,
    fixed: &[Fixed],
    shared: &Shared,
    trace: bool,
) -> (Vec<Sample>, [Tracer; 2]) {
    let mut samples = Vec::new();
    let [mut main, mut side] = [Lane::new(addr, trace), Lane::new(addr, trace)];
    let mut rounds = 0u64;
    while Instant::now() < shared.deadline {
        let round = stream.round();
        let traced = trace && rounds % 2 == 1;
        rounds += 1;
        let (fresh, fixed_one) = (Program::Fresh(round.fresh), Program::Fixed(round.fixed));
        for program in [fresh, fixed_one, fresh] {
            samples.push(main.send(addr, program, fixed, shared, traced));
        }
        let pair = Program::Fresh(round.pair);
        let (first, second) = std::thread::scope(|s| {
            let other = s.spawn(|| side.send(addr, pair, fixed, shared, traced));
            let first = main.send(addr, pair, fixed, shared, traced);
            (first, other.join().expect("pair request thread"))
        });
        samples.push(first);
        samples.push(second);
    }
    (samples, [main.tracer, side.tracer])
}

/// The reference verdict of `program`: a one-shot session check with the
/// daemon's analysis configuration, plus the known-answer check for the
/// fixed programs.
fn reference(program: Program, fixed: &[Fixed], config: &AnalysisConfig) -> Result<u64, String> {
    let files = program.files(fixed);
    let mut fs = VirtualFs::new();
    for (name, text) in &files {
        fs.add(name.as_str(), text.as_str());
    }
    let outcome =
        AnalysisSession::new(config.clone()).check(&files[0].0, &fs).map_err(|e| e.to_string())?;
    if let Program::Fixed(i) = program {
        let report = &outcome.result.as_ref().ok_or("one-shot check replayed")?.report;
        fixed[i].answer(&report.warnings, &report.errors, report.violations.len())?;
    }
    Ok(verdict_hash(&outcome.rendered, &outcome.report_json))
}

/// Computes the reference verdict of every distinct program on `threads`
/// threads.
fn references(
    programs: Vec<Program>,
    fixed: &[Fixed],
    config: &AnalysisConfig,
    threads: usize,
) -> BTreeMap<Program, Result<u64, String>> {
    let next = Mutex::new(programs.into_iter());
    let done = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let Some(p) = next.lock().expect("work list lock").next() else { break };
                let r = reference(p, fixed, config);
                done.lock().expect("result map lock").insert(p, r);
            });
        }
    });
    done.into_inner().expect("result map lock")
}

pub fn mix(args: &Args) -> Outcome {
    let clients = (nproc() / 2).clamp(1, MAX_CLIENTS);
    let workers = nproc();
    let fixed = fixed_programs();
    let analysis = ServeOptions::default().analysis;
    let mut out = Outcome::default();
    out.note(format!(
        "clients={clients} (closed loop) daemon_workers={workers} analysis_jobs={} \
         each round: fresh, fixed, repeat of the fresh one, pair (one fresh program \
         sent twice at once); assumed equal shares, not measured traffic",
        analysis.jobs
    ));

    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let started = start_daemon(i, workers, &fixed);
        setups.push(t.elapsed().as_secs_f64());
        out.check(started.is_ok(), || format!("set-up: {:?}", started.as_ref().err()));
        if let Some(old) = started.ok().and_then(|d| daemon.replace(d)) {
            old.stop();
        }
    }
    let Some(daemon) = daemon else { return out };
    let addr = daemon.handle.addr().to_string();

    let shared = Shared {
        deadline: Instant::now() + args.seconds,
        answered: AtomicU64::new(0),
        rss_mb: OnceLock::new(),
    };
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Sample>, [Tracer; 2])> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, fixed, shared) = (&addr, &fixed, &shared);
                s.spawn(move || {
                    let mut stream = Stream::new(args.seed, c, fixed.len());
                    client_loop(addr, &mut stream, fixed, shared, args.trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    daemon.stop();

    let samples: Vec<&Sample> = per_client.iter().flat_map(|(s, _)| s).collect();
    let mut distinct: Vec<Program> = samples.iter().map(|s| s.program).collect();
    distinct.sort();
    distinct.dedup();
    let (distinct_count, fresh) =
        (distinct.len(), distinct.iter().filter(|p| matches!(p, Program::Fresh(_))).count());
    let refs = references(distinct, &fixed, &analysis, nproc());
    for (p, r) in &refs {
        if let Err(e) = r {
            out.note(format!("FAILED: reference for {p:?}: {e}"));
        }
    }

    // Every request is one attempted check; it fails on a transport error,
    // a non-report status, or a verdict that differs from the reference.
    let mut completed = Vec::new();
    for s in &samples {
        let ok = match (&s.reply, refs.get(&s.program)) {
            (Some(reply), Some(Ok(expected))) => reply.verdict == *expected,
            _ => false,
        };
        out.check(ok, || {
            format!("request for {:?} failed or differs from its reference", s.program)
        });
        if ok {
            completed.push(*s);
        }
    }
    let lat_ms: Vec<f64> = completed.iter().map(|s| ms_of_ns(s.latency_ns)).collect();
    let n = completed.len();
    out.note(format!(
        "requests={} completed={n} distinct_programs={distinct_count} fresh_programs={fresh} \
         elapsed_s={elapsed}",
        samples.len()
    ));

    if !args.trace {
        // The bounded tail is the p90: on a shared 2-CPU host the p99
        // follows the host's CPU-steal bursts, and its run-to-run spread
        // exceeds any bound the benchmark may set. The p99 (p95 when fewer
        // than ten samples lie beyond it) is printed beside it.
        let (tail, tail_name) = if n >= 1000 { (99.0, "p99") } else { (95.0, "p95") };
        out.note(format!(
            "latency_ms is the p50 and alt_latency_ms the p90 of {n} latencies; \
             serve.tail_ms is their {tail_name}"
        ));
        out.metric("latency_ms", percentile(&lat_ms, 50.0), "ms");
        out.metric("alt_latency_ms", percentile(&lat_ms, 90.0), "ms");
        out.metric("serve.tail_ms", percentile(&lat_ms, tail), "ms");
        out.metric("throughput_per_s", n as f64 / elapsed, "1/s");
        out.metric("setup_s", median(&setups), "s");
        match shared.rss_mb.get() {
            Some(rss) => out.peak_rss_mb = *rss,
            None => out.note(format!(
                "peak_rss_mb is the end-of-run reading: fewer than {RSS_AFTER_REQUESTS} requests answered"
            )),
        }
        return out;
    }

    let share = |kind: RunKind| {
        completed.iter().filter(|s| s.reply.as_ref().is_some_and(|r| r.run == kind)).count() as f64
            / n.max(1) as f64
    };
    out.metric("serve.replayed_share", share(RunKind::Replayed), "ratio");
    out.metric("serve.coalesced_share", share(RunKind::Coalesced), "ratio");
    out.metric("serve.requests", n as f64, "count");

    // Attribution over the traced requests: latency = queue wait + run +
    // wire, where the wire part is what no daemon-reported interval covers.
    let mut queue = Vec::new();
    let mut run = Vec::new();
    let mut wire = Vec::new();
    for tracer in per_client.iter().flat_map(|(_, t)| t) {
        let spans = tracer.spans();
        let mut by_request: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
        for s in spans {
            let slot = by_request.entry(s.request).or_default();
            let d = (s.end - s.start) * 1e3;
            match s.name {
                "serve.queue" => slot[0] += d,
                "serve.run" => slot[1] += d,
                _ => slot[2] += d,
            }
        }
        for [q, r, total] in by_request.values() {
            queue.push(*q);
            run.push(*r);
            wire.push(total - q - r);
        }
    }
    let traced: Vec<f64> =
        completed.iter().filter(|s| s.traced).map(|s| ms_of_ns(s.latency_ns)).collect();
    let untraced: Vec<f64> =
        completed.iter().filter(|s| !s.traced).map(|s| ms_of_ns(s.latency_ns)).collect();
    out.metric("serve.queue_ms", mean(&queue), "ms");
    out.metric("serve.run_ms", mean(&run), "ms");
    out.metric("serve.wire_ms", mean(&wire), "ms");
    out.metric("trace.traced_ms", mean(&traced), "ms");
    out.metric("trace.untraced_ms", mean(&untraced), "ms");
    out.metric("trace.unattributed_ms", mean(&wire), "ms");
    out.note(format!(
        "trace: {} traced requests (mean {} ms), {} untraced (mean {} ms)",
        traced.len(),
        mean(&traced),
        untraced.len(),
        mean(&untraced)
    ));
    fixed_layers(&fixed, &analysis, &mut out);
    out
}

/// One pass of every fixed program through each layer, under the daemon's
/// analysis configuration: a fresh analyzer per program, as a one-shot
/// check would use. Every program's findings answer to its known answer
/// under both engines.
fn fixed_pass(fixed: &[Fixed], analysis: &AnalysisConfig, t: &mut Tracer) -> Result<Pass, String> {
    let mut ctx = analysis.clone();
    ctx.engine = Engine::ContextSensitive;
    let mut pass = Pass::new(analysis.jobs);
    for program in fixed {
        let analyzer = Analyzer::new(analysis.clone());
        let found = run_layers(program.file, &program.fs(), &analyzer, &ctx, t, &mut pass)?;
        let report = &found.report;
        program.answer(&report.warnings, &report.errors, report.violations.len())?;
        program.answer(&found.taint.warnings, &found.taint.errors, found.violations)?;
    }
    Ok(pass)
}

fn fixed_layers(fixed: &[Fixed], analysis: &AnalysisConfig, out: &mut Outcome) {
    let mut ledger = TraceLedger::default();
    for _ in 0..LAYER_PASSES {
        ledger.run_pair(out, 0, "fixed-program layer pass", |t| fixed_pass(fixed, analysis, t));
    }
    let files: Vec<(String, String)> =
        fixed.iter().map(|p| (p.file.to_string(), p.source.to_string())).collect();
    out.note(format!("layer passes: {} fixed programs, {} LOC", fixed.len(), total_loc(&files)));
    ledger.report(out, total_loc(&files));
}
