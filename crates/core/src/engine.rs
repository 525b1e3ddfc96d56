//! Parallel-engine support: content-hashed caching of function summaries.
//!
//! The summary engine ([`crate::summary`]) computes one symbolic summary
//! per function, bottom-up over call-graph SCCs. Both the schedule and the
//! cache live at SCC granularity:
//!
//! * **Scheduling** — [`safeflow_ir::CallGraph::scc_dependencies`] gives
//!   the bottom-up DAG; [`safeflow_util::pool::run_dag`] runs independent
//!   SCCs concurrently. Results are stored indexed by SCC, so the output
//!   is identical for any worker count.
//! * **Caching** — each SCC gets a *content hash* chaining (Merkle-style)
//!   the member functions' IR, their shm/points-to facts, their assume
//!   scopes, the analysis environment, and the hashes of every callee SCC.
//!   A hit replays the stored member summaries without re-running the
//!   fixpoint; editing one function invalidates exactly its own SCC and
//!   the SCCs of its (transitive) callers, so a warm re-analysis
//!   re-summarizes nothing and an incremental one re-summarizes only the
//!   affected chain. [`CacheStats`] counts hits/misses per member function
//!   so tests can assert both properties.
//!
//! The hash deliberately covers everything `summarize_function` reads:
//! instruction kinds/types/spans, terminators, annotations, parameters,
//! per-value region facts and points-to sets, the caller-scope assume
//! sets, and the config knobs that steer summarization. Spans are
//! included, so shifting a function within its file re-hashes it — sound
//! (never stale), merely conservative.

use crate::config::AnalysisConfig;
use crate::regions::{RegionId, RegionMap};
use crate::shmptr::ShmPointers;
use crate::summary::Summary;
use safeflow_ir::{CallGraph, FuncId, GlobalId, Module, Value};
use safeflow_points_to::PointsTo;
use safeflow_util::hash::Fnv64;
use safeflow_util::metrics::{Class, Metrics};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Summary-cache effectiveness counters, cumulative over every analysis
/// run through one [`crate::Analyzer`].
///
/// Counts are per *function*: replaying a cached SCC of three members
/// records three hits. A fully warm re-analysis of an unchanged program
/// therefore shows `hits` grow by exactly the previous run's `misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Function summaries replayed from the cache.
    pub hits: usize,
    /// Function summaries that had to be computed.
    pub misses: usize,
}

/// Content-addressed store of per-SCC summary vectors (member order), keyed
/// by the chained content hash. Shared across worker threads and across
/// repeated `analyze_*` calls on one `Analyzer`.
#[derive(Debug, Default)]
pub(crate) struct SummaryCache {
    map: Mutex<HashMap<u64, Arc<Vec<Summary>>>>,
    /// Keys of the most recent run's SCCs — the *live* set. The session
    /// persists exactly these ([`SummaryCache::export_live`]); entries
    /// outside it are history (stale content hashes) and are dropped from
    /// the on-disk store at save time.
    live: Mutex<Vec<u64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SummaryCache {
    /// Pre-populates the cache from a persistent store without touching
    /// the hit/miss counters: seeded entries only count when a run
    /// actually probes them.
    pub(crate) fn seed(&self, entries: Vec<(u64, Arc<Vec<Summary>>)>) {
        let mut map = self.map.lock().unwrap();
        for (key, summaries) in entries {
            map.entry(key).or_insert(summaries);
        }
    }

    /// Declares the current run's SCC hash set as live (replacing the
    /// previous set). Called once per summary-engine run.
    pub(crate) fn set_live(&self, keys: &[u64]) {
        *self.live.lock().unwrap() = keys.to_vec();
    }

    /// The cached entries for the live key set, in live-set order — what a
    /// clean run may persist. SCCs whose computation degraded were never
    /// inserted, so they are simply absent.
    pub(crate) fn export_live(&self) -> Vec<(u64, Arc<Vec<Summary>>)> {
        let map = self.map.lock().unwrap();
        let mut seen = std::collections::HashSet::new();
        self.live
            .lock()
            .unwrap()
            .iter()
            .filter(|&&k| seen.insert(k))
            .filter_map(|&k| map.get(&k).map(|v| (k, v.clone())))
            .collect()
    }

    /// Probes for an SCC's summaries, tallying `members` hits or misses.
    pub(crate) fn get(&self, key: u64, members: usize) -> Option<Arc<Vec<Summary>>> {
        let found = self.map.lock().unwrap().get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(members, Ordering::Relaxed),
            None => self.misses.fetch_add(members, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly computed SCC result.
    pub(crate) fn insert(&self, key: u64, summaries: Arc<Vec<Summary>>) {
        self.map.lock().unwrap().insert(key, summaries);
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One content hash per SCC of `callgraph`, chained bottom-up: `deps` must
/// be `callgraph.scc_dependencies()` (every dependency index precedes its
/// dependent, which the bottom-up SCC order guarantees).
///
/// Records the Merkle-hashing wall-clock under `engine.scc_hash_ns` and
/// the SCC/function totals as deterministic counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scc_hashes(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    pt: &PointsTo,
    config: &AnalysisConfig,
    noncore_sockets: &BTreeSet<GlobalId>,
    callgraph: &CallGraph,
    deps: &[Vec<usize>],
    assumed_of: &HashMap<FuncId, BTreeMap<RegionId, u64>>,
    metrics: &Metrics,
) -> Vec<u64> {
    let t0 = std::time::Instant::now();
    let env = env_hash(module, regions, config, noncore_sockets);
    let mut out: Vec<u64> = Vec::with_capacity(callgraph.sccs.len());
    let mut functions = 0u64;
    for (i, scc) in callgraph.sccs.iter().enumerate() {
        let mut h = Fnv64::new();
        h.write_u64(env);
        h.write_usize(scc.len());
        for &fid in scc {
            h.write_u64(function_sig(module, shm, pt, fid, assumed_of.get(&fid)));
            functions += 1;
        }
        for &d in &deps[i] {
            h.write_u64(out[d]);
        }
        out.push(h.finish());
    }
    metrics.add_many(
        Class::Counter,
        &[("engine.sccs_hashed", out.len() as u64), ("engine.functions_hashed", functions)],
    );
    metrics.record_ns("engine.scc_hash_ns", t0.elapsed().as_nanos() as u64);
    out
}

/// Hash of the analysis-wide inputs every summary depends on: the region
/// table, the non-core socket set, and the config knobs `summarize_function`
/// consults. Region/global/function *ids* appear throughout the per-function
/// signatures, so any renumbering (e.g. a declaration added above) changes
/// those hashes too — again conservative, never stale.
fn env_hash(
    module: &Module,
    regions: &RegionMap,
    config: &AnalysisConfig,
    noncore_sockets: &BTreeSet<GlobalId>,
) -> u64 {
    let mut h = Fnv64::new();
    for r in regions.iter() {
        h.write_u32(r.id.0);
        h.write_str(&r.name);
        h.write_u32(r.global.0);
        h.write_u64(r.size);
        h.write_u64(r.elem_size);
        h.write_u64(r.len);
        h.write_u8(r.noncore as u8);
        h.write_str(r.label.as_deref().unwrap_or(""));
        h.write_i64(r.offset.unwrap_or(i64::MIN));
    }
    for g in noncore_sockets {
        h.write_u32(g.0);
    }
    // Global names pin GlobalId assignments (socket detection reads loads
    // of globals by id).
    for g in &module.globals {
        h.write_str(&g.name);
    }
    hash_flow_config(&mut h, config);
    h.write_str(&config.entry);
    h.finish()
}

/// Feeds the config knobs that shape value flow into `h`: control-dependence
/// tracking, the critical calls, the recv specs, and the normalized label
/// policy. Shared by the summary content hash ([`env_hash`]) and the store's
/// configuration hash, so the two cannot drift apart.
///
/// Lists are hashed sorted and the policy normalized: configurations that
/// differ only in flag or declaration order are the same configuration, and
/// a warm `safeflow check` must not miss replay over it. The builder
/// normalizes too, but hand-built configs reach here unsorted.
pub(crate) fn hash_flow_config(h: &mut Fnv64, config: &AnalysisConfig) {
    h.write_u8(config.track_control_dependence as u8);
    let mut calls: Vec<_> = config.implicit_critical_calls.iter().collect();
    calls.sort();
    for call in calls {
        h.write_str(&call.name);
        h.write_usize(call.arg);
        h.write_str(call.clearance.as_deref().unwrap_or(""));
    }
    let mut recvs: Vec<_> = config.recv_functions.iter().collect();
    recvs.sort();
    for spec in recvs {
        h.write_str(&spec.name);
        h.write_usize(spec.sock_arg);
        h.write_usize(spec.buf_arg);
    }
    let mut policy_bytes = Vec::new();
    config.policy.clone().normalized().encode_into(&mut policy_bytes);
    h.write(&policy_bytes);
}

/// Content signature of one function: everything `summarize_function`
/// reads from it. The IR walk uses the stable `Debug` renderings of
/// instruction kinds, types, terminators and annotations — these embed
/// operand ids, so structural changes always surface.
fn function_sig(
    module: &Module,
    shm: &ShmPointers,
    pt: &PointsTo,
    fid: FuncId,
    assumed: Option<&BTreeMap<RegionId, u64>>,
) -> u64 {
    let func = module.function(fid);
    let mut h = Fnv64::new();
    h.write_str(&func.name);
    h.write_str(&format!("{:?}", func.ret));
    h.write_u8(func.is_definition as u8);
    for p in &func.params {
        h.write_str(&p.name);
        h.write_str(&format!("{:?}", p.ty));
    }
    for ann in &func.annotations {
        h.write_str(&format!("{ann:?}"));
    }
    if let Some(assumed) = assumed {
        for (r, mask) in assumed {
            h.write_u32(r.0);
            h.write_u64(*mask);
        }
    }
    // Per-value analysis facts for parameters...
    for i in 0..func.params.len() {
        let v = Value::Param(i as u32);
        hash_value_facts(&mut h, shm, pt, fid, &v);
    }
    // ...and the IR itself, block by block, with per-result facts.
    for (bid, block) in func.iter_blocks() {
        h.write_u32(bid.0);
        for &iid in &block.insts {
            let inst = func.inst(iid);
            h.write_u32(iid.0);
            h.write_str(&format!("{:?}", inst.kind));
            h.write_str(&format!("{:?}", inst.ty));
            h.write_u32(inst.span.file.0);
            h.write_u32(inst.span.lo);
            h.write_u32(inst.span.hi);
            hash_value_facts(&mut h, shm, pt, fid, &Value::Inst(iid));
            // Store/load targets have facts on their operands too.
            for op in inst.kind.operands() {
                hash_value_facts(&mut h, shm, pt, fid, op);
            }
        }
        h.write_str(&format!("{:?}", block.terminator));
    }
    h.finish()
}

/// Folds in the shm-region facts and points-to set of one value.
fn hash_value_facts(h: &mut Fnv64, shm: &ShmPointers, pt: &PointsTo, fid: FuncId, v: &Value) {
    let regions = shm.regions_of(fid, v);
    h.write_usize(regions.len());
    for rp in regions {
        h.write_u32(rp.region.0);
        h.write_i64(rp.offset.unwrap_or(i64::MIN));
    }
    let objs = pt.points_to(fid, v);
    h.write_usize(objs.len());
    for o in objs {
        h.write_u32(o.0);
        h.write_u32(pt.base_of(o).0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::extract_regions;
    use crate::shmptr::identify_shm_pointers;
    use safeflow_ir::build_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn hashes_for(src: &str) -> (Vec<String>, Vec<u64>) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let shm = identify_shm_pointers(&m, &regions);
        let pt = PointsTo::analyze(&m);
        let cg = CallGraph::build(&m);
        let config = AnalysisConfig::default();
        let deps = cg.scc_dependencies();
        let assumed: HashMap<FuncId, BTreeMap<RegionId, u64>> = HashMap::new();
        let metrics = Metrics::new();
        let hs = scc_hashes(
            &m,
            &regions,
            &shm,
            &pt,
            &config,
            &BTreeSet::new(),
            &cg,
            &deps,
            &assumed,
            &metrics,
        );
        let names = cg
            .sccs
            .iter()
            .map(|scc| {
                scc.iter().map(|&f| m.function(f).name.clone()).collect::<Vec<_>>().join("+")
            })
            .collect();
        (names, hs)
    }

    const PROG: &str = r#"
        int leaf(int x) { return x + 1; }
        int mid(int x) { return leaf(x) * 2; }
        int other(int x) { return x - 3; }
        int main() { return mid(4) + other(5); }
    "#;

    #[test]
    fn hashes_are_reproducible() {
        let (_, a) = hashes_for(PROG);
        let (_, b) = hashes_for(PROG);
        assert_eq!(a, b);
    }

    #[test]
    fn editing_a_function_invalidates_exactly_its_caller_chain() {
        let (names, before) = hashes_for(PROG);
        // Change a constant inside `leaf` only.
        let (names2, after) = hashes_for(&PROG.replace("x + 1", "x + 2"));
        assert_eq!(names, names2);
        for (i, name) in names.iter().enumerate() {
            let should_change = name == "leaf" || name == "mid" || name == "main";
            assert_eq!(
                before[i] != after[i],
                should_change,
                "scc `{name}`: before={:#x} after={:#x}",
                before[i],
                after[i]
            );
        }
    }

    /// Regression: the whole front half of the pipeline (parse → lower →
    /// SSA → regions → shm → points-to) must be reproducible, or identical
    /// sources hash differently and the cache never hits across analyses.
    /// Loops + φ nodes + field accesses through shm pointers once exposed
    /// HashMap-iteration-order nondeterminism in SSA φ placement and in the
    /// points-to solver's lazy `Obj::Field` interning.
    #[test]
    fn hashes_are_reproducible_with_loops_and_shm() {
        let src =
            safeflow_corpus::synthetic::generate_wide(safeflow_corpus::synthetic::WideParams {
                families: 3,
                depth: 2,
                regions: 2,
                branches: 2,
            });
        let (names_a, a) = hashes_for(&src);
        let (names_b, b) = hashes_for(&src);
        assert_eq!(names_a, names_b);
        assert_eq!(a, b);
    }

    #[test]
    fn config_knobs_change_the_env_hash() {
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let base = AnalysisConfig::default();
        let mut flipped = base.clone();
        flipped.track_control_dependence = !base.track_control_dependence;
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &flipped, &BTreeSet::new());
        assert_ne!(a, b);
    }

    #[test]
    fn env_hash_ignores_list_order() {
        // Same configuration, lists spelled in a different order: summary
        // content hashes must agree or warm-cache runs recompute every SCC.
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let mut base = AnalysisConfig::default();
        base.implicit_critical_calls.push(crate::CriticalCall::new("reboot", 1));
        let mut shuffled = base.clone();
        shuffled.implicit_critical_calls.reverse();
        shuffled.recv_functions.reverse();
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &shuffled, &BTreeSet::new());
        assert_eq!(a, b);
    }

    #[test]
    fn env_hash_sees_policy_but_not_its_declaration_order() {
        use crate::policy::Policy;
        let pr = parse_source("t.c", PROG);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let base = AnalysisConfig::default();
        let mut labeled = base.clone();
        labeled.policy = Policy::builder().label("sensor_a").label("sensor_b").build();
        let mut reordered = base.clone();
        reordered.policy = Policy::builder().label("sensor_b").label("sensor_a").build();
        let a = env_hash(&m, &regions, &base, &BTreeSet::new());
        let b = env_hash(&m, &regions, &labeled, &BTreeSet::new());
        let c = env_hash(&m, &regions, &reordered, &BTreeSet::new());
        assert_ne!(a, b, "a declared policy must invalidate summaries");
        assert_eq!(b, c, "declaration order must not");
    }
}
