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
//!
//! The IR reaches the hasher through a structural byte encoder
//! (`function_sig`), and the per-function signatures are computed on the
//! worker pool: only the Merkle chaining over the SCC DAG is sequential.
//! `jobs` is not part of any hash, so thread count never changes cache
//! identity.

use crate::config::AnalysisConfig;
use crate::regions::{RegionId, RegionMap};
use crate::shmptr::ShmPointers;
use crate::summary::Summary;
use safeflow_ir::{CallGraph, Callee, FuncId, GlobalId, InstKind, Module, Terminator, Type, Value};
use safeflow_points_to::PointsTo;
use safeflow_syntax::annot::{AnnExpr, Annotation};
use safeflow_syntax::span::Span;
use safeflow_util::hash::Fnv64;
use safeflow_util::metrics::{Class, Metrics};
use safeflow_util::pool::run_map;
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
/// The per-function signatures are independent of each other, so they are
/// computed on `config.jobs` pool workers over the flattened SCC order;
/// only the cheap Merkle chaining over `deps` is sequential. Results are
/// indexed by function, so the hashes are identical for every `jobs`.
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
    let order: Vec<FuncId> = callgraph.sccs.iter().flatten().copied().collect();
    let mut sigs = run_map(config.jobs, order.len(), |i| {
        function_sig(module, shm, pt, order[i], assumed_of.get(&order[i]))
    })
    .into_iter();
    let mut out: Vec<u64> = Vec::with_capacity(callgraph.sccs.len());
    for (i, scc) in callgraph.sccs.iter().enumerate() {
        let mut h = Fnv64::new();
        h.write_u64(env);
        h.write_usize(scc.len());
        for sig in sigs.by_ref().take(scc.len()) {
            h.write_u64(sig);
        }
        for &d in &deps[i] {
            h.write_u64(out[d]);
        }
        out.push(h.finish());
    }
    metrics.add_many(
        Class::Counter,
        &[
            ("engine.sccs_hashed", out.len() as u64),
            ("engine.functions_hashed", order.len() as u64),
        ],
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
/// reads from it, fed to FNV-64 by a structural byte encoder rather than
/// any text rendering. Every IR enum contributes one tag byte per variant,
/// every list and string a length prefix, every `Option` a presence tag,
/// and float constants their exact bits, so two functions that differ in
/// any operand, type, span or annotation field encode differently. The
/// encoders' matches are exhaustive: a new IR variant does not compile
/// until it is hashed.
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
    hash_type(&mut h, &func.ret);
    h.write_u8(func.is_definition as u8);
    h.write_usize(func.params.len());
    for p in &func.params {
        h.write_str(&p.name);
        hash_type(&mut h, &p.ty);
    }
    h.write_usize(func.annotations.len());
    for ann in &func.annotations {
        hash_annotation(&mut h, ann);
    }
    match assumed {
        None => h.write_u8(0),
        Some(assumed) => {
            h.write_u8(1);
            h.write_usize(assumed.len());
            for (r, mask) in assumed {
                h.write_u32(r.0);
                h.write_u64(*mask);
            }
        }
    }
    // Per-value analysis facts for parameters...
    for i in 0..func.params.len() {
        let v = Value::Param(i as u32);
        hash_value_facts(&mut h, shm, pt, fid, &v);
    }
    // ...and the IR itself, block by block, with per-result facts.
    h.write_usize(func.blocks.len());
    for (bid, block) in func.iter_blocks() {
        h.write_u32(bid.0);
        h.write_usize(block.insts.len());
        for &iid in &block.insts {
            let inst = func.inst(iid);
            h.write_u32(iid.0);
            hash_inst_kind(&mut h, &inst.kind);
            hash_type(&mut h, &inst.ty);
            hash_span(&mut h, inst.span);
            hash_value_facts(&mut h, shm, pt, fid, &Value::Inst(iid));
            // Store/load targets have facts on their operands too.
            inst.kind.for_each_operand(|op| hash_value_facts(&mut h, shm, pt, fid, op));
        }
        hash_terminator(&mut h, &block.terminator);
    }
    h.finish()
}

fn hash_span(h: &mut Fnv64, span: Span) {
    h.write_u32(span.file.0);
    h.write_u32(span.lo);
    h.write_u32(span.hi);
}

fn hash_type(h: &mut Fnv64, ty: &Type) {
    match ty {
        Type::Void => h.write_u8(0),
        Type::Int { bits, signed } => {
            h.write_u8(1);
            h.write_u8(*bits);
            h.write_u8(*signed as u8);
        }
        Type::Float { bits } => {
            h.write_u8(2);
            h.write_u8(*bits);
        }
        Type::Ptr(pointee) => {
            h.write_u8(3);
            hash_type(h, pointee);
        }
        Type::Array(elem, len) => {
            h.write_u8(4);
            hash_type(h, elem);
            h.write_u64(*len);
        }
        Type::Struct(id) => {
            h.write_u8(5);
            h.write_u32(id.0);
        }
    }
}

fn hash_value(h: &mut Fnv64, v: &Value) {
    match v {
        Value::Inst(id) => {
            h.write_u8(0);
            h.write_u32(id.0);
        }
        Value::Param(i) => {
            h.write_u8(1);
            h.write_u32(*i);
        }
        Value::Global(g) => {
            h.write_u8(2);
            h.write_u32(g.0);
        }
        Value::ConstInt(c, ty) => {
            h.write_u8(3);
            h.write_i64(*c);
            hash_type(h, ty);
        }
        Value::ConstFloat(c, ty) => {
            h.write_u8(4);
            h.write_u64(c.to_bits());
            hash_type(h, ty);
        }
        Value::ConstNull(ty) => {
            h.write_u8(5);
            hash_type(h, ty);
        }
    }
}

fn hash_callee(h: &mut Fnv64, callee: &Callee) {
    match callee {
        Callee::Local(f) => {
            h.write_u8(0);
            h.write_u32(f.0);
        }
        Callee::External(name) => {
            h.write_u8(1);
            h.write_str(name);
        }
    }
}

fn hash_inst_kind(h: &mut Fnv64, kind: &InstKind) {
    match kind {
        InstKind::Alloca { ty, name } => {
            h.write_u8(0);
            hash_type(h, ty);
            h.write_str(name);
        }
        InstKind::Load { ptr } => {
            h.write_u8(1);
            hash_value(h, ptr);
        }
        InstKind::Store { ptr, value } => {
            h.write_u8(2);
            hash_value(h, ptr);
            hash_value(h, value);
        }
        InstKind::FieldAddr { base, struct_id, field } => {
            h.write_u8(3);
            hash_value(h, base);
            h.write_u32(struct_id.0);
            h.write_u32(*field);
        }
        InstKind::ElemAddr { base, index } => {
            h.write_u8(4);
            hash_value(h, base);
            hash_value(h, index);
        }
        InstKind::Bin { op, lhs, rhs } => {
            h.write_u8(5);
            h.write_u8(*op as u8);
            hash_value(h, lhs);
            hash_value(h, rhs);
        }
        InstKind::Cmp { op, lhs, rhs } => {
            h.write_u8(6);
            h.write_u8(*op as u8);
            hash_value(h, lhs);
            hash_value(h, rhs);
        }
        InstKind::Cast { kind, value } => {
            h.write_u8(7);
            h.write_u8(*kind as u8);
            hash_value(h, value);
        }
        InstKind::Call { callee, args } => {
            h.write_u8(8);
            hash_callee(h, callee);
            h.write_usize(args.len());
            for a in args {
                hash_value(h, a);
            }
        }
        InstKind::Phi { incoming } => {
            h.write_u8(9);
            h.write_usize(incoming.len());
            for (pred, v) in incoming {
                h.write_u32(pred.0);
                hash_value(h, v);
            }
        }
        InstKind::AssertSafe { var, value } => {
            h.write_u8(10);
            h.write_str(var);
            hash_value(h, value);
        }
    }
}

fn hash_terminator(h: &mut Fnv64, term: &Terminator) {
    match term {
        Terminator::Br(target) => {
            h.write_u8(0);
            h.write_u32(target.0);
        }
        Terminator::CondBr { cond, then_bb, else_bb } => {
            h.write_u8(1);
            hash_value(h, cond);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Terminator::Switch { value, cases, default } => {
            h.write_u8(2);
            hash_value(h, value);
            h.write_usize(cases.len());
            for (c, target) in cases {
                h.write_i64(*c);
                h.write_u32(target.0);
            }
            h.write_u32(default.0);
        }
        Terminator::Ret(v) => {
            h.write_u8(3);
            match v {
                None => h.write_u8(0),
                Some(v) => {
                    h.write_u8(1);
                    hash_value(h, v);
                }
            }
        }
        Terminator::Unreachable => h.write_u8(4),
    }
}

fn hash_annotation(h: &mut Fnv64, ann: &Annotation) {
    match ann {
        Annotation::AssumeCore { ptr, offset, size, span } => {
            h.write_u8(0);
            h.write_str(ptr);
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::AssertSafe { var, span } => {
            h.write_u8(1);
            h.write_str(var);
            hash_span(h, *span);
        }
        Annotation::ShmInit { span } => {
            h.write_u8(2);
            hash_span(h, *span);
        }
        Annotation::ShmVar { ptr, size, span } => {
            h.write_u8(3);
            h.write_str(ptr);
            hash_ann_expr(h, size);
            hash_span(h, *span);
        }
        Annotation::Noncore { target, span } => {
            h.write_u8(4);
            h.write_str(target);
            hash_span(h, *span);
        }
        Annotation::Label { name, below, span } => {
            h.write_u8(5);
            h.write_str(name);
            match below {
                None => h.write_u8(0),
                Some(below) => {
                    h.write_u8(1);
                    h.write_str(below);
                }
            }
            hash_span(h, *span);
        }
        Annotation::Declassifier { from, to, span } => {
            h.write_u8(6);
            h.write_str(from);
            h.write_str(to);
            hash_span(h, *span);
        }
        Annotation::Channel { ptr, size, label, span } => {
            h.write_u8(7);
            h.write_str(ptr);
            hash_ann_expr(h, size);
            h.write_str(label);
            hash_span(h, *span);
        }
        Annotation::AssumeDeclassify { ptr, offset, size, to, span } => {
            h.write_u8(8);
            h.write_str(ptr);
            hash_ann_expr(h, offset);
            hash_ann_expr(h, size);
            h.write_str(to);
            hash_span(h, *span);
        }
    }
}

fn hash_ann_expr(h: &mut Fnv64, e: &AnnExpr) {
    match e {
        AnnExpr::Int(v) => {
            h.write_u8(0);
            h.write_i64(*v);
        }
        AnnExpr::Sizeof(name) => {
            h.write_u8(1);
            h.write_str(name);
        }
        AnnExpr::Ident(name) => {
            h.write_u8(2);
            h.write_str(name);
        }
        AnnExpr::Add(a, b) => hash_ann_operands(h, 3, a, b),
        AnnExpr::Sub(a, b) => hash_ann_operands(h, 4, a, b),
        AnnExpr::Mul(a, b) => hash_ann_operands(h, 5, a, b),
        AnnExpr::Div(a, b) => hash_ann_operands(h, 6, a, b),
    }
}

fn hash_ann_operands(h: &mut Fnv64, tag: u8, a: &AnnExpr, b: &AnnExpr) {
    h.write_u8(tag);
    hash_ann_expr(h, a);
    hash_ann_expr(h, b);
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
    use safeflow_ir::{
        build_module, BasicBlock, BinOp, BlockId, CastKind, CmpOp, Function, Inst, InstId, IrParam,
        StructId,
    };
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;
    use safeflow_syntax::span::FileId;

    fn hashes_for(src: &str) -> (Vec<String>, Vec<u64>) {
        hashes_at(src, 1)
    }

    fn hashes_at(src: &str, jobs: usize) -> (Vec<String>, Vec<u64>) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &["shmat".to_string()], &mut diags);
        let shm = identify_shm_pointers(&m, &regions);
        let pt = PointsTo::analyze(&m);
        let cg = CallGraph::build(&m);
        let config = AnalysisConfig::default().with_jobs(jobs);
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

    /// `jobs` never enters cache identity: the pooled signatures must
    /// chain to the same keys at every thread count.
    #[test]
    fn hashes_are_identical_across_thread_counts() {
        let src =
            safeflow_corpus::synthetic::generate_wide(safeflow_corpus::synthetic::WideParams {
                families: 3,
                depth: 2,
                regions: 2,
                branches: 2,
            });
        let (names, reference) = hashes_at(&src, 1);
        for jobs in [2, 8] {
            assert_eq!(hashes_at(&src, jobs), (names.clone(), reference.clone()), "jobs={jobs}");
        }
    }

    /// `function_sig` of `func` alone in a module, with no region or
    /// points-to facts: isolates the structural IR encoder.
    fn sig_of(func: &Function) -> u64 {
        let mut m = Module::new();
        let fid = m.add_function(func.clone());
        let empty = Module::new();
        let mut diags = Diagnostics::new();
        let regions = extract_regions(&empty, &[], &mut diags);
        let shm = identify_shm_pointers(&empty, &regions);
        let pt = PointsTo::analyze(&empty);
        function_sig(&m, &shm, &pt, fid, None)
    }

    /// One function exercising every `InstKind`, `Value`, `Terminator`,
    /// `Type`, `Annotation` shape the encoder distinguishes.
    fn encoder_base() -> Function {
        let i32t = Type::int32();
        let f64t = Type::f64();
        let inst = |kind: InstKind, ty: Type, lo: u32| Inst {
            kind,
            ty,
            span: Span::new(FileId(0), lo, lo + 1),
        };
        let v = |i: u32| Value::Inst(InstId(i));
        let insts = vec![
            inst(InstKind::Alloca { ty: i32t.clone(), name: "v".into() }, i32t.ptr_to(), 0),
            inst(InstKind::Load { ptr: v(0) }, i32t.clone(), 1),
            inst(InstKind::Store { ptr: v(0), value: Value::Param(0) }, Type::Void, 2),
            inst(
                InstKind::FieldAddr { base: Value::Param(1), struct_id: StructId(0), field: 1 },
                i32t.ptr_to(),
                3,
            ),
            inst(
                InstKind::ElemAddr { base: Value::Param(1), index: Value::i32(2) },
                i32t.ptr_to(),
                4,
            ),
            inst(InstKind::Bin { op: BinOp::Add, lhs: v(1), rhs: Value::i32(1) }, i32t.clone(), 5),
            inst(InstKind::Cmp { op: CmpOp::Lt, lhs: v(5), rhs: Value::Param(0) }, i32t.clone(), 6),
            inst(InstKind::Cast { kind: CastKind::IntToFloat, value: v(5) }, f64t.clone(), 7),
            inst(
                InstKind::Call {
                    callee: Callee::Local(FuncId(0)),
                    args: vec![v(5), Value::ConstFloat(0.0, f64t.clone())],
                },
                i32t.clone(),
                8,
            ),
            inst(
                InstKind::Call {
                    callee: Callee::External("kill".into()),
                    args: vec![Value::Global(GlobalId(0)), Value::ConstNull(Type::void_ptr())],
                },
                i32t.clone(),
                9,
            ),
            inst(
                InstKind::Phi { incoming: vec![(BlockId(0), v(5)), (BlockId(1), v(1))] },
                i32t.clone(),
                10,
            ),
            inst(InstKind::AssertSafe { var: "v".into(), value: v(5) }, Type::Void, 11),
        ];
        let block = |insts: Vec<u32>, terminator: Terminator| BasicBlock {
            insts: insts.into_iter().map(InstId).collect(),
            terminator,
            name: String::new(),
        };
        let blocks = vec![
            block(
                (0..10).collect(),
                Terminator::CondBr { cond: v(6), then_bb: BlockId(1), else_bb: BlockId(2) },
            ),
            block(vec![], Terminator::Br(BlockId(2))),
            block(
                vec![10, 11],
                Terminator::Switch {
                    value: v(10),
                    cases: vec![(1, BlockId(3)), (2, BlockId(4))],
                    default: BlockId(3),
                },
            ),
            block(vec![], Terminator::Ret(None)),
            block(vec![], Terminator::Unreachable),
        ];
        let ann_span = Span::new(FileId(0), 100, 120);
        Function {
            name: "f".into(),
            ret: i32t.clone(),
            params: vec![
                IrParam { name: "x".into(), ty: i32t.clone() },
                IrParam {
                    name: "p".into(),
                    ty: Type::Ptr(Box::new(Type::Array(Box::new(Type::Struct(StructId(0))), 4))),
                },
            ],
            varargs: false,
            insts,
            blocks,
            annotations: vec![
                Annotation::AssumeCore {
                    ptr: "p".into(),
                    offset: AnnExpr::Int(0),
                    size: AnnExpr::Mul(
                        Box::new(AnnExpr::Sizeof("SHMData".into())),
                        Box::new(AnnExpr::Ident("N".into())),
                    ),
                    span: ann_span,
                },
                Annotation::Label { name: "sensor".into(), below: None, span: ann_span },
            ],
            is_definition: true,
            span: Span::dummy(),
        }
    }

    /// A collision in the structural encoder would replay a stale summary:
    /// every one-field edit of the IR must move the signature, and no two
    /// edits may land on the same one.
    #[test]
    fn every_one_field_edit_changes_the_signature() {
        fn kind(f: &mut Function, i: usize) -> &mut InstKind {
            &mut f.insts[i].kind
        }
        fn term(f: &mut Function, b: usize) -> &mut Terminator {
            &mut f.blocks[b].terminator
        }
        type Edit = (&'static str, fn(&mut Function));
        let edits: Vec<Edit> = vec![
            // Type
            ("ret Void", |f| f.ret = Type::Void),
            ("int signedness", |f| f.params[0].ty = Type::Int { bits: 32, signed: false }),
            ("int width", |f| f.params[0].ty = Type::Int { bits: 16, signed: true }),
            ("float width", |f| f.insts[7].ty = Type::f32()),
            ("ptr pointee", |f| f.insts[0].ty = Type::int8().ptr_to()),
            ("Ptr(Array) -> Array(Ptr)", |f| {
                f.params[1].ty =
                    Type::Array(Box::new(Type::Ptr(Box::new(Type::Struct(StructId(0))))), 4)
            }),
            ("array length", |f| {
                f.params[1].ty =
                    Type::Ptr(Box::new(Type::Array(Box::new(Type::Struct(StructId(0))), 5)))
            }),
            ("struct id", |f| {
                f.params[1].ty =
                    Type::Ptr(Box::new(Type::Array(Box::new(Type::Struct(StructId(1))), 4)))
            }),
            // Value
            ("Inst id", |f| *kind(f, 1) = InstKind::Load { ptr: Value::Inst(InstId(3)) }),
            ("Param index", |f| {
                *kind(f, 2) =
                    InstKind::Store { ptr: Value::Inst(InstId(0)), value: Value::Param(1) }
            }),
            ("Param -> Inst", |f| {
                *kind(f, 2) =
                    InstKind::Store { ptr: Value::Inst(InstId(0)), value: Value::Inst(InstId(0)) }
            }),
            ("Global id", |f| {
                let InstKind::Call { args, .. } = kind(f, 9) else { unreachable!() };
                args[0] = Value::Global(GlobalId(1));
            }),
            ("ConstInt value", |f| {
                *kind(f, 4) = InstKind::ElemAddr { base: Value::Param(1), index: Value::i32(3) }
            }),
            ("ConstInt type", |f| {
                *kind(f, 4) = InstKind::ElemAddr {
                    base: Value::Param(1),
                    index: Value::ConstInt(2, Type::int64()),
                }
            }),
            ("ConstFloat 0.0 -> -0.0", |f| {
                let InstKind::Call { args, .. } = kind(f, 8) else { unreachable!() };
                args[1] = Value::ConstFloat(-0.0, Type::f64());
            }),
            ("ConstFloat type", |f| {
                let InstKind::Call { args, .. } = kind(f, 8) else { unreachable!() };
                args[1] = Value::ConstFloat(0.0, Type::f32());
            }),
            ("ConstNull type", |f| {
                let InstKind::Call { args, .. } = kind(f, 9) else { unreachable!() };
                args[1] = Value::ConstNull(Type::int32().ptr_to());
            }),
            // InstKind
            ("Alloca type", |f| {
                *kind(f, 0) = InstKind::Alloca { ty: Type::int64(), name: "v".into() }
            }),
            ("Alloca name", |f| {
                *kind(f, 0) = InstKind::Alloca { ty: Type::int32(), name: "w".into() }
            }),
            ("Store ptr", |f| {
                *kind(f, 2) =
                    InstKind::Store { ptr: Value::Inst(InstId(3)), value: Value::Param(0) }
            }),
            ("FieldAddr base", |f| {
                *kind(f, 3) =
                    InstKind::FieldAddr { base: Value::Param(0), struct_id: StructId(0), field: 1 }
            }),
            ("FieldAddr struct", |f| {
                *kind(f, 3) =
                    InstKind::FieldAddr { base: Value::Param(1), struct_id: StructId(1), field: 1 }
            }),
            ("FieldAddr field", |f| {
                *kind(f, 3) =
                    InstKind::FieldAddr { base: Value::Param(1), struct_id: StructId(0), field: 0 }
            }),
            ("ElemAddr base", |f| {
                *kind(f, 4) = InstKind::ElemAddr { base: Value::Param(0), index: Value::i32(2) }
            }),
            ("Bin op", |f| {
                *kind(f, 5) = InstKind::Bin {
                    op: BinOp::Sub,
                    lhs: Value::Inst(InstId(1)),
                    rhs: Value::i32(1),
                }
            }),
            ("Bin -> Cmp", |f| {
                *kind(f, 5) =
                    InstKind::Cmp { op: CmpOp::Eq, lhs: Value::Inst(InstId(1)), rhs: Value::i32(1) }
            }),
            ("Bin operands swapped", |f| {
                *kind(f, 5) = InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::i32(1),
                    rhs: Value::Inst(InstId(1)),
                }
            }),
            ("Cmp op", |f| {
                *kind(f, 6) = InstKind::Cmp {
                    op: CmpOp::Le,
                    lhs: Value::Inst(InstId(5)),
                    rhs: Value::Param(0),
                }
            }),
            ("Cast kind", |f| {
                *kind(f, 7) =
                    InstKind::Cast { kind: CastKind::IntToInt, value: Value::Inst(InstId(5)) }
            }),
            ("Call local callee", |f| {
                let InstKind::Call { callee, .. } = kind(f, 8) else { unreachable!() };
                *callee = Callee::Local(FuncId(1));
            }),
            ("Call external name", |f| {
                let InstKind::Call { callee, .. } = kind(f, 9) else { unreachable!() };
                *callee = Callee::External("reboot".into());
            }),
            ("Call one more argument", |f| {
                let InstKind::Call { args, .. } = kind(f, 8) else { unreachable!() };
                args.push(Value::i32(0));
            }),
            ("Call one fewer argument", |f| {
                let InstKind::Call { args, .. } = kind(f, 8) else { unreachable!() };
                args.pop();
            }),
            ("Phi incoming swapped", |f| {
                let InstKind::Phi { incoming } = kind(f, 10) else { unreachable!() };
                incoming.swap(0, 1);
            }),
            ("Phi predecessor", |f| {
                let InstKind::Phi { incoming } = kind(f, 10) else { unreachable!() };
                incoming[1].0 = BlockId(2);
            }),
            ("AssertSafe var", |f| {
                *kind(f, 11) =
                    InstKind::AssertSafe { var: "u".into(), value: Value::Inst(InstId(5)) }
            }),
            ("AssertSafe value", |f| {
                *kind(f, 11) =
                    InstKind::AssertSafe { var: "v".into(), value: Value::Inst(InstId(6)) }
            }),
            // Inst metadata
            ("inst type", |f| f.insts[5].ty = Type::int64()),
            ("inst span", |f| f.insts[5].span = Span::new(FileId(0), 5, 7)),
            ("inst file", |f| f.insts[5].span = Span::new(FileId(1), 5, 6)),
            ("inst moved between blocks", |f| {
                let moved = f.blocks[0].insts.pop().unwrap();
                f.blocks[1].insts.push(moved);
            }),
            // Terminator
            ("Br target", |f| *term(f, 1) = Terminator::Br(BlockId(3))),
            ("CondBr cond", |f| {
                *term(f, 0) = Terminator::CondBr {
                    cond: Value::Inst(InstId(5)),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                }
            }),
            ("CondBr targets swapped", |f| {
                *term(f, 0) = Terminator::CondBr {
                    cond: Value::Inst(InstId(6)),
                    then_bb: BlockId(2),
                    else_bb: BlockId(1),
                }
            }),
            ("Switch case value", |f| {
                let Terminator::Switch { cases, .. } = term(f, 2) else { unreachable!() };
                cases[0].0 = 7;
            }),
            ("Switch extra case", |f| {
                let Terminator::Switch { cases, .. } = term(f, 2) else { unreachable!() };
                cases.push((3, BlockId(3)));
            }),
            ("Switch default", |f| {
                let Terminator::Switch { default, .. } = term(f, 2) else { unreachable!() };
                *default = BlockId(4);
            }),
            ("Ret(None) -> Ret(Some(0))", |f| *term(f, 3) = Terminator::Ret(Some(Value::i32(0)))),
            ("Unreachable -> Ret(None)", |f| *term(f, 4) = Terminator::Ret(None)),
            // Function header and annotations
            ("name", |f| f.name = "g".into()),
            ("param name", |f| f.params[0].name = "y".into()),
            ("prototype", |f| f.is_definition = false),
            ("assume(core) offset", |f| {
                let Annotation::AssumeCore { offset, .. } = &mut f.annotations[0] else {
                    unreachable!()
                };
                *offset = AnnExpr::Int(4);
            }),
            ("assume(core) sizeof -> ident", |f| {
                let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] else {
                    unreachable!()
                };
                *size = AnnExpr::Mul(
                    Box::new(AnnExpr::Ident("SHMData".into())),
                    Box::new(AnnExpr::Ident("N".into())),
                );
            }),
            ("assume(core) Mul -> Div", |f| {
                let Annotation::AssumeCore { size, .. } = &mut f.annotations[0] else {
                    unreachable!()
                };
                *size = AnnExpr::Div(
                    Box::new(AnnExpr::Sizeof("SHMData".into())),
                    Box::new(AnnExpr::Ident("N".into())),
                );
            }),
            ("assume(core) ptr", |f| {
                let Annotation::AssumeCore { ptr, .. } = &mut f.annotations[0] else {
                    unreachable!()
                };
                *ptr = "q".into();
            }),
            ("label below", |f| {
                let Annotation::Label { below, .. } = &mut f.annotations[1] else { unreachable!() };
                *below = Some("sensor".into());
            }),
            ("annotation span", |f| {
                let Annotation::Label { span, .. } = &mut f.annotations[1] else { unreachable!() };
                *span = Span::new(FileId(0), 100, 121);
            }),
            ("annotations swapped", |f| f.annotations.swap(0, 1)),
        ];
        let base = encoder_base();
        let base_sig = sig_of(&base);
        assert_eq!(base_sig, sig_of(&base.clone()), "signature must be reproducible");
        let mut seen: HashMap<u64, &str> = HashMap::new();
        seen.insert(base_sig, "base");
        for (what, edit) in edits {
            let mut f = base.clone();
            edit(&mut f);
            // `Debug`, not `==`: `0.0 == -0.0`, yet they are different IR.
            assert_ne!(
                format!("{f:?}"),
                format!("{base:?}"),
                "{what}: the edit must change the IR"
            );
            if let Some(prev) = seen.insert(sig_of(&f), what) {
                panic!("`{what}` hashes like `{prev}`");
            }
        }
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
