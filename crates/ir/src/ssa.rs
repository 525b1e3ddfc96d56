//! SSA construction (mem2reg): promotes address-never-taken scalar `Alloca`
//! slots to φ-joined SSA values.
//!
//! Lowering spills every C local to an `Alloca`; this pass gives the value
//! flow analysis (paper §3.3, phase 3) direct def-use edges for scalars
//! while leaving address-taken and aggregate locals in memory, where the
//! points-to analysis handles them.
//!
//! Standard algorithm: iterated dominance frontiers for φ placement
//! (Cytron et al.), then a renaming walk over the dominator tree.
//!
//! Every table is indexed densely — slots by promotion order, blocks and
//! instructions by id — and each block keeps its own φ list, so the pass
//! is linear in the function's instructions plus the φs it places (the
//! dominance-frontier walk aside). Functions are independent:
//! [`promote_module_jobs`] promotes each one as its own task on the worker
//! pool, and the IR it produces is identical for every `jobs` value.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::*;
use crate::types::Type;
use std::sync::Mutex;

/// Promotes eligible allocas in every defined function of `module`.
///
/// Returns the total number of promoted slots.
pub fn promote_module(module: &mut Module) -> usize {
    promote_module_jobs(module, 1)
}

/// [`promote_module`] with each function promoted as its own task on
/// `jobs` worker threads. The result does not depend on `jobs`: functions
/// share nothing, and each one is promoted exactly as [`promote_to_ssa`]
/// would on its own.
pub fn promote_module_jobs(module: &mut Module, jobs: usize) -> usize {
    let cells: Vec<Mutex<&mut Function>> =
        module.functions.iter_mut().filter(|f| f.is_definition).map(Mutex::new).collect();
    safeflow_util::pool::run_map(jobs.max(1), cells.len(), |i| {
        promote_to_ssa(&mut cells[i].lock().expect("each cell is locked by its one task only"))
    })
    .into_iter()
    .sum()
}

/// Sentinel in the instruction → slot table: not a promotable alloca.
const NO_SLOT: u32 = u32::MAX;

/// Promotes eligible allocas in `func` to SSA values. Returns how many
/// slots were promoted.
///
/// An alloca is eligible when its type is scalar and its address is used
/// *only* as the pointer operand of loads and stores — exactly the slots
/// whose address never escapes.
pub fn promote_to_ssa(func: &mut Function) -> usize {
    if func.blocks.is_empty() {
        return 0;
    }
    let mut cfg = Cfg::build(func);
    if clear_unreachable_blocks(func, &cfg) {
        // Cleared blocks lost their out-edges, and with them their place
        // among the predecessors of reachable blocks.
        cfg = Cfg::build(func);
    }
    let (slot_of, slots) = find_promotable(func);
    if slots.is_empty() {
        return 0;
    }
    let dom = DomTree::build(&cfg);
    let slot = |v: &Value| match v {
        Value::Inst(id) => match slot_of.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        },
        _ => None,
    };

    // ---- φ placement ----------------------------------------------------
    // defs[s] = blocks storing to slot s, ascending. φ ids are allocated in
    // placement order (slots ascending, then worklist order), and the
    // summary cache content-hashes the IR, so the order is part of the
    // output and must be reproducible run to run.
    let nblocks = func.blocks.len();
    let mut defs: Vec<Vec<BlockId>> = vec![Vec::new(); slots.len()];
    for (bid, block) in func.iter_blocks() {
        for &iid in &block.insts {
            if let InstKind::Store { ptr, .. } = &func.inst(iid).kind {
                if let Some(s) = slot(ptr) {
                    if defs[s].last() != Some(&bid) {
                        defs[s].push(bid);
                    }
                }
            }
        }
    }

    // phis[b] = (slot, φ) pairs placed in block b, slots ascending.
    let mut phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); nblocks];
    // Per-block marks, stamped with the slot being placed.
    let mut placed = vec![usize::MAX; nblocks];
    let mut considered = vec![usize::MAX; nblocks];
    let mut work: Vec<BlockId> = Vec::new();
    for (s, def) in defs.iter().enumerate() {
        if def.is_empty() {
            continue;
        }
        let alloca = func.inst(slots[s]);
        let ty = match &alloca.kind {
            InstKind::Alloca { ty, .. } => ty.clone(),
            _ => unreachable!("slots only hold allocas"),
        };
        let span = alloca.span;
        for &b in def {
            considered[b.0 as usize] = s;
        }
        work.extend_from_slice(def);
        while let Some(b) = work.pop() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &df in &dom.frontier[b.0 as usize] {
                let d = df.0 as usize;
                if placed[d] == s {
                    continue;
                }
                placed[d] = s;
                let phi_id = InstId(func.insts.len() as u32);
                func.insts.push(Inst {
                    kind: InstKind::Phi { incoming: Vec::new() },
                    ty: ty.clone(),
                    span,
                });
                phis[d].push((s, phi_id));
                if considered[d] != s {
                    considered[d] = s;
                    work.push(df);
                }
            }
        }
    }
    // Each block's φs go in front of its instructions, latest-placed first.
    for (block, block_phis) in func.blocks.iter_mut().zip(&phis) {
        if !block_phis.is_empty() {
            block.insts.splice(0..0, block_phis.iter().rev().map(|&(_, phi)| phi));
        }
    }

    // ---- renaming walk ----------------------------------------------------
    let mut walk = Rename {
        stacks: vec![Vec::new(); slots.len()],
        replace: vec![None; func.insts.len()],
        dead: vec![false; func.insts.len()],
        undo: Vec::new(),
    };
    for &a in &slots {
        walk.dead[a.0 as usize] = true; // the alloca itself
    }

    // Iterative DFS over the dominator tree. Each frame remembers how long
    // the undo log was when its block was entered.
    struct Frame {
        block: BlockId,
        child_idx: usize,
        undo_mark: usize,
    }
    let entry = func.entry();
    walk.block(func, &cfg, entry, &phis, &slot);
    let mut frames = vec![Frame { block: entry, child_idx: 0, undo_mark: 0 }];
    while let Some(top) = frames.last_mut() {
        let children = &dom.children[top.block.0 as usize];
        if top.child_idx < children.len() {
            let child = children[top.child_idx];
            top.child_idx += 1;
            if !cfg.is_reachable(child) {
                continue;
            }
            let undo_mark = walk.undo.len();
            walk.block(func, &cfg, child, &phis, &slot);
            frames.push(Frame { block: child, child_idx: 0, undo_mark });
        } else {
            // Pop: undo this block's stack pushes.
            let frame = frames.pop().expect("the loop condition saw a frame");
            for s in walk.undo.drain(frame.undo_mark..) {
                walk.stacks[s].pop();
            }
        }
    }

    // ---- cleanup ----------------------------------------------------------
    // Remove dead instructions from block lists and rewrite any remaining
    // operand references through the replacement map, following chains
    // (phi incoming values were already resolved during renaming).
    let Rename { replace, dead, .. } = walk;
    let replaced = replace.iter().flatten().count();
    for block in &mut func.blocks {
        block.insts.retain(|i| !dead[i.0 as usize]);
    }
    let resolve = |op: &mut Value| {
        let mut guard = 0;
        while let Value::Inst(id) = *op {
            match replace.get(id.0 as usize).and_then(Option::as_ref) {
                Some(next) => {
                    *op = next.clone();
                    guard += 1;
                    if guard > replaced + 1 {
                        break;
                    }
                }
                None => break,
            }
        }
    };
    for inst in &mut func.insts {
        inst.kind.for_each_operand_mut(resolve);
    }
    for block in &mut func.blocks {
        block.terminator.for_each_operand_mut(resolve);
    }

    slots.len()
}

/// Replaces bodies of blocks unreachable in `cfg` with empty `Unreachable`
/// stubs so later passes can ignore them. Returns whether any terminator
/// was replaced, i.e. whether `cfg`'s edges are now stale.
fn clear_unreachable_blocks(func: &mut Function, cfg: &Cfg) -> bool {
    let mut edges_changed = false;
    for (i, block) in func.blocks.iter_mut().enumerate() {
        if !cfg.is_reachable(BlockId(i as u32)) {
            block.insts.clear();
            edges_changed |= !matches!(block.terminator, Terminator::Unreachable);
            block.terminator = Terminator::Unreachable;
        }
    }
    edges_changed
}

/// State of the renaming walk over the dominator tree.
struct Rename {
    /// `stacks[s]` = reaching definitions of slot `s`, innermost last.
    stacks: Vec<Vec<Value>>,
    /// `replace[i]` = the value a removed load `%i` stands for.
    replace: Vec<Option<Value>>,
    /// `dead[i]` = `%i` is deleted from its block list.
    dead: Vec<bool>,
    /// Slots pushed onto `stacks`, in push order, for undoing on the way
    /// back up the tree.
    undo: Vec<usize>,
}

impl Rename {
    /// Replaces `op` by the value of the removed load it names, if any
    /// (one step, no chains).
    fn rewrite(replace: &[Option<Value>], op: &mut Value) {
        if let Value::Inst(id) = op {
            if let Some(Some(v)) = replace.get(id.0 as usize) {
                *op = v.clone();
            }
        }
    }

    /// The current value of slot `s`, or the undefined placeholder of `ty`.
    fn current(&self, s: usize, ty: &Type) -> Value {
        self.stacks[s].last().cloned().unwrap_or_else(|| undef_value(ty))
    }

    /// Renames `block`: pushes its φ-defs and stores, replaces its loads,
    /// and fills the φ incoming entries of its successors.
    fn block(
        &mut self,
        func: &mut Function,
        cfg: &Cfg,
        block: BlockId,
        phis: &[Vec<(usize, InstId)>],
        slot: &impl Fn(&Value) -> Option<usize>,
    ) {
        // φ-defs first: they become the current value of their variable.
        for &(s, phi) in &phis[block.0 as usize] {
            self.stacks[s].push(Value::Inst(phi));
            self.undo.push(s);
        }

        let Function { blocks, insts, .. } = func;
        let bb = &mut blocks[block.0 as usize];
        for &iid in &bb.insts {
            let inst = &mut insts[iid.0 as usize];
            // Rewrite operands through the replacement map first.
            inst.kind.for_each_operand_mut(|op| Rename::rewrite(&self.replace, op));
            match &inst.kind {
                InstKind::Load { ptr } => {
                    if let Some(s) = slot(ptr) {
                        let current = self.current(s, &inst.ty);
                        self.replace[iid.0 as usize] = Some(current);
                        self.dead[iid.0 as usize] = true;
                    }
                }
                InstKind::Store { ptr, value } => {
                    if let Some(s) = slot(ptr) {
                        self.stacks[s].push(value.clone());
                        self.undo.push(s);
                        self.dead[iid.0 as usize] = true;
                    }
                }
                _ => {}
            }
        }
        bb.terminator.for_each_operand_mut(|op| Rename::rewrite(&self.replace, op));

        // Fill φ incoming in successors with our current values.
        for &succ in cfg.succs_of(block) {
            for &(s, phi) in &phis[succ.0 as usize] {
                let phi = &mut insts[phi.0 as usize];
                let current = self.current(s, &phi.ty);
                if let InstKind::Phi { incoming } = &mut phi.kind {
                    incoming.push((block, current));
                }
            }
        }
    }
}

/// The "undefined" placeholder for a type (reads before any write).
fn undef_value(ty: &Type) -> Value {
    match ty {
        Type::Float { .. } => Value::ConstFloat(0.0, ty.clone()),
        Type::Ptr(_) => Value::ConstNull(ty.clone()),
        _ => Value::ConstInt(0, ty.clone()),
    }
}

/// Allocas whose address is only used by loads and stores (as the
/// pointer), numbered as slots in ascending `InstId` order. Returns the
/// instruction → slot table (`NO_SLOT` for everything else) and the slots'
/// allocas.
fn find_promotable(func: &Function) -> (Vec<u32>, Vec<InstId>) {
    let mut candidate = vec![false; func.insts.len()];
    for (iid, inst) in func.iter_insts() {
        if let InstKind::Alloca { ty, .. } = &inst.kind {
            if ty.is_scalar() {
                candidate[iid.0 as usize] = true;
            }
        }
    }
    let mut disqualify = |v: &Value| {
        if let Value::Inst(id) = v {
            if let Some(c) = candidate.get_mut(id.0 as usize) {
                *c = false;
            }
        }
    };
    // Disqualify allocas used outside load/store-pointer position.
    for (_, inst) in func.iter_insts() {
        match &inst.kind {
            InstKind::Load { ptr: Value::Inst(_) } => {}
            // Storing the *address itself* somewhere disqualifies it.
            InstKind::Store { ptr: Value::Inst(_), value } => disqualify(value),
            other => other.for_each_operand(&mut disqualify),
        }
    }
    for (_, block) in func.iter_blocks() {
        block.terminator.for_each_operand(&mut disqualify);
    }
    let mut slot_of = vec![NO_SLOT; func.insts.len()];
    let mut slots = Vec::new();
    for (i, _) in candidate.iter().enumerate().filter(|(_, &c)| c) {
        slot_of[i] = slots.len() as u32;
        slots.push(InstId(i as u32));
    }
    (slot_of, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn lower_and_promote(src: &str) -> Module {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let mut m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{:?}", diags);
        promote_module(&mut m);
        m
    }

    fn func<'m>(m: &'m Module, name: &str) -> &'m Function {
        m.function(m.function_by_name(name).unwrap())
    }

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.iter_insts().filter(|(_, i)| pred(&i.kind)).count()
    }

    #[test]
    fn straightline_locals_fully_promoted() {
        let m = lower_and_promote("int f(int a, int b) { int c = a + b; return c * 2; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Load { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Store { .. })), 0);
    }

    #[test]
    fn diamond_inserts_phi() {
        let m =
            lower_and_promote("int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }");
        let f = func(&m, "f");
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 1);
        // The return must flow from a phi.
        let ret_block = f
            .iter_blocks()
            .find(|(_, b)| matches!(b.terminator, Terminator::Ret(Some(_))))
            .unwrap();
        match &ret_block.1.terminator {
            Terminator::Ret(Some(Value::Inst(id))) => {
                assert!(matches!(f.inst(*id).kind, InstKind::Phi { .. }));
            }
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    #[test]
    fn phi_incoming_matches_predecessors() {
        let m =
            lower_and_promote("int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }");
        let f = func(&m, "f");
        let cfg = Cfg::build(f);
        for (bid, block) in f.iter_blocks() {
            for &iid in &block.insts {
                if let InstKind::Phi { incoming } = &f.inst(iid).kind {
                    let mut inc_blocks: Vec<BlockId> = incoming.iter().map(|(b, _)| *b).collect();
                    inc_blocks.sort();
                    let mut preds = cfg.preds_of(bid).to_vec();
                    preds.sort();
                    assert_eq!(inc_blocks, preds, "phi incoming must cover predecessors");
                }
            }
        }
    }

    #[test]
    fn loop_counter_becomes_phi() {
        let m = lower_and_promote(
            "int f(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        );
        let f = func(&m, "f");
        // i and s each need a phi at the loop header.
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 2);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }

    #[test]
    fn address_taken_local_not_promoted() {
        let m = lower_and_promote("void g(int *p); int f(void) { int x = 1; g(&x); return x; }");
        let f = func(&m, "f");
        // x's alloca must survive (its address escapes into g).
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 1);
        assert!(count_kind(f, |k| matches!(k, InstKind::Load { .. })) >= 1);
    }

    #[test]
    fn aggregate_local_not_promoted() {
        let m = lower_and_promote(
            "typedef struct { int a; int b; } P; int f(void) { P p; p.a = 1; return p.a; }",
        );
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 1);
    }

    #[test]
    fn globals_unaffected_by_promotion() {
        let m = lower_and_promote("int g; int f(void) { g = 3; return g; }");
        let f = func(&m, "f");
        // Loads/stores to globals stay.
        assert!(count_kind(f, |k| matches!(k, InstKind::Store { .. })) >= 1);
        assert!(count_kind(f, |k| matches!(k, InstKind::Load { .. })) >= 1);
    }

    #[test]
    fn short_circuit_scratch_promoted_to_phi() {
        let m = lower_and_promote("int f(int a, int b) { return a && b; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi { .. })) >= 1);
    }

    #[test]
    fn use_before_def_gets_undef_constant() {
        // `r` is only assigned in one branch; the other path merges an undef
        // placeholder rather than crashing.
        let m = lower_and_promote("int f(int x) { int r; if (x) r = 5; return r; }");
        let f = func(&m, "f");
        let phi_count = count_kind(f, |k| matches!(k, InstKind::Phi { .. }));
        assert!(phi_count >= 1);
    }

    #[test]
    fn params_promote_cleanly() {
        let m = lower_and_promote("int f(int a) { a = a + 1; return a; }");
        let f = func(&m, "f");
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }

    #[test]
    fn figure2_main_promotes_scalars() {
        let m = lower_and_promote(
            r#"
            typedef struct { float control; } SHMData;
            SHMData *feedback;
            void *shmat(int shmid, void *addr, int flags);
            float decision(SHMData *f, float s);
            void sendControl(float output);
            int main() {
                void *shmStart;
                float output;
                shmStart = shmat(0, 0, 0);
                feedback = (SHMData *) shmStart;
                output = decision(feedback, 1.0);
                sendControl(output);
                return 0;
            }
            "#,
        );
        let f = func(&m, "main");
        // All scalars (shmStart, output) promoted.
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
    }

    // ---- order-exact cases on hand-built IR -------------------------------
    //
    // The expected texts pin `InstId` numbering, φ order within a block and
    // φ incoming order. The summary cache and the store hash this IR, so a
    // change to any of them invalidates every stored summary.

    use crate::print::print_function;
    use safeflow_syntax::span::Span;

    fn inst(kind: InstKind, ty: Type) -> Inst {
        Inst { kind, ty, span: Span::dummy() }
    }

    fn alloca(ty: Type, name: &str) -> Inst {
        let addr = ty.ptr_to();
        inst(InstKind::Alloca { ty, name: name.into() }, addr)
    }

    fn load(slot: u32, ty: Type) -> Inst {
        inst(InstKind::Load { ptr: v(slot) }, ty)
    }

    fn store(value: Value, slot: u32) -> Inst {
        inst(InstKind::Store { ptr: v(slot), value }, Type::Void)
    }

    fn add(lhs: Value, rhs: Value, ty: Type) -> Inst {
        inst(InstKind::Bin { op: BinOp::Add, lhs, rhs }, ty)
    }

    fn v(id: u32) -> Value {
        Value::Inst(InstId(id))
    }

    fn condbr(cond: Value, then_bb: u32, else_bb: u32) -> Terminator {
        Terminator::CondBr { cond, then_bb: BlockId(then_bb), else_bb: BlockId(else_bb) }
    }

    /// Builds `f(%arg0, %arg1)` from `(insts, terminator)` blocks, promotes
    /// it, and prints it. Every instruction goes into the arena in listing
    /// order, so the `n`-th instruction listed is `%n`.
    fn promote_hand_built(blocks: Vec<(Vec<Inst>, Terminator)>) -> (Function, String) {
        let mut insts = Vec::new();
        let mut bbs = Vec::new();
        for (i, (body, terminator)) in blocks.into_iter().enumerate() {
            let first = insts.len() as u32;
            let ids = (first..first + body.len() as u32).map(InstId).collect();
            insts.extend(body);
            bbs.push(BasicBlock { insts: ids, terminator, name: format!("b{i}") });
        }
        let param = |name: &str| IrParam { name: name.into(), ty: Type::int32() };
        let mut m = Module::new();
        let id = m.add_function(Function {
            name: "f".into(),
            ret: Type::int32(),
            params: vec![param("p"), param("q")],
            varargs: false,
            insts,
            blocks: bbs,
            annotations: vec![],
            is_definition: true,
            span: Span::dummy(),
        });
        promote_module(&mut m);
        let text = print_function(&m, id);
        (m.functions.swap_remove(id.0 as usize), text)
    }

    #[test]
    fn two_slots_joining_in_one_block_keep_phi_and_incoming_order() {
        let int = Type::int32;
        let (_, text) = promote_hand_built(vec![
            (vec![alloca(int(), "a"), alloca(int(), "b")], condbr(Value::Param(0), 1, 2)),
            (vec![store(Value::i32(1), 0), store(Value::i32(2), 1)], Terminator::Br(BlockId(3))),
            (vec![store(Value::i32(3), 0), store(Value::i32(4), 1)], Terminator::Br(BlockId(3))),
            (
                vec![load(0, int()), load(1, int()), add(v(6), v(7), int())],
                Terminator::Ret(Some(v(8))),
            ),
        ]);
        // `a`'s φ is placed first (%9) and so ends up second in the block.
        assert_eq!(
            text,
            "fn @f(%arg0: i32, %arg1: i32) -> i32 {\n\
             bb0: ; b0\n  condbr %arg0, bb1, bb2\n\
             bb1: ; b1\n  br bb3\n\
             bb2: ; b2\n  br bb3\n\
             bb3: ; b3\n  %10 = phi [bb1: 2], [bb2: 4]\n  %9 = phi [bb1: 1], [bb2: 3]\n  \
             %8 = add %9, %10\n  ret %8\n\
             }\n"
        );
    }

    #[test]
    fn condbr_with_both_edges_to_one_block_gives_two_incoming_entries() {
        let int = Type::int32;
        let (_, text) = promote_hand_built(vec![
            (vec![alloca(int(), "a")], condbr(Value::Param(0), 1, 2)),
            (vec![store(Value::i32(1), 0)], condbr(Value::Param(1), 3, 3)),
            (vec![store(Value::i32(2), 0)], Terminator::Br(BlockId(3))),
            (vec![load(0, int())], Terminator::Ret(Some(v(3)))),
        ]);
        assert_eq!(
            text,
            "fn @f(%arg0: i32, %arg1: i32) -> i32 {\n\
             bb0: ; b0\n  condbr %arg0, bb1, bb2\n\
             bb1: ; b1\n  condbr %arg1, bb3, bb3\n\
             bb2: ; b2\n  br bb3\n\
             bb3: ; b3\n  %4 = phi [bb1: 1], [bb1: 1], [bb2: 2]\n  ret %4\n\
             }\n"
        );
    }

    #[test]
    fn unreachable_pred_contributes_no_incoming_and_becomes_a_stub() {
        let int = Type::int32;
        let (f, text) = promote_hand_built(vec![
            (vec![alloca(int(), "a"), store(Value::i32(1), 0)], condbr(Value::Param(0), 1, 2)),
            (vec![store(Value::i32(2), 0)], Terminator::Br(BlockId(2))),
            (vec![load(0, int())], Terminator::Ret(Some(v(3)))),
            // Unreachable, yet a predecessor of bb2 until it is cleared.
            (vec![store(Value::i32(3), 0)], Terminator::Br(BlockId(2))),
        ]);
        assert_eq!(
            text,
            "fn @f(%arg0: i32, %arg1: i32) -> i32 {\n\
             bb0: ; b0\n  condbr %arg0, bb1, bb2\n\
             bb1: ; b1\n  br bb2\n\
             bb2: ; b2\n  %5 = phi [bb0: 1], [bb1: 2]\n  ret %5\n\
             bb3: ; b3\n  unreachable\n\
             }\n"
        );
        assert!(f.blocks[3].insts.is_empty());
    }

    #[test]
    fn loop_use_before_def_reads_an_undef_of_the_slot_type() {
        let float = Type::f32;
        let (f, text) = promote_hand_built(vec![
            (vec![alloca(float(), "x")], Terminator::Br(BlockId(1))),
            (
                vec![
                    load(0, float()),
                    add(v(1), Value::ConstFloat(1.0, float()), float()),
                    store(v(2), 0),
                ],
                condbr(Value::Param(0), 1, 2),
            ),
            (vec![load(0, float())], Terminator::Ret(Some(v(4)))),
        ]);
        assert_eq!(
            text,
            "fn @f(%arg0: i32, %arg1: i32) -> i32 {\n\
             bb0: ; b0\n  br bb1\n\
             bb1: ; b1\n  %5 = phi [bb0: 0.0], [bb1: %2]\n  %2 = add %5, 1.0\n  \
             condbr %arg0, bb1, bb2\n\
             bb2: ; b2\n  ret %2\n\
             }\n"
        );
        assert_eq!(
            f.inst(InstId(5)).kind,
            InstKind::Phi {
                incoming: vec![(BlockId(0), Value::ConstFloat(0.0, float())), (BlockId(1), v(2))]
            }
        );
        assert_eq!(f.inst(InstId(5)).ty, float());
    }
}
