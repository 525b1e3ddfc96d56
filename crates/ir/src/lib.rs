//! # safeflow-ir
//!
//! Typed SSA intermediate representation for the SafeFlow analysis
//! (DSN 2006). Stands in for the LLVM 1.x substrate the paper used: a typed
//! CFG IR with SSA form, dominators, loop analysis, and a call graph with
//! SCC condensation.
//!
//! Pipeline: [`lower::lower`] (AST → IR) → [`ssa::promote_module`]
//! (mem2reg; [`ssa::promote_module_jobs`] runs it per function on the
//! worker pool) → analyses ([`mod@cfg`], [`dom`], [`loops`], [`callgraph`]).
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::parse_source;
//! use safeflow_syntax::diag::Diagnostics;
//! use safeflow_ir::{lower::lower, ssa::promote_module, verify::verify_module};
//!
//! let pr = parse_source("demo.c", "int add(int a, int b) { return a + b; }");
//! let mut diags = Diagnostics::new();
//! let mut module = lower(&pr.unit, &mut diags);
//! promote_module(&mut module);
//! assert!(verify_module(&module).is_empty());
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dom;
pub mod loops;
pub mod lower;
pub mod module;
pub mod print;
pub mod ssa;
pub mod types;
pub mod verify;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use module::{
    BasicBlock, BinOp, BlockId, Callee, CastKind, CmpOp, FuncId, Function, Global, GlobalId, Inst,
    InstId, InstKind, IrParam, Module, Terminator, Value,
};
pub use types::{FieldLayout, StructId, StructLayout, Type, TypeTable};

use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::TranslationUnit;

/// Convenience: lowers `unit` and promotes to SSA in one call.
pub fn build_module(unit: &TranslationUnit, diags: &mut Diagnostics) -> Module {
    build_module_jobs(unit, diags, 1)
}

/// [`build_module`] with SSA construction spread over `jobs` worker
/// threads ([`ssa::promote_module_jobs`]); the module is identical for
/// every `jobs` value.
pub fn build_module_jobs(unit: &TranslationUnit, diags: &mut Diagnostics, jobs: usize) -> Module {
    let mut m = lower::lower(unit, diags);
    ssa::promote_module_jobs(&mut m, jobs);
    m
}
