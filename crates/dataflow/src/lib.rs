//! # safeflow-dataflow
//!
//! Post-dominators and the control-dependence graph over the SafeFlow IR:
//! phase 3 of the paper's analysis uses them to propagate `unsafe` through
//! control dependence (§3.3, §3.4.1).
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::{parse_source, diag::Diagnostics};
//! use safeflow_ir::{build_module, Cfg};
//! use safeflow_dataflow::{ControlDeps, PostDomTree};
//!
//! let pr = parse_source("d.c", "int g(void); int f(int x) { int r = 0; if (x) r = g(); return r; }");
//! let mut diags = Diagnostics::new();
//! let module = build_module(&pr.unit, &mut diags);
//! let func = module.function(module.function_by_name("f").unwrap());
//! let cfg = Cfg::build(func);
//! let pdom = PostDomTree::build(func, &cfg);
//! let cd = ControlDeps::build(func, &cfg, &pdom);
//! // The entry block branches on `x`, so its then-arm depends on it.
//! let then_bb = cfg.succs_of(func.entry())[0];
//! assert!(cd.controlling(then_bb).contains(&func.entry()));
//! ```

#![warn(missing_docs)]

pub mod controldep;
pub mod postdom;

pub use controldep::ControlDeps;
pub use postdom::PostDomTree;
