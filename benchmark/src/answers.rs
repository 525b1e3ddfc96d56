//! Known answers every verdict is checked against. None of them comes
//! from the analyzer under test: the paper systems answer to their Table 1
//! row and seeded defect list, Figure 2 to the paper's narrative, and the
//! monorepo corpus is clean by construction (every region read sits under
//! a monitoring function's `assume(core(...))`).

use safeflow::{AnalysisReport, ErrorDependency, Json, Warning};
use safeflow_corpus::System;

/// The monorepo corpus must analyze clean: no warnings, errors,
/// restriction violations or degradations, hence exit code 0.
pub fn clean(report: &AnalysisReport) -> Result<(), String> {
    let (w, e, v, d) = (
        report.warnings.len(),
        report.errors.len(),
        report.violations.len(),
        report.degradations.len(),
    );
    if w + e + v + d == 0 && report.exit_code() == 0 {
        Ok(())
    } else {
        Err(format!(
            "expected a clean report, got {w} warnings, {e} errors, {v} violations, \
             {d} degradations (exit {})",
            report.exit_code()
        ))
    }
}

/// A paper system's findings must equal its Table 1 row: warnings,
/// confirmed errors (errors on a seeded defect's critical datum) and false
/// positives (every other error).
pub fn paper_row(
    system: &System,
    warnings: &[Warning],
    errors: &[ErrorDependency],
) -> Result<(), String> {
    let confirmed =
        errors.iter().filter(|e| system.defects.iter().any(|d| d.critical == e.critical)).count();
    let fps = errors.len() - confirmed;
    let row = &system.paper;
    if warnings.len() == row.warnings && confirmed == row.errors && fps == row.false_positives {
        Ok(())
    } else {
        Err(format!(
            "{}: expected {} warnings / {} errors / {} false positives (Table 1), \
             got {} / {confirmed} / {fps}",
            system.name,
            row.warnings,
            row.errors,
            row.false_positives,
            warnings.len()
        ))
    }
}

/// Figure 2: the unmonitored reads are all of the `feedback` region, the
/// critical `output` is the one datum that depends on them, and no
/// restriction is violated.
pub fn figure2(
    warnings: &[Warning],
    errors: &[ErrorDependency],
    violations: usize,
) -> Result<(), String> {
    let warnings_ok = !warnings.is_empty() && warnings.iter().all(|w| w.region_name == "feedback");
    let errors_ok = errors.len() == 1 && errors[0].critical == "output";
    if warnings_ok && errors_ok && violations == 0 {
        Ok(())
    } else {
        Err(format!(
            "Figure 2: expected warnings on `feedback` only and one error on `output`, got {} \
             warnings, {} errors, {violations} violations",
            warnings.len(),
            errors.len()
        ))
    }
}

/// The part of a report document that must be byte-identical between two
/// runs of the same input: schema, exit code and the findings. The
/// `metrics`, `cache` and `budget` members describe the run, not the
/// verdict.
pub fn verdict(doc: &Json) -> String {
    let mut v = Json::obj();
    for key in ["schema", "exit_code", "report"] {
        if let Some(value) = doc.get(key) {
            v.set(key, value.clone());
        }
    }
    v.render()
}
