//! Rule `alloc-hygiene`: no buffer copies in the engine/storage hot modules.
//!
//! The late-materialization data plane (PR 9) made handle reuse the
//! contract: `ColumnRef`/`ColumnSlice` borrows and `ProvData` views are
//! cheap to pass around, and per-batch deep copies (`.to_vec()`,
//! `.as_ref().clone()`, `.iter().cloned().collect()`) in the executor's
//! inner loops undo the whole optimisation. The `redundant_clone` clippy
//! gate catches clones whose *source* dies; this rule also catches clones
//! that compile fine but copy data the hot path was designed to borrow.
//! Deliberate copies (page materialisation boundaries) carry allowlist
//! justifications.

use super::Rule;
use crate::diag::{Diagnostic, RuleId, SourceFile};

/// The modules on the per-row / per-batch execution path.
const HOT_MODULES: [&str; 4] = [
    "crates/engine/src/exec.rs",
    "crates/engine/src/expr.rs",
    "crates/storage/src/column.rs",
    "crates/storage/src/table.rs",
];

/// Receiver names that hold column/provenance handles; `.clone()` on these
/// is a deep copy of row data, not a handle copy.
const HANDLE_HINTS: [&str; 6] = ["col", "column", "slice", "prov", "rows", "page"];

pub struct AllocHygiene;

impl Rule for AllocHygiene {
    fn id(&self) -> RuleId {
        RuleId::AllocHygiene
    }

    fn applies_to(&self, rel: &str) -> bool {
        HOT_MODULES.contains(&rel)
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let n = file.sig.len();
        for i in 0..n {
            if file.in_test_code(i) {
                continue;
            }
            let t = file.sig_text(i);
            let is_call = |j: usize, name: &str| {
                j + 2 < n
                    && file.sig_text(j) == "."
                    && file.sig_text(j + 1) == name
                    && file.sig_text(j + 2) == "("
            };
            // `.to_vec()` — always a full copy of the slice.
            if t == "." && is_call(i, "to_vec") {
                out.push(file.diagnostic(
                    self.id(),
                    i.saturating_sub(1),
                    4,
                    ".to_vec() in a hot module — copies the buffer; borrow or justify".to_string(),
                ));
            }
            // `.as_ref().clone()` — cloning through a handle.
            if t == "." && is_call(i, "as_ref") && i + 4 < n && is_call(i + 4, "clone") {
                out.push(file.diagnostic(
                    self.id(),
                    i.saturating_sub(1),
                    8,
                    ".as_ref().clone() in a hot module — deep-copies behind the handle".to_string(),
                ));
            }
            // `.iter().cloned()` / `.iter().copied().collect::<Vec<_>>()`
            if t == "." && is_call(i, "iter") && i + 4 < n && is_call(i + 4, "cloned") {
                out.push(
                    file.diagnostic(
                        self.id(),
                        i.saturating_sub(1),
                        8,
                        ".iter().cloned() in a hot module — element-wise copy; borrow or justify"
                            .to_string(),
                    ),
                );
            }
            // `handle.clone()` where the receiver name says column/prov data.
            if t == "clone"
                && i >= 2
                && file.sig_text(i - 1) == "."
                && i + 1 < n
                && file.sig_text(i + 1) == "("
            {
                let recv = file.sig_text(i - 2).to_ascii_lowercase();
                if HANDLE_HINTS.iter().any(|h| recv.contains(h)) {
                    out.push(file.diagnostic(
                        self.id(),
                        i - 2,
                        4,
                        format!(
                            "`{}.clone()` in a hot module — looks like a column/provenance \
                             buffer copy; borrow or justify",
                            file.sig_text(i - 2)
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("crates/engine/src/exec.rs".into(), src.into());
        AllocHygiene.check(&f)
    }

    #[test]
    fn catches_copies() {
        assert_eq!(run("fn f(v: &[u32]) -> Vec<u32> { v.to_vec() }").len(), 1);
        assert_eq!(
            run("fn f(v: &[u32]) -> Vec<u32> { v\n  .to_vec() }").len(),
            1
        );
        assert_eq!(run("fn f(a: &A) -> D { a.as_ref().clone() }").len(), 1);
        assert_eq!(
            run("fn f(v: &[u32]) -> Vec<u32> { v.iter().cloned().collect() }").len(),
            1
        );
        assert_eq!(run("fn f(col: &C) -> C { col.clone() }").len(), 1);
        assert_eq!(
            run("fn f(prov_data: &P) -> P { prov_data.clone() }").len(),
            1
        );
    }

    #[test]
    fn handle_and_arc_copies_are_fine() {
        assert!(run("fn f(plan: &Arc<Plan>) -> Arc<Plan> { plan.clone() }").is_empty());
        assert!(run("fn f(v: &[u32]) -> &[u32] { &v[..] }").is_empty());
        assert!(run("fn f(it: I) -> Vec<u32> { it.map(score).collect() }").is_empty());
    }

    #[test]
    fn scope_is_the_hot_modules_only() {
        assert!(AllocHygiene.applies_to("crates/engine/src/exec.rs"));
        assert!(AllocHygiene.applies_to("crates/storage/src/column.rs"));
        assert!(!AllocHygiene.applies_to("crates/engine/src/planner.rs"));
        assert!(!AllocHygiene.applies_to("crates/service/src/service.rs"));
    }
}
