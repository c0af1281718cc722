//! The allowlist is a ratchet, not a dumping ground: the number of entries
//! and the total excused-site budget may shrink but never grow. Adding a
//! panic site to the prediction crates means either removing one elsewhere
//! or consciously raising these numbers in the same review that justifies
//! the new site.

use uaq_lint::allowlist::Allowlist;

/// 43 entries excusing 441 audited sites (48 / 565 at PR 10, which
/// introduced the linter; PR 13 took the row-at-a-time reference executor
/// out of the library and routed every float ordering through one helper;
/// PR 14 moved the NNLS solver onto fixed-size storage walked by iterators;
/// PR 16 made an enabled cache travel with its shape key in `predictor.rs`).
/// Lower either number when you remove sites.
const MAX_ENTRIES: usize = 43;
const MAX_TOTAL_BUDGET: usize = 441;

fn load() -> Allowlist {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint-allowlist.txt");
    let text = std::fs::read_to_string(path).expect("lint-allowlist.txt at workspace root");
    Allowlist::parse(&text).expect("allowlist parses")
}

#[test]
fn allowlist_does_not_grow() {
    let al = load();
    assert!(
        al.entries.len() <= MAX_ENTRIES,
        "allowlist grew to {} entries (budget {MAX_ENTRIES}); remove sites instead",
        al.entries.len()
    );
    let total: usize = al.entries.iter().map(|e| e.max).sum();
    assert!(
        total <= MAX_TOTAL_BUDGET,
        "allowlist ratchet total grew to {total} (budget {MAX_TOTAL_BUDGET}); \
         remove sites instead"
    );
}

#[test]
fn every_entry_is_justified_and_scoped() {
    let al = load();
    for e in &al.entries {
        assert!(
            e.justification.len() >= 15,
            "entry at line {} needs a real justification, not {:?}",
            e.line,
            e.justification
        );
        assert!(
            e.file.starts_with("crates/") && e.file.ends_with(".rs"),
            "entry at line {} must name a workspace source file, got {:?}",
            e.line,
            e.file
        );
        assert!(e.max >= 1, "entry at line {} excuses nothing", e.line);
    }
}
