//! The linter's own acceptance gate, run as a test so `cargo test`
//! alone catches a regression before CI's dedicated lint job does:
//!
//! * the whole workspace is clean (zero unwaived findings, and every
//!   waiver carries a reason — malformed ones are findings);
//! * the linter's own crate is clean under its own rules;
//! * the rule catalog itself stays well-formed.

use nmcs_lint::{lint_source, lint_workspace, rule_counts, RULES};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn the_workspace_is_clean_under_deny() {
    let findings = lint_workspace(workspace_root()).expect("workspace walk");
    let unwaived: Vec<_> = findings.iter().filter(|f| !f.waived).collect();
    assert!(
        unwaived.is_empty(),
        "unwaived findings (fix them or waive with a reason):\n{}",
        unwaived
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Waivers exist and are all consumed (a stale one would be an
    // unwaived finding above); keep the count in sight so an explosion
    // of exceptions needs a deliberate edit here.
    // The serve PR added six edge waivers on purpose: the HTTP
    // boundary's sockets and connection threads are waivered per site
    // rather than path-exempt.
    let waived: usize = rule_counts(&findings).values().map(|(_, w)| w).sum();
    assert!(
        waived <= 22,
        "waiver count crept up to {waived} — review them"
    );
}

#[test]
fn hot_path_pass_covers_the_playout_core() {
    // The hot-path rule is active workspace-wide: every required entry
    // is annotated (a missing one would be an unwaived finding in the
    // test above), the reachable set is non-trivial, and it spans both
    // the search core and the game domains.
    let (hot, findings) = nmcs_lint::hot_report(workspace_root()).expect("workspace walk");
    assert!(
        hot.len() >= 40,
        "hot set shrank to {} fns — did an entry annotation go missing?",
        hot.len()
    );
    for needle in [
        ("crates/core/src/search.rs", "PlayoutScratch::run"),
        ("crates/core/src/search.rs", "PlayoutScratch::run_undo"),
        ("crates/core/src/search.rs", "nested_rollout"),
        ("crates/core/src/uct.rs", "TpTree::descend"),
        ("crates/games/src/samegame.rs", "SameGame::undo"),
        ("crates/games/src/sudoku.rs", "Sudoku::most_constrained"),
        ("crates/games/src/tsp.rs", "TspGame::legal_moves"),
        ("crates/morpion/src/board.rs", "Board::apply"),
    ] {
        assert!(
            hot.iter().any(|f| f.file == needle.0 && f.name == needle.1),
            "expected `{}` in {} to be hot-reachable",
            needle.1,
            needle.0
        );
    }
    // Every hot-path exception is waived with a reason; none are open.
    assert!(
        findings.iter().all(|f| f.waived),
        "unwaived hot-path findings: {findings:#?}"
    );
    assert!(
        !findings.is_empty(),
        "the by-design exceptions (snapshot fallback, strided deadline \
         poll, UCT node construction) should appear as waived findings"
    );
}

#[test]
fn nmcs_lint_lints_itself_clean() {
    let own = workspace_root().join("crates/lint/src");
    for entry in std::fs::read_dir(&own).expect("own src dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let rel = format!(
            "crates/lint/src/{}",
            path.file_name().unwrap().to_string_lossy()
        );
        let src = std::fs::read_to_string(&path).expect("readable source");
        let findings = lint_source(&rel, &src);
        assert!(
            findings.is_empty(),
            "the linter violates its own rules in {rel}: {findings:#?}"
        );
    }
}

#[test]
fn rule_catalog_is_well_formed() {
    let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate rule ids in the catalog");
    for r in RULES {
        assert!(
            r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "rule id `{}` is not kebab-case",
            r.id
        );
        assert!(!r.summary.is_empty());
    }
}
