//! Meta-test: the live workspace itself must be violation-free under the
//! full engine — all five rules plus the `events.toml` round-trip. This is
//! the same check `cargo xtask lint` runs in CI, executed here so plain
//! `cargo test` catches a regression even when the lint gate is skipped.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use bmst_analyze::{analyze_workspace, workspace_root};

#[test]
fn live_workspace_is_violation_free() {
    let root = workspace_root();
    assert!(
        root.join("crates").is_dir(),
        "workspace root not found from {}",
        std::env::current_dir().unwrap().display()
    );
    let report = analyze_workspace(&root);
    assert!(
        report.files_scanned > 50,
        "workspace walk found too few files"
    );
    assert!(
        report.emissions_seen > 20,
        "obs emission extraction went blind"
    );
    assert!(
        report.is_clean(),
        "live workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "{}:{}: [{}] {}",
                v.path.display(),
                v.line,
                v.rule,
                v.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn events_registry_round_trips() {
    let root = workspace_root();
    let mut errors = Vec::new();
    let files = bmst_analyze::load_workspace(&root, &mut errors);
    let emissions = bmst_analyze::workspace_emissions(&files);
    let schema = bmst_analyze::load_events_schema(&root, &mut errors)
        .expect("crates/obs/events.toml parses");
    assert!(errors.is_empty(), "{errors:?}");
    let diff = bmst_analyze::schema::diff(&schema, &emissions);
    assert!(
        diff.is_clean(),
        "unknown: {:?}\ndead: {:?}",
        diff.unknown
            .iter()
            .map(|e| format!("{} ({})", e.name, e.kind.section()))
            .collect::<Vec<_>>(),
        diff.dead
    );
}
