//! The fixture corpus: every rule has a violating, a clean, and an
//! allow-marked fixture under `tests/fixtures/`. The harness lexes each
//! fixture as if it lived in a crate the rule is scoped to and compares
//! the engine's findings against the expected rule list.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::path::PathBuf;

use bmst_analyze::model::SourceFile;
use bmst_analyze::{analyze_file, Violation};

/// Loads a fixture and analyses it under `crate_name`'s rule scopes.
fn analyze_fixture(name: &str, crate_name: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let file = SourceFile::new(path, crate_name.to_owned(), &text);
    analyze_file(&file)
}

/// Asserts the fixture produces exactly `expected` rules (sorted).
fn expect_rules(name: &str, crate_name: &str, expected: &[&str]) {
    let violations = analyze_fixture(name, crate_name);
    let mut got: Vec<&str> = violations.iter().map(|v| v.rule.as_str()).collect();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "fixture {name} (as crate `{crate_name}`): {violations:#?}"
    );
}

// ---- corpus: one violating / clean / allowed triple per rule ----

#[test]
fn float_eq_corpus() {
    expect_rules(
        "float_eq_violating.rs",
        "core",
        &["float-eq", "float-eq", "float-eq", "float-eq"],
    );
    expect_rules("float_eq_clean.rs", "core", &[]);
    expect_rules("float_eq_allowed.rs", "core", &[]);
}

#[test]
fn determinism_corpus() {
    expect_rules(
        "determinism_violating.rs",
        "steiner",
        &[
            "determinism",
            "determinism",
            "determinism",
            "determinism",
            "determinism",
        ],
    );
    expect_rules("determinism_clean.rs", "steiner", &[]);
    expect_rules("determinism_allowed.rs", "steiner", &[]);
}

#[test]
fn error_taxonomy_corpus() {
    expect_rules(
        "error_taxonomy_violating.rs",
        "steiner",
        &["error-taxonomy", "error-taxonomy", "error-taxonomy"],
    );
    expect_rules("error_taxonomy_clean.rs", "steiner", &[]);
    expect_rules("error_taxonomy_allowed.rs", "steiner", &[]);
}

#[test]
fn obs_schema_corpus() {
    expect_rules("obs_schema_violating.rs", "core", &["obs-schema"]);
    expect_rules("obs_schema_clean.rs", "core", &[]);
    expect_rules("obs_schema_allowed.rs", "core", &[]);
}

#[test]
fn concurrency_corpus() {
    expect_rules(
        "concurrency_violating.rs",
        "router",
        &[
            "concurrency",
            "concurrency",
            "concurrency",
            "concurrency",
            "concurrency",
            "concurrency",
        ],
    );
    expect_rules("concurrency_clean.rs", "router", &[]);
    expect_rules("concurrency_allowed.rs", "router", &[]);
}

// ---- lexer regressions pinned as fixtures ----

#[test]
fn raw_identifiers_cannot_evade_rules() {
    // `r#HashMap` is the same type as `HashMap`; raw-identifier spelling
    // must not slip past determinism, while `r#type`/`r#match` used as
    // ordinary bindings stay clean.
    expect_rules("lexer_raw_ident.rs", "core", &["determinism"]);
}

#[test]
fn shebang_files_lex_cleanly() {
    expect_rules("lexer_shebang.rs", "core", &[]);
}

// ---- scope checks: fixtures are inert outside their rule's crates ----

#[test]
fn rules_respect_crate_scopes() {
    // `bench` is outside every scope exercised here except obs-schema;
    // the float/determinism/taxonomy/concurrency fixtures are silent.
    expect_rules("float_eq_violating.rs", "bench", &[]);
    expect_rules("determinism_violating.rs", "bench", &[]);
    expect_rules("lexer_raw_ident.rs", "bench", &[]);
    expect_rules("error_taxonomy_violating.rs", "bench", &[]);
    expect_rules("concurrency_violating.rs", "bench", &[]);
    // `geom` hosts the tolerance helpers and is exempt from float-eq.
    expect_rules("float_eq_violating.rs", "geom", &[]);
}
