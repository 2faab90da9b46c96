//! Thin driver over the `bmst-analyze` engine.
//!
//! The rules themselves — lexer, token models, the five rule
//! implementations, marker handling, and the `events.toml` diff — live in
//! `crates/analyze`; this module only parses CLI arguments, runs the
//! engine at the workspace root, and formats the report. See
//! `DESIGN.md` §5e for the rule table and the marker convention.

use std::process::ExitCode;

use bmst_analyze::{analyze_workspace, rule_table, workspace_root, Violation};

/// Entry point for `cargo xtask lint`.
pub fn run(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list") {
        for info in rule_table() {
            println!("{:<15} {}", info.name, info.scope.join(", "));
            println!("{:<15} {}", "", info.description);
        }
        println!("\nAnnotate intentional sites with: // lint: allow(<rule>) — <reason>");
        return ExitCode::SUCCESS;
    }
    if let Some(unknown) = args.iter().find(|a| *a != "--list") {
        eprintln!("xtask lint: unknown argument `{unknown}` (supported: --list)");
        return ExitCode::FAILURE;
    }

    let root = workspace_root();
    let report = analyze_workspace(&root);
    print_violations(&report.violations, &root);
    if report.is_clean() {
        println!(
            "xtask lint: {} files clean ({} obs emissions checked)",
            report.files_scanned, report.emissions_seen
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nxtask lint: {} violation(s) in {} files",
            report.violations.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

/// Entry point for `cargo xtask check-events`: only the obs-schema
/// round-trip, with a symmetric report (what the code emits vs. what the
/// registry declares). `lint` already includes this check; the separate
/// command gives CI and humans a focused view.
pub fn run_check_events(args: &[String]) -> ExitCode {
    if let Some(unknown) = args.first() {
        eprintln!("xtask check-events: unexpected argument `{unknown}`");
        return ExitCode::FAILURE;
    }
    let root = workspace_root();
    let mut errors: Vec<Violation> = Vec::new();
    let files = bmst_analyze::load_workspace(&root, &mut errors);
    let emissions = bmst_analyze::workspace_emissions(&files);
    let Some(schema) = bmst_analyze::load_events_schema(&root, &mut errors) else {
        print_violations(&errors, &root);
        return ExitCode::FAILURE;
    };
    let diff = bmst_analyze::schema::diff(&schema, &emissions);
    errors.extend(bmst_analyze::diff_violations(&root, &diff));
    print_violations(&errors, &root);
    if errors.is_empty() {
        let declared: usize = schema
            .sections
            .values()
            .map(std::collections::BTreeMap::len)
            .sum();
        println!(
            "xtask check-events: {} emission site(s) across {} file(s) round-trip against \
             {declared} registry entr(ies)",
            emissions.len(),
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nxtask check-events: {} problem(s)", errors.len());
        ExitCode::FAILURE
    }
}

pub(crate) fn print_violations(violations: &[Violation], root: &std::path::Path) {
    for v in violations {
        let rel = v.path.strip_prefix(root).unwrap_or(&v.path);
        eprintln!("{}:{}: [{}] {}", rel.display(), v.line, v.rule, v.message);
    }
}
