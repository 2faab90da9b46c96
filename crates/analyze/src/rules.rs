//! The five repo-specific workspace rules, on token streams. The generic
//! panic, cast, print and doc rules are clippy/rustc lints, denied per
//! crate root (see DESIGN.md §5a).
//!
//! Rules emit **candidates** — every site that matches, with no marker
//! filtering. The engine in `lib.rs` subtracts `// lint: allow` markers
//! afterwards and tracks which markers actually suppressed something, so
//! stale markers can be reported as violations themselves.

use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::schema::EMISSION_FNS;

/// Crates whose raw float comparisons must go through `geom`'s tolerance
/// helpers. `geom` itself hosts those helpers and is exempt.
pub const FLOAT_EQ_CRATES: &[&str] = &[
    "core",
    "tree",
    "graph",
    "steiner",
    "io",
    "instances",
    "router",
    "clock",
    "obs",
    "serve",
];

/// The byte-identical guarantee's hot paths (BKRUS §3.1 tie-breaking):
/// nondeterministic iteration order is a correctness bug class here.
/// `serve` rides along: its report cache must key and render requests
/// byte-identically for the bit-parity guarantee to hold.
pub const DETERMINISM_CRATES: &[&str] = &["core", "steiner", "router", "tree", "serve"];

/// Crates whose failures must stay inside the `BmstError` taxonomy.
pub const ERROR_TAXONOMY_CRATES: &[&str] = &["core", "steiner", "router", "serve"];

/// Crates whose obs emissions are extracted and diffed against
/// `crates/obs/events.toml` — everything except `obs` itself, which
/// defines the entry points.
pub const OBS_SCHEMA_CRATES: &[&str] = &[
    "core",
    "tree",
    "graph",
    "geom",
    "steiner",
    "io",
    "instances",
    "router",
    "clock",
    "cli",
    "bench",
    "serve",
];

/// Crates hosting thread-pooled paths (the parallel router, the serve
/// worker pool); shared-nothing only.
pub const CONCURRENCY_CRATES: &[&str] = &["router", "serve"];

/// Every crate the lint walks: the union of the per-rule scopes above.
pub const ALL_CRATES: &[&str] = &[
    "core",
    "tree",
    "graph",
    "geom",
    "steiner",
    "io",
    "instances",
    "router",
    "clock",
    "obs",
    "cli",
    "bench",
    "serve",
];

/// Every rule name an allow marker may reference.
pub const KNOWN_RULES: &[&str] = &[
    "float-eq",
    "determinism",
    "error-taxonomy",
    "obs-schema",
    "concurrency",
];

/// Crates whose hot paths carry `// analyze: complexity(...)` budgets:
/// the unbudgeted-quadratic check of the complexity pass runs here.
/// Budget declarations themselves are legal (and checked) in every crate.
pub const COMPLEXITY_CRATES: &[&str] = &["core", "steiner", "tree", "router", "serve"];

/// Crates whose `pub` ProblemContext entry points are checked for panic
/// reachability — the same surface the error-taxonomy rule covers.
pub const PANIC_REACH_CRATES: &[&str] = &["core", "steiner", "router", "serve"];

/// Crates whose entry-reachable instance loops must poll the
/// `CancelToken` (the cancel-liveness pass).
pub const CANCEL_CRATES: &[&str] = &["core", "steiner", "tree", "router", "serve"];

/// Crates whose mutex guards must not be held across blocking calls
/// (the blocking-discipline pass) — the thread-pooled service.
pub const BLOCKING_CRATES: &[&str] = &["serve"];

/// Every semantic-pass name an `// analyze: allow(...)` waiver may
/// reference.
pub const SEMANTIC_RULES: &[&str] = &[
    "panic-reach",
    "complexity",
    "cancel-liveness",
    "blocking-discipline",
];

/// Whether semantic pass `rule` is enforced at all for `file` — the
/// staleness scoping for `analyze:` waivers, mirroring
/// [`rule_in_scope`] for the `lint:` family.
pub fn semantic_rule_in_scope(file: &SourceFile, rule: &str) -> bool {
    let krate = file.crate_name.as_str();
    match rule {
        "panic-reach" => PANIC_REACH_CRATES.contains(&krate),
        // Budget declarations (and hence budget-check waivers) are legal
        // in every crate the engine walks.
        "complexity" => ALL_CRATES.contains(&krate),
        "cancel-liveness" => CANCEL_CRATES.contains(&krate),
        "blocking-discipline" => BLOCKING_CRATES.contains(&krate),
        _ => false,
    }
}

/// One matching site, before marker filtering.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// 1-based line of the match.
    pub line: usize,
    /// Rule name (one of [`KNOWN_RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Runs every rule whose crate scope covers `file` and returns the raw
/// candidate list (marker filtering happens in the engine).
pub fn candidates(file: &SourceFile) -> Vec<Candidate> {
    let krate = file.crate_name.as_str();
    let mut out = Vec::new();
    if FLOAT_EQ_CRATES.contains(&krate) {
        float_eq(file, &mut out);
    }
    if DETERMINISM_CRATES.contains(&krate) {
        determinism(file, &mut out);
    }
    if ERROR_TAXONOMY_CRATES.contains(&krate) {
        error_taxonomy(file, &mut out);
    }
    if OBS_SCHEMA_CRATES.contains(&krate) {
        obs_imports(file, &mut out);
    }
    if CONCURRENCY_CRATES.contains(&krate) {
        concurrency(file, &mut out);
    }
    out
}

/// Whether `rule` is enforced at all for `file` — used by the engine to
/// decide whether an unused marker is stale (a marker for a rule that
/// never runs here suppresses nothing by construction, which is exactly
/// what stale means).
pub fn rule_in_scope(file: &SourceFile, rule: &str) -> bool {
    let krate = file.crate_name.as_str();
    match rule {
        "float-eq" => FLOAT_EQ_CRATES.contains(&krate),
        "determinism" => DETERMINISM_CRATES.contains(&krate),
        "error-taxonomy" => ERROR_TAXONOMY_CRATES.contains(&krate),
        "obs-schema" => OBS_SCHEMA_CRATES.contains(&krate),
        "concurrency" => CONCURRENCY_CRATES.contains(&krate),
        _ => false,
    }
}

/// Float constants whose `f64::`/`f32::` paths count as float operands.
const FLOAT_CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN", "EPSILON"];

/// True when the significant token at `i` ends a float operand: a float
/// literal, or the constant ident of an `f64::CONST` path.
fn float_operand_ending_at(file: &SourceFile, i: usize) -> bool {
    let Some(t) = file.s(i) else { return false };
    if t.is_float_literal() {
        return true;
    }
    if t.kind == TokenKind::Ident && FLOAT_CONSTS.contains(&t.text.as_str()) {
        return i >= 3
            && file.s(i - 1).is_some_and(|p| p.is_punct(':'))
            && file.s(i - 2).is_some_and(|p| p.is_punct(':'))
            && file
                .s(i - 3)
                .is_some_and(|p| p.is_ident("f64") || p.is_ident("f32"));
    }
    false
}

/// True when a float operand starts at significant position `i` (an
/// optional unary minus, then a float literal or `f64::CONST` path).
fn float_operand_starting_at(file: &SourceFile, i: usize) -> bool {
    let i = if file.s(i).is_some_and(|t| t.is_punct('-')) {
        i + 1
    } else {
        i
    };
    let Some(t) = file.s(i) else { return false };
    if t.is_float_literal() {
        return true;
    }
    if t.is_ident("f64") || t.is_ident("f32") {
        return file.s(i + 1).is_some_and(|p| p.is_punct(':'))
            && file.s(i + 2).is_some_and(|p| p.is_punct(':'))
            && file.s(i + 3).is_some_and(|c| {
                c.kind == TokenKind::Ident && FLOAT_CONSTS.contains(&c.text.as_str())
            });
    }
    false
}

fn float_eq(file: &SourceFile, out: &mut Vec<Candidate>) {
    for i in 0..file.sig.len() {
        if file.sig_in_test(i) {
            continue;
        }
        let Some(t) = file.s(i) else { continue };
        let op = if t.is_punct('=')
            && file.s(i + 1).is_some_and(|n| n.is_punct('='))
            && file.contiguous(i, i + 1)
        {
            // Exclude `<=`, `>=`, `==` run-ons and `=` of a previous `==`.
            let prev_glued = i > 0
                && file.contiguous(i - 1, i)
                && file
                    .s(i - 1)
                    .is_some_and(|p| matches!(p.kind, TokenKind::Punct('<' | '>' | '=' | '!')));
            let next_glued =
                file.s(i + 2).is_some_and(|n| n.is_punct('=')) && file.contiguous(i + 1, i + 2);
            if prev_glued || next_glued {
                continue;
            }
            "=="
        } else if t.is_punct('!')
            && file.s(i + 1).is_some_and(|n| n.is_punct('='))
            && file.contiguous(i, i + 1)
        {
            let next_glued =
                file.s(i + 2).is_some_and(|n| n.is_punct('=')) && file.contiguous(i + 1, i + 2);
            if next_glued {
                continue;
            }
            "!="
        } else {
            continue;
        };
        let left = i > 0 && float_operand_ending_at(file, i - 1);
        let right = float_operand_starting_at(file, i + 2);
        if left || right {
            out.push(Candidate {
                line: t.line,
                rule: "float-eq",
                message: format!(
                    "raw float `{op}` comparison; use bmst-geom's tolerance helpers \
                     (approx_eq/le_tol) or annotate with `// lint: allow(float-eq) — <reason>`"
                ),
            });
        }
    }
}

/// Idents whose closure arguments indicate a float sort key.
const FLOAT_KEY_HINTS: &[&str] = &["partial_cmp", "total_cmp"];

fn determinism(file: &SourceFile, out: &mut Vec<Candidate>) {
    for i in 0..file.sig.len() {
        if file.sig_in_test(i) {
            continue;
        }
        let Some(t) = file.s(i) else { continue };
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Candidate {
                line: t.line,
                rule: "determinism",
                message: format!(
                    "`{}` has nondeterministic iteration order, which breaks the byte-identical \
                     routing guarantee; use BTreeMap/BTreeSet or a sorted Vec, or annotate with \
                     `// lint: allow(determinism) — <reason>`",
                    t.text
                ),
            });
            continue;
        }
        let is_unstable_sort = (t.is_ident("sort_unstable_by")
            || t.is_ident("sort_unstable_by_key"))
            && i > 0
            && file.s(i - 1).is_some_and(|p| p.is_punct('.'))
            && file.s(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_unstable_sort {
            continue;
        }
        // Scan the call's arguments for float-key evidence: a float
        // literal, `partial_cmp`/`total_cmp`, or an `f64`/`f32` ascription.
        let mut depth = 1i32;
        let mut k = i + 2;
        let mut float_key = false;
        while depth > 0 {
            let Some(a) = file.s(k) else { break };
            match a.kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => depth -= 1,
                TokenKind::Ident
                    if FLOAT_KEY_HINTS.contains(&a.text.as_str())
                        || a.text == "f64"
                        || a.text == "f32" =>
                {
                    float_key = true;
                }
                TokenKind::Number if a.is_float_literal() => float_key = true,
                _ => {}
            }
            k += 1;
        }
        if float_key {
            out.push(Candidate {
                line: t.line,
                rule: "determinism",
                message: format!(
                    "`{}` on float keys: unstable sorts reorder ties arbitrarily, breaking \
                     deterministic tie-breaking (BKRUS §3.1); use a stable sort with a total \
                     order, or annotate with `// lint: allow(determinism) — <reason>`",
                    t.text
                ),
            });
        }
    }
}

fn error_taxonomy(file: &SourceFile, out: &mut Vec<Candidate>) {
    for i in 0..file.sig.len() {
        if file.sig_in_test(i) {
            continue;
        }
        let Some(t) = file.s(i) else { continue };
        if t.is_ident("catch_unwind") {
            // The enclosing function must route the caught panic into
            // `BmstError::Internal` (via the variant or the `internal`
            // constructor) somewhere after the call.
            let flows = file.enclosing_fn(i).is_some_and(|f| {
                (i..f.body.end).any(|j| {
                    file.s(j)
                        .is_some_and(|x| x.is_ident("Internal") || x.is_ident("internal"))
                })
            });
            if !flows {
                out.push(Candidate {
                    line: t.line,
                    rule: "error-taxonomy",
                    message: "catch_unwind whose result does not flow into BmstError::Internal \
                              in the same function; map the caught panic into the taxonomy or \
                              annotate with `// lint: allow(error-taxonomy) — <reason>`"
                        .to_owned(),
                });
            }
        } else if t.is_ident("unwrap_or_default")
            && i > 0
            && file.s(i - 1).is_some_and(|p| p.is_punct('.'))
        {
            out.push(Candidate {
                line: t.line,
                rule: "error-taxonomy",
                message: ".unwrap_or_default() silently discards the error taxonomy on Result; \
                          match on the error (or, for a genuine Option, annotate with \
                          `// lint: allow(error-taxonomy) — <reason>`)"
                    .to_owned(),
            });
        }
    }
    for f in &file.fns {
        if !f.is_pub || f.in_test {
            continue;
        }
        let takes_context = f
            .params
            .clone()
            .any(|j| file.s(j).is_some_and(|t| t.is_ident("ProblemContext")));
        if !takes_context {
            continue;
        }
        let ret_ok = f
            .ret
            .clone()
            .any(|j| file.s(j).is_some_and(|t| t.is_ident("Result")))
            && f.ret
                .clone()
                .any(|j| file.s(j).is_some_and(|t| t.is_ident("BmstError")));
        if !ret_ok {
            out.push(Candidate {
                line: f.line,
                rule: "error-taxonomy",
                message: format!(
                    "public builder entry point `{}` takes a ProblemContext but does not \
                     return Result<_, BmstError>; every public construction path must surface \
                     the taxonomy",
                    f.name
                ),
            });
        }
    }
}

fn obs_imports(file: &SourceFile, out: &mut Vec<Candidate>) {
    for i in 0..file.sig.len() {
        let Some(t) = file.s(i) else { continue };
        if !t.is_ident("use") {
            continue;
        }
        // Collect the import tree's tokens up to the terminating `;`.
        let mut k = i + 1;
        let mut toks: Vec<usize> = Vec::new();
        while let Some(x) = file.s(k) {
            if x.is_punct(';') {
                break;
            }
            toks.push(k);
            k += 1;
        }
        let mentions_obs = toks
            .iter()
            .any(|&j| file.s(j).is_some_and(|x| x.is_ident("bmst_obs")));
        if !mentions_obs {
            continue;
        }
        let leaked = toks.iter().find_map(|&j| {
            file.s(j).and_then(|x| match x.kind {
                TokenKind::Ident if EMISSION_FNS.contains(&x.text.as_str()) => Some(x.text.clone()),
                TokenKind::Punct('*') => Some("*".to_owned()),
                _ => None,
            })
        });
        if let Some(name) = leaked {
            out.push(Candidate {
                line: t.line,
                rule: "obs-schema",
                message: format!(
                    "`use bmst_obs::{name}` imports an emission entry point unqualified, which \
                     hides event names from the schema extractor; call it as \
                     `bmst_obs::{}(...)` instead",
                    if name == "*" { "<fn>" } else { name.as_str() }
                ),
            });
        }
    }
}

fn concurrency(file: &SourceFile, out: &mut Vec<Candidate>) {
    let mut defines_route_algorithm = None;
    let mut has_assertion = false;
    for i in 0..file.sig.len() {
        let Some(t) = file.s(i) else { continue };
        if t.is_ident("assert_send_sync") {
            has_assertion = true;
        }
        if t.is_ident("struct") && file.s(i + 1).is_some_and(|n| n.is_ident("RouteAlgorithm")) {
            defines_route_algorithm = Some(t.line);
        }
        if file.sig_in_test(i) {
            continue;
        }
        if t.is_ident("static") && file.s(i + 1).is_some_and(|n| n.is_ident("mut")) {
            out.push(Candidate {
                line: t.line,
                rule: "concurrency",
                message: "`static mut` in the parallel routing crate; use atomics or \
                          message passing, or annotate with \
                          `// lint: allow(concurrency) — <reason>`"
                    .to_owned(),
            });
        } else if t.is_ident("Rc") || t.is_ident("RefCell") {
            out.push(Candidate {
                line: t.line,
                rule: "concurrency",
                message: format!(
                    "`{}` is not Send/Sync and must not appear in the parallel routing crate; \
                     use Arc/Mutex or restructure, or annotate with \
                     `// lint: allow(concurrency) — <reason>`",
                    t.text
                ),
            });
        } else if t.is_ident("thread_local") && file.s(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(Candidate {
                line: t.line,
                rule: "concurrency",
                message: "`thread_local!` state breaks the shared-nothing parallel routing \
                          design; pass state explicitly, or annotate with \
                          `// lint: allow(concurrency) — <reason>`"
                    .to_owned(),
            });
        }
    }
    if let Some(line) = defines_route_algorithm {
        if !has_assertion {
            out.push(Candidate {
                line,
                rule: "concurrency",
                message: "`RouteAlgorithm` is defined without compile-time Send/Sync assertion \
                          stubs (`assert_send_sync::<RouteAlgorithm>()`); add the const \
                          assertion so a non-Send field is a compile error"
                    .to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;
    use std::path::PathBuf;

    fn candidates_in(krate: &str, src: &str) -> Vec<Candidate> {
        let f = SourceFile::new(PathBuf::from("lib.rs"), krate.to_owned(), src);
        candidates(&f)
    }

    fn rules_of(cands: &[Candidate]) -> Vec<&'static str> {
        cands.iter().map(|c| c.rule).collect()
    }

    #[test]
    fn float_eq_on_literals_and_consts_only() {
        assert_eq!(
            rules_of(&candidates_in(
                "core",
                "fn f(x: f64) -> bool { x == 0.0 }\n"
            )),
            ["float-eq"]
        );
        assert_eq!(
            rules_of(&candidates_in(
                "core",
                "fn f(x: f64) -> bool { x != f64::INFINITY }\n"
            )),
            ["float-eq"]
        );
        assert_eq!(
            rules_of(&candidates_in(
                "core",
                "fn f(x: f64) -> bool { -1e-9 == x }\n"
            )),
            ["float-eq"]
        );
        assert!(candidates_in("core", "fn f(n: usize) -> bool { n == 0 }\n").is_empty());
        assert!(candidates_in("core", "fn f(n: usize) { for _ in 0..n {} }\n").is_empty());
        assert!(candidates_in("core", "fn f(x: f64, y: f64) -> bool { x <= y }\n").is_empty());
    }

    #[test]
    fn determinism_flags_hash_collections_in_scope_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&candidates_in("steiner", src)), ["determinism"]);
        // `instances` is outside the determinism scope.
        assert!(candidates_in("instances", src).is_empty());
    }

    #[test]
    fn determinism_flags_unstable_float_sorts_only() {
        let float_sort = "fn f(v: &mut Vec<(f64, usize)>) {\n    v.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));\n}\n";
        let v = candidates_in("core", float_sort);
        assert!(rules_of(&v).contains(&"determinism"), "got {v:?}");
        // Integer unstable sorts are fine.
        assert!(
            candidates_in("core", "fn f(v: &mut Vec<usize>) { v.sort_unstable(); }\n").is_empty()
        );
        assert!(candidates_in(
            "core",
            "fn f(v: &mut Vec<usize>) { v.sort_unstable_by(|a, b| b.cmp(a)); }\n"
        )
        .is_empty());
    }

    #[test]
    fn error_taxonomy_catch_unwind_must_reach_internal() {
        let bad = "fn f() -> Option<u8> {\n    std::panic::catch_unwind(|| 1u8).ok()\n}\n";
        assert_eq!(rules_of(&candidates_in("core", bad)), ["error-taxonomy"]);
        let good = "fn f() -> Result<u8, BmstError> {\n    std::panic::catch_unwind(|| 1u8).map_err(|_| BmstError::internal(\"boom\"))\n}\n";
        assert!(candidates_in("core", good).is_empty());
    }

    #[test]
    fn error_taxonomy_flags_unwrap_or_default() {
        let src = "fn f(r: Result<u8, E>) -> u8 { r.unwrap_or_default() }\n";
        assert_eq!(rules_of(&candidates_in("router", src)), ["error-taxonomy"]);
    }

    #[test]
    fn error_taxonomy_public_builders_return_taxonomy_results() {
        let bad = "pub fn build(cx: &ProblemContext<'_>) -> Tree { go(cx) }\n";
        assert_eq!(rules_of(&candidates_in("steiner", bad)), ["error-taxonomy"]);
        let good = "pub fn build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> { go(cx) }\n";
        assert!(candidates_in("steiner", good).is_empty());
        // Restricted visibility is not a public entry point.
        let restricted = "pub(crate) fn helper(cx: &ProblemContext<'_>) -> Tree { go(cx) }\n";
        assert!(candidates_in("steiner", restricted).is_empty());
    }

    #[test]
    fn obs_imports_of_emission_fns_are_flagged() {
        let bad = "use bmst_obs::counter;\n";
        assert_eq!(rules_of(&candidates_in("core", bad)), ["obs-schema"]);
        let glob = "use bmst_obs::*;\n";
        assert_eq!(rules_of(&candidates_in("core", glob)), ["obs-schema"]);
        let fine = "use bmst_obs::{Field, SummaryRecorder};\n";
        assert!(candidates_in("core", fine).is_empty());
        let other_crate = "use std::iter::*;\n";
        assert!(candidates_in("core", other_crate).is_empty());
    }

    #[test]
    fn concurrency_forbids_shared_mutable_state() {
        assert_eq!(
            rules_of(&candidates_in("router", "static mut COUNT: usize = 0;\n")),
            ["concurrency"]
        );
        assert_eq!(
            rules_of(&candidates_in(
                "router",
                "use std::rc::Rc;\nfn f(x: Rc<u8>) {}\n"
            )),
            ["concurrency", "concurrency"]
        );
        assert_eq!(
            rules_of(&candidates_in(
                "router",
                "thread_local! { static X: u8 = 0; }\n"
            )),
            ["concurrency"]
        );
        // `core` is outside the concurrency scope.
        assert!(candidates_in("core", "use std::rc::Rc;\n").is_empty());
    }

    #[test]
    fn concurrency_requires_send_sync_assertions_next_to_route_algorithm() {
        let bare = "pub struct RouteAlgorithm { inner: usize }\n";
        let v = candidates_in("router", bare);
        assert_eq!(rules_of(&v), ["concurrency"]);
        assert!(v[0].message.contains("assert_send_sync"));
        let asserted = "pub struct RouteAlgorithm { inner: usize }\nconst _: () = {\n    const fn assert_send_sync<T: Send + Sync>() {}\n    assert_send_sync::<RouteAlgorithm>();\n};\n";
        assert!(candidates_in("router", asserted).is_empty());
    }
}
