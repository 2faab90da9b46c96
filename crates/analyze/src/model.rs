//! Per-file source model shared by every rule: the token stream, a
//! significant-token view (comments stripped), `#[cfg(test)]` region
//! tracking, `// lint: allow` markers attached to tokens, and a
//! lightweight `fn` item walker (name, visibility, parameter and return
//! token ranges, body span).
//!
//! Two marker families are collected:
//!
//! * `// lint: allow(<rule>) — <reason>` waives a token-rule violation
//!   ([`SourceFile::markers`]);
//! * `// analyze: allow(<pass>) — <reason>` waives a semantic-pass
//!   violation ([`SourceFile::sem_markers`]), and
//!   `// analyze: complexity(<budget>)` declares a complexity budget for
//!   the `fn` item it precedes ([`SourceFile::budgets`]).

use std::ops::Range;
use std::path::PathBuf;

use crate::lexer::{lex, Token, TokenKind};

/// A parsed `// lint: allow(<rule>) — <reason>` marker.
#[derive(Debug, Clone)]
pub struct Marker {
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty reason follows the closing parenthesis.
    pub has_reason: bool,
    /// 1-based line of the comment carrying the marker.
    pub line: usize,
    /// Whether the marker sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A parsed `// analyze: complexity(<budget>)` marker: a declared
/// complexity budget for the `fn` item on the same or the next line.
/// The budget text is interpreted by the complexity pass.
#[derive(Debug, Clone)]
pub struct BudgetMarker {
    /// The budget text inside the parentheses (`1`, `n`, `n log n`,
    /// `n^2`, …), whitespace-trimmed but otherwise unparsed.
    pub spec: String,
    /// 1-based line of the comment carrying the marker.
    pub line: usize,
    /// Whether the marker sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A `fn` item found by the walker. All ranges index into
/// [`SourceFile::sig`] (positions of significant tokens), not raw tokens.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// True for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Significant-token range of the parameter list (between the parens).
    pub params: Range<usize>,
    /// Significant-token range between the parameter list and the body
    /// (return type and any `where` clause).
    pub ret: Range<usize>,
    /// Significant-token range of the body (between the braces); empty for
    /// bodyless trait-method declarations.
    pub body: Range<usize>,
    /// Whether the `fn` keyword lies inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One analysed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path the file was read from.
    pub path: PathBuf,
    /// The crate directory name under `crates/` this file belongs to.
    pub crate_name: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per raw-token flag: inside a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// Every `// lint: allow` marker in the file.
    pub markers: Vec<Marker>,
    /// Every `// analyze: allow` marker (semantic-pass waiver) in the file.
    pub sem_markers: Vec<Marker>,
    /// Every `// analyze: complexity(...)` budget declaration in the file.
    pub budgets: Vec<BudgetMarker>,
    /// Every `fn` item in the file.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lexes and pre-analyses `text`.
    pub fn new(path: PathBuf, crate_name: String, text: &str) -> Self {
        let tokens = lex(text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let in_test = mark_test_regions(&tokens, &sig);
        let (markers, sem_markers, budgets) = collect_markers(&tokens, &in_test);
        let mut file = SourceFile {
            path,
            crate_name,
            tokens,
            sig,
            in_test,
            markers,
            sem_markers,
            budgets,
            fns: Vec::new(),
        };
        file.fns = walk_fns(&file);
        file
    }

    /// The significant token at significant-position `i`, if any.
    pub fn s(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&idx| &self.tokens[idx])
    }

    /// Whether the significant token at position `i` is in a test region.
    pub fn sig_in_test(&self, i: usize) -> bool {
        self.sig
            .get(i)
            .is_some_and(|&idx| self.in_test.get(idx).copied().unwrap_or(false))
    }

    /// Whether any significant token starting on `line` lies inside a
    /// `#[cfg(test)]` region — the line-level view markers need when
    /// deciding whether they may waive a candidate on that line.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.sig
            .iter()
            .any(|&idx| self.tokens[idx].line == line && self.in_test[idx])
    }

    /// Finds the `fn` item a fn-level marker on `line` attaches to: the
    /// item whose `fn` keyword sits on the marker's own line (trailing
    /// comment) or the line directly below.
    pub fn fn_on_or_after(&self, line: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .find(|f| f.line == line || f.line == line + 1)
    }

    /// True when two significant positions hold contiguous tokens (no
    /// whitespace between them), e.g. the two `=` of `==`.
    pub fn contiguous(&self, a: usize, b: usize) -> bool {
        match (self.s(a), self.s(b)) {
            (Some(ta), Some(tb)) => ta.end == tb.start,
            _ => false,
        }
    }

    /// Finds the `fn` item whose body contains significant position `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.len())
    }
}

/// Parses an allow marker out of a comment body, if present. Only plain
/// `//` comments qualify: doc comments (`///`, `//!`) are documentation,
/// and mentioning the convention there must not create a live marker.
/// `prefix` selects the family: `"lint: allow("` or `"analyze: allow("`.
fn parse_marker(text: &str, prefix: &str) -> Option<(String, bool)> {
    let after = text.split(prefix).nth(1)?;
    let (rule, rest) = after.split_once(')')?;
    let rest = rest.trim_start();
    let has_reason = ["—", "--", "-"]
        .iter()
        .any(|sep| rest.strip_prefix(sep).is_some_and(|r| !r.trim().is_empty()));
    Some((rule.trim().to_owned(), has_reason))
}

/// Parses a complexity-budget declaration out of a comment body.
fn parse_budget(text: &str) -> Option<String> {
    let after = text.split("analyze: complexity(").nth(1)?;
    let (spec, _) = after.split_once(')')?;
    Some(spec.trim().to_owned())
}

type MarkerSets = (Vec<Marker>, Vec<Marker>, Vec<BudgetMarker>);

/// Collects the three marker kinds in one comment walk: lint waivers,
/// semantic-pass waivers, and complexity-budget declarations.
fn collect_markers(tokens: &[Token], in_test: &[bool]) -> MarkerSets {
    let mut lint = Vec::new();
    let mut sem = Vec::new();
    let mut budgets = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        if t.text.starts_with("///") || t.text.starts_with("//!") {
            continue;
        }
        let test = in_test.get(idx).copied().unwrap_or(false);
        if let Some((rule, has_reason)) = parse_marker(&t.text, "lint: allow(") {
            lint.push(Marker {
                rule,
                has_reason,
                line: t.line,
                in_test: test,
            });
        }
        if let Some((rule, has_reason)) = parse_marker(&t.text, "analyze: allow(") {
            sem.push(Marker {
                rule,
                has_reason,
                line: t.line,
                in_test: test,
            });
        }
        if let Some(spec) = parse_budget(&t.text) {
            budgets.push(BudgetMarker {
                spec,
                line: t.line,
                in_test: test,
            });
        }
    }
    (lint, sem, budgets)
}

/// Marks every raw token inside a `#[cfg(test)]`- or `#[cfg(all(test…))]`-
/// annotated item (attribute included) by walking the token stream and
/// matching the brace span of the annotated item.
fn mark_test_regions(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let s = |i: usize| -> Option<&Token> { sig.get(i).map(|&idx| &tokens[idx]) };
    let mut i = 0usize;
    while i < sig.len() {
        if !(s(i).is_some_and(|t| t.is_punct('#')) && s(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Attribute content: tokens between the brackets.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut content: Vec<&str> = Vec::new();
        while depth > 0 {
            let Some(t) = s(j) else { break };
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
            }
            if depth > 0 {
                content.push(&t.text);
            }
            j += 1;
        }
        let is_cfg_test = content.first() == Some(&"cfg")
            && (content.get(2) == Some(&"test")
                || (content.get(2) == Some(&"all") && content.get(4) == Some(&"test")));
        if !is_cfg_test {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while s(j).is_some_and(|t| t.is_punct('#')) && s(j + 1).is_some_and(|t| t.is_punct('[')) {
            let mut d = 1i32;
            j += 2;
            while d > 0 {
                let Some(t) = s(j) else { break };
                if t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(']') {
                    d -= 1;
                }
                j += 1;
            }
        }
        // The annotated item: through its brace-matched body, or to the
        // first `;` for bodyless items (`mod tests;`, `use …;`).
        let mut brace = 0i32;
        let mut opened = false;
        let end_sig = loop {
            let Some(t) = s(j) else { break j };
            if t.is_punct('{') {
                brace += 1;
                opened = true;
            } else if t.is_punct('}') {
                brace -= 1;
                if opened && brace <= 0 {
                    break j + 1;
                }
            } else if t.is_punct(';') && !opened {
                break j + 1;
            }
            j += 1;
        };
        // Mark every raw token from the attribute through the item end.
        let from = sig[attr_start];
        let to = if end_sig > 0 && end_sig <= sig.len() {
            sig[end_sig - 1]
        } else {
            tokens.len() - 1
        };
        for flag in in_test.iter_mut().take(to + 1).skip(from) {
            *flag = true;
        }
        i = end_sig.max(i + 1);
    }
    in_test
}

/// Item-position modifier keywords that may precede `fn`.
const FN_MODIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// Walks the significant tokens for `fn` items, recording signature and
/// body ranges. Nested functions and trait/impl methods are all recorded;
/// `fn` in type position (`fn(usize) -> bool`) is skipped because no
/// identifier follows.
fn walk_fns(file: &SourceFile) -> Vec<FnItem> {
    let mut out = Vec::new();
    let n = file.sig.len();
    for i in 0..n {
        let Some(t) = file.s(i) else { continue };
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = file.s(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let line = t.line;
        let in_test = file.sig_in_test(i);
        let is_pub = fn_is_pub(file, i);
        // Skip generics after the name, tolerating `->` inside bounds.
        let mut k = i + 2;
        if file.s(k).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 1i32;
            k += 1;
            while depth > 0 {
                let Some(t) = file.s(k) else { break };
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') && !file.s(k - 1).is_some_and(|p| p.is_punct('-')) {
                    depth -= 1;
                }
                k += 1;
            }
        }
        if !file.s(k).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let params_start = k + 1;
        let mut depth = 1i32;
        k += 1;
        while depth > 0 {
            let Some(t) = file.s(k) else { break };
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            }
            k += 1;
        }
        let params = params_start..k.saturating_sub(1);
        // Return type / where clause: up to the body `{` or a `;`.
        let ret_start = k;
        let mut body = 0..0;
        while let Some(t) = file.s(k) {
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                let body_start = k + 1;
                let mut d = 1i32;
                let mut m = k + 1;
                while d > 0 {
                    let Some(t) = file.s(m) else { break };
                    if t.is_punct('{') {
                        d += 1;
                    } else if t.is_punct('}') {
                        d -= 1;
                    }
                    m += 1;
                }
                body = body_start..m.saturating_sub(1);
                break;
            }
            k += 1;
        }
        out.push(FnItem {
            name: name_tok.ident_name().to_owned(),
            is_pub,
            line,
            params,
            ret: ret_start..k,
            body,
            in_test,
        });
    }
    out
}

/// Determines whether the `fn` at significant position `i` is unrestricted
/// `pub`, by walking back over modifier keywords.
fn fn_is_pub(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let Some(t) = file.s(j) else { return false };
        match t.kind {
            TokenKind::Ident if FN_MODIFIERS.contains(&t.text.as_str()) => continue,
            TokenKind::Str => continue, // extern "C"
            TokenKind::Punct(')') => {
                // pub(crate) / pub(super): walk back to `(` then `pub`.
                let mut d = 1i32;
                while d > 0 && j > 0 {
                    j -= 1;
                    let Some(t) = file.s(j) else { return false };
                    if t.is_punct(')') {
                        d += 1;
                    } else if t.is_punct('(') {
                        d -= 1;
                    }
                }
                return false; // restricted visibility is not public API
            }
            TokenKind::Ident if t.text == "pub" => {
                return true;
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("test.rs"), "test".to_owned(), src)
    }

    #[test]
    fn test_regions_cover_attribute_and_body() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = file(src);
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test[unwrap_idx]);
        let c_fn = f.fns.iter().find(|x| x.name == "c").unwrap();
        assert!(!c_fn.in_test);
        let b_fn = f.fns.iter().find(|x| x.name == "b").unwrap();
        assert!(b_fn.in_test);
    }

    #[test]
    fn cfg_all_test_is_a_test_region() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn b() {} }\nfn c() {}\n";
        let f = file(src);
        assert!(f.fns.iter().find(|x| x.name == "b").unwrap().in_test);
        assert!(!f.fns.iter().find(|x| x.name == "c").unwrap().in_test);
    }

    #[test]
    fn markers_attach_and_doc_comments_do_not() {
        let src = "// lint: allow(determinism) — fine here\nfn a() {}\n/// lint: allow(float-eq) — doc example\nfn b() {}\n";
        let f = file(src);
        assert_eq!(f.markers.len(), 1);
        assert_eq!(f.markers[0].rule, "determinism");
        assert!(f.markers[0].has_reason);
        assert_eq!(f.markers[0].line, 1);
    }

    #[test]
    fn analyze_markers_and_budgets_are_collected() {
        let src = "// analyze: allow(panic-reach) — raw API, try_build isolates\n\
                   fn raw() {}\n\
                   // analyze: complexity(n^2)\n\
                   fn hot() { }\n";
        let f = file(src);
        assert!(f.markers.is_empty(), "lint markers unaffected");
        assert_eq!(f.sem_markers.len(), 1);
        assert_eq!(f.sem_markers[0].rule, "panic-reach");
        assert!(f.sem_markers[0].has_reason);
        assert_eq!(f.budgets.len(), 1);
        assert_eq!(f.budgets[0].spec, "n^2");
        assert_eq!(f.fn_on_or_after(f.budgets[0].line).unwrap().name, "hot");
        assert_eq!(f.fn_on_or_after(f.sem_markers[0].line).unwrap().name, "raw");
    }

    #[test]
    fn doc_comments_do_not_create_semantic_markers() {
        let src = "/// analyze: complexity(n^2)\n/// analyze: allow(complexity) — doc\nfn a() {}\n";
        let f = file(src);
        assert!(f.budgets.is_empty());
        assert!(f.sem_markers.is_empty());
    }

    #[test]
    fn line_in_test_tracks_region_lines() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = file(src);
        assert!(!f.line_in_test(1));
        assert!(f.line_in_test(4));
        assert!(!f.line_in_test(6));
    }

    #[test]
    fn marker_without_reason_detected() {
        let f = file("// lint: allow(float-eq)\nfn a() {}\n");
        assert_eq!(f.markers.len(), 1);
        assert!(!f.markers[0].has_reason);
    }

    #[test]
    fn fn_walker_records_signature_and_body() {
        let src = "pub fn build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> { go() }\n";
        let f = file(src);
        let item = &f.fns[0];
        assert_eq!(item.name, "build");
        assert!(item.is_pub);
        let params: Vec<&str> = item
            .params
            .clone()
            .filter_map(|i| f.s(i).map(|t| t.text.as_str()))
            .collect();
        assert!(params.contains(&"ProblemContext"));
        let ret: Vec<&str> = item
            .ret
            .clone()
            .filter_map(|i| f.s(i).map(|t| t.text.as_str()))
            .collect();
        assert!(ret.contains(&"Result") && ret.contains(&"BmstError"));
        let body: Vec<&str> = item
            .body
            .clone()
            .filter_map(|i| f.s(i).map(|t| t.text.as_str()))
            .collect();
        assert_eq!(body, ["go", "(", ")"]);
    }

    #[test]
    fn pub_crate_is_not_public() {
        let f = file("pub(crate) fn run() {}\npub const fn fast() {}\nfn private() {}\n");
        assert!(!f.fns.iter().find(|x| x.name == "run").unwrap().is_pub);
        assert!(f.fns.iter().find(|x| x.name == "fast").unwrap().is_pub);
        assert!(!f.fns.iter().find(|x| x.name == "private").unwrap().is_pub);
    }

    #[test]
    fn generics_with_arrow_bounds_are_skipped() {
        let f = file("fn apply<F: Fn() -> usize>(f: F) -> usize { f() }\n");
        assert_eq!(f.fns[0].name, "apply");
        let params: Vec<&str> = f.fns[0]
            .params
            .clone()
            .filter_map(|i| f.s(i).map(|t| t.text.as_str()))
            .collect();
        assert_eq!(params, ["f", ":", "F"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let f = file("type Cb = fn(usize) -> bool;\nfn real() {}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() { fn inner() { x.unwrap(); } }\n";
        let f = file(src);
        let pos = (0..f.sig.len())
            .find(|&i| f.s(i).is_some_and(|t| t.is_ident("unwrap")))
            .unwrap();
        assert_eq!(f.enclosing_fn(pos).unwrap().name, "inner");
    }
}
