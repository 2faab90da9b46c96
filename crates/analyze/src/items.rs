//! The workspace item index: every `fn` item qualified by crate and
//! module path, plus per-file `use`-import tracking.
//!
//! This is the name-resolution substrate for the approximate call graph
//! ([`crate::callgraph`]). It is deliberately not a compiler: module
//! paths come from file layout (`crates/<crate>/src/<mods...>/file.rs`),
//! imports from a token-level walk of `use` trees, and nothing here
//! understands type inference. The passes built on top are written so
//! that this approximation errs conservative (see DESIGN.md §5f).

use std::collections::BTreeMap;
use std::path::Path;

use crate::model::{FnItem, SourceFile};

/// One `fn` item, qualified by where it lives.
#[derive(Debug, Clone)]
pub struct IndexedFn {
    /// Index of the owning file in the index's file slice.
    pub file: usize,
    /// Index into that file's [`SourceFile::fns`].
    pub item: usize,
    /// The owning crate's directory name (`core`, `steiner`, …).
    pub krate: String,
    /// Module path inside the crate, derived from the file layout
    /// (empty for the crate root).
    pub module: Vec<String>,
    /// The function's name.
    pub name: String,
}

impl IndexedFn {
    /// The display-qualified name, `crate::module::name`.
    pub fn qualified(&self) -> String {
        let mut parts = vec![self.krate.as_str()];
        parts.extend(self.module.iter().map(String::as_str));
        parts.push(self.name.as_str());
        parts.join("::")
    }
}

/// The workspace item index.
#[derive(Debug)]
pub struct ItemIndex<'a> {
    /// The files the index was built over.
    pub files: &'a [SourceFile],
    /// Every indexed `fn`, in file order.
    pub fns: Vec<IndexedFn>,
    /// Name → indices into [`ItemIndex::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Per file: indices of the fns it hosts.
    pub fns_by_file: Vec<Vec<usize>>,
    /// Per file: imported leaf name → absolute path segments
    /// (`[crate, mods…, leaf]`), from its `use` trees.
    pub imports: Vec<BTreeMap<String, Vec<String>>>,
}

/// Intra-workspace dependencies per crate, mirroring the `Cargo.toml`
/// graph. Conservative method-call resolution is pruned to crates the
/// caller can actually reach, which keeps false call edges from flowing
/// against the dependency direction.
pub fn crate_deps(krate: &str) -> &'static [&'static str] {
    match krate {
        "graph" | "instances" => &["geom"],
        "tree" => &["geom", "obs", "graph"],
        "core" => &["geom", "obs", "graph", "tree"],
        "steiner" => &["geom", "graph", "tree", "core", "obs"],
        "io" => &["geom", "graph", "tree", "core"],
        "router" => &["geom", "graph", "tree", "core", "steiner", "obs"],
        "serve" => &["geom", "graph", "tree", "core", "steiner", "router", "obs"],
        "clock" => &["geom", "graph", "tree", "core"],
        "cli" => &[
            "geom",
            "obs",
            "graph",
            "tree",
            "core",
            "steiner",
            "instances",
            "io",
            "router",
            "clock",
        ],
        "bench" => &[
            "geom",
            "obs",
            "graph",
            "tree",
            "core",
            "steiner",
            "instances",
            "clock",
            "router",
        ],
        _ => &[],
    }
}

/// Derives the module path of a source file from its location under the
/// crate's `src/` directory. `lib.rs`, `main.rs`, and `mod.rs` name their
/// parent module; anything outside a `src/` directory (fixtures, tests)
/// is treated as a crate root.
pub fn module_path(path: &Path) -> Vec<String> {
    let mut comps: Vec<&str> = Vec::new();
    let mut seen_src = false;
    for c in path.components() {
        let name = c.as_os_str().to_str().unwrap_or("");
        if seen_src {
            comps.push(name);
        } else if name == "src" {
            seen_src = true;
        }
    }
    let mut out: Vec<String> = Vec::new();
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        let seg = if last {
            comp.strip_suffix(".rs").unwrap_or(comp)
        } else {
            comp
        };
        if last && matches!(seg, "lib" | "main" | "mod") {
            continue;
        }
        out.push(seg.to_owned());
    }
    out
}

/// True when the `fn` item takes a `self` receiver (it can be the target
/// of a `.method()` call).
pub fn takes_self(file: &SourceFile, f: &FnItem) -> bool {
    f.params
        .clone()
        .take(3)
        .filter_map(|j| file.s(j))
        .any(|t| t.is_ident("self"))
}

impl<'a> ItemIndex<'a> {
    /// Indexes every `fn` item and `use` tree across `files`.
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut fns_by_file = Vec::with_capacity(files.len());
        let mut imports = Vec::with_capacity(files.len());
        for (fi, file) in files.iter().enumerate() {
            let module = module_path(&file.path);
            let mut here = Vec::new();
            for (ii, item) in file.fns.iter().enumerate() {
                let id = fns.len();
                by_name.entry(item.name.clone()).or_default().push(id);
                here.push(id);
                fns.push(IndexedFn {
                    file: fi,
                    item: ii,
                    krate: file.crate_name.clone(),
                    module: module.clone(),
                    name: item.name.clone(),
                });
            }
            fns_by_file.push(here);
            imports.push(collect_imports(file, &module));
        }
        ItemIndex {
            files,
            fns,
            by_name,
            fns_by_file,
            imports,
        }
    }

    /// The `FnItem` behind an indexed fn.
    pub fn item(&self, id: usize) -> &FnItem {
        let f = &self.fns[id];
        &self.files[f.file].fns[f.item]
    }

    /// The `SourceFile` hosting an indexed fn.
    pub fn file(&self, id: usize) -> &SourceFile {
        &self.files[self.fns[id].file]
    }

    /// Fns named `name` visible from crate `krate`: the crate itself plus
    /// its workspace dependencies. The conservative pool for method-call
    /// resolution; restricted to fns taking `self`.
    pub fn methods_visible_from(&self, krate: &str, name: &str) -> Vec<usize> {
        let deps = crate_deps(krate);
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        let f = &self.fns[id];
                        (f.krate == krate || deps.contains(&f.krate.as_str()))
                            && takes_self(self.file(id), self.item(id))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolves an absolute path (`[crate, mods…, name]`) to fn ids: the
    /// crate must match and the path's intermediate modules must be a
    /// suffix of the fn's module path (re-exports flatten modules, so an
    /// exact match would miss `pub use`d items).
    pub fn resolve_path(&self, segments: &[String]) -> Vec<usize> {
        let Some((name, head)) = segments.split_last() else {
            return Vec::new();
        };
        let Some((krate, mods)) = head.split_first() else {
            return Vec::new();
        };
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        let f = &self.fns[id];
                        f.krate == *krate
                            && (mods.is_empty()
                                || (f.module.len() >= mods.len()
                                    && f.module[f.module.len() - mods.len()..] == *mods))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Maps a `use`-path head segment to absolute form: `bmst_core` → the
/// `core` crate, `crate`/`self`/`super` → relative to (`krate`,
/// `module`). Returns the absolute prefix, or `None` for external crates
/// (`std`, `rand`, …) whose items can never resolve into the index.
fn absolute_head(head: &str, krate: &str, module: &[String]) -> Option<Vec<String>> {
    if let Some(rest) = head.strip_prefix("bmst_") {
        return Some(vec![rest.to_owned()]);
    }
    match head {
        "crate" => Some(vec![krate.to_owned()]),
        "self" => {
            let mut v = vec![krate.to_owned()];
            v.extend(module.iter().cloned());
            Some(v)
        }
        "super" => {
            let mut v = vec![krate.to_owned()];
            v.extend(module.iter().take(module.len().saturating_sub(1)).cloned());
            Some(v)
        }
        _ => None,
    }
}

/// Walks every `use` tree in `file`, producing leaf name → absolute path
/// segments. Globs are skipped (nothing to name); `as` renames map the
/// alias. External-crate imports are dropped — they cannot point into
/// the workspace index.
fn collect_imports(file: &SourceFile, module: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < file.sig.len() {
        let Some(t) = file.s(i) else { break };
        if !t.is_ident("use") {
            i += 1;
            continue;
        }
        let mut pos = i + 1;
        use_tree(file, &mut pos, &[], &mut out, &file.crate_name, module, 0);
        i = pos.max(i + 1);
    }
    out
}

/// Recursive-descent over one `use` tree level. `prefix` holds the
/// absolute segments accumulated so far (empty at the top level, where
/// the head segment still needs [`absolute_head`] mapping).
fn use_tree(
    file: &SourceFile,
    pos: &mut usize,
    prefix: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
    krate: &str,
    module: &[String],
    depth: u32,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut head_mapped = !prefix.is_empty();
    let mut dead = false; // external-crate path: keep parsing, record nothing
    loop {
        let Some(t) = file.s(*pos) else { return };
        if t.is_punct(';') || t.is_punct(',') || t.is_punct('}') {
            // Leaf without rename: the last segment names itself.
            if !dead && !segs.is_empty() && segs.len() > prefix.len() {
                if let Some(name) = segs.last() {
                    out.insert(name.clone(), segs.clone());
                }
            }
            if t.is_punct(',') {
                *pos += 1;
                // Continue with siblings at this level (caller's loop).
                if depth > 0 {
                    use_tree(file, pos, prefix, out, krate, module, depth);
                }
                return;
            }
            if t.is_punct('}') || t.is_punct(';') {
                *pos += 1;
            }
            return;
        }
        if t.is_punct('{') {
            *pos += 1;
            use_tree(file, pos, &segs, out, krate, module, depth + 1);
            // use_tree consumed through the matching `}`/`;`.
            return;
        }
        if t.is_punct('*') {
            dead = true;
            *pos += 1;
            continue;
        }
        if t.is_ident("as") {
            *pos += 1;
            if let Some(alias) = file.s(*pos) {
                if !dead && !segs.is_empty() {
                    out.insert(alias.ident_name().to_owned(), segs.clone());
                }
                *pos += 1;
            }
            continue;
        }
        if t.is_punct(':') {
            *pos += 1;
            continue;
        }
        // A path segment.
        let seg = t.ident_name().to_owned();
        if !head_mapped {
            head_mapped = true;
            match absolute_head(&seg, krate, module) {
                Some(abs) => segs = abs,
                None => {
                    dead = true;
                    segs.push(seg);
                }
            }
        } else {
            segs.push(seg);
        }
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;
    use std::path::PathBuf;

    fn file(krate: &str, path: &str, src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), krate.to_owned(), src)
    }

    #[test]
    fn module_paths_from_layout() {
        let p = |s: &str| module_path(Path::new(s));
        assert!(p("crates/core/src/lib.rs").is_empty());
        assert_eq!(p("crates/core/src/context.rs"), ["context"]);
        assert_eq!(p("crates/core/src/bkrus/mod.rs"), ["bkrus"]);
        assert_eq!(p("crates/core/src/bkrus/forest.rs"), ["bkrus", "forest"]);
        assert_eq!(p("crates/bench/src/bin/t2.rs"), ["bin", "t2"]);
        assert!(p("tests/fixtures/reach_violating.rs").is_empty());
    }

    #[test]
    fn index_qualifies_and_groups_by_name() {
        let files = vec![
            file("core", "crates/core/src/lib.rs", "pub fn go() {}\n"),
            file(
                "core",
                "crates/core/src/util.rs",
                "pub fn go() {}\nfn helper(&self) {}\n",
            ),
        ];
        let idx = ItemIndex::build(&files);
        assert_eq!(idx.fns.len(), 3);
        assert_eq!(idx.by_name["go"].len(), 2);
        assert_eq!(idx.fns[idx.by_name["go"][1]].qualified(), "core::util::go");
        assert_eq!(idx.resolve_path(&seg(&["core", "util", "go"])).len(), 1);
        assert_eq!(idx.resolve_path(&seg(&["core", "go"])).len(), 2);
        assert_eq!(idx.resolve_path(&seg(&["tree", "go"])).len(), 0);
    }

    fn seg(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn imports_map_leaves_to_absolute_paths() {
        let src = "use bmst_graph::{complete_edges, sort::sort_edges};\n\
                   use crate::context::ProblemContext as Cx;\n\
                   use std::collections::BTreeMap;\n\
                   use bmst_geom::*;\n";
        let files = vec![file("core", "crates/core/src/bkrus.rs", src)];
        let idx = ItemIndex::build(&files);
        let imp = &idx.imports[0];
        assert_eq!(imp["complete_edges"], seg(&["graph", "complete_edges"]));
        assert_eq!(imp["sort_edges"], seg(&["graph", "sort", "sort_edges"]));
        assert_eq!(imp["Cx"], seg(&["core", "context", "ProblemContext"]));
        assert!(!imp.contains_key("BTreeMap"), "external imports dropped");
        assert!(!imp.contains_key("*"));
    }

    #[test]
    fn method_pool_respects_self_and_deps() {
        let files = vec![
            file(
                "tree",
                "crates/tree/src/lib.rs",
                "pub fn cost(&self) -> f64 { 0.0 }\n",
            ),
            file(
                "router",
                "crates/router/src/lib.rs",
                "pub fn cost(x: f64) -> f64 { x }\n",
            ),
        ];
        let idx = ItemIndex::build(&files);
        // From core, tree is a dep: the self-taking `cost` is visible.
        assert_eq!(idx.methods_visible_from("core", "cost").len(), 1);
        // The router free fn lacks self and router is not a core dep.
        assert_eq!(
            idx.methods_visible_from("core", "cost"),
            idx.methods_visible_from("tree", "cost")
        );
        // From geom (no deps), nothing named `cost` is visible.
        assert!(idx.methods_visible_from("geom", "cost").is_empty());
    }
}
