//! Workspace discovery: walks the repository, lexes **and parses**
//! every `.rs` file, reads every `Cargo.toml` manifest, and classifies
//! each source file so lints know which rules apply where.
//!
//! Since the AST upgrade, a [`SourceFile`] carries three synchronized
//! views of the same source: raw token stream (expression-level
//! scans), item tree (structure: fns/impls/traits with spans), and the
//! `#[test]` line ranges (exemption policy). Manifests feed the
//! feature-gate consistency lint (L12), which must see `[features]`
//! declarations and forwarding edges — facts that exist only in
//! `Cargo.toml`, not in any `.rs` file.

use crate::ast::Item;
use crate::lexer::{lex, test_ranges, Token};
use crate::parse::parse;
use std::fs;
use std::io;
use std::path::Path;

/// The workspace's library crates: code that ships in the estimator
/// stack and is held to the strictest lint rules (L1, L4, L9).
pub const LIBRARY_CRATES: &[&str] = &[
    "common", "hashing", "sketch", "stream", "core", "baseline", "engine", "obs",
];

/// How a source file is classified for linting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library-crate source (including the root `hindex` facade in
    /// `src/`): all lints apply.
    Library,
    /// First-party tooling (`cli`, `bench`, this crate): exempt from
    /// the content lints, but crate roots still need L4's `forbid`.
    Tool,
    /// Tests, benches, and examples: exempt from content lints; L2/L11
    /// read some of these files as the *reference* test suites.
    Test,
    /// Vendored offline shims (`crates/rand`, `crates/proptest`):
    /// stand-ins for external code, exempt from every lint.
    Vendored,
}

/// One lexed, parsed, classified source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repository-relative path with `/` separators.
    pub path: String,
    /// Lint classification.
    pub kind: FileKind,
    /// True for `src/lib.rs` / `src/main.rs` crate roots.
    pub is_crate_root: bool,
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// The parsed item tree (tiles the token stream; see
    /// [`crate::ast::check_tiling`]).
    pub items: Vec<Item>,
    /// 1-based line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Builds a file from its repo-relative path and contents.
    #[must_use]
    pub fn parse(path: String, contents: &str) -> Self {
        let tokens = lex(contents);
        let items = parse(&tokens);
        let test_ranges = test_ranges(&tokens);
        let kind = classify(&path);
        let is_crate_root = path.ends_with("src/lib.rs") || path.ends_with("src/main.rs");
        Self {
            path,
            kind,
            is_crate_root,
            tokens,
            items,
            test_ranges,
        }
    }

    /// True if `line` falls inside a `#[cfg(test)]`/`#[test]` item.
    #[must_use]
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// The crate directory this file belongs to (`crates/core` for
    /// `crates/core/src/lib.rs`, `""` for root-workspace files).
    #[must_use]
    pub fn crate_dir(&self) -> &str {
        if let Some(rest) = self.path.strip_prefix("crates/") {
            if let Some(slash) = rest.find('/') {
                return &self.path[..("crates/".len() + slash)];
            }
        }
        ""
    }
}

fn classify(path: &str) -> FileKind {
    if path.starts_with("crates/rand/") || path.starts_with("crates/proptest/") {
        return FileKind::Vendored;
    }
    let in_dir = |d: &str| {
        path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"))
    };
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        return FileKind::Test;
    }
    if path.starts_with("src/") {
        return FileKind::Library;
    }
    if LIBRARY_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
    {
        return FileKind::Library;
    }
    FileKind::Tool
}

/// One `Cargo.toml`, reduced to the facts L12 needs: the crate's name
/// and its `[features]` table (feature name → forwarded entries).
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Directory containing the manifest, repo-relative (`""` for the
    /// workspace root).
    pub dir: String,
    /// `package.name`, if present (the root virtual manifest has none).
    pub package_name: Option<String>,
    /// `[features]` entries: name → list of forwarded strings
    /// (`"hindex-common/debug_invariants"`-style).
    pub features: Vec<(String, Vec<String>)>,
}

impl Manifest {
    /// Parses the subset of TOML this tool needs: `[section]` headers,
    /// `key = "value"`, and `key = [ "a", "b" ]` (single-line or
    /// multi-line arrays). Anything else is ignored.
    #[must_use]
    pub fn parse(dir: String, contents: &str) -> Self {
        let mut package_name = None;
        let mut features = Vec::new();
        let mut section = String::new();
        let mut pending: Option<(String, Vec<String>)> = None;
        for raw in contents.lines() {
            let line = raw.split_once('#').map_or(raw, |(l, _)| l).trim();
            if line.is_empty() {
                continue;
            }
            if let Some((key, mut values)) = pending.take() {
                // Inside a multi-line array: accumulate until `]`.
                let done = line.contains(']');
                let body = line.split(']').next().unwrap_or("");
                values.extend(quoted_strings(body));
                if done {
                    features.push((key, values));
                } else {
                    pending = Some((key, values));
                }
                continue;
            }
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']).trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            if section == "package" && key == "name" {
                package_name = Some(value.trim_matches('"').to_string());
            }
            if section == "features" {
                if value.starts_with('[') && !value.contains(']') {
                    pending = Some((key, quoted_strings(&value[1..])));
                } else {
                    features.push((key, quoted_strings(value)));
                }
            }
        }
        if let Some((key, values)) = pending {
            features.push((key, values));
        }
        Self {
            dir,
            package_name,
            features,
        }
    }

    /// The forwarding list for `feature`, if declared.
    #[must_use]
    pub fn feature(&self, feature: &str) -> Option<&[String]> {
        self.features
            .iter()
            .find(|(k, _)| k == feature)
            .map(|(_, v)| v.as_slice())
    }
}

fn quoted_strings(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + close].to_string());
        rest = &rest[open + close + 2..];
    }
    out
}

/// The whole lexed-and-parsed workspace: inputs to every lint.
#[derive(Debug)]
pub struct Workspace {
    /// All discovered source files, sorted by path.
    pub files: Vec<SourceFile>,
    /// All discovered `Cargo.toml` manifests, sorted by directory.
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, contents)` pairs.
    /// Paths ending in `Cargo.toml` are parsed as manifests; everything
    /// else is treated as Rust source. Used by the fixture tests;
    /// [`Workspace::load`] is the real path.
    #[must_use]
    pub fn from_sources(sources: Vec<(String, String)>) -> Self {
        let mut files = Vec::new();
        let mut manifests = Vec::new();
        for (path, contents) in sources {
            if path.ends_with("Cargo.toml") {
                let dir = path
                    .strip_suffix("Cargo.toml")
                    .unwrap_or("")
                    .trim_end_matches('/')
                    .to_string();
                manifests.push(Manifest::parse(dir, &contents));
            } else {
                files.push(SourceFile::parse(path, &contents));
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        manifests.sort_by(|a, b| a.dir.cmp(&b.dir));
        Self { files, manifests }
    }

    /// Walks `root` collecting every `.rs` file and `Cargo.toml`
    /// outside `target/` and VCS metadata, and lexes/parses them all.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut sources = Vec::new();
        walk(root, root, &mut sources)?;
        Ok(Self::from_sources(sources))
    }

    /// Looks up a file by its repo-relative path.
    #[must_use]
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Looks up a manifest by crate directory.
    #[must_use]
    pub fn manifest(&self, dir: &str) -> Option<&Manifest> {
        self.manifests.iter().find(|m| m.dir == dir)
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let contents = fs::read_to_string(&path)?;
            out.push((rel, contents));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_policy() {
        assert_eq!(classify("crates/sketch/src/l0.rs"), FileKind::Library);
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(classify("crates/engine/src/lib.rs"), FileKind::Library);
        assert_eq!(classify("crates/obs/src/metrics.rs"), FileKind::Library);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Tool);
        assert_eq!(classify("crates/analysis/src/lib.rs"), FileKind::Tool);
        assert_eq!(classify("tests/space_contracts.rs"), FileKind::Test);
        assert_eq!(classify("crates/sketch/tests/extra.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Test);
        assert_eq!(classify("crates/rand/src/lib.rs"), FileKind::Vendored);
    }

    #[test]
    fn crate_roots_are_flagged() {
        let f = SourceFile::parse("crates/core/src/lib.rs".into(), "//! Docs\n");
        assert!(f.is_crate_root);
        let g = SourceFile::parse("crates/core/src/turnstile.rs".into(), "//! Docs\n");
        assert!(!g.is_crate_root);
        assert_eq!(g.crate_dir(), "crates/core");
        assert_eq!(
            SourceFile::parse("src/lib.rs".into(), "").crate_dir(),
            ""
        );
    }

    #[test]
    fn manifests_parse_name_and_features() {
        let toml = r#"
[package]
name = "hindex-core" # comment
edition = "2021"

[features]
default = []
debug_invariants = ["hindex-common/debug_invariants", "hindex-sketch/debug_invariants"]
multi = [
    "a/x",
    "b/y",
]

[dependencies]
hindex-common = { path = "../common" }
"#;
        let m = Manifest::parse("crates/core".into(), toml);
        assert_eq!(m.package_name.as_deref(), Some("hindex-core"));
        assert_eq!(
            m.feature("debug_invariants"),
            Some(
                &[
                    "hindex-common/debug_invariants".to_string(),
                    "hindex-sketch/debug_invariants".to_string()
                ][..]
            )
        );
        assert_eq!(
            m.feature("multi"),
            Some(&["a/x".to_string(), "b/y".to_string()][..])
        );
        assert_eq!(m.feature("default"), Some(&[][..]));
        assert!(m.feature("missing").is_none());
    }

    #[test]
    fn from_sources_splits_rust_and_manifests() {
        let ws = Workspace::from_sources(vec![
            ("crates/x/Cargo.toml".into(), "[package]\nname = \"x\"\n".into()),
            ("crates/x/src/lib.rs".into(), "fn a() {}".into()),
        ]);
        assert_eq!(ws.files.len(), 1);
        assert_eq!(ws.manifests.len(), 1);
        assert_eq!(ws.manifest("crates/x").unwrap().package_name.as_deref(), Some("x"));
    }
}
