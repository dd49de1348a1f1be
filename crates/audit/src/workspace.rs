//! Workspace walking, scope classification and finding aggregation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Waiver};
use crate::lockgraph::{FileSrc, LockGraph};
use crate::rules::{self, FileScope, Finding, Rule};

/// Errors the audit itself can hit (distinct from findings *about* the
/// audited code).
#[derive(Debug)]
pub enum AuditError {
    /// An I/O failure reading the workspace.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The given root does not look like the fecim workspace.
    NotAWorkspace(PathBuf),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Io { path, source } => {
                write!(f, "i/o error at {}: {}", path.display(), source)
            }
            AuditError::NotAWorkspace(path) => write!(
                f,
                "{} is not a cargo workspace root (no Cargo.toml with [workspace])",
                path.display()
            ),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Io { source, .. } => Some(source),
            AuditError::NotAWorkspace(_) => None,
        }
    }
}

/// The result of auditing a workspace.
#[derive(Debug)]
pub struct WorkspaceAudit {
    /// Every finding, waived or not, in (file, line) order per crate.
    pub findings: Vec<Finding>,
    /// Per-crate lock graphs (only crates where locks were observed).
    pub graphs: Vec<LockGraph>,
    /// Number of crates scanned.
    pub crates: usize,
    /// Number of library files scanned.
    pub files: usize,
}

impl WorkspaceAudit {
    /// Findings that gate CI (not waived).
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_violation())
    }

    /// Findings covered by an inline waiver.
    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.is_violation())
    }
}

/// Locate the workspace root: ascend from `start` until a `Cargo.toml`
/// containing `[workspace]` is found.
fn find_root(start: &Path) -> Result<PathBuf, AuditError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(AuditError::NotAWorkspace(start.to_path_buf()));
        }
    }
}

fn read(path: &Path) -> Result<String, AuditError> {
    fs::read_to_string(path).map_err(|e| AuditError::Io {
        path: path.to_path_buf(),
        source: e,
    })
}

/// Recursively list `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| AuditError::Io {
            path: d.clone(),
            source: e,
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| AuditError::Io {
                path: d.clone(),
                source: e,
            })?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Classify a source file within its crate directory.
///
/// * `src/main.rs` and `src/bin/**` are binary roots — exempt from
///   R1/R2 (entry points legitimately read argv/clock and may abort).
/// * `tests/`, `benches/`, `examples/` are not scanned at all (the
///   caller only walks `src/`).
fn classify(crate_dir: &Path, file: &Path) -> FileScope {
    let rel = file.strip_prefix(crate_dir).unwrap_or(file);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if rel_str == "src/main.rs" || rel_str.starts_with("src/bin/") {
        FileScope::Binary
    } else {
        FileScope::Library
    }
}

struct ScannedFile {
    rel_path: String,
    original: String,
    /// Scrubbed + test-blanked code.
    code: String,
    waivers: Vec<Waiver>,
    scope: FileScope,
}

/// Apply waivers to raw findings: a finding is waived when a waiver for
/// its rule sits on the same line or the line immediately above. Returns
/// extra findings for waiver hygiene (`bad-waiver`, `stale-waiver`).
fn apply_waivers(file: &ScannedFile, findings: &mut [Finding]) -> Vec<Finding> {
    let mut used = vec![false; file.waivers.len()];
    let mut extra = Vec::new();
    for finding in findings.iter_mut() {
        if !finding.rule.waivable() {
            continue;
        }
        for (wi, waiver) in file.waivers.iter().enumerate() {
            if waiver.covers(finding.rule.name(), finding.line) {
                finding.waived = Some(waiver.reason.clone());
                used[wi] = true;
                break;
            }
        }
    }
    let orig_lines: Vec<&str> = file.original.lines().collect();
    for (wi, waiver) in file.waivers.iter().enumerate() {
        let excerpt = orig_lines
            .get(waiver.line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        if waiver.malformed || Rule::from_name(&waiver.rule).is_none() {
            extra.push(Finding {
                rule: Rule::BadWaiver,
                file: file.rel_path.clone(),
                line: waiver.line,
                excerpt,
                waived: None,
            });
        } else if !used[wi] {
            extra.push(Finding {
                rule: Rule::StaleWaiver,
                file: file.rel_path.clone(),
                line: waiver.line,
                excerpt,
                waived: None,
            });
        }
    }
    extra
}

/// Read, scrub and test-blank every `.rs` file under `dir`, naming each
/// by its path relative to `root`.
fn scan_tree(root: &Path, dir: &Path) -> Result<Vec<(PathBuf, ScannedFile)>, AuditError> {
    let mut out = Vec::new();
    for path in rs_files(dir)? {
        let original = read(&path)?;
        let scrubbed = lexer::scrub(&original);
        let code = lexer::blank_test_items(&scrubbed.code);
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let file = ScannedFile {
            rel_path: rel.to_string_lossy().replace('\\', "/"),
            original,
            code,
            waivers: scrubbed.waivers,
            scope: FileScope::Library,
        };
        out.push((path, file));
    }
    Ok(out)
}

/// Read every source file of one crate directory.
fn scan_crate(root: &Path, crate_dir: &Path) -> Result<Vec<ScannedFile>, AuditError> {
    let src = crate_dir.join("src");
    if !src.is_dir() {
        return Ok(Vec::new());
    }
    Ok(scan_tree(root, &src)?
        .into_iter()
        .map(|(path, mut file)| {
            file.scope = classify(crate_dir, &path);
            file
        })
        .collect())
}

/// Identifier counts of one file's shipped code, `pub use` lines
/// blanked. The name right after `fn` is a definition, not a use.
fn token_counts(code: &str) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    let mut after_fn = false;
    for (_, tok) in rules::idents(&rules::blank_reexports(code)) {
        if !after_fn {
            *counts.entry(tok.to_string()).or_insert(0usize) += 1;
        }
        after_fn = tok == "fn";
    }
    counts
}

/// One library `pub` item under the `dead-pub` fixpoint.
struct Candidate<'a> {
    file: usize,
    item: rules::PubItem,
    /// Signature identifiers.
    names: BTreeSet<&'a str>,
    /// Shipped code outside its file names it.
    named: bool,
    /// A `dead-pub` waiver keeps it.
    kept: bool,
}

/// `dead-pub` findings for the library files among `files`. An item is
/// used when its name occurs as a token outside its own file, in the
/// shipped code of `files` (bins included) or of `users`, or in the
/// signature of a used or waived item of its own file. An item of an
/// inherent `impl T` block is used only while `T` is used or waived.
fn dead_pub(files: &[&ScannedFile], users: &[ScannedFile]) -> Vec<Finding> {
    let per_file: Vec<BTreeMap<String, usize>> =
        files.iter().map(|f| token_counts(&f.code)).collect();
    let mut total: BTreeMap<String, usize> = BTreeMap::new();
    let user_counts = users.iter().map(|u| token_counts(&u.code));
    for counts in per_file.iter().cloned().chain(user_counts) {
        for (tok, n) in counts {
            *total.entry(tok).or_insert(0) += n;
        }
    }
    let count = |map: &BTreeMap<String, usize>, name: &str| map.get(name).copied().unwrap_or(0);
    let mut items = Vec::new();
    for (fi, (file, own)) in files.iter().zip(&per_file).enumerate() {
        if file.scope != FileScope::Library {
            continue;
        }
        for item in rules::pub_items(&file.code) {
            items.push(Candidate {
                file: fi,
                names: rules::idents(&file.code[item.signature.clone()])
                    .map(|(_, tok)| tok)
                    .collect(),
                named: count(&total, &item.name) > count(own, &item.name),
                kept: file
                    .waivers
                    .iter()
                    .any(|w| w.covers(Rule::DeadPub.name(), item.line)),
                item,
            });
        }
    }
    // Least fixpoint: nothing is live until a use outside its file, or a
    // live or kept signature, reaches it through a live owner.
    let mut live = vec![false; items.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for x in 0..items.len() {
            let it = &items[x];
            if live[x] {
                continue;
            }
            // An owner the audit does not track (private, or outside
            // the library files) never blocks its items.
            let owner_live = it.item.owner.as_ref().is_none_or(|ty| {
                let owners: Vec<usize> = (0..items.len())
                    .filter(|&o| items[o].item.owner.is_none() && items[o].item.name == *ty)
                    .collect();
                owners.is_empty() || owners.iter().any(|&o| live[o] || items[o].kept)
            });
            let used = it.named
                || items.iter().enumerate().any(|(y, keeper)| {
                    y != x
                        && keeper.file == it.file
                        && (live[y] || keeper.kept)
                        && keeper.names.contains(it.item.name.as_str())
                });
            if owner_live && used {
                live[x] = true;
                changed = true;
            }
        }
    }
    items
        .iter()
        .zip(live)
        .filter(|(_, live)| !live)
        .map(|(it, _)| {
            let file = files[it.file];
            Finding {
                rule: Rule::DeadPub,
                file: file.rel_path.clone(),
                line: it.item.line,
                excerpt: file
                    .original
                    .lines()
                    .nth(it.item.line - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
                waived: None,
            }
        })
        .collect()
}

/// Aggregate one crate's findings and lock graph. `dead` holds the
/// workspace's `dead-pub` findings; `rel_prefix` is the
/// workspace-relative path of the crate (e.g. `crates/serve`).
fn audit_crate(
    scanned: &[ScannedFile],
    dead: &[Finding],
    rel_prefix: &str,
    audit: &mut WorkspaceAudit,
) {
    audit.files += scanned.len();

    for file in scanned {
        // Hash-typed names are collected per file, not per crate: a
        // crate-wide union would let `jobs: Mutex<HashMap<..>>` in one
        // module flag an unrelated `Vec` local named `jobs` in another.
        // The cost is that iterating a hash field declared in a sibling
        // module is missed — in this workspace hash fields are used in
        // the file that declares them (see DESIGN.md §5).
        let hash_names = rules::collect_hash_names(&file.code);
        let mut findings = rules::scan_file(
            &file.rel_path,
            &file.original,
            &file.code,
            file.scope,
            &hash_names,
        );
        findings.extend(dead.iter().filter(|f| f.file == file.rel_path).cloned());
        findings.sort_by_key(|f| f.line);
        let extra = apply_waivers(file, &mut findings);
        audit.findings.extend(findings);
        audit.findings.extend(extra);
    }

    // Lock graph over library sources.
    let lib_files: Vec<FileSrc> = scanned
        .iter()
        .filter(|f| f.scope == FileScope::Library)
        .map(|f| FileSrc {
            path: f.rel_path.clone(),
            code: f.code.clone(),
        })
        .collect();
    let crate_name = rel_prefix.rsplit('/').next().unwrap_or(rel_prefix);
    let graph = LockGraph::build(crate_name, &lib_files);
    if !graph.nodes.is_empty() {
        for cycle in graph.cycles() {
            let site = graph
                .edges
                .iter()
                .find(|((from, _), _)| from == &cycle[0])
                .map(|(_, s)| (s.file.clone(), s.line));
            audit.findings.push(Finding {
                rule: Rule::LockCycle,
                file: site
                    .as_ref()
                    .map(|(f, _)| f.clone())
                    .unwrap_or_else(|| rel_prefix.to_string()),
                line: site.map(|(_, l)| l).unwrap_or(0),
                excerpt: format!("lock-order cycle: {}", cycle.join(" -> ")),
                waived: None,
            });
        }
        audit.graphs.push(graph);
    }
    audit.crates += 1;
}

/// Audit every crate under `<root>/crates/`.
///
/// Vendored shims under `third_party/` are *not* audited: they stand in
/// for external registry dependencies and are replaced wholesale when a
/// network-enabled build becomes available. Workspace-level `tests/` and
/// `examples/` members are test scope by definition; `examples/` and
/// `perfbench/src/` are read only as users of the crates' `pub` items
/// (`dead-pub`), and their out-of-line `tests.rs` modules are not.
pub fn audit_workspace(root: &Path) -> Result<WorkspaceAudit, AuditError> {
    let root = find_root(root)?;
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(AuditError::NotAWorkspace(root));
    }
    let mut audit = WorkspaceAudit {
        findings: Vec::new(),
        graphs: Vec::new(),
        crates: 0,
        files: 0,
    };
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(&crates_dir).map_err(|e| AuditError::Io {
        path: crates_dir.clone(),
        source: e,
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| AuditError::Io {
            path: crates_dir.clone(),
            source: e,
        })?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();
    let crates = crate_dirs
        .iter()
        .map(|dir| scan_crate(&root, dir))
        .collect::<Result<Vec<_>, _>>()?;
    let mut users = Vec::new();
    for tree in ["examples", "perfbench/src"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            users.extend(
                scan_tree(&root, &dir)?
                    .into_iter()
                    .filter(|(path, _)| !path.ends_with("tests.rs"))
                    .map(|(_, file)| file),
            );
        }
    }
    let dead = dead_pub(&crates.iter().flatten().collect::<Vec<_>>(), &users);
    for (dir, scanned) in crate_dirs.iter().zip(&crates) {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        audit_crate(scanned, &dead, &format!("crates/{name}"), &mut audit);
    }
    Ok(audit)
}
