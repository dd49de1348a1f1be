//! Per-crate mutex-acquisition graph extraction (rule R3).
//!
//! The extractor answers one question per crate: *which lock can be
//! acquired while which other lock is held?* Nodes are lock names
//! (struct fields or locals typed `Mutex<_>`/`RwLock<_>`); a directed
//! edge `A -> B` means some code path acquires `B` while holding `A`. A
//! cycle in this graph is a potential lock-order inversion and fails the
//! audit (`lock-cycle`).
//!
//! The analysis is deliberately conservative-but-syntactic:
//!
//! * Locks are identified **by name**, not by instance — two `Mutex`
//!   fields with the same name on different structs are merged. Workspace
//!   lock fields are named distinctly to keep this sound.
//! * Guard lifetimes are tracked lexically: `let g = lock(&x);` holds to
//!   end of scope or `drop(g)`; a chained temporary
//!   (`lock(&x).method(..)`) holds to the end of the statement; an
//!   acquisition in a `for`/`if`/`match` head holds through the block.
//! * Acquisitions propagate through intra-crate calls to a fixpoint, so
//!   `fn a` holding `L` and calling `fn b` that takes `M` yields
//!   `L -> M`. `Type::name(`, and `Self::name(` or `self.name(` inside
//!   `impl Type`, resolve to `Type`'s own `name` first; any other call
//!   resolves only when the crate has one fn of that name, so a
//!   same-named method of another type never lends its locks. Dotted
//!   calls whose method name collides with a std method (`wait`, `join`,
//!   `spawn`, …) are not resolved, which avoids fabricating edges through
//!   `Condvar::wait` or `JoinHandle::join`.
//! * Self-edges (`A -> A`) are dropped: with name-granularity nodes they
//!   are almost always re-entry on a *different* instance.
//!
//! False negatives are possible (guards returned from functions, locks
//! reached through trait objects); false positives are what the design
//! avoids, since a fabricated cycle would block CI.

use std::collections::{BTreeMap, BTreeSet};

/// Where an edge was first observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
    /// Human-readable provenance, e.g. `process -> finalize`.
    pub via: String,
}

/// A crate's lock-acquisition graph.
#[derive(Debug, Clone)]
pub struct LockGraph {
    /// Crate the graph was extracted from.
    pub crate_name: String,
    /// Every lock name that participates in an acquisition.
    pub nodes: BTreeSet<String>,
    /// `(held, acquired)` edges with the first site observed.
    pub edges: BTreeMap<(String, String), EdgeSite>,
}

/// One source file handed to the extractor (already scrubbed and
/// test-blanked).
#[derive(Debug, Clone)]
pub struct FileSrc {
    /// Workspace-relative path (used in edge sites).
    pub path: String,
    /// Scrubbed, test-blanked source text.
    pub code: String,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Dotted method names that are never resolved against the crate's own
/// function table: they collide with std-library methods (`Condvar::wait`,
/// `JoinHandle::join`, `io::Read::read`, channel `send`/`recv`, …) and
/// resolving them would fabricate edges.
const SKIP_METHODS: &[&str] = &[
    "wait",
    "wait_timeout",
    "join",
    "lock",
    "read",
    "write",
    "try_lock",
    "flush",
    "shutdown",
    "send",
    "recv",
    "try_recv",
    "spawn",
    "take",
    "abort",
    "notify_all",
    "notify_one",
    "clone",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "drain",
    "iter",
    "into_iter",
    "collect",
    "extend",
    "map",
    "and_then",
    "finish",
];

/// Function names never resolved at all — overwhelmingly trait-impl
/// names (`Drop::drop`, `Default::default`, …) whose bare-call syntax is
/// a std operation, not a crate call.
const NEVER_RESOLVE: &[&str] = &[
    "drop",
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "next",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "deref",
    "deref_mut",
    "index",
    "borrow",
    "as_ref",
    "as_mut",
    "to_string",
    "write_str",
    "len",
    "is_empty",
];

#[derive(Debug, Clone)]
struct FnDef {
    name: String,
    /// Self type of the `impl` block it is a method of.
    owner: Option<String>,
    file_idx: usize,
    /// Byte span of the body including braces.
    body: (usize, usize),
    /// Whether this function is a lock helper (`fn lock(m: &Mutex<T>)`):
    /// calling it *is* an acquisition of its argument.
    is_helper: bool,
}

/// Offsets of line starts, for offset -> 1-based line mapping.
fn line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn line_of(starts: &[usize], offset: usize) -> usize {
    match starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Collect lock names declared in a file: `name: Mutex<..>` /
/// `name: RwLock<..>` (through wrapper generics and `&`), and
/// `let name = …Mutex::new(..)` bindings.
fn collect_lock_names(code: &str, names: &mut BTreeSet<String>, condvars: &mut BTreeSet<String>) {
    let bytes = code.as_bytes();
    for marker in ["Mutex", "RwLock", "Condvar"] {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(marker) {
            let at = from + rel;
            from = at + marker.len();
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            let after = bytes.get(at + marker.len()).copied();
            let dest: &mut BTreeSet<String> = if marker == "Condvar" { condvars } else { names };
            match after {
                Some(b'<') => {
                    if let Some(name) = decl_name_before(bytes, at) {
                        dest.insert(name);
                    }
                }
                Some(b':') if bytes.get(at + marker.len() + 1) == Some(&b':') => {
                    if let Some(name) = constructor_binding_before(bytes, at) {
                        dest.insert(name);
                    }
                }
                _ => {
                    // Bare `Condvar` field type without generics.
                    if marker == "Condvar" {
                        if let Some(name) = decl_name_before(bytes, at) {
                            condvars.insert(name);
                        }
                    }
                }
            }
        }
    }
}

/// Walk left from a type marker through wrapper generics to `name:`.
/// `end` points at the first byte of the marker (or just past the type
/// for bare types): accepts `name: Arc<Mutex<`, `name: &Mutex<`, …
fn decl_name_before(bytes: &[u8], marker_at: usize) -> Option<String> {
    let mut at = marker_at;
    loop {
        while at > 0 && bytes[at - 1].is_ascii_whitespace() {
            at -= 1;
        }
        if at == 0 {
            return None;
        }
        match bytes[at - 1] {
            b'<' => {
                at -= 1;
                while at > 0 && (is_ident_byte(bytes[at - 1]) || bytes[at - 1] == b':') {
                    at -= 1;
                }
            }
            b'&' => at -= 1,
            b':' => {
                if at >= 2 && bytes[at - 2] == b':' {
                    return None; // `::` path, not a declaration colon
                }
                at -= 1;
                while at > 0 && bytes[at - 1].is_ascii_whitespace() {
                    at -= 1;
                }
                let end = at;
                while at > 0 && is_ident_byte(bytes[at - 1]) {
                    at -= 1;
                }
                if at == end {
                    return None;
                }
                let name = String::from_utf8_lossy(&bytes[at..end]).into_owned();
                if name == "mut" || name == "dyn" {
                    return None;
                }
                return Some(name);
            }
            _ => return None,
        }
    }
}

/// Walk left from `Mutex::new(` across wrapper constructors
/// (`Arc::new(`) to the `=` of a `let` binding, returning the bound name.
fn constructor_binding_before(bytes: &[u8], marker_at: usize) -> Option<String> {
    let mut at = marker_at;
    while at > 0 {
        let b = bytes[at - 1];
        if b == b'=' {
            at -= 1;
            if at > 0 && matches!(bytes[at - 1], b'=' | b'!' | b'<' | b'>') {
                return None;
            }
            while at > 0 && bytes[at - 1].is_ascii_whitespace() {
                at -= 1;
            }
            let end = at;
            while at > 0 && is_ident_byte(bytes[at - 1]) {
                at -= 1;
            }
            if at == end {
                return None;
            }
            return Some(String::from_utf8_lossy(&bytes[at..end]).into_owned());
        }
        if b == b'(' || b == b':' || b.is_ascii_whitespace() || is_ident_byte(b) {
            at -= 1;
            continue;
        }
        return None;
    }
    None
}

/// Find every `fn` definition (with a body) in a file.
fn collect_fns(code: &str, file_idx: usize, out: &mut Vec<FnDef>) {
    let bytes = code.as_bytes();
    let impls = crate::rules::impl_blocks(code);
    let mut from = 0usize;
    while let Some(rel) = code[from..].find("fn ") {
        let at = from + rel;
        from = at + 3;
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue; // e.g. `graph_fn `
        }
        let name_start = skip_ws(bytes, at + 3);
        let mut name_end = name_start;
        while name_end < bytes.len() && is_ident_byte(bytes[name_end]) {
            name_end += 1;
        }
        if name_end == name_start {
            continue;
        }
        let name = code[name_start..name_end].to_string();
        // Optional generics, then the parameter list.
        let mut i = name_end;
        if bytes.get(i) == Some(&b'<') {
            let mut depth = 0isize;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' if i > 0 && bytes[i - 1] == b'-' => {} // `->` in Fn bounds
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        i = skip_ws(bytes, i);
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        let Some(params_close) = matching_paren(bytes, i) else {
            continue;
        };
        let params = &code[i..=params_close];
        // Body: first `{` before a `;` at bracket depth zero.
        let mut j = params_close + 1;
        let mut body_open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    body_open = Some(j);
                    break;
                }
                b';' => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let Some(close) = matching_brace(bytes, open) else {
            continue;
        };
        let body = &code[open..=close];
        let takes_lock_param = params.contains("Mutex<") || params.contains("RwLock<");
        let is_helper = takes_lock_param
            && (body.contains(".lock()") || body.contains(".read()") || body.contains(".write()"));
        // A fn nested in another fn's body is no method.
        let nested = out
            .iter()
            .any(|f| f.file_idx == file_idx && f.body.0 < at && at < f.body.1);
        let owner = impls
            .iter()
            .rev()
            .find(|b| !nested && b.body.contains(&at))
            .map(|b| b.self_ty.clone());
        out.push(FnDef {
            name,
            owner,
            file_idx,
            body: (open, close + 1),
            is_helper,
        });
        from = open; // keep scanning inside the body for nested fns
    }
}

/// Last path segment of an expression like `&self.core.queue` or
/// `&mut shared.socks` — the lock name at a call/acquisition site.
fn last_segment(expr: &str) -> Option<String> {
    let trimmed = expr
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim()
        .trim_end_matches(')');
    let last = trimmed.rsplit(['.', ':', '(', '*', ' ']).next()?.trim();
    if last.is_empty() || !last.bytes().all(is_ident_byte) {
        return None;
    }
    Some(last.to_string())
}

/// Walk a dotted receiver path leftward from `dot` (the `.` before the
/// method name); returns the last path segment.
fn receiver_before(bytes: &[u8], dot: usize) -> Option<String> {
    let mut at = dot; // position of the '.'
    let end = at;
    while at > 0 && is_ident_byte(bytes[at - 1]) {
        at -= 1;
    }
    if at == end {
        return None;
    }
    Some(String::from_utf8_lossy(&bytes[at..end]).into_owned())
}

/// One acquisition or call event found in a function body (pass 1).
#[derive(Debug, Clone)]
enum Event {
    /// Acquire the named lock at this offset; `binds` carries the `let`
    /// pattern decision made by the scanner in pass 2.
    Acquire { lock: String, at: usize },
    /// Call the crate functions `targets` (indices into the crate's fn
    /// table), all named `callee`, at this offset.
    Call {
        callee: String,
        targets: Vec<usize>,
        at: usize,
    },
}

/// The crate fns a call of `name` reaches: `ty`'s own when the call
/// names a type (`Type::`, `Self::`, `self.`) that has one, else the
/// crate's only fn of that name, else none.
fn resolve(fns: &[FnDef], name: &str, ty: Option<&str>) -> Vec<usize> {
    let named: Vec<usize> = (0..fns.len())
        .filter(|&k| !fns[k].is_helper && fns[k].name == name)
        .collect();
    let own: Vec<usize> = named
        .iter()
        .copied()
        .filter(|&k| ty.is_some() && fns[k].owner.as_deref() == ty)
        .collect();
    match (own.is_empty(), named.len()) {
        (false, _) => own,
        (true, 1) => named,
        _ => Vec::new(),
    }
}

struct BodyScan {
    events: Vec<Event>,
}

/// Scan the body of `fns[caller]`, producing acquisition and call
/// events in source order. Used by both the fixpoint pass and the
/// edge-emission pass.
fn scan_body(
    code: &str,
    fns: &[FnDef],
    caller: usize,
    lock_names: &BTreeSet<String>,
    condvars: &BTreeSet<String>,
    helpers: &BTreeSet<String>,
) -> BodyScan {
    let span = fns[caller].body;
    let bytes = code.as_bytes();
    let mut events = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        let b = bytes[i];
        if !is_ident_start(b) {
            i += 1;
            continue;
        }
        if i > 0 && is_ident_byte(bytes[i - 1]) {
            // mid-identifier (can't happen given the advance below, but safe)
            i += 1;
            continue;
        }
        let start = i;
        while i < span.1 && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let ident = &code[start..i];
        let after = bytes.get(i).copied();
        let dotted = start > 0 && bytes[start - 1] == b'.';
        if after != Some(b'(') {
            continue;
        }
        // `.lock()` / `.read()` / `.write()` on a known lock receiver.
        if dotted && matches!(ident, "lock" | "read" | "write" | "try_lock") {
            if let Some(recv) = receiver_before(bytes, start - 1) {
                if lock_names.contains(&recv) && !condvars.contains(&recv) {
                    events.push(Event::Acquire {
                        lock: recv,
                        at: start,
                    });
                }
            }
            continue;
        }
        // Helper call: `lock(&self.queue)` — the call is the acquisition.
        if !dotted && helpers.contains(ident) {
            if let Some(close) = matching_paren(bytes, i) {
                let arg = code[i + 1..close].split(',').next().unwrap_or("");
                if let Some(lock) = last_segment(arg) {
                    if !condvars.contains(&lock) {
                        events.push(Event::Acquire { lock, at: start });
                    }
                }
            }
            continue;
        }
        // Intra-crate call: `self.name(`, `Self::name(` and `Type::name(`
        // name the type whose fn to prefer.
        if NEVER_RESOLVE.contains(&ident) || (dotted && SKIP_METHODS.contains(&ident)) {
            continue;
        }
        let own = fns[caller].owner.as_deref();
        let ty = if dotted {
            receiver_before(bytes, start - 1)
                .filter(|r| r == "self")
                .and(own)
        } else if start >= 2 && &bytes[start - 2..start] == b"::" {
            match receiver_before(bytes, start - 2) {
                Some(q) if q == "Self" => own,
                Some(q) => Some(&code[start - 2 - q.len()..start - 2]),
                None => None,
            }
        } else {
            None
        };
        let targets = resolve(fns, ident, ty);
        if !targets.is_empty() {
            events.push(Event::Call {
                callee: ident.to_string(),
                targets,
                at: start,
            });
        }
    }
    BodyScan { events }
}

/// A guard being held during pass 2.
#[derive(Debug, Clone)]
struct Guard {
    name: Option<String>,
    lock: String,
    depth: usize,
}

/// Decide how an acquisition at `at` binds: returns `true` when the
/// acquisition is the whole right-hand side of a `let` (modulo poison
/// chains like `.unwrap_or_else(PoisonError::into_inner)`), i.e. the
/// guard persists under the `let` name.
fn binds_to_let(bytes: &[u8], at: usize, span_end: usize) -> bool {
    // Find the call's closing paren (acquisitions are `name(…)` or
    // `recv.lock(…)` — either way the next `(` after `at` opens the call).
    let mut i = at;
    while i < span_end && bytes[i] != b'(' {
        if bytes[i] == b';' || bytes[i] == b'\n' {
            return false;
        }
        i += 1;
    }
    let Some(mut close) = matching_paren(bytes, i) else {
        return false;
    };
    // Consume chained poison-recovery calls.
    loop {
        let next = skip_ws(bytes, close + 1);
        if bytes.get(next) == Some(&b'.') {
            let ms = next + 1;
            let mut me = ms;
            while me < bytes.len() && is_ident_byte(bytes[me]) {
                me += 1;
            }
            let method = std::str::from_utf8(&bytes[ms..me]).unwrap_or("");
            if matches!(
                method,
                "unwrap" | "expect" | "unwrap_or_else" | "unwrap_or" | "unwrap_or_default"
            ) && bytes.get(me) == Some(&b'(')
            {
                if let Some(c2) = matching_paren(bytes, me) {
                    close = c2;
                    continue;
                }
            }
            return false; // further chaining: the guard is a temporary
        }
        return bytes.get(next) == Some(&b';');
    }
}

impl LockGraph {
    /// Extract the lock graph for one crate from its library sources.
    pub fn build(crate_name: &str, files: &[FileSrc]) -> LockGraph {
        let mut lock_names = BTreeSet::new();
        let mut condvars = BTreeSet::new();
        for f in files {
            collect_lock_names(&f.code, &mut lock_names, &mut condvars);
        }
        let mut fns: Vec<FnDef> = Vec::new();
        for (idx, f) in files.iter().enumerate() {
            collect_fns(&f.code, idx, &mut fns);
        }
        let helpers: BTreeSet<String> = fns
            .iter()
            .filter(|f| f.is_helper)
            .map(|f| f.name.clone())
            .collect();

        // Pass 1: per-fn events, then propagate acquisitions through
        // resolved calls to a fixpoint.
        let scans: Vec<BodyScan> = (0..fns.len())
            .map(|k| {
                scan_body(
                    &files[fns[k].file_idx].code,
                    &fns,
                    k,
                    &lock_names,
                    &condvars,
                    &helpers,
                )
            })
            .collect();
        let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); fns.len()];
        let mut calls: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fns.len()];
        for (k, scan) in scans.iter().enumerate() {
            for ev in &scan.events {
                match ev {
                    Event::Acquire { lock, .. } => {
                        acquires[k].insert(lock.clone());
                    }
                    Event::Call { targets, .. } => calls[k].extend(targets),
                }
            }
        }
        loop {
            let mut changed = false;
            for k in 0..fns.len() {
                let add: BTreeSet<String> = calls[k]
                    .iter()
                    .flat_map(|&t| acquires[t].iter().cloned())
                    .collect();
                for lock in add {
                    changed |= acquires[k].insert(lock);
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 2: lexical guard tracking and edge emission.
        let mut nodes = BTreeSet::new();
        let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
        let starts_per_file: Vec<Vec<usize>> = files.iter().map(|f| line_starts(&f.code)).collect();
        for (f, scan) in fns.iter().zip(&scans) {
            let code = &files[f.file_idx].code;
            let bytes = code.as_bytes();
            let starts = &starts_per_file[f.file_idx];
            let mut guards: Vec<Guard> = Vec::new();
            let mut stmt_locks: Vec<String> = Vec::new();
            let mut depth = 0usize;
            let mut pending_let: Option<String> = None;
            let mut ev_iter = scan.events.iter().peekable();
            let mut i = f.body.0;
            while i < f.body.1 {
                // Fire any events at (or before) this position first.
                while let Some(ev) = ev_iter.peek() {
                    let at = match ev {
                        Event::Acquire { at, .. } | Event::Call { at, .. } => *at,
                    };
                    if at <= i {
                        let held: BTreeSet<String> = guards
                            .iter()
                            .map(|g| g.lock.clone())
                            .chain(stmt_locks.iter().cloned())
                            .collect();
                        match ev_iter.next() {
                            Some(Event::Acquire { lock, at }) => {
                                nodes.insert(lock.clone());
                                for h in &held {
                                    if h != lock {
                                        edges.entry((h.clone(), lock.clone())).or_insert(
                                            EdgeSite {
                                                file: files[f.file_idx].path.clone(),
                                                line: line_of(starts, *at),
                                                via: f.name.clone(),
                                            },
                                        );
                                    }
                                }
                                if binds_to_let(bytes, *at, f.body.1) {
                                    guards.push(Guard {
                                        name: pending_let.take(),
                                        lock: lock.clone(),
                                        depth,
                                    });
                                } else {
                                    stmt_locks.push(lock.clone());
                                }
                            }
                            Some(Event::Call {
                                callee,
                                targets,
                                at,
                            }) => {
                                for t in targets.iter().flat_map(|&k| &acquires[k]) {
                                    nodes.insert(t.clone());
                                    for h in &held {
                                        if h != t {
                                            edges.entry((h.clone(), t.clone())).or_insert(
                                                EdgeSite {
                                                    file: files[f.file_idx].path.clone(),
                                                    line: line_of(starts, *at),
                                                    via: format!("{} -> {}", f.name, callee),
                                                },
                                            );
                                        }
                                    }
                                }
                            }
                            None => {}
                        }
                    } else {
                        break;
                    }
                }
                match bytes[i] {
                    b'{' => {
                        depth += 1;
                        for lock in stmt_locks.drain(..) {
                            guards.push(Guard {
                                name: None,
                                lock,
                                depth,
                            });
                        }
                        pending_let = None;
                        i += 1;
                    }
                    b'}' => {
                        let new_depth = depth.saturating_sub(1);
                        guards.retain(|g| g.depth <= new_depth);
                        depth = new_depth;
                        stmt_locks.clear();
                        pending_let = None;
                        i += 1;
                    }
                    b';' => {
                        stmt_locks.clear();
                        pending_let = None;
                        i += 1;
                    }
                    b if is_ident_start(b) && (i == 0 || !is_ident_byte(bytes[i - 1])) => {
                        let start = i;
                        while i < f.body.1 && is_ident_byte(bytes[i]) {
                            i += 1;
                        }
                        match &code[start..i] {
                            "let" => {
                                let mut j = skip_ws(bytes, i);
                                // `let mut name`, skip the `mut`.
                                if code[j..].starts_with("mut")
                                    && bytes.get(j + 3).is_some_and(|b| !is_ident_byte(*b))
                                {
                                    j = skip_ws(bytes, j + 3);
                                }
                                let ns = j;
                                let mut ne = j;
                                while ne < f.body.1 && is_ident_byte(bytes[ne]) {
                                    ne += 1;
                                }
                                if ne > ns {
                                    pending_let = Some(code[ns..ne].to_string());
                                }
                            }
                            "drop" => {
                                let open = skip_ws(bytes, i);
                                if bytes.get(open) == Some(&b'(') {
                                    if let Some(close) = matching_paren(bytes, open) {
                                        let arg = code[open + 1..close].trim();
                                        // Only honor a drop at the guard's own
                                        // binding depth: a deeper drop sits in a
                                        // conditional block (early-exit arms),
                                        // and the fall-through path still holds
                                        // the guard. The scan is linear, not
                                        // path-sensitive, so keeping the guard
                                        // is the conservative choice.
                                        guards.retain(|g| {
                                            g.name.as_deref() != Some(arg) || g.depth != depth
                                        });
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    _ => {
                        i += 1;
                    }
                }
            }
        }
        LockGraph {
            crate_name: crate_name.to_string(),
            nodes,
            edges,
        }
    }

    /// Adjacency map of the graph, self-edges removed.
    fn adjacency(&self) -> BTreeMap<&str, BTreeSet<&str>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for node in &self.nodes {
            adj.entry(node.as_str()).or_default();
        }
        for (from, to) in self.edges.keys() {
            if from != to {
                adj.entry(from.as_str()).or_default().insert(to.as_str());
            }
        }
        adj
    }

    /// Find cycles (lock-order inversions). Returns each cycle as the
    /// node path that closes it, e.g. `["a", "b", "a"]`.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let adj = self.adjacency();
        let mut color: BTreeMap<&str, u8> = adj.keys().map(|k| (*k, 0u8)).collect();
        let mut cycles = Vec::new();
        let mut stack: Vec<&str> = Vec::new();

        fn dfs<'a>(
            node: &'a str,
            adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
            color: &mut BTreeMap<&'a str, u8>,
            stack: &mut Vec<&'a str>,
            cycles: &mut Vec<Vec<String>>,
        ) {
            color.insert(node, 1);
            stack.push(node);
            if let Some(nexts) = adj.get(node) {
                for next in nexts {
                    match color.get(next).copied().unwrap_or(0) {
                        0 => dfs(next, adj, color, stack, cycles),
                        1 => {
                            if let Some(pos) = stack.iter().position(|n| n == next) {
                                let mut cycle: Vec<String> =
                                    stack[pos..].iter().map(|s| s.to_string()).collect();
                                cycle.push(next.to_string());
                                cycles.push(cycle);
                            }
                        }
                        _ => {}
                    }
                }
            }
            stack.pop();
            color.insert(node, 2);
        }

        let roots: Vec<&str> = adj.keys().copied().collect();
        for root in roots {
            if color.get(root).copied().unwrap_or(0) == 0 {
                dfs(root, &adj, &mut color, &mut stack, &mut cycles);
            }
        }
        cycles
    }

    /// Render the graph in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "digraph \"{}\" {{\n",
            dot_escape(&self.crate_name)
        ));
        out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
        for node in &self.nodes {
            out.push_str(&format!("  \"{}\";\n", dot_escape(node)));
        }
        for ((from, to), site) in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
                dot_escape(from),
                dot_escape(to),
                dot_escape(&site.file),
                site.line
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Render the graph (plus any cycles) as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"crate\": \"{}\",\n",
            json_escape(&self.crate_name)
        ));
        out.push_str("  \"nodes\": [");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(node)));
        }
        out.push_str("],\n  \"edges\": [\n");
        for (i, ((from, to), site)) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"file\": \"{}\", \"line\": {}, \"via\": \"{}\"}}{}\n",
                json_escape(from),
                json_escape(to),
                json_escape(&site.file),
                site.line,
                json_escape(&site.via),
                if i + 1 < self.edges.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"cycles\": [");
        let cycles = self.cycles();
        for (i, cycle) in cycles.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, node) in cycle.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(node)));
            }
            out.push(']');
        }
        out.push_str("]\n}\n");
        out
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
