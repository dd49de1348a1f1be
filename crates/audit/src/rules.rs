//! Rule definitions and per-file scanning.
//!
//! All scanning runs over *scrubbed* code (comments, literals and
//! test-gated items blanked — see [`crate::lexer`]), so a needle inside a
//! doc comment or string can never fire. Line numbers refer to the
//! original source because scrubbing preserves offsets.

use std::collections::BTreeSet;

/// The rules the auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: iteration over `HashMap`/`HashSet` in library code. Hash
    /// iteration order is randomized per process, so anything
    /// result-affecting must use `BTreeMap`/`BTreeSet` or sort first.
    HashIter,
    /// R1: ambient randomness (`thread_rng`, `from_entropy`, `OsRng`,
    /// `rand::random`) — results must be a pure function of the request
    /// seed.
    AmbientRng,
    /// R1: wall-clock reads (`Instant::now`, `SystemTime::now`) outside
    /// waived timing-attribution sites.
    WallClock,
    /// R1: `std::env` reads in library crates (ambient configuration).
    EnvRead,
    /// R2: panic paths in library code: `unwrap()`, `expect(`, `panic!`,
    /// `todo!`, `unimplemented!`.
    PanicPath,
    /// A waiver comment that is malformed, names an unknown rule, or has
    /// no reason.
    BadWaiver,
    /// A waiver comment that matched no finding on its line or the next.
    StaleWaiver,
    /// R3: a cycle in a crate's mutex-acquisition graph.
    LockCycle,
    /// A bare `pub` item in a library file that no shipped code outside
    /// its own file names (see [`pub_items`]).
    DeadPub,
}

impl Rule {
    /// Stable kebab-case rule name used in waivers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::AmbientRng => "ambient-rng",
            Rule::WallClock => "wall-clock",
            Rule::EnvRead => "env-read",
            Rule::PanicPath => "panic-path",
            Rule::BadWaiver => "bad-waiver",
            Rule::StaleWaiver => "stale-waiver",
            Rule::LockCycle => "lock-cycle",
            Rule::DeadPub => "dead-pub",
        }
    }

    /// Parse a rule name as written in a waiver.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "hash-iter" => Some(Rule::HashIter),
            "ambient-rng" => Some(Rule::AmbientRng),
            "wall-clock" => Some(Rule::WallClock),
            "env-read" => Some(Rule::EnvRead),
            "panic-path" => Some(Rule::PanicPath),
            "bad-waiver" => Some(Rule::BadWaiver),
            "stale-waiver" => Some(Rule::StaleWaiver),
            "lock-cycle" => Some(Rule::LockCycle),
            "dead-pub" => Some(Rule::DeadPub),
            _ => None,
        }
    }

    /// Rules that may be waived inline. Waiver-hygiene findings cannot
    /// themselves be waived.
    pub fn waivable(self) -> bool {
        !matches!(self, Rule::BadWaiver | Rule::StaleWaiver)
    }
}

/// One finding produced by the audit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The original source line (trimmed) for context.
    pub excerpt: String,
    /// `Some(reason)` when an inline waiver covers this finding.
    pub waived: Option<String>,
}

impl Finding {
    /// True when the finding still gates CI (no waiver covers it).
    pub fn is_violation(&self) -> bool {
        self.waived.is_none()
    }
}

/// How a file participates in the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileScope {
    /// Library source (`src/**` except binary roots): all rules apply.
    Library,
    /// Binary root (`src/main.rs`, `src/bin/**`): exempt from R1/R2 —
    /// process entry points legitimately read argv/clock and may abort.
    Binary,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte offsets of every boundary-checked occurrence of `needle` in
/// `line`: the character before the match must not be an identifier
/// character (so `env::var` does not match inside `some_env::var`).
fn needle_positions(line: &str, needle: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    // Only needles that *start* with an identifier character need a
    // left-boundary check (`.unwrap()` starts with `.`, so the receiver
    // identifier right before it is expected).
    let check_left = needle.as_bytes().first().is_some_and(|b| is_ident_byte(*b));
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let boundary = !check_left || at == 0 || !is_ident_byte(bytes[at - 1]);
        if boundary {
            hits.push(at);
        }
        from = at + needle.len();
    }
    hits
}

/// Scan one line for simple-needle rules and append findings.
fn scan_needles(
    file: &str,
    lineno: usize,
    code_line: &str,
    orig_line: &str,
    out: &mut Vec<Finding>,
) {
    const PANIC: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];
    const RNG: &[&str] = &["thread_rng(", "from_entropy(", "OsRng", "rand::random"];
    const CLOCK: &[&str] = &["Instant::now(", "SystemTime::now("];
    const ENV: &[&str] = &[
        "std::env::",
        "env::var",
        "env::args",
        "env::vars",
        "env::current_dir",
        "env::current_exe",
        "env::set_var",
    ];
    let groups: [(&[&str], Rule); 4] = [
        (PANIC, Rule::PanicPath),
        (RNG, Rule::AmbientRng),
        (CLOCK, Rule::WallClock),
        (ENV, Rule::EnvRead),
    ];
    for (needles, rule) in groups {
        let mut hit = false;
        for needle in needles {
            if !needle_positions(code_line, needle).is_empty() {
                hit = true;
                break;
            }
        }
        if hit {
            out.push(Finding {
                rule,
                file: file.to_string(),
                line: lineno,
                excerpt: orig_line.trim().to_string(),
                waived: None,
            });
        }
    }
}

/// Collect identifiers declared (or plausibly bound) with a hash-ordered
/// collection type in scrubbed code: `name: HashMap<..>` (through wrapper
/// generics like `Mutex<HashMap<..>>`) and `let name = HashMap::new()`.
pub fn collect_hash_names(code: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let bytes = code.as_bytes();
    for marker in ["HashMap", "HashSet"] {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(marker) {
            let at = from + rel;
            from = at + marker.len();
            let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            if !before_ok {
                continue;
            }
            let after = bytes.get(at + marker.len()).copied();
            match after {
                Some(b'<') => {
                    if let Some(name) = decl_name_before(bytes, at) {
                        names.insert(name);
                    }
                }
                Some(b':') if bytes.get(at + marker.len() + 1) == Some(&b':') => {
                    if let Some(name) = binding_name_before(bytes, at) {
                        names.insert(name);
                    }
                }
                _ => {}
            }
        }
    }
    names
}

/// Walk left from a `HashMap<` type position through wrapper generics
/// (`Mutex<`, `Arc<`, `Option<` …) to the `name:` declaring it.
fn decl_name_before(bytes: &[u8], mut at: usize) -> Option<String> {
    loop {
        // Skip whitespace leftward.
        while at > 0 && bytes[at - 1].is_ascii_whitespace() {
            at -= 1;
        }
        if at == 0 {
            return None;
        }
        match bytes[at - 1] {
            b'<' => {
                // Wrapper generic: skip the wrapper's identifier/path.
                at -= 1;
                while at > 0 && (is_ident_byte(bytes[at - 1]) || bytes[at - 1] == b':') {
                    at -= 1;
                }
            }
            b'&' => at -= 1,
            b':' => {
                // `name:` (single colon; `::` paths were consumed above).
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
                if name == "mut" {
                    return None;
                }
                return Some(name);
            }
            _ => return None,
        }
    }
}

/// Walk left from a `HashMap::` constructor position across `= ` to the
/// bound identifier: `let seen = HashSet::new()`.
fn binding_name_before(bytes: &[u8], mut at: usize) -> Option<String> {
    while at > 0 && bytes[at - 1].is_ascii_whitespace() {
        at -= 1;
    }
    if at == 0 || bytes[at - 1] != b'=' {
        return None;
    }
    at -= 1;
    if at > 0 && matches!(bytes[at - 1], b'=' | b'!' | b'<' | b'>' | b'+') {
        return None; // comparison or compound assignment, not a binding
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
    Some(String::from_utf8_lossy(&bytes[at..end]).into_owned())
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Scan one scrubbed line for iteration over any known hash-typed name.
fn scan_hash_iter(
    file: &str,
    lineno: usize,
    code_line: &str,
    orig_line: &str,
    names: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let bytes = code_line.as_bytes();
    let mut hit = false;
    for name in names {
        for at in needle_positions(code_line, name) {
            let end = at + name.len();
            if end < bytes.len() && is_ident_byte(bytes[end]) {
                continue; // partial identifier match
            }
            // Skip closing parens/whitespace: `lock(&self.jobs).values()`.
            let mut k = end;
            while k < bytes.len() && (bytes[k] == b')' || bytes[k].is_ascii_whitespace()) {
                k += 1;
            }
            if bytes.get(k) != Some(&b'.') {
                continue;
            }
            let mstart = k + 1;
            let mut mend = mstart;
            while mend < bytes.len() && is_ident_byte(bytes[mend]) {
                mend += 1;
            }
            if bytes.get(mend) != Some(&b'(') {
                continue;
            }
            let method = &code_line[mstart..mend];
            if ITER_METHODS.contains(&method) {
                hit = true;
            }
        }
        if hit {
            break;
        }
    }
    // `for x in &map {` / `for x in map {` — iteration without a method.
    if !hit {
        if let Some(for_at) = code_line.find("for ") {
            if let Some(in_rel) = code_line[for_at..].find(" in ") {
                let expr = code_line[for_at + in_rel + 4..].trim();
                let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
                let expr = expr
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim();
                let last = expr.rsplit(['.', ':', '*', '(']).next().unwrap_or(expr);
                if names.contains(last) {
                    hit = true;
                }
            }
        }
    }
    if hit {
        out.push(Finding {
            rule: Rule::HashIter,
            file: file.to_string(),
            line: lineno,
            excerpt: orig_line.trim().to_string(),
            waived: None,
        });
    }
}

/// Scan one file for R1/R2 findings.
///
/// `code` must be scrubbed and test-blanked; `original` is the raw source
/// (for excerpts); `hash_names` is the set of hash-typed identifiers
/// collected via [`collect_hash_names`] from *this file* (per-file on
/// purpose — a crate-wide union would flag unrelated same-named locals in
/// sibling modules; the cost is that a hash field iterated only from a
/// sibling module is missed).
pub fn scan_file(
    file: &str,
    original: &str,
    code: &str,
    scope: FileScope,
    hash_names: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if scope == FileScope::Binary {
        return out;
    }
    let orig_lines: Vec<&str> = original.lines().collect();
    for (idx, code_line) in code.lines().enumerate() {
        let lineno = idx + 1;
        let orig_line = orig_lines.get(idx).copied().unwrap_or("");
        scan_needles(file, lineno, code_line, orig_line, &mut out);
        scan_hash_iter(file, lineno, code_line, orig_line, hash_names, &mut out);
    }
    out
}

/// Identifier tokens of scrubbed code as `(start, text)`, in order.
/// Numeric literals (`1u64`) are not identifiers and are skipped.
pub fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = code.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if !bytes[start].is_ascii_digit() {
                return Some((start, &code[start..i]));
            }
        }
        None
    })
}

/// Blank every `pub use` / `pub(..) use` statement through its `;`, so a
/// re-export does not count as a use of the items it names.
pub fn blank_reexports(code: &str) -> String {
    let bytes = code.as_bytes();
    let mut out = bytes.to_vec();
    for (at, tok) in idents(code) {
        if tok != "pub" {
            continue;
        }
        let mut k = at + tok.len();
        if bytes.get(k) == Some(&b'(') {
            while k < bytes.len() && bytes[k] != b')' {
                k += 1;
            }
            k += 1;
        }
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        let rest = code.get(k..).unwrap_or("");
        if !rest.starts_with("use") || bytes.get(k + 3).is_some_and(|b| is_ident_byte(*b)) {
            continue;
        }
        let end = rest.find(';').map_or(bytes.len(), |rel| k + rel + 1);
        crate::lexer::blank(&mut out, at, end);
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// A bare `pub` item declared in scrubbed code: the unit of `dead-pub`.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// The item's name.
    pub name: String,
    /// 1-based line of its `pub` keyword.
    pub line: usize,
    /// Byte range of its signature: a fn up to its body, any other item
    /// through its end (fields, variants, trait methods, const type).
    pub signature: std::ops::Range<usize>,
    /// The type of the inherent `impl` block it sits in, if any.
    pub owner: Option<String>,
}

/// Every bare `pub` fn, method, struct, enum, union, trait, const,
/// static or type alias in scrubbed, test-blanked code. `pub(crate)`
/// and other restricted items, `pub mod`, `pub use` and fields are not
/// items here.
pub fn pub_items(code: &str) -> Vec<PubItem> {
    let bytes = code.as_bytes();
    let toks: Vec<(usize, &str)> = idents(code).collect();
    // Token `k` follows token `k - 1` across whitespace only.
    let adjacent = |k: usize| {
        let (prev, text) = toks[k - 1];
        code[prev + text.len()..toks[k].0].trim().is_empty()
    };
    let impls = impl_blocks(code);
    let mut items = Vec::new();
    for (k, &(at, tok)) in toks.iter().enumerate() {
        if tok != "pub" || k + 2 >= toks.len() || !adjacent(k + 1) {
            continue;
        }
        let mut j = k + 1;
        while matches!(toks[j].1, "const" | "unsafe" | "async" | "extern")
            && j + 1 < toks.len()
            && adjacent(j + 1)
            && matches!(
                toks[j + 1].1,
                "fn" | "unsafe" | "async" | "extern" | "trait"
            )
        {
            j += 1;
        }
        let is_fn = toks[j].1 == "fn";
        if !matches!(
            toks[j].1,
            "fn" | "struct" | "enum" | "union" | "trait" | "const" | "static" | "type"
        ) {
            continue;
        }
        if toks[j].1 == "static" && toks.get(j + 1).is_some_and(|t| t.1 == "mut") {
            j += 1;
        }
        let Some(&(_, name)) = toks.get(j + 1) else {
            continue;
        };
        let line = 1 + bytes[..at].iter().filter(|b| **b == b'\n').count();
        let end = signature_end(bytes, toks[j + 1].0, is_fn);
        items.push(PubItem {
            name: name.to_string(),
            line,
            signature: at..end,
            owner: impls
                .iter()
                .rev()
                .find(|b| !b.trait_impl && b.body.contains(&at))
                .map(|b| b.self_ty.clone()),
        });
    }
    items
}

/// An `impl` block in scrubbed code.
#[derive(Debug, Clone)]
pub(crate) struct ImplBlock {
    /// Byte span from the end of the header through the body's `}`.
    pub(crate) body: std::ops::Range<usize>,
    /// Last path segment of the self type (`TiledBackend` for
    /// `impl<C> TiledBackend<C>`, `Job` for `impl Drop for Job`).
    pub(crate) self_ty: String,
    /// `impl Trait for Type`, not an inherent `impl Type`.
    pub(crate) trait_impl: bool,
}

/// Every `impl` block of scrubbed code, in source order. An `impl`
/// counts only in item position (after `}`, `;`, `{`, an attribute's
/// `]`, or `unsafe`), so `-> impl Trait` is not a block.
pub(crate) fn impl_blocks(code: &str) -> Vec<ImplBlock> {
    let bytes = code.as_bytes();
    let toks: Vec<(usize, &str)> = idents(code).collect();
    let mut out = Vec::new();
    for (k, &(at, tok)) in toks.iter().enumerate() {
        let prev = code[..at].trim_end();
        let item_position = prev.is_empty()
            || prev.ends_with(['}', ';', '{', ']'])
            || (k > 0 && toks[k - 1].1 == "unsafe" && prev.ends_with("unsafe"));
        if tok != "impl" || !item_position {
            continue;
        }
        // The header runs to the first `{` outside angle brackets; the
        // self type is the last path segment outside them.
        let mut depth = 0usize;
        let mut i = at + tok.len();
        let mut self_ty = None;
        let mut trait_impl = false;
        while i < bytes.len() && !(bytes[i] == b'{' && depth == 0) {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' if bytes[i - 1] != b'-' => depth = depth.saturating_sub(1),
                b if is_ident_byte(b) && !is_ident_byte(bytes[i - 1]) => {
                    let start = i;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    match &code[start..i] {
                        "for" if depth == 0 => trait_impl = true,
                        "where" if depth == 0 => break,
                        name if depth == 0 && bytes[start - 1] != b'\'' => {
                            self_ty = Some(name.to_string());
                        }
                        _ => {}
                    }
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        if let (Some(self_ty), Some(end)) = (self_ty, block_end(bytes, i)) {
            out.push(ImplBlock {
                body: i..end,
                self_ty,
                trait_impl,
            });
        }
    }
    out
}

/// One past the `}` closing the block that opens at `open`.
fn block_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut braces = 0usize;
    for (k, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => braces += 1,
            b'}' => {
                braces -= 1;
                if braces == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// End of an item's signature, scanning from its name: the body's `{`
/// for a fn, else one past the item's closing `}` or `;`.
fn signature_end(bytes: &[u8], from: usize, is_fn: bool) -> usize {
    let mut depth = 0isize;
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth == 0 => return i + 1,
            b'{' if depth == 0 => {
                return if is_fn {
                    i
                } else {
                    block_end(bytes, i).unwrap_or(bytes.len())
                };
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}
