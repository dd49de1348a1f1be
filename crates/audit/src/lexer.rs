//! A minimal Rust surface lexer for static analysis.
//!
//! The rule engine must never fire on text inside comments or string
//! literals (a doc comment mentioning `unwrap()` is not a panic path), and
//! must never fire on test-only code. This module "scrubs" a source file:
//! every byte inside a comment, string/char/byte literal, or
//! `#[cfg(test)]`-gated item is replaced with a space, preserving newlines
//! so byte offsets and line numbers in the scrubbed text match the
//! original exactly.
//!
//! Waiver comments (`// audit:allow(<rule>): <reason>`) are collected
//! *during* scrubbing, so a waiver-shaped string literal in ordinary code
//! can never register as a waiver.

/// An inline waiver collected from a comment.
///
/// Syntax: `// audit:allow(<rule>): <reason>`. The waiver applies to
/// findings on the same line or on the line immediately below the comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Rule name inside the parentheses (may be empty if malformed).
    pub rule: String,
    /// Free-text justification after the closing `):` (may be empty).
    pub reason: String,
    /// True when the `audit:allow` marker was present but not of the form
    /// `audit:allow(<rule>): <reason>`.
    pub malformed: bool,
}

impl Waiver {
    /// Whether this waiver excuses a finding of `rule` on `line`: it names
    /// the rule and sits on that line or the line directly above.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        !self.malformed && self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Result of scrubbing a source file.
#[derive(Debug, Clone)]
pub struct Scrubbed {
    /// Source text with comments and literals blanked to spaces
    /// (newlines preserved, so offsets/lines match the original).
    pub code: String,
    /// Waivers found in comments, in file order.
    pub waivers: Vec<Waiver>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

pub(crate) fn blank(out: &mut [u8], start: usize, end: usize) {
    let end = end.min(out.len());
    for slot in out.iter_mut().take(end).skip(start) {
        if *slot != b'\n' {
            *slot = b' ';
        }
    }
}

/// Parse a waiver out of raw comment text, if the marker is present.
///
/// The marker must *start* the comment (after the `//`/`/*` sigils and
/// whitespace), so prose or docs that merely mention the syntax — e.g.
/// this sentence — never register as waivers.
fn parse_waiver(text: &str, line: usize) -> Option<Waiver> {
    let marker = "audit:allow";
    let content = text.trim_start_matches(['/', '*', '!']).trim_start();
    if !content.starts_with(marker) {
        return None;
    }
    let at = text.find(marker)?;
    let rest = &text[at + marker.len()..];
    let Some(stripped) = rest.strip_prefix('(') else {
        return Some(Waiver {
            line,
            rule: String::new(),
            reason: String::new(),
            malformed: true,
        });
    };
    let Some(close) = stripped.find(')') else {
        return Some(Waiver {
            line,
            rule: String::new(),
            reason: String::new(),
            malformed: true,
        });
    };
    let rule = stripped[..close].trim().to_string();
    let after = &stripped[close + 1..];
    let reason = match after.trim_start().strip_prefix(':') {
        Some(r) => r.trim().trim_end_matches("*/").trim().to_string(),
        None => String::new(),
    };
    let malformed = rule.is_empty() || reason.is_empty();
    Some(Waiver {
        line,
        rule,
        reason,
        malformed,
    })
}

/// Blank a normal (escaped) string literal starting at the opening quote.
/// Returns the index one past the closing quote.
fn scrub_string(bytes: &[u8], out: &mut [u8], open: usize, line: &mut usize) -> usize {
    let mut i = open + 1;
    out[open] = b' ';
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // A backslash-newline continuation escapes the newline
                // itself — count it, or every later line number drifts.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                blank(out, i, i + 2);
                i += 2;
            }
            b'"' => {
                out[i] = b' ';
                return i + 1;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => {
                out[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

/// Try to consume a raw string (`r"…"`, `r#"…"#`), byte string (`b"…"`),
/// raw byte string (`br#"…"#`) or byte char (`b'x'`) starting at `i`
/// (which points at `r` or `b`). Returns the index past the literal, or
/// `None` if this is not such a literal.
fn scrub_raw_or_byte(bytes: &[u8], out: &mut [u8], i: usize, line: &mut usize) -> Option<usize> {
    let mut j = i + 1;
    if bytes[i] == b'b' {
        match bytes.get(j) {
            Some(b'\'') => {
                // byte char literal b'x' / b'\n'
                let mut k = j + 1;
                while k < bytes.len() {
                    match bytes[k] {
                        b'\\' => k += 2,
                        b'\'' => {
                            blank(out, i, k + 1);
                            return Some(k + 1);
                        }
                        _ => k += 1,
                    }
                }
                return None;
            }
            Some(b'"') => {
                out[i] = b' ';
                return Some(scrub_string(bytes, out, j, line));
            }
            Some(b'r') => j += 1, // "br…" raw byte string; fall through
            _ => return None,
        }
    }
    // `j` points just past the `r`; expect zero or more '#' then '"'.
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                blank(out, i, k);
                return Some(k);
            }
        }
        j += 1;
    }
    blank(out, i, bytes.len());
    Some(bytes.len())
}

/// Handle a `'` that is either a char literal or a lifetime.
/// Returns the index to resume scanning at.
fn scrub_char_or_lifetime(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    match bytes.get(i + 1) {
        Some(b'\\') => {
            // Escaped char literal: '\n', '\'', '\\', '\u{1F600}'. The
            // escaped character itself (`i + 2`) never closes the literal.
            let mut k = i + 3;
            while k < bytes.len() {
                match bytes[k] {
                    b'\\' => k += 2,
                    b'\'' => {
                        blank(out, i, k + 1);
                        return k + 1;
                    }
                    _ => k += 1,
                }
            }
            i + 1
        }
        Some(&c) => {
            // Decode one UTF-8 char; if the next byte is `'`, it was a
            // char literal, otherwise a lifetime (leave untouched).
            let len = if c < 0x80 {
                1
            } else if c >= 0xF0 {
                4
            } else if c >= 0xE0 {
                3
            } else {
                2
            };
            let close = i + 1 + len;
            if bytes.get(close) == Some(&b'\'') {
                blank(out, i, close + 1);
                close + 1
            } else {
                i + 1
            }
        }
        None => i + 1,
    }
}

/// Scrub comments and literals out of `source`, collecting waivers.
pub fn scrub(source: &str) -> Scrubbed {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut waivers = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                if let Some(w) = parse_waiver(&source[start..i], line) {
                    waivers.push(w);
                }
                blank(&mut out, start, i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if let Some(w) = parse_waiver(&source[start..i], start_line) {
                    waivers.push(w);
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                i = scrub_string(bytes, &mut out, i, &mut line);
            }
            b'r' | b'b' if i == 0 || !is_ident_byte(bytes[i - 1]) => {
                match scrub_raw_or_byte(bytes, &mut out, i, &mut line) {
                    Some(j) => i = j,
                    None => i += 1,
                }
            }
            b'\'' => {
                i = scrub_char_or_lifetime(bytes, &mut out, i);
            }
            _ => {
                i += 1;
            }
        }
    }
    let code = String::from_utf8(out).unwrap_or_else(|e| {
        // Blanking replaces whole literals with ASCII spaces and leaves
        // code bytes untouched, so the buffer stays valid UTF-8; fall
        // back to lossy conversion rather than panic if that ever breaks.
        String::from_utf8_lossy(e.as_bytes()).into_owned()
    });
    Scrubbed { code, waivers }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Find the matching close delimiter for the open delimiter at `open`.
fn matching(bytes: &[u8], open: usize, lhs: u8, rhs: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == lhs {
            depth += 1;
        } else if bytes[i] == rhs {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// True when an attribute body (the text inside `#[...]`) gates the item
/// to test builds: `test`, `bench`, or a `cfg(..)` whose predicate holds
/// only under `test` (see [`test_only`]).
fn is_test_gate(content: &str) -> bool {
    let trimmed = content.trim();
    let ident: String = trimmed
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    match ident.as_str() {
        "cfg" => trimmed[3..]
            .trim_start()
            .strip_prefix('(')
            .and_then(|rest| rest.trim_end().strip_suffix(')'))
            .is_some_and(test_only),
        "test" | "bench" => true,
        _ => false,
    }
}

/// Whether a `cfg` predicate can hold only in test builds: `test` is;
/// `all(..)` is when any arm is; `any(..)` only when every arm is;
/// `not(..)` and every other predicate (`feature = ".."`) are not.
fn test_only(pred: &str) -> bool {
    let pred = pred.trim();
    let head: String = pred
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let args = pred[head.len()..]
        .trim_start()
        .strip_prefix('(')
        .and_then(|rest| rest.strip_suffix(')'));
    match (head.as_str(), args) {
        ("test", None) => pred == "test",
        ("all", Some(args)) => cfg_arms(args).any(test_only),
        ("any", Some(args)) => {
            let mut arms = cfg_arms(args).peekable();
            arms.peek().is_some() && arms.all(test_only)
        }
        _ => false,
    }
}

/// The comma-separated arms of a `cfg` combinator's argument list,
/// splitting only at parenthesis depth 0.
fn cfg_arms(args: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut arms = Vec::new();
    for (i, b) in args.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                arms.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    arms.push(&args[start..]);
    arms.into_iter().filter(|arm| !arm.trim().is_empty())
}

/// Given scrubbed code and the index just past a test-gating attribute's
/// `]`, return the index one past the end of the gated item (its closing
/// `}` or terminating `;`).
fn item_end(bytes: &[u8], mut i: usize) -> usize {
    loop {
        i = skip_ws(bytes, i);
        // Skip any further attributes stacked on the item.
        if bytes.get(i) == Some(&b'#') {
            let open = skip_ws(bytes, i + 1);
            if bytes.get(open) == Some(&b'[') {
                match matching(bytes, open, b'[', b']') {
                    Some(close) => {
                        i = close + 1;
                        continue;
                    }
                    None => return bytes.len(),
                }
            }
        }
        break;
    }
    // Scan forward to the item body `{ ... }` or a `;` terminator.
    let mut paren = 0isize;
    let mut bracket = 0isize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b'{' if paren == 0 && bracket == 0 => {
                return matching(bytes, i, b'{', b'}')
                    .map(|c| c + 1)
                    .unwrap_or(bytes.len());
            }
            b';' if paren == 0 && bracket == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Blank every item gated behind `#[cfg(test)]` / `#[test]` / `#[bench]`
/// in already-scrubbed code. A file-level `#![cfg(test)]` blanks the rest
/// of the file.
pub fn blank_test_items(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = bytes.get(j) == Some(&b'!');
        if inner {
            j += 1;
        }
        j = skip_ws(bytes, j);
        if bytes.get(j) != Some(&b'[') {
            i += 1;
            continue;
        }
        let Some(close) = matching(bytes, j, b'[', b']') else {
            break;
        };
        let content = &code[j + 1..close];
        if is_test_gate(content) {
            if inner {
                blank(&mut out, i, bytes.len());
                break;
            }
            let end = item_end(bytes, close + 1);
            blank(&mut out, i, end);
            i = end;
        } else {
            i = close + 1;
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}
