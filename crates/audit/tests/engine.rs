//! Engine tests for `fecim-audit`: lexer exclusions, one
//! positive/negative/waived case per rule, lock-graph extraction (DAG,
//! inversion cycle, guard drops), and an end-to-end run over the fixture
//! workspace in `tests/fixtures/ws` (including its `dead-pub` cases).

use std::path::Path;

use fecim_audit::{
    audit_workspace, blank_test_items, collect_hash_names, scan_file, scrub, FileScope, FileSrc,
    Finding, LockGraph, Rule,
};

/// Run the full single-file pipeline the workspace auditor uses.
fn scan(src: &str, scope: FileScope) -> Vec<Finding> {
    let scrubbed = scrub(src);
    let code = blank_test_items(&scrubbed.code);
    let names = collect_hash_names(&code);
    scan_file("fixture.rs", src, &code, scope, &names)
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- lexer

#[test]
fn needles_in_strings_and_comments_do_not_fire() {
    let src = r#"
/// Call `unwrap()` or `panic!()` at your peril; `Instant::now()` too.
pub fn describe() -> &'static str {
    // a comment mentioning thread_rng() and std::env::var is fine
    "so is unwrap() or HashMap iteration inside a string literal"
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn needles_in_raw_strings_and_chars_do_not_fire() {
    let src = "pub fn f() -> String {\n    let _c = 'x';\n    let _lt: &'static str = \"ok\";\n    r#\"panic!(\"raw\") and .unwrap()\"#.to_string()\n}\n";
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn test_gated_items_are_exempt() {
    let src = r#"
pub fn safe() -> u64 { 0 }

#[cfg(test)]
mod tests {
    #[test]
    fn may_panic() {
        let v = vec![1u64];
        assert_eq!(*v.first().unwrap(), 1);
        let _t = std::time::Instant::now();
    }
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let src = r#"
#[cfg(not(test))]
pub fn ships_in_release(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::PanicPath]);
}

#[test]
fn cfg_test_is_test_only() {
    let src = r#"
#[cfg(test)]
pub fn only_in_tests(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn cfg_all_is_test_only_when_any_arm_is() {
    let src = r#"
#[cfg(all(not(feature = "x"), test))]
pub fn only_in_tests(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

#[cfg(all(unix, feature = "x"))]
pub fn ships(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    let findings = scan(src, FileScope::Library);
    assert_eq!(rules_of(&findings), [Rule::PanicPath]);
    assert_eq!(findings[0].line, 9);
}

#[test]
fn cfg_any_is_test_only_when_every_arm_is() {
    let src = r#"
#[cfg(any(test, feature = "x"))]
pub fn ships_with_the_feature(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

#[cfg(any(test, all(test, feature = "x")))]
pub fn only_in_tests(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    let findings = scan(src, FileScope::Library);
    assert_eq!(rules_of(&findings), [Rule::PanicPath]);
    assert_eq!(findings[0].line, 4);
}

#[test]
fn cfg_not_is_never_test_only() {
    let src = r#"
#[cfg(not(not(test)))]
pub fn conservatively_scanned(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::PanicPath]);
}

#[test]
fn escaped_backslash_char_literal_closes() {
    // Regression: `'\\'` used to swallow its closing quote, blanking
    // code up to the next `'` in the file.
    let src = "pub fn path(p: &str) -> String {\n    p.replace('\\\\', \"/\")\n}\n\npub fn f(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n\npub fn g() -> char {\n    'x'\n}\n";
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::PanicPath]);
}

#[test]
fn string_continuation_keeps_line_numbers_aligned() {
    // Regression: a backslash-newline escape inside a string literal must
    // count the newline, or every later waiver/finding line drifts by one.
    let src = "pub fn msg() -> &'static str {\n    \"split \\\n     across lines\"\n}\n\npub fn f(v: &[u8]) -> u8 {\n    // audit:allow(panic-path): fixture reason\n    *v.first().unwrap()\n}\n";
    let scrubbed = scrub(src);
    assert_eq!(scrubbed.waivers.len(), 1);
    assert_eq!(scrubbed.waivers[0].line, 7);
    let findings = scan(src, FileScope::Library);
    assert_eq!(rules_of(&findings), [Rule::PanicPath]);
    assert_eq!(findings[0].line, 8);
}

#[test]
fn waiver_marker_must_start_the_comment() {
    // Docs that merely *mention* the syntax must not register.
    let src =
        "// waivers use `audit:allow(panic-path): reason` like this\npub fn f() -> u64 { 0 }\n";
    assert!(scrub(src).waivers.is_empty());

    let src =
        "// audit:allow(panic-path): starts the comment, registers\npub fn f() -> u64 { 0 }\n";
    assert_eq!(scrub(src).waivers.len(), 1);
}

// ---------------------------------------------------------------- rules

#[test]
fn hash_iteration_fires_and_btreemap_does_not() {
    let src = r#"
use std::collections::HashMap;
pub fn total(scores: &HashMap<String, u64>) -> u64 {
    let mut t = 0;
    for v in scores.values() {
        t += v;
    }
    t
}
"#;
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::HashIter]);

    let src = r#"
use std::collections::BTreeMap;
pub fn total(scores: &BTreeMap<String, u64>) -> u64 {
    scores.values().sum()
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn hash_membership_without_iteration_is_fine() {
    let src = r#"
use std::collections::HashSet;
pub fn dedup(seen: &mut HashSet<String>, id: &str) -> bool {
    seen.insert(id.to_string())
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn ambient_rng_fires() {
    let src = "pub fn seed() -> u64 {\n    let mut rng = rand::thread_rng();\n    0\n}\n";
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::AmbientRng]);
}

#[test]
fn wall_clock_fires_and_waives() {
    let src = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::WallClock]);
}

#[test]
fn env_read_fires() {
    let src = "pub fn cfg() -> Option<String> {\n    std::env::var(\"X\").ok()\n}\n";
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::EnvRead]);
}

#[test]
fn panic_needles_fire_but_unreachable_and_poison_recovery_do_not() {
    let src = "pub fn f(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n";
    assert_eq!(rules_of(&scan(src, FileScope::Library)), [Rule::PanicPath]);

    let src = r#"
use std::sync::{Mutex, MutexGuard, PoisonError};
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
pub fn parity(n: u64) -> &'static str {
    match n % 2 {
        0 => "even",
        _ => unreachable!("n % 2 is 0 or 1"),
    }
}
"#;
    assert!(scan(src, FileScope::Library).is_empty());
}

#[test]
fn binary_scope_is_exempt_from_r1_and_r2() {
    let src = "fn main() {\n    let a = std::env::args().nth(1).unwrap();\n    let _t = std::time::Instant::now();\n    println!(\"{a}\");\n}\n";
    assert!(scan(src, FileScope::Binary).is_empty());
}

// ----------------------------------------------------------- lock graph

fn graph_of(code: &str) -> LockGraph {
    let scrubbed = scrub(code);
    let files = [FileSrc {
        path: "lib.rs".into(),
        code: blank_test_items(&scrubbed.code),
    }];
    LockGraph::build("fixture", &files)
}

const INVERSION: &str = r#"
use std::sync::Mutex;
pub struct Pair {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}
impl Pair {
    pub fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
    }
    pub fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
    }
}
"#;

#[test]
fn two_lock_inversion_is_a_cycle() {
    let graph = graph_of(INVERSION);
    assert!(graph.nodes.contains("alpha") && graph.nodes.contains("beta"));
    assert!(graph
        .edges
        .contains_key(&("alpha".to_string(), "beta".to_string())));
    assert!(graph
        .edges
        .contains_key(&("beta".to_string(), "alpha".to_string())));
    assert_eq!(graph.cycles().len(), 1);
}

#[test]
fn ordered_acquisition_is_a_dag() {
    let src = r#"
use std::sync::Mutex;
pub struct Pair {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}
impl Pair {
    pub fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
    }
    pub fn ab_again(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
    }
}
"#;
    let graph = graph_of(src);
    assert_eq!(graph.edges.len(), 1);
    assert!(graph.cycles().is_empty());
}

#[test]
fn dropped_guard_does_not_create_an_edge() {
    let src = r#"
use std::sync::Mutex;
pub struct Pair {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}
impl Pair {
    pub fn sequential(&self) {
        let a = self.alpha.lock();
        drop(a);
        let b = self.beta.lock();
    }
}
"#;
    let graph = graph_of(src);
    assert!(graph.edges.is_empty());
    assert!(graph.cycles().is_empty());
}

#[test]
fn transitive_acquisition_through_calls_is_an_edge() {
    let src = r#"
use std::sync::Mutex;
pub struct S {
    outer: Mutex<u64>,
    inner: Mutex<u64>,
}
impl S {
    pub fn outer_path(&self) {
        let g = self.outer.lock();
        self.touch_inner();
    }
    fn touch_inner(&self) {
        let g = self.inner.lock();
    }
}
"#;
    let graph = graph_of(src);
    assert!(graph
        .edges
        .contains_key(&("outer".to_string(), "inner".to_string())));
}

#[test]
fn same_named_methods_resolve_to_their_own_impl() {
    // `Pool::admit` takes no lock and `Server::admit` takes two. Calls
    // that name the type (`self.`, `Self::`, `Type::`) reach only that
    // type's `admit`; a call on another receiver, with two candidates,
    // reaches neither.
    let src = r#"
use std::sync::Mutex;
pub struct Pool {
    grids: Mutex<u64>,
}
pub struct Server {
    conns: Mutex<u64>,
    submitted: Mutex<u64>,
    queue: Mutex<u64>,
}
impl Pool {
    pub fn by_self(&self) {
        let g = self.grids.lock();
        self.admit();
    }
    pub fn by_self_path(&self) {
        let g = self.grids.lock();
        Self::admit(self);
    }
    pub fn by_type_path(&self) {
        let g = self.grids.lock();
        Pool::admit(self);
    }
    pub fn ambiguous(&self, server: &Server) {
        let g = self.grids.lock();
        server.admit();
    }
    fn admit(&self) {}
}
impl Server {
    fn admit(&self) {
        let s = self.submitted.lock();
        let q = self.queue.lock();
    }
    pub fn serve(&self) {
        let c = self.conns.lock();
        Server::admit(self);
    }
}
"#;
    let graph = graph_of(src);
    let edges: Vec<(&str, &str)> = graph
        .edges
        .keys()
        .map(|(from, to)| (from.as_str(), to.as_str()))
        .collect();
    assert_eq!(
        edges,
        [
            ("conns", "queue"),
            ("conns", "submitted"),
            ("submitted", "queue")
        ]
    );
}

#[test]
fn dot_and_json_render_the_graph() {
    let graph = graph_of(INVERSION);
    let dot = graph.to_dot();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("\"alpha\" -> \"beta\""));
    let json = graph.to_json();
    assert!(json.contains("\"crate\""));
    assert!(json.contains("\"alpha\""));
}

// ------------------------------------------------- workspace end-to-end

#[test]
fn fixture_workspace_audit_matches_expectations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let audit = audit_workspace(&root).expect("fixture workspace audits");

    assert_eq!(audit.crates, 4);
    assert_eq!(audit.files, 8);

    // The binary roots (main.rs, bin/tool.rs) contribute nothing.
    assert!(!audit
        .findings
        .iter()
        .any(|f| f.file.contains("main.rs") || f.file.contains("bin/tool.rs")));

    // Everything in `clean` stays clean.
    assert!(!audit.findings.iter().any(|f| f.file.contains("clean")));

    // The `deadpub` crate's findings are pinned in `fixture_dead_pub_cases`.
    let count = |rule: Rule| {
        audit
            .violations()
            .filter(|f| f.rule == rule && !f.file.contains("deadpub"))
            .count()
    };
    assert_eq!(count(Rule::HashIter), 1);
    assert_eq!(count(Rule::AmbientRng), 1);
    assert_eq!(count(Rule::WallClock), 1);
    assert_eq!(count(Rule::EnvRead), 1);
    // Three unwaived unwraps: the plain one plus the two under bad waivers.
    assert_eq!(count(Rule::PanicPath), 3);
    // Unknown rule name + missing reason.
    assert_eq!(count(Rule::BadWaiver), 2);
    assert_eq!(count(Rule::StaleWaiver), 1);
    assert_eq!(count(Rule::LockCycle), 1);

    // The well-formed waiver suppressed its finding and kept the reason.
    let waived: Vec<&fecim_audit::Finding> = audit
        .waived()
        .filter(|f| !f.file.contains("deadpub"))
        .collect();
    assert_eq!(waived.len(), 1);
    assert_eq!(waived[0].rule, Rule::PanicPath);
    assert!(waived[0]
        .waived
        .as_deref()
        .expect("waived findings carry a reason")
        .contains("nonempty slices"));

    // The inversion crate produced a cyclic graph; the site names a file.
    let locks = audit
        .graphs
        .iter()
        .find(|g| g.crate_name == "locks")
        .expect("locks graph extracted");
    assert_eq!(locks.cycles().len(), 1);
    assert!(locks.edges.values().all(|site| site.file.contains("locks")));
}

#[test]
fn fixture_dead_pub_cases() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let audit = audit_workspace(&root).expect("fixture workspace audits");

    // The other fixture crates' `pub` items all have a caller.
    assert!(!audit
        .findings
        .iter()
        .any(|f| f.rule == Rule::DeadPub && !f.file.contains("deadpub")));

    let cases: Vec<(Rule, &str, bool)> = audit
        .findings
        .iter()
        .filter(|f| f.file.contains("deadpub"))
        .map(|f| (f.rule, f.excerpt.as_str(), f.is_violation()))
        .collect();
    assert_eq!(
        cases,
        [
            // Reachable only through a `pub use`.
            (Rule::DeadPub, "pub fn only_reexported() -> u64 {", true),
            // Named nowhere outside its file.
            (Rule::DeadPub, "pub fn never_called() -> u64 {", true),
            // Used only by `#[cfg(test)]` code and `tests/`.
            (Rule::DeadPub, "pub fn test_only_helper() -> u64 {", true),
            // Waived.
            (Rule::DeadPub, "pub fn kept_on_purpose() -> u64 {", false),
            // Kept only by its own constructor, whose bare name `new`
            // the bin calls on another type.
            (Rule::DeadPub, "pub struct SelfKept;", true),
            (Rule::DeadPub, "pub fn new() -> SelfKept {", true),
            // Named outside its file only by a same-named definition.
            (Rule::DeadPub, "pub fn defined_twice() -> u64 {", true),
            // A `dead-pub` waiver on an item the bin uses.
            (
                Rule::StaleWaiver,
                "// audit:allow(dead-pub): fixture — the bin calls this, so the waiver is stale",
                true
            ),
        ]
    );
    // `live_entry` (bin-called) and `SignatureOnly` (named only in its
    // signature) are used, as are `Built` (returned by the bin-called
    // `build`) and its bin-called `size`; `crate_only` is not public API.
    for live in [
        "live_entry",
        "SignatureOnly",
        "Built",
        "build",
        "size",
        "crate_only",
    ] {
        assert!(!audit.findings.iter().any(|f| f.excerpt.contains(live)));
    }
}
