//! `fecim-audit` — workspace determinism & panic-safety static analysis.
//!
//! Every figure this workspace reproduces depends on one invariant:
//! results are a pure function of `(request, seed)` — bit-identical
//! across ensemble threads, scheduler workers, and batched-vs-monolithic
//! placement. This crate enforces that invariant *statically*, before a
//! regression can reach a golden:
//!
//! * **R1 nondeterminism** (`hash-iter`, `ambient-rng`, `wall-clock`,
//!   `env-read`): iteration over `HashMap`/`HashSet`, ambient RNG
//!   seeding, wall-clock reads, and `std::env` reads in library code.
//! * **R2 panic safety** (`panic-path`): `unwrap()` / `expect(` /
//!   `panic!` / `todo!` / `unimplemented!` in library code.
//! * **R3 lock discipline** (`lock-cycle`): a per-crate
//!   mutex-acquisition graph — which lock is taken while which is held —
//!   emitted as DOT/JSON and failed on cycles.
//! * **Dead public API** (`dead-pub`): a bare `pub` item in library code
//!   that no shipped code outside its file names — public API that only
//!   its own tests call. A `fn name` definition is no use of `name`, and
//!   an item of an inherent `impl T` counts only while `T` does.
//!
//! Violations are either fixed or waived inline with
//! `// audit:allow(<rule>): <reason>`; a waiver without a reason, naming
//! an unknown rule, or matching no finding is itself a finding
//! (`bad-waiver` / `stale-waiver`), so the justification inventory can
//! never rot silently.
//!
//! The crate has **no dependencies** — the lexer, rule engine, graph
//! extraction and DOT/JSON emission are hand-rolled — so it builds in
//! the offline environment and does not trust the code it audits.
//!
//! See `DESIGN.md` §5 for the rule table and analysis limits, and the
//! `fecim-audit` binary (`cargo run -p fecim-audit -- check --deny`) for
//! the CI gate.

pub mod lexer;
pub mod lockgraph;
pub mod rules;
pub mod workspace;

pub use lexer::{blank_test_items, scrub, Scrubbed, Waiver};
pub use lockgraph::{EdgeSite, FileSrc, LockGraph};
pub use rules::{collect_hash_names, scan_file, FileScope, Finding, Rule};
pub use workspace::{audit_workspace, AuditError, WorkspaceAudit};
