//! Audit fixture: one case per `dead-pub` outcome. Never compiled — only
//! scanned. The bin (`src/bin/user.rs`) is the crate's only shipped user.

mod inner;

pub use inner::only_reexported;

/// No shipped code outside this file names it: a finding.
pub fn never_called() -> u64 {
    0
}

/// Named only in the signature of `live_entry`, which the bin calls: used.
#[derive(Debug)]
pub struct SignatureOnly;

/// Called by the bin: used.
pub fn live_entry() -> SignatureOnly {
    SignatureOnly
}

/// Called only from `#[cfg(test)]` code and `tests/`: a finding.
pub fn test_only_helper() -> u64 {
    1
}

// audit:allow(dead-pub): fixture — deliberate API kept on purpose
pub fn kept_on_purpose() -> u64 {
    2
}

// audit:allow(dead-pub): fixture — the bin calls this, so the waiver is stale
pub fn wrongly_waived() -> u64 {
    3
}

/// Kept only by its own constructor: the bin calls a `new`, but an item
/// of an inherent `impl` counts only while its type does, so the type
/// and its constructor are both findings.
pub struct SelfKept;

impl SelfKept {
    pub fn new() -> SelfKept {
        SelfKept
    }
}

/// Its only mention outside this file is the same-named `fn` defined in
/// `inner.rs`, and a definition is no use: a finding.
pub fn defined_twice() -> u64 {
    5
}

/// Returned by `build`, which the bin calls: used, and so is the `size`
/// the bin calls on it.
pub struct Built;

impl Built {
    pub fn size(&self) -> u64 {
        6
    }
}

/// Called by the bin: used.
pub fn build() -> Built {
    Built
}

/// Restricted visibility is not public API: never a finding.
pub(crate) fn crate_only() -> u64 {
    never_called()
}
