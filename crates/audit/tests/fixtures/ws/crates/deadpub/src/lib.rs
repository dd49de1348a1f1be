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

/// Restricted visibility is not public API: never a finding.
pub(crate) fn crate_only() -> u64 {
    never_called()
}
