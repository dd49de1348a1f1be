//! Reachable only through the `pub use` in `lib.rs`, which is not a use.

pub fn only_reexported() -> u64 {
    4
}

/// Shares its name with `crate::defined_twice` without using it.
pub(crate) fn defined_twice() -> u64 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_a_user() {
        assert_eq!(crate::test_only_helper(), 1);
    }
}
