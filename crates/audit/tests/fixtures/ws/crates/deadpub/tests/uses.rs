//! Integration tests are not shipped users: their calls do not count.

#[test]
fn calls_the_test_only_helper() {
    assert_eq!(deadpub::test_only_helper(), 1);
    assert_eq!(deadpub::only_reexported(), 4);
}
