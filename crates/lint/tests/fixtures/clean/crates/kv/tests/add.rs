//! The integration test that calls `add`.

#[test]
fn adds() {
    assert_eq!(deepnote_kv::add(2, 2), 4);
}
