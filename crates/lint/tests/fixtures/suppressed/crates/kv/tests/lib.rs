//! The integration test that calls `head` and `id`.

#[test]
fn calls() {
    assert_eq!(deepnote_kv::head(&[7]), deepnote_kv::id(7));
}
