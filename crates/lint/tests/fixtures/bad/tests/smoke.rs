//! Root-level test file: panic shortcuts are exempt here, and its calls
//! keep the seeded library functions clear of `dead-pub`.

#[test]
fn boots() {
    assert_eq!(std::hint::black_box(1u8).checked_add(1).unwrap(), 2);
}

#[test]
fn calls_the_seeded_functions() {
    let _ = deepnote_acoustics::field::spl_at(650.0, 1.0);
    let _ = deepnote_sim::census(&Default::default());
    let _ = (deepnote_sim::stamp_ms(), deepnote_sim::dice());
    let _ = deepnote_kv::store::head(&[1]);
}
