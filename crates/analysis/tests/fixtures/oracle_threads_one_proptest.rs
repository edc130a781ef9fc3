//! Fixture: an oracle proptest that runs the threaded operator only
//! single-threaded.

#[test]
fn blend_matches_spec() {
    let spec = specops::blend(&r).unwrap();
    let got = ops::blend(&r, &ExecOptions::serial()).unwrap();
    assert_eq!(got, spec);
}
