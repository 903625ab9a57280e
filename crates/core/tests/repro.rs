//! Pins `symplfied repro`: its stdout must equal `repro_expected.txt`
//! byte for byte, so a change that moves any number in the paper's
//! tables or figures shows up here. If the move is intended, re-record
//! the file with
//! `cargo run -p symplfied -- repro > crates/core/tests/repro_expected.txt`
//! and review its diff.

use std::process::Command;

const EXPECTED: &str = include_str!("repro_expected.txt");

#[test]
fn repro_output_matches_the_pinned_text() {
    let out = Command::new(env!("CARGO_BIN_EXE_symplfied"))
        .arg("repro")
        .output()
        .expect("spawn CLI");
    assert!(out.status.success(), "{out:?}");
    let actual = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    if actual == EXPECTED {
        return;
    }
    let mut expected_lines = EXPECTED.split_inclusive('\n');
    let mut actual_lines = actual.split_inclusive('\n');
    let (line, want, got) = (1..)
        .map(|n| (n, expected_lines.next(), actual_lines.next()))
        .find(|(_, want, got)| want != got)
        .map(|(n, want, got)| (n, want.unwrap_or("<end>"), got.unwrap_or("<end>")))
        .expect("unequal texts differ in some line");
    panic!(
        "symplfied repro differs from crates/core/tests/repro_expected.txt \
         at line {line}:\n  expected: {want:?}\n  actual:   {got:?}\n\
         If the change is intended, re-record with\n  \
         cargo run -p symplfied -- repro > crates/core/tests/repro_expected.txt"
    );
}
