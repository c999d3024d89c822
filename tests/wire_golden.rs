//! Golden bytes for the four wire schemas (DESIGN.md "Wire records").
//!
//! `fixtures/wire_v1.jsonl` was written once, by the hand-written encoders
//! this repository had before the `wire!` table replaced them, from the
//! values in `wire_samples`. Round-trip tests are self-consistent only — a
//! field reordered on both the encode and the decode side passes them all —
//! so every line here must still decode to its sample, re-encode to itself,
//! and be what today's encoder writes for that sample.

mod wire_samples;

use std::fmt::Debug;
use telemetry::{Blackbox, Record};
use toposense::{BorderSummary, Snapshot};

const FIXTURE: &str = include_str!("fixtures/wire_v1.jsonl");

fn check<T: PartialEq + Debug>(
    line: &str,
    sample: &T,
    encode: impl Fn(&T) -> String,
    decode: impl Fn(&str) -> Result<T, String>,
) {
    assert_eq!(encode(sample), line, "today's encoder moved the bytes of {sample:?}");
    let back = decode(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(&back, sample);
    assert_eq!(encode(&back), line, "decode -> encode is not the identity");
}

#[test]
fn every_schema_still_reads_and_writes_the_bytes_the_old_encoders_wrote() {
    let mut lines = FIXTURE.lines();
    let mut next = || lines.next().expect("fixture is shorter than the sample list");
    check(next(), &wire_samples::snapshot(), Snapshot::encode, Snapshot::decode);
    check(next(), &wire_samples::border(), BorderSummary::encode, BorderSummary::decode);
    check(next(), &wire_samples::blackbox(), Blackbox::encode, Blackbox::decode);
    let records = wire_samples::records();
    assert_eq!(records.len(), 9, "one line per record shape");
    for r in &records {
        check(next(), r, Record::to_jsonl, Record::from_jsonl);
    }
    assert_eq!(lines.next(), None, "fixture is longer than the sample list");
}
