//! One seeded mutate-and-decode target over the four wire schemas
//! (DESIGN.md "Wire records").
//!
//! Every record that crosses a wire is declared through `wire!` / `FromJson`,
//! so one generic target covers them all: take the bytes a sample encodes
//! to, damage them the way a hostile or lossy peer would, and decode. Each
//! mutant is either refused with an `Err`, or decodes to a value the codec
//! stands behind — it re-encodes, and the decoder reads that re-encoding
//! back to the same value and the same bytes. Nothing panics, wraps or
//! aborts the process.

mod wire_samples;

use netsim::RngStream;
use serde_json::{decode, FromJson, ToJson};
use std::fmt::Debug;

/// Mutants per schema; the whole file stays well under a second in the
/// dev profile.
const MUTATIONS: u64 = 4_000;

/// What a parser is most likely to mishandle when it shows up uninvited.
const TOKENS: [&str; 9] = ["[", "{", "\"", "\\u", "null", "]", "}", ",", ":"];

/// Integers one past what each field width holds, a sign, a fraction and
/// a float that overflows to infinity.
const NUMBERS: [&str; 6] = ["18446744073709551616", "-1", "4294967296", "256", "0.5", "1e999"];

fn mutate(doc: &[u8], rng: &mut RngStream) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = rng.range_u64(0, doc.len() as u64) as usize;
    match rng.range_u64(0, 41) {
        0..=7 => out.truncate(at),
        8..=15 => {
            for _ in 0..rng.range_u64(1, 4) {
                let i = rng.range_u64(0, out.len() as u64) as usize;
                out[i] ^= 1 << rng.range_u64(0, 8);
            }
        }
        16..=23 => {
            let end = (at + rng.range_u64(1, 33) as usize).min(out.len());
            out.drain(at..end);
        }
        24..=31 => {
            let token = TOKENS[rng.range_u64(0, TOKENS.len() as u64) as usize];
            out.splice(at..at, token.bytes());
        }
        32..=39 => {
            // The digit run at or after `at` (none left: leave the bytes be).
            let Some(start) = (at..out.len()).find(|&i| out[i].is_ascii_digit()) else {
                return out;
            };
            let end = (start..out.len()).find(|&i| !out[i].is_ascii_digit()).unwrap_or(out.len());
            let number = NUMBERS[rng.range_u64(0, NUMBERS.len() as u64) as usize];
            out.splice(start..end, number.bytes());
        }
        _ => {
            let open = if rng.chance(0.5) { "[" } else { "{\"a\":" };
            out.splice(at..at, open.repeat(100_000).bytes());
        }
    }
    out
}

fn fuzz<T: ToJson + FromJson + PartialEq + Debug>(sample: &T, seed: u64, mutations: u64) {
    let doc = serde_json::to_string(sample).unwrap();
    assert_eq!(decode::<T>(&doc).as_ref(), Ok(sample), "the sample itself must round-trip");
    let mut rng = RngStream::derive(seed, "wire_fuzz");
    let (mut refused, mut accepted) = (0u64, 0u64);
    for _ in 0..mutations {
        let bytes = mutate(doc.as_bytes(), &mut rng);
        let mutant = String::from_utf8_lossy(&bytes);
        let Ok(value) = decode::<T>(&mutant) else {
            refused += 1;
            continue;
        };
        accepted += 1;
        let again = serde_json::to_string(&value).unwrap();
        let back = decode::<T>(&again)
            .unwrap_or_else(|e| panic!("decoder refused its own output: {e}\n{mutant}\n{again}"));
        assert_eq!(back, value, "{mutant}");
        assert_eq!(serde_json::to_string(&back).unwrap(), again, "{mutant}");
    }
    // A target that refuses everything (or nothing) is not exercising the
    // decoders past the parser.
    assert!(refused > mutations / 4 && accepted > mutations / 100, "{refused} / {accepted}");
}

#[test]
fn checkpoint_v1_survives_mutation() {
    fuzz(&wire_samples::snapshot(), 1, MUTATIONS);
}

#[test]
fn border_v1_survives_mutation() {
    fuzz(&wire_samples::border(), 2, MUTATIONS);
}

#[test]
fn blackbox_v1_survives_mutation() {
    fuzz(&wire_samples::blackbox(), 3, MUTATIONS);
}

#[test]
fn every_jsonl_record_shape_survives_mutation() {
    let records = wire_samples::records();
    for (i, r) in records.iter().enumerate() {
        fuzz(r, 4 + i as u64, MUTATIONS / records.len() as u64);
    }
}
