//! Byte-mutation property test for the two `diam-trace` parsers.
//!
//! Every recording run's own trace passes through `Trace::parse`, and
//! `diam-trace check|report|postmortem` read files from disk, so both
//! parsers must treat their input as untrusted: any byte string gets `Ok`
//! or `Err`, never a panic. Each case applies a short tape of mutations to
//! a committed fixture — the real `seed_run.jsonl` trace and the
//! `crash_dump.json` dump — and feeds the result to `Trace::parse` and
//! `CrashDump::parse`; whatever parses is rendered too, since
//! `diam-trace report` and `postmortem` render what they accept.

use diam_trace::{analyze, diff, export, postmortem, timeline, CrashDump, DiffOptions, Trace};
use proptest::prelude::*;

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Literals spliced over numeric fields: 20-digit integers on both sides
/// of `u64::MAX`, and floats where integers belong.
const LITERALS: [&str; 6] = [
    "99999999999999999999",
    "18446744073709551615",
    "10000000000000000000",
    "1.5",
    "1e300",
    "-0.0",
];

/// The numeric field values: `(key, start, end)` for every literal that
/// follows a `"key":`.
fn numeric_fields(bytes: &[u8]) -> Vec<(&[u8], usize, usize)> {
    let mut out = Vec::new();
    for i in 1..bytes.len().saturating_sub(1) {
        if bytes[i] == b':'
            && bytes[i - 1] == b'"'
            && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'-')
        {
            let Some(open) = bytes[..i - 1].iter().rposition(|&c| c == b'"') else {
                continue;
            };
            let start = i + 1;
            let mut end = start + 1;
            while end < bytes.len() && matches!(bytes[end], b'0'..=b'9' | b'.' | b'e' | b'-') {
                end += 1;
            }
            out.push((&bytes[open + 1..i - 1], start, end));
        }
    }
    out
}

/// Applies one mutation; `a` and `b` pick positions and values.
fn mutate(bytes: &mut Vec<u8>, op: u8, a: u64, b: u64) {
    let at = |len: usize| (a % (len as u64 + 1)) as usize;
    match op {
        0 => bytes.truncate(at(bytes.len())),
        1 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            bytes[i] ^= 1 << (b % 8);
        }
        2 => bytes.insert(at(bytes.len()), b as u8),
        3 if !bytes.is_empty() => {
            bytes.remove(at(bytes.len() - 1));
        }
        4 | 5 => {
            let mut lines: Vec<Vec<u8>> =
                bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let i = (a % lines.len() as u64) as usize;
            let j = (b % lines.len() as u64) as usize;
            if op == 4 {
                let dup = lines[i].clone();
                lines.insert(j, dup);
            } else {
                lines.swap(i, j);
            }
            *bytes = lines.join(&b'\n');
        }
        // The most frequent ops (3 of 9) splice a literal over one numeric
        // field, or over every field with the same key. The JSON stays
        // valid, so the mutant reaches the validator and the renderers, not
        // just the JSON parser.
        _ => {
            let fields = numeric_fields(bytes);
            if fields.is_empty() {
                return;
            }
            let (key, ..) = fields[(a % fields.len() as u64) as usize];
            let literal = LITERALS[(b % LITERALS.len() as u64) as usize].as_bytes();
            let mut hits: Vec<(usize, usize)> = fields
                .iter()
                .enumerate()
                .filter(|&(i, f)| f.0 == key && (op != 6 || i as u64 == a % fields.len() as u64))
                .map(|(_, f)| (f.1, f.2))
                .collect();
            drop(fields);
            hits.reverse();
            for (start, end) in hits {
                bytes.splice(start..end, literal.iter().copied());
            }
        }
    }
}

/// Both parsers, and the renderers behind everything they accept.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(trace) = Trace::parse(&text) {
        let _ = analyze::render_report(&trace, 10);
        let _ = analyze::report_to_json(&trace, 10);
        let _ = timeline::render_timeline(&trace, 60);
        let opts = DiffOptions::default();
        let _ = diff::render_diff(&diff::diff_traces(&trace, &trace, &opts), &opts);
        let chrome = export::chrome_trace(&trace);
        let _ = export::verify_chrome_trace(&trace, &chrome);
        let folded = export::flamegraph(&trace);
        let _ = export::verify_flamegraph(&trace, &folded);
    }
    if let Ok(dump) = CrashDump::parse(&text) {
        let _ = postmortem::render_postmortem(&dump);
    }
}

type Tape = Vec<(u8, u64, u64)>;

fn run_tape(fixture_bytes: &[u8], tape: &Tape) {
    let mut bytes = fixture_bytes.to_vec();
    for &(op, a, b) in tape {
        mutate(&mut bytes, op, a, b);
    }
    parse_all(&bytes);
}

proptest! {
    #[test]
    fn mutated_fixtures_never_panic(
        tape in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..=3)
    ) {
        run_tape(&fixture("seed_run.jsonl"), &tape);
        run_tape(&fixture("crash_dump.json"), &tape);
    }
}

/// Every truncation of the crash dump, byte by byte (the trace fixture is
/// covered by the random truncations above).
#[test]
fn every_crash_dump_prefix_parses_or_errs() {
    let dump = fixture("crash_dump.json");
    for end in 0..=dump.len() {
        parse_all(&dump[..end]);
    }
}

/// Regression, minimized from the tape above: every `dur_ns` of the seed
/// trace set to 10^19, a valid `u64`. The trace parses, and summing the
/// durations overflowed in the chrome export verifier.
#[test]
fn huge_durations_render_without_overflow() {
    run_tape(
        &fixture("seed_run.jsonl"),
        &vec![(7, 1149974074298123952, 13991499646391345150)],
    );
}
