//! Deterministic fuzzing of the request-line parser.
//!
//! Seeded byte mutations of every line of the committed fixture streams
//! (a flipped bit, an inserted or deleted byte, a truncation, a duplicated
//! span, or `[`/`{` nesting up to 10⁶ deep) go through
//! `from_str::<RequestLine>`, `from_str::<Value>` and the stdin JSONL
//! transport. Nothing may panic or take longer than a per-case budget; the
//! transport must accept exactly the lines the typed parser accepts; and an
//! accepted line re-encodes to a fixed point after one round.

use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use fecim_serve::{run_jsonl, JsonlError, RequestLine, SchedulerConfig};

/// Wall-clock allowance per case, generous for unoptimized builds: a
/// parser that went quadratic or recursed per nesting level would blow
/// it by orders of magnitude.
const BUDGET: Duration = Duration::from_secs(5);

/// Every non-blank line of the fixture streams.
fn fixture_lines() -> Vec<Vec<u8>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    ["serve_smoke.jsonl", "serve_batched.jsonl"]
        .iter()
        .flat_map(|name| {
            let text = std::fs::read_to_string(dir.join(name)).expect("fixture streams exist");
            text.lines()
                .filter(|line| !line.trim().is_empty())
                .map(|line| line.as_bytes().to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Bytes that move a JSON parser between states.
const STRUCTURAL: &[u8] = b"{}[],:\"\\-+.0123456789eEnultrf \t\n";

/// One mutation of `line`, picked and placed by `kind`, `a`, `b` and `c`.
fn mutate(line: &[u8], kind: u8, a: usize, b: usize, c: u8) -> Vec<u8> {
    let mut out = line.to_vec();
    let len = line.len();
    let (i, j) = (a % (len + 1), b % (len + 1));
    let (lo, hi) = (i.min(j), i.max(j));
    let byte = if c < 128 {
        STRUCTURAL[usize::from(c) % STRUCTURAL.len()]
    } else {
        c
    };
    match kind % 6 {
        0 if len > 0 => out[a % len] ^= 1 << (c % 8),
        1 => out.insert(i, byte),
        2 => drop(out.drain(lo..hi.min(lo + 16))),
        3 => out.truncate(i),
        4 => {
            let span = line[lo..hi.min(lo + 64)].to_vec();
            out.splice(lo..lo, span);
        }
        _ => {
            let depth = [1, 2, 127, 128, 129, 1_000, 1_000_000][b % 7];
            let open: &[u8] = if c.is_multiple_of(2) {
                b"["
            } else {
                b"{\"k\":"
            };
            out.splice(i..i, open.repeat(depth));
        }
    }
    out
}

/// Feed one (possibly mutated) line through every parser.
fn check_line(bytes: &[u8]) {
    let started = Instant::now();
    let text = String::from_utf8_lossy(bytes);
    let typed = serde_json::from_str::<RequestLine>(&text);
    if let Ok(line) = &typed {
        let once = serde_json::to_string(line).expect("request lines serialize");
        let back: RequestLine = serde_json::from_str(&once).expect("an encoding parses");
        let twice = serde_json::to_string(&back).expect("request lines serialize");
        assert_eq!(once, twice, "re-encoding is not a fixed point");
    }
    if let Ok(value) = serde_json::from_str::<serde_json::Value>(&text) {
        let once = serde_json::to_string(&value).expect("values serialize");
        let back: serde_json::Value = serde_json::from_str(&once).expect("an encoding parses");
        assert_eq!(
            once,
            serde_json::to_string(&back).expect("values serialize")
        );
    }

    // The transport, with a cancel for the line's own id so a Submit that
    // survived the mutation is settled without running.
    let mut stream = bytes.to_vec();
    stream.push(b'\n');
    if let Ok(RequestLine::Submit { id, .. }) = &typed {
        let cancel = serde_json::to_string(&RequestLine::Cancel { id: id.clone() }).unwrap();
        stream.extend_from_slice(format!("{cancel}\n").as_bytes());
    }
    let served = run_jsonl(
        BufReader::new(stream.as_slice()),
        Vec::new(),
        SchedulerConfig::workers(1),
    );
    // A mutation that inserted a newline split the line in two.
    if !bytes.contains(&b'\n') {
        let accepted = match std::str::from_utf8(bytes) {
            Err(_) => None,
            Ok(line) if line.trim().is_empty() => Some(true),
            Ok(line) => Some(serde_json::from_str::<RequestLine>(line.trim()).is_ok()),
        };
        match (accepted, &served) {
            (None, Err(JsonlError::Io(_)))
            | (Some(true), Ok(_))
            | (Some(false), Err(JsonlError::Parse { line: 1, .. })) => {}
            (expected, got) => panic!(
                "transport disagrees with the parser (accepted: {expected:?}): {got:?}\n{text}"
            ),
        }
    }
    assert!(
        started.elapsed() < BUDGET,
        "a {}-byte line took {:?}",
        bytes.len(),
        started.elapsed()
    );
}

#[test]
fn unmutated_fixture_lines_parse_everywhere() {
    for line in fixture_lines() {
        let text = std::str::from_utf8(&line).unwrap();
        assert!(serde_json::from_str::<RequestLine>(text).is_ok(), "{text}");
        check_line(&line);
    }
}

#[test]
fn deep_nesting_anywhere_is_a_parse_error_not_a_stack_overflow() {
    for line in fixture_lines() {
        for at in [0, 1, line.len() / 2, line.len()] {
            for open in [&b"["[..], b"{\"k\":"] {
                let mut deep = line.clone();
                deep.splice(at..at, open.repeat(1_000_000));
                check_line(&deep);
                // Inside a string the brackets are just text.
                if at == 0 {
                    let text = std::str::from_utf8(&deep).unwrap();
                    assert!(serde_json::from_str::<serde_json::Value>(text).is_err());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_fixture_lines_never_panic_or_stall(
        (index, kind) in (0usize..64, 0u8..6),
        ((a, b), c) in ((0usize..1 << 20, 0usize..1 << 20), 0u8..=255),
    ) {
        let lines = fixture_lines();
        let line = &lines[index % lines.len()];
        check_line(&mutate(line, kind, a, b, c));
    }
}
