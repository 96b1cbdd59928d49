//! The campaign-report reader on large and hostile inputs.
//!
//! `--resume`, the `--spawn` partial merge and every other reader of an
//! outside report go through `Json::parse` + `CampaignReport::from_json`.
//! These tests pin that the reader is linear in the report size (a
//! multi-MB report parses in well under a second even unoptimised) and
//! that mutated or hostile bytes yield a clean error, never a panic, a
//! stack overflow or a superlinear stall.

use bec_ir::{PointId, Reg};
use bec_sim::json::Json;
use bec_sim::{
    CampaignReport, CampaignSpec, FaultClass, FaultOutcome, FaultSpec, ShardResult, SitedFault,
};
use bec_testutil::Rng;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// A complete report of `shards × per_shard` random outcomes.
fn synthetic_report(shards: u32, per_shard: usize) -> CampaignReport {
    let regs: Vec<Reg> = ["zero", "ra", "sp", "a0", "a7", "s1", "s11", "t0", "t6", "x31", "v12"]
        .iter()
        .map(|r| Reg::parse(r).unwrap())
        .collect();
    let mut rng = Rng::seeded(0x4EB0);
    let mut outcome = || FaultOutcome {
        fault: SitedFault {
            spec: FaultSpec {
                cycle: rng.range_u64(0, 1 << 24),
                reg: *rng.choose(&regs),
                bit: rng.index(32) as u32,
            },
            func: rng.index(8) as u32,
            point: PointId(rng.index(4096) as u32),
            occurrence: rng.index(1000) as u32,
            masked: rng.bool(),
        },
        class: *rng.choose(&FaultClass::ALL),
    };
    let runs = u64::from(shards) * per_shard as u64;
    CampaignReport {
        program: "synthetic/€𝄞.s".into(),
        spec: CampaignSpec { seed: 3052, sample: Some(runs), shards },
        max_cycles: 1_000_000,
        fault_space: runs * 4,
        shards: (0..shards)
            .map(|shard| {
                Some(ShardResult { shard, outcomes: (0..per_shard).map(|_| outcome()).collect() })
            })
            .collect(),
    }
}

fn read_report(text: &str) -> Result<CampaignReport, String> {
    CampaignReport::from_json(&Json::parse(text)?)
}

#[test]
fn multi_megabyte_report_roundtrips_in_linear_time() {
    let report = synthetic_report(64, 1500);
    let text = report.to_json().render();
    assert!(text.len() >= 4 << 20, "report is only {} bytes", text.len());

    let start = Instant::now();
    let doc = Json::parse(&text).expect("rendered report parses");
    let parse = start.elapsed();
    // A quadratic reader needs minutes at this size; the linear one takes
    // a small fraction of this bound even in the debug profile.
    assert!(parse < Duration::from_secs(1), "parsing {} bytes took {parse:?}", text.len());

    let back = CampaignReport::from_json(&doc).expect("rendered report decodes");
    assert_eq!(back, report);
    assert_eq!(back.to_json().render(), text);
}

/// Applies one seeded byte mutation: flip, insert, delete, truncate or
/// duplicate a span.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const INTERESTING: &[u8] = b"[]{}\":,\\-.0123456789aeflmtu \n\xc3\xa9\xe2\x82\xac";
    if bytes.is_empty() {
        bytes.push(*rng.choose(INTERESTING));
        return;
    }
    let at = rng.index(bytes.len());
    let span = |rng: &mut Rng, len: usize| (at + 1 + rng.index(32)).min(len);
    match rng.index(5) {
        0 => bytes[at] ^= 1 << rng.index(8),
        1 => {
            let b = if rng.bool() { *rng.choose(INTERESTING) } else { rng.index(256) as u8 };
            bytes.insert(at, b);
        }
        2 => {
            let end = span(rng, bytes.len());
            bytes.drain(at..end);
        }
        3 => bytes.truncate(at),
        _ => {
            let end = span(rng, bytes.len());
            let copy = bytes[at..end].to_vec();
            let to = rng.index(bytes.len() + 1);
            bytes.splice(to..to, copy);
        }
    }
}

/// Reads `text` as a report, failing the test on a panic or when the read
/// takes longer than `bound`.
fn read_within(text: &str, bound: Duration, what: &str) -> Result<CampaignReport, String> {
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| read_report(text));
    let elapsed = start.elapsed();
    let result = result.unwrap_or_else(|_| panic!("{what}: reader panicked"));
    assert!(elapsed < bound, "{what}: read took {elapsed:?}");
    result
}

#[test]
fn mutated_reports_fail_cleanly_and_fast() {
    // About 400 KB: the linear reader needs a few ms per input in the
    // debug profile, a reader quadratic in the input size a third of a
    // second.
    let base = synthetic_report(16, 600).to_json().render();
    let bound = Duration::from_millis(100);
    let mut rng = Rng::seeded(0xBAD5EED);
    let (mut read, mut accepted) = (0, 0);
    for case in 0..300 {
        let seed = rng.state();
        let mut bytes = base.clone().into_bytes();
        for _ in 0..=rng.index(3) {
            mutate(&mut rng, &mut bytes);
        }
        // `read_to_string` rejects non-UTF-8 files before the parser runs.
        let Ok(text) = String::from_utf8(bytes) else { continue };
        read += 1;
        match read_within(&text, bound, &format!("case {case} (seed {seed:#x})")) {
            // A mutant the reader accepts must be a report in its own
            // right: it re-renders and reads back to the same value.
            Ok(report) => {
                accepted += 1;
                assert_eq!(read_report(&report.to_json().render()), Ok(report), "case {case}");
            }
            Err(e) => assert!(!e.is_empty(), "case {case}: empty error"),
        }
    }
    assert!(read >= 200, "only {read} mutants were valid UTF-8");
    assert!(accepted < read, "every mutant was accepted");

    // Nesting far past any report's depth overflows a recursive reader's
    // stack unless the reader caps it.
    for text in ["[".repeat(200_000), "{\"shards\": ".repeat(200_000)] {
        let err = read_within(&text, bound, "deep nesting").unwrap_err();
        assert!(err.starts_with("nesting too deep at byte"), "{err}");
    }
}

#[test]
fn malformed_outcome_rows_are_errors() {
    let base = synthetic_report(1, 1).to_json().render();
    let row = base.split('"').find(|s| s.matches(':').count() == 7).expect("one outcome row");
    let fields: Vec<&str> = row.split(':').collect();
    let mut hostile = vec![String::new(), format!("{row}:"), fields[..7].join(":")];
    for i in 0..fields.len() {
        for replacement in ["", "é", "€𝄞", "-1", "99999999999999999999999"] {
            let mut f = fields.clone();
            f[i] = replacement;
            hostile.push(f.join(":"));
        }
    }
    for bad in hostile {
        let err = read_report(&base.replace(row, &bad)).unwrap_err();
        assert_eq!(err, format!("malformed outcome row `{bad}`"));
    }
}

#[test]
fn deeply_nested_resume_file_exits_with_an_error() {
    let dir = std::env::temp_dir().join(format!("bec-report-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let resume = dir.join("deep.json");
    std::fs::write(&resume, "[".repeat(200_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bec"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .args(["campaign", "examples/countyears.s", "--resume"])
        .arg(&resume)
        .output()
        .expect("bec binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting too deep"), "{stderr}");
}
