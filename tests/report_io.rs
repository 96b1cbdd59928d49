//! The campaign- and study-report codecs, and the program parsers, on
//! large and hostile inputs.
//!
//! `--resume`, the `--spawn` partial merge and every other reader of an
//! outside report go through the streaming `CampaignReport::parse` /
//! `StudyReport::parse`. These tests pin that the reader is linear in the
//! report size (a multi-MB report parses in well under a second even
//! unoptimised), that mutated or hostile bytes yield a clean error, never
//! a panic, a stack overflow or a superlinear stall, and that the `Json`
//! tree adapters (`to_json`, `from_json`) agree with the streaming path
//! byte for byte and value for value. The same seeded mutator drives the
//! assembler (`bec_rv32::parse_asm`) and the IR reader
//! (`bec_ir::parse_program` then `verify_program`), which every `bec`
//! command taking a program file runs.

use bec::study::{run_study, StudyConfig};
use bec_ir::{PointId, Reg};
use bec_sim::json::Json;
use bec_sim::study::{
    BenchmarkStudy, EquivalenceRecord, ScoringRecord, StudyReport, StudySpec, VariantRecord,
};
use bec_sim::{
    CampaignReport, CampaignSpec, FaultClass, FaultOutcome, FaultSpec, ShardResult, SitedFault,
};
use bec_telemetry::Telemetry;
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

/// The tree path: `Json::parse`, then `from_json`.
fn campaign_via_tree(text: &str) -> Result<CampaignReport, String> {
    CampaignReport::from_json(&Json::parse(text)?)
}

/// [`campaign_via_tree`] for study reports.
fn study_via_tree(text: &str) -> Result<StudyReport, String> {
    StudyReport::from_json(&Json::parse(text)?)
}

/// Reads `text` with the streaming reader, checking that the tree path
/// gives the same value or error.
fn read_report(text: &str) -> Result<CampaignReport, String> {
    let streamed = CampaignReport::parse(text);
    assert_eq!(streamed, campaign_via_tree(text), "the tree path disagrees");
    streamed
}

/// [`read_report`] for study reports.
fn read_study(text: &str) -> Result<StudyReport, String> {
    let streamed = StudyReport::parse(text);
    assert_eq!(streamed, study_via_tree(text), "the tree path disagrees");
    streamed
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

    let start = Instant::now();
    let streamed = CampaignReport::parse(&text).expect("rendered report reads");
    let read = start.elapsed();
    assert!(read < Duration::from_secs(1), "reading {} bytes took {read:?}", text.len());
    assert_eq!(streamed, report);
    assert_eq!(streamed.render(), text);
}

/// Bytes the report mutator likes to insert: JSON syntax, digits, the
/// letters of `true`/`false`/`null` and multi-byte UTF-8.
const JSON_BYTES: &[u8] = b"[]{}\":,\\-.0123456789aeflmtu \n\xc3\xa9\xe2\x82\xac";

/// Applies one seeded byte mutation: flip, insert (one of `interesting`
/// half the time), delete, truncate or duplicate a span.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, interesting: &[u8]) {
    if bytes.is_empty() {
        bytes.push(*rng.choose(interesting));
        return;
    }
    let at = rng.index(bytes.len());
    let span = |rng: &mut Rng, len: usize| (at + 1 + rng.index(32)).min(len);
    match rng.index(5) {
        0 => bytes[at] ^= 1 << rng.index(8),
        1 => {
            let b = if rng.bool() { *rng.choose(interesting) } else { rng.index(256) as u8 };
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

/// Reads `text` as a report, failing the test on a panic or when the
/// streaming read takes longer than `bound`.
fn read_within(text: &str, bound: Duration, what: &str) -> Result<CampaignReport, String> {
    read_within_by(text, bound, what, CampaignReport::parse, campaign_via_tree)
}

/// [`read_within`] for any report: times the streaming `read`, then checks
/// that the `tree` path agrees.
fn read_within_by<T: PartialEq + std::fmt::Debug>(
    text: &str,
    bound: Duration,
    what: &str,
    read: fn(&str) -> Result<T, String>,
    tree: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| read(text));
    let elapsed = start.elapsed();
    let result = result.unwrap_or_else(|_| panic!("{what}: reader panicked"));
    assert!(elapsed < bound, "{what}: read took {elapsed:?}");
    let via_tree = std::panic::catch_unwind(|| tree(text))
        .unwrap_or_else(|_| panic!("{what}: tree reader panicked"));
    assert_eq!(result, via_tree, "{what}: the tree path disagrees");
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
            mutate(&mut rng, &mut bytes, JSON_BYTES);
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

/// A small study report: 2 benchmarks × 3 variants over synthetic
/// campaigns, one of them partial and one with an empty shard.
fn synthetic_study() -> StudyReport {
    let mut campaign = synthetic_report(4, 12);
    let variant = |criterion: &str, campaign: CampaignReport| VariantRecord {
        criterion: criterion.to_owned(),
        coverage_gated: criterion == "best",
        permutation: vec![vec![2, 0, 1], Vec::new(), vec![u32::MAX]],
        total_site_bits: 400,
        masked_site_bits: 120,
        live_surface: 1000,
        total_surface: 4000,
        equivalence: EquivalenceRecord {
            cycles: 26,
            outputs_match: true,
            terminal_regs_match: true,
            mem_digest_match: criterion != "worst",
            reencode_outputs_match: (criterion == "best").then_some(true),
        },
        campaign,
    };
    let mut benchmarks = Vec::new();
    for name in ["crc32", "sha/€"] {
        let mut partial = campaign.clone();
        partial.shards[1] = None;
        partial.shards[3] = Some(ShardResult { shard: 3, outcomes: Vec::new() });
        benchmarks.push(BenchmarkStudy {
            name: name.to_owned(),
            scoring: ScoringRecord {
                analyses: 1,
                points: 70,
                solver_visits: 200,
                coalesce_passes: 2,
                uf_nodes: 1000,
            },
            variants: vec![
                variant("original", campaign.clone()),
                variant("best", partial),
                variant("worst", campaign.clone()),
            ],
        });
        campaign.program.push_str("/2");
    }
    StudyReport { rules: "paper".into(), seed: 3052, sample: Some(48), shards: 4, benchmarks }
}

#[test]
fn mutated_study_reports_fail_cleanly_and_fast() {
    let report = synthetic_study();
    let base = report.render();
    assert_eq!(read_study(&base), Ok(report));
    let bound = Duration::from_millis(100);
    let mut rng = Rng::seeded(0x57D1E5);
    let (mut read, mut accepted) = (0, 0);
    for case in 0..300 {
        let seed = rng.state();
        let mut bytes = base.clone().into_bytes();
        for _ in 0..=rng.index(3) {
            mutate(&mut rng, &mut bytes, JSON_BYTES);
        }
        let Ok(text) = String::from_utf8(bytes) else { continue };
        read += 1;
        let what = format!("case {case} (seed {seed:#x})");
        match read_within_by(&text, bound, &what, StudyReport::parse, study_via_tree) {
            // An accepted mutant re-renders and reads back to itself.
            Ok(report) => {
                accepted += 1;
                assert_eq!(read_study(&report.render()), Ok(report), "{what}");
            }
            Err(e) => assert!(!e.is_empty(), "{what}: empty error"),
        }
    }
    assert!(read >= 200, "only {read} mutants were valid UTF-8");
    assert!(accepted < read, "every mutant was accepted");
}

#[test]
fn tree_adapters_agree_with_the_streaming_codec() {
    // Complete, partial (missing shards) and with a zero-outcome shard;
    // the synthetic rows use `v12`, `x31` and the program label is not
    // ASCII.
    let full = synthetic_report(6, 40);
    let mut partial = full.clone();
    partial.shards[0] = None;
    partial.shards[4] = None;
    partial.shards[2] = Some(ShardResult { shard: 2, outcomes: Vec::new() });
    for report in [full, partial] {
        let text = report.render();
        assert_eq!(report.to_json().render(), text);
        assert!(text.contains(":v12:") && text.contains(":t6:") && text.contains("€𝄞"));
        assert_eq!(CampaignReport::parse(&text), Ok(report.clone()));
        assert_eq!(campaign_via_tree(&text), Ok(report));
    }

    // A real study report, through both paths.
    let spec = StudySpec { sample: Some(40), shards: 4, workers: 2, ..StudySpec::default() };
    let cfg = StudyConfig { benchmarks: vec!["crc32".into()], ..StudyConfig::suite(spec) };
    let study = run_study(&cfg, None, &Telemetry::disabled(), |_| {}).unwrap();
    let text = study.render();
    assert_eq!(study.to_json().render(), text);
    assert_eq!(StudyReport::parse(&text), Ok(study.clone()));
    assert_eq!(study_via_tree(&text), Ok(study));
}

#[test]
fn every_register_roundtrips_through_the_row_codec() {
    let regs: Vec<Reg> = (0..64).map(Reg::phys).chain([Reg::virt(0), Reg::virt(12)]).collect();
    let outcomes = regs
        .iter()
        .enumerate()
        .map(|(i, &reg)| FaultOutcome {
            fault: SitedFault {
                spec: FaultSpec { cycle: u64::MAX - i as u64, reg, bit: i as u32 % 32 },
                func: u32::MAX,
                point: PointId(i as u32),
                occurrence: 0,
                masked: i % 2 == 0,
            },
            class: FaultClass::ALL[i % FaultClass::ALL.len()],
        })
        .collect::<Vec<_>>();
    let report = CampaignReport {
        program: "regs".into(),
        spec: CampaignSpec::exhaustive(1),
        max_cycles: 10,
        fault_space: regs.len() as u64,
        shards: vec![Some(ShardResult { shard: 0, outcomes })],
    };
    let text = report.render();
    for reg in &regs {
        assert!(text.contains(&format!(":{}:", reg.abi_name())), "{reg:?} not written by name");
    }
    assert_eq!(read_report(&text), Ok(report));
}

/// Bytes the program mutator likes to insert: assembler and IR syntax,
/// register and mnemonic letters, digits and multi-byte UTF-8.
const PROGRAM_BYTES: &[u8] =
    b"()[]{}@%#:;,.=-+0123456789abdefgilmnorstwxz_ \n\t\xc3\xa9\xe2\x82\xac";

/// Feeds `cases` seeded mutants of the `bases` to `read`, failing the test
/// on a panic, on a read that takes longer than the report bound, or when
/// `read` accepts every mutant.
fn mutated_programs_read_cleanly(
    bases: &[String],
    seed: u64,
    cases: usize,
    read: impl Fn(&str) -> Result<(), String>,
) {
    let bound = Duration::from_millis(100);
    let mut rng = Rng::seeded(seed);
    let (mut read_count, mut accepted) = (0, 0);
    for case in 0..cases {
        let state = rng.state();
        let mut bytes = rng.choose(bases).clone().into_bytes();
        for _ in 0..=rng.index(4) {
            mutate(&mut rng, &mut bytes, PROGRAM_BYTES);
        }
        let Ok(text) = String::from_utf8(bytes) else { continue };
        read_count += 1;
        let what = format!("case {case} (seed {state:#x})");
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&text)))
            .unwrap_or_else(|_| panic!("{what}: reader panicked on\n{text}"));
        let elapsed = start.elapsed();
        assert!(elapsed < bound, "{what}: read took {elapsed:?}");
        match result {
            Ok(()) => accepted += 1,
            Err(e) => assert!(!e.is_empty(), "{what}: empty error"),
        }
    }
    assert!(read_count >= cases * 2 / 3, "only {read_count} mutants were valid UTF-8");
    assert!(accepted < read_count, "every mutant was accepted");
}

/// Every `.s` file under `examples/`.
fn example_sources() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read_to_string(p).expect("example reads")).collect()
}

#[test]
fn mutated_assembly_fails_cleanly_and_fast() {
    let bases = example_sources();
    assert!(bases.len() >= 4, "examples missing");
    for base in &bases {
        bec_rv32::parse_asm(base).expect("example assembles");
    }
    mutated_programs_read_cleanly(&bases, 0xA5E3B1, 600, |text| {
        bec_rv32::parse_asm(text).map(drop).map_err(|e| e.to_string())
    });
}

#[test]
fn mutated_ir_fails_cleanly_and_fast() {
    // Printed examples (rv32), generated programs (globals, calls, loops)
    // and a 4-bit machine without a zero register.
    let mut bases: Vec<String> = example_sources()
        .iter()
        .map(|s| bec_ir::print_program(&bec_rv32::parse_asm(s).expect("example assembles")))
        .collect();
    for seed in 0..3 {
        let generated = bec_fuzzgen::generate(seed, &bec_fuzzgen::GenConfig::full());
        bases.push(bec_ir::print_program(&generated.program));
    }
    bases.push(
        "machine xlen=4 regs=4 zero=none\n\
         global g: byte[3] = { 1, 2, 3 }\n\
         func @main(args=0, ret=none) {\n\
         entry:\n    li r1, 6\n    j loop\n\
         loop:\n    andi r2, r1, 1\n    add r0, r0, r2\n    addi r1, r1, -1\n    \
         bnez r1, loop, exit\n\
         exit:\n    ret r0\n}\n"
            .to_owned(),
    );
    for base in &bases {
        let p = bec_ir::parse_program(base).expect("base parses");
        bec_ir::verify_program(&p).expect("base verifies");
    }
    mutated_programs_read_cleanly(&bases, 0x1EB0B5, 600, |text| {
        let program = bec_ir::parse_program(text).map_err(|e| e.to_string())?;
        bec_ir::verify_program(&program).map_err(|e| e.to_string())
    });
}
