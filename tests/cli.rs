//! End-to-end tests of the `bec` binary: every subcommand must work on the
//! shipped `.s` examples (this is the acceptance path "bec analyze
//! examples/*.s works on a real RV32I assembly file").

use std::path::Path;
use std::process::{Command, Output};

fn bec(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO_BIN_EXE_bec"))
        .current_dir(root)
        .args(args)
        .output()
        .expect("bec binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = bec(args);
    assert!(out.status.success(), "bec {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn analyze_reports_fault_sites_on_assembly() {
    let out = stdout_of(&["analyze", "examples/countyears.s"]);
    assert!(out.contains("fault sites"), "{out}");
    assert!(out.contains("@main"), "{out}");
    assert!(out.contains("masked"), "{out}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let out = stdout_of(&["analyze", "examples/countyears.s", "--json"]);
    assert!(out.contains("\"total_fault_sites\""), "{out}");
    assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'), "{out}");
}

#[test]
fn prune_reports_campaign_sizes() {
    let out = stdout_of(&["prune", "examples/countyears.s"]);
    assert!(out.contains("live in bits"), "{out}");
    assert!(out.contains("BEC prunes"), "{out}");
}

#[test]
fn sim_executes_and_prints_outputs() {
    let out = stdout_of(&["sim", "examples/gcd.s"]);
    assert!(out.contains("output[0] = 21"), "{out}");
    assert!(out.contains("Completed"), "{out}");
}

#[test]
fn sim_injects_faults() {
    let out = stdout_of(&["sim", "examples/countyears.s", "--fault", "2:s1:0"]);
    assert!(out.contains("classification"), "{out}");
}

#[test]
fn schedule_reports_surface_change() {
    let out = stdout_of(&["schedule", "examples/countyears.s", "--criterion", "best"]);
    assert!(out.contains("live sites"), "{out}");
    assert!(out.contains("change:"), "{out}");
}

#[test]
fn encode_emits_machine_words() {
    let raw = stdout_of(&["encode", "examples/gcd.s", "--raw"]);
    let words: Vec<&str> = raw.lines().collect();
    assert_eq!(words.len(), 11, "{raw}");
    assert!(words.iter().all(|w| u32::from_str_radix(w, 16).is_ok()), "{raw}");
    // ecall must appear in the image.
    assert!(words.contains(&"00000073"), "{raw}");

    let listing = stdout_of(&["encode", "examples/gcd.s"]);
    assert!(listing.contains("<gcd>:"), "{listing}");
}

#[test]
fn ir_dialect_files_are_accepted_too() {
    let dir = std::env::temp_dir().join("bec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.bec");
    std::fs::write(
        &path,
        "machine xlen=4 regs=4 zero=none\nfunc @main(args=0, ret=none) {\nentry:\n    li r0, 3\n    print r0\n    exit\n}\n",
    )
    .unwrap();
    let out = stdout_of(&["sim", path.to_str().unwrap()]);
    assert!(out.contains("output[0] = 3"), "{out}");
}

#[test]
fn bad_input_fails_with_a_line_number() {
    let dir = std::env::temp_dir().join("bec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.s");
    std::fs::write(&path, ".globl main\nmain:\n    frobnicate t0\n    ecall\n").unwrap();
    let out = bec(&["analyze", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
}

#[test]
fn unknown_commands_print_usage() {
    let out = bec(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn sim_rejects_out_of_file_fault_registers() {
    let out = bec(&["sim", "examples/gcd.s", "--fault", "0:x40:0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("register file"), "{err}");

    let out = bec(&["sim", "examples/gcd.s", "--fault", "0:a0:32"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("32-bit word"));
}

#[test]
fn campaign_rejects_vacuous_and_malformed_flags() {
    // A 0-fault sample would make the soundness gate vacuously pass.
    let out = bec(&["campaign", "examples/gcd.s", "--sample", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sample"), "sample 0 rejected");
    let out = bec(&["campaign", "examples/gcd.s", "--shards", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let out = bec(&["campaign", "examples/gcd.s", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn removed_distribution_entry_points_are_usage_errors() {
    // Campaigns run in one process with no artifact cache: the former
    // `--spawn`/`--cache-dir` flags and the worker command are rejected.
    for args in [
        &["campaign", "examples/gcd.s", "--spawn", "2"][..],
        &["campaign", "examples/gcd.s", "--cache-dir", "d"],
        &["study", "--bench", "crc32", "--spawn", "2"],
        &["study", "--bench", "crc32", "--cache-dir", "d"],
        &["analyze", "examples/gcd.s", "--cache-dir", "d"],
    ] {
        let out = bec(args);
        assert_eq!(out.status.code(), Some(2), "bec {args:?} must be a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"), "bec {args:?}");
    }
    let out = bec(&["campaign-worker", "examples/gcd.s"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `campaign-worker`"));
}

#[test]
fn resume_rejects_reports_with_a_foreign_version_salt() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-salt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("r.json");
    let report = report.to_str().unwrap();
    let common = ["campaign", "examples/gcd.s", "--sample", "30", "--shards", "4"];
    stdout_of(&[&common[..], &["--report", report]].concat());

    // A report written by a binary with a different artifact generation:
    // same shape, different salt. Resuming it must be refused, not merged.
    let text = std::fs::read_to_string(report).unwrap();
    assert!(text.contains("bec-artifacts-v1"), "report must carry the version salt");
    std::fs::write(report, text.replace("bec-artifacts-v1", "bec-artifacts-v0")).unwrap();

    let out = bec(&[&common[..], &["--resume", report]].concat());
    assert!(!out.status.success(), "foreign-salt resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("salt"), "error must name the salt mismatch: {stderr}");
}

#[test]
fn campaign_runs_and_reports_ok_on_gcd() {
    let out = stdout_of(&["campaign", "examples/gcd.s", "--shards", "4", "--workers", "2"]);
    assert!(out.contains("differential check: OK"), "{out}");
    assert!(out.contains("fault space"), "{out}");
}

#[test]
fn encode_base_accepts_decimal_and_hex() {
    let dec = stdout_of(&["encode", "examples/gcd.s", "--base", "4096"]);
    assert!(dec.contains("0x00001000"), "{dec}");
    let hex = stdout_of(&["encode", "examples/gcd.s", "--base", "0x1000"]);
    assert!(hex.contains("0x00001000"), "{hex}");
}
