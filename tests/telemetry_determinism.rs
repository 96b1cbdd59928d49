//! The telemetry determinism contract, enforced end to end on the built
//! `bec` binary: switching the exporters on (`--trace-out`,
//! `--metrics-out`) and varying the worker count must never change a
//! single byte of stdout or of the resumable report artifacts. Timing and
//! thread attribution exist only in the export files and on stderr.
//!
//! Also validates the exports themselves: the trace must be well-formed
//! Chrome-trace JSON carrying the documented span names, and the metrics
//! snapshot's *logical* metrics (runs, early exits, simulated cycles,
//! outcome tallies, the run-cycles histogram) must be byte-identical
//! across worker counts — only `pool.workers` and the wall-time metrics
//! may differ.

use bec_sim::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A per-process temp path, so parallel test runs never collide.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bec_teldet_{}_{name}", std::process::id()))
}

fn run_bec(args: &[String]) -> String {
    run_bec_with_stderr(args).0
}

/// Runs `bec` to success and returns its stdout and stderr.
fn run_bec_with_stderr(args: &[String]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bec"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("bec binary runs");
    assert!(out.status.success(), "bec {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// The span names present in a Chrome-trace export.
fn span_names(trace: &Json) -> BTreeSet<String> {
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_owned)
        .collect()
}

/// Extracts the logical (worker-count-independent) metrics of a snapshot
/// as rendered JSON, dropping `pool.workers` and every `*wall_ms` timing.
fn logical_metrics(snapshot: &str) -> Vec<(String, String)> {
    let doc = Json::parse(snapshot).expect("metrics snapshot parses");
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics object") };
    metrics
        .iter()
        .filter(|(name, _)| name != "pool.workers" && !name.ends_with("wall_ms"))
        .map(|(name, value)| (name.clone(), value.render()))
        .collect()
}

/// What one exporter run of [`assert_invariant`] leaves besides stdout
/// and the report.
struct Exports {
    /// The `--metrics-out` snapshot.
    metrics: String,
    /// The span names of the `--trace-out` export.
    spans: BTreeSet<String>,
    /// The run's stderr.
    stderr: String,
}

/// Runs `base` once without exporters (the reference), then with
/// exporters at 1, 2 and 8 workers. Asserts byte-identical stdout and
/// report files everywhere, checks the trace spans, and returns the three
/// runs' exports.
fn assert_invariant(label: &str, base: &[&str], expected_spans: &[&str]) -> Vec<Exports> {
    let report_ref = tmp(&format!("{label}_ref.json"));
    let mut reference = strs(base);
    reference.extend(["--report".into(), report_ref.display().to_string()]);
    let stdout_ref = run_bec(&reference);
    let report_bytes = read(&report_ref);

    let mut runs = Vec::new();
    for workers in ["1", "2", "8"] {
        let report = tmp(&format!("{label}_w{workers}.json"));
        let trace = tmp(&format!("{label}_w{workers}_trace.json"));
        let metrics = tmp(&format!("{label}_w{workers}_metrics.json"));
        let mut args = strs(base);
        args.extend([
            "--workers".into(),
            workers.into(),
            "--report".into(),
            report.display().to_string(),
            "--trace-out".into(),
            trace.display().to_string(),
            "--metrics-out".into(),
            metrics.display().to_string(),
        ]);
        let (stdout, stderr) = run_bec_with_stderr(&args);
        assert_eq!(stdout, stdout_ref, "{label}: exporters/workers={workers} changed stdout");
        assert_eq!(
            read(&report),
            report_bytes,
            "{label}: exporters/workers={workers} changed the report artifact"
        );

        let trace_doc = Json::parse(&read(&trace)).expect("trace JSON parses");
        assert_eq!(
            trace_doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms"),
            "{label}: malformed trace header"
        );
        let names = span_names(&trace_doc);
        for span in expected_spans {
            assert!(names.contains(*span), "{label}: trace lacks span `{span}` ({names:?})");
        }
        runs.push(Exports { metrics: read(&metrics), spans: names, stderr });

        for p in [&report, &trace, &metrics] {
            let _ = std::fs::remove_file(p);
        }
    }
    let _ = std::fs::remove_file(&report_ref);
    runs
}

#[test]
fn campaign_exports_never_change_stdout_or_reports() {
    let runs = assert_invariant(
        "campaign",
        &[
            "campaign",
            "examples/countyears.s",
            "--sample",
            "24",
            "--seed",
            "7",
            "--shards",
            "4",
            "--json",
        ],
        &["golden", "campaign", "shard"],
    );
    let logical: Vec<_> = runs.iter().map(|r| logical_metrics(&r.metrics)).collect();
    assert!(!logical[0].is_empty());
    assert!(
        logical.windows(2).all(|w| w[0] == w[1]),
        "campaign logical metrics vary with worker count:\n{logical:#?}"
    );
    // Spot-check the registry against the spec: 24 sampled runs.
    let doc = Json::parse(&runs[0].metrics).unwrap();
    let runs = doc
        .get("metrics")
        .and_then(|m| m.get("campaign.runs"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64);
    assert_eq!(runs, Some(24));
}

#[test]
fn study_exports_never_change_stdout_or_reports() {
    let base =
        ["study", "--bench", "crc32", "--sample", "40", "--seed", "7", "--shards", "4", "--json"];
    let runs = assert_invariant(
        "study",
        &base,
        &[
            "study",
            "benchmark",
            "schedule",
            "substrate",
            "variant",
            "verify",
            "golden",
            "campaign",
            "shard",
        ],
    );
    let logical: Vec<_> = runs.iter().map(|r| logical_metrics(&r.metrics)).collect();
    assert!(
        logical.windows(2).all(|w| w[0] == w[1]),
        "study logical metrics vary with worker count:\n{logical:#?}"
    );
    // The substrate counters are part of the logical (worker-independent)
    // registry: every variant (including the identity baseline) derives
    // from the shared substrate, and the replays are cycle-deterministic.
    let doc = Json::parse(&runs[0].metrics).unwrap();
    let counter = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("study.golden_substrate_hits"), Some(3));
    assert!(counter("study.golden_replay_cycles").unwrap_or(0) > 0);

    // Opting out of golden reuse re-simulates every variant's golden but
    // must reproduce the identical stdout summary and report artifact.
    let report_ref = tmp("study_reuse_ref.json");
    let mut with_reuse = strs(&base);
    with_reuse.extend(["--report".into(), report_ref.display().to_string()]);
    let stdout_ref = run_bec(&with_reuse);
    let report_no = tmp("study_noreuse.json");
    let mut without = strs(&base);
    without.extend([
        "--no-golden-reuse".into(),
        "--report".into(),
        report_no.display().to_string(),
    ]);
    assert_eq!(run_bec(&without), stdout_ref, "--no-golden-reuse changed stdout");
    assert_eq!(read(&report_no), read(&report_ref), "--no-golden-reuse changed the report");
    for p in [&report_ref, &report_no] {
        let _ = std::fs::remove_file(p);
    }
}

/// The stderr `study:` progress lines with the values of the two
/// nondeterministic counters, `wall_ms` and `workers`, removed.
fn study_progress(stderr: &str) -> Vec<String> {
    stderr
        .lines()
        .filter(|l| l.starts_with("study:"))
        .map(|l| {
            l.split(", ")
                .map(|part| match part.split_once(' ') {
                    Some((key @ ("wall_ms" | "workers"), _)) => key,
                    _ => part,
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect()
}

#[test]
fn multi_benchmark_study_is_worker_count_independent() {
    // Two benchmarks, one of them multi-function (bitcount has 6
    // functions), so the compile, substrate and variant-prepare phases
    // all run concurrently at 2 and 8 workers.
    let runs = assert_invariant(
        "study2",
        &[
            "study", "--bench", "crc32", "--bench", "bitcount", "--sample", "40", "--seed", "7",
            "--shards", "4", "--json",
        ],
        &[
            "study",
            "compile",
            "benchmark",
            "schedule",
            "substrate",
            "prepare",
            "analysis",
            "golden",
            "verify",
            "surface",
            "variant",
            "plan",
            "campaign",
            "shard",
        ],
    );
    let logical: Vec<_> = runs.iter().map(|r| logical_metrics(&r.metrics)).collect();
    assert!(
        logical.windows(2).all(|w| w[0] == w[1]),
        "study logical metrics vary with worker count:\n{logical:#?}"
    );
    let names: Vec<&str> = logical[0].iter().map(|(name, _)| name.as_str()).collect();
    for gauge in ["campaign.checkpoint_interval", "campaign.budget_cycles"] {
        assert!(names.contains(&gauge), "snapshot lacks {gauge}: {names:?}");
    }
    assert!(runs.windows(2).all(|w| w[0].spans == w[1].spans), "span names vary with worker count");
    let progress: Vec<Vec<String>> = runs.iter().map(|r| study_progress(&r.stderr)).collect();
    // One schedule line per benchmark, then verify + campaign per variant.
    assert_eq!(progress[0].len(), 2 * (1 + 2 * 3), "{:#?}", progress[0]);
    assert!(
        progress.windows(2).all(|w| w[0] == w[1]),
        "study progress lines vary with worker count:\n{progress:#?}"
    );
}

#[test]
fn analyze_exports_never_change_stdout() {
    // `bec analyze` has no report artifact; pin stdout across worker
    // counts with exporters on, and the solver counters in the snapshot.
    let reference = run_bec(&strs(&["analyze", "examples/gcd.s", "--json"]));
    for workers in ["1", "4"] {
        let trace = tmp(&format!("analyze_w{workers}_trace.json"));
        let metrics = tmp(&format!("analyze_w{workers}_metrics.json"));
        let args = strs(&[
            "analyze",
            "examples/gcd.s",
            "--json",
            "--workers",
            workers,
            "--trace-out",
            &trace.display().to_string(),
            "--metrics-out",
            &metrics.display().to_string(),
        ]);
        assert_eq!(run_bec(&args), reference, "analyze workers={workers} changed stdout");

        let trace_doc = Json::parse(&read(&trace)).expect("trace JSON parses");
        let names = span_names(&trace_doc);
        assert!(names.contains("analyze") && names.contains("analyze-fn"), "{names:?}");

        // The snapshot's solver counters must equal the stdout JSON's.
        let doc = Json::parse(&read(&metrics)).unwrap();
        let counter = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        let stdout_doc = Json::parse(&reference).unwrap();
        let solver = stdout_doc.get("solver").expect("solver block");
        assert_eq!(Some(counter("analysis.points")), solver.get("points").and_then(Json::as_u64));
        assert_eq!(
            Some(counter("analysis.solver_visits")),
            solver.get("worklist_visits").and_then(Json::as_u64)
        );
        for p in [&trace, &metrics] {
            let _ = std::fs::remove_file(p);
        }
    }
}
