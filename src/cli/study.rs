//! `bec study` — the scheduled-variant reliability study: for each suite
//! benchmark, produce the baseline plus one scheduled variant per
//! criterion from ONE shared BEC analysis, verify semantic equivalence,
//! run a checkpointed differential campaign per variant, and print a
//! Table IV-style report (static coverage, dynamic outcome counts,
//! reliability delta vs baseline, static-verdict × dynamic-outcome
//! cross-table).
//!
//! Unlike the other subcommands, `bec study` takes no input file: the
//! subjects are the built-in suite benchmarks (`--bench` selects a
//! subset). Stdout is deterministic for a fixed (benchmarks, rules, seed,
//! sample, shards, max-cycles) tuple — worker count, checkpoint interval
//! and timing never reach it — and `--report`/`--resume` make the study
//! resumable per variant, exactly like `bec campaign` is per shard.
//!
//! Exit code 1 signals a gate failure: a soundness violation (statically
//! masked fault observed corrupting a variant) or a coverage regression
//! (a reliability-improving schedule grew the live fault surface).

use super::{load_resume, rule_options, write_exports, write_report, CliError};
use bec::study::{run_study, StudyConfig};
use bec_core::report;
use bec_sim::json::Json;
use bec_sim::study::{StudyReport, StudySpec, VariantRecord};
use bec_sim::{CrossTable, Engine, FaultClass};
use bec_telemetry::{Phase, Telemetry};
use std::collections::BTreeMap;

/// Per-(benchmark, criterion) early-exit counts, collected from the typed
/// progress stream. Worker-count independent (each run detects its own
/// convergence), so echoing them into stdout JSON is determinism-safe.
type EarlyExits = BTreeMap<(String, String), u64>;

struct Flags {
    cfg: StudyConfig,
    json: bool,
    report_path: Option<String>,
    resume_path: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut cfg = StudyConfig::suite(StudySpec::default());
    let mut json = false;
    let mut report_path = None;
    let mut resume_path = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut workers: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| CliError::usage(format!("{name} needs a value"))).cloned()
        };
        match flag.as_str() {
            "--json" => json = true,
            "--rules" => {
                let v = value("--rules")?;
                cfg.options = rule_options(&v)?;
                cfg.rules = v;
            }
            "--bench" => {
                let v = value("--bench")?;
                cfg.benchmarks.extend(v.split(',').map(str::to_owned));
            }
            "--sample" => {
                let v = value("--sample")?;
                let n: u64 =
                    v.parse().map_err(|_| CliError::usage(format!("bad sample size `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--sample must be at least 1"));
                }
                cfg.spec.sample = Some(n);
            }
            "--seed" => {
                let v = value("--seed")?;
                cfg.spec.seed =
                    v.parse().map_err(|_| CliError::usage(format!("bad seed `{v}`")))?;
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: u32 =
                    v.parse().map_err(|_| CliError::usage(format!("bad shard count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--shards must be at least 1"));
                }
                cfg.spec.shards = n;
            }
            "--workers" => {
                let v = value("--workers")?;
                let n: usize =
                    v.parse().map_err(|_| CliError::usage(format!("bad worker count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--workers must be at least 1"));
                }
                workers = Some(n);
            }
            "--max-cycles" => {
                let v = value("--max-cycles")?;
                cfg.spec.max_cycles = Some(
                    v.parse().map_err(|_| CliError::usage(format!("bad cycle budget `{v}`")))?,
                );
            }
            "--checkpoint-interval" => {
                let v = value("--checkpoint-interval")?;
                cfg.spec.checkpoint_interval = Some(
                    v.parse()
                        .map_err(|_| CliError::usage(format!("bad checkpoint interval `{v}`")))?,
                );
            }
            // Opt-out of the shared golden substrate: every variant runs
            // its own golden probe. Wall-clock lever only — report bytes
            // are pinned identical with reuse on or off.
            "--no-golden-reuse" => cfg.spec.golden_reuse = false,
            // Wall-clock lever only: the engine never reaches stdout, so
            // scalar and bitsliced studies print byte-identical reports.
            "--engine" => {
                let v = value("--engine")?;
                cfg.spec.engine = Engine::parse(&v).ok_or_else(|| {
                    CliError::usage(format!("unknown engine `{v}` (expected scalar or bitsliced)"))
                })?;
            }
            // Worker *processes* per variant campaign. Like --workers and
            // --engine, a wall-clock lever: report bytes are identical at
            // any spawn count.
            "--spawn" => {
                let v = value("--spawn")?;
                let n: usize =
                    v.parse().map_err(|_| CliError::usage(format!("bad spawn count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--spawn must be at least 1"));
                }
                cfg.spawn = n;
            }
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")?),
            "--report" => report_path = Some(value("--report")?),
            "--resume" => resume_path = Some(value("--resume")?),
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    // Without an explicit --workers the study uses all cores: the report
    // bytes are worker-independent, so parallelism is free
    // determinism-wise. An explicit value (including 1) is honored.
    cfg.spec.workers = workers
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    Ok(Flags { cfg, json, report_path, resume_path, trace_out, metrics_out })
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let tel = Telemetry::enabled();
    let resume = match &flags.resume_path {
        Some(path) => load_resume(path, "study report", StudyReport::parse, &tel)?,
        None => None,
    };
    // Typed progress events render to stderr (they carry wall times);
    // stdout stays byte-reproducible. The campaign events also carry the
    // per-variant early-exit counts the JSON summary includes.
    let mut early_exits = EarlyExits::new();
    let report = run_study(&flags.cfg, resume, &tel, |event| {
        if event.phase == Phase::Campaign {
            if let Some(n) = event.counter("early_exits") {
                early_exits.insert((event.benchmark.clone(), event.variant.clone()), n);
            }
        }
        eprintln!("study: {}", event.render());
    })
    .map_err(CliError::failed)?;

    if let Some(path) = &flags.report_path {
        write_report(path, || report.render(), &tel)?;
    }
    write_exports(&tel, flags.trace_out.as_deref(), flags.metrics_out.as_deref())?;

    let violations = report.violations();
    let regressions = report.coverage_regressions();
    if flags.json {
        println!("{}", summary_json(&report, &early_exits, &violations, &regressions).render());
    } else {
        print_text(&report, &violations, &regressions);
    }

    let mut failures = Vec::new();
    if !violations.is_empty() {
        let total: u64 = violations.iter().map(|(_, _, n)| n).sum();
        failures.push(format!(
            "{total} soundness violation(s): statically-masked faults corrupted a variant"
        ));
    }
    if !regressions.is_empty() {
        let list: Vec<String> = regressions.iter().map(|(b, c)| format!("{b}/{c}")).collect();
        failures.push(format!("coverage regression(s): {}", list.join(", ")));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::failed(failures.join("; ")))
    }
}

/// The baseline record of a benchmark (first variant, criterion
/// `original`).
fn baseline_of(variants: &[VariantRecord]) -> &VariantRecord {
    variants.iter().find(|v| v.criterion == "original").unwrap_or(&variants[0])
}

fn delta_pp(v: &VariantRecord, base: &VariantRecord) -> Option<f64> {
    (v.criterion != base.criterion).then(|| v.benign_pct() - base.benign_pct())
}

fn print_text(
    report: &StudyReport,
    violations: &[(String, String, u64)],
    regressions: &[(String, String)],
) {
    let g = report::group_digits;
    let mode = match report.sample {
        Some(n) => format!("seeded sample of {} per variant (seed {})", g(n), report.seed),
        None => "exhaustive".to_owned(),
    };
    println!(
        "Scheduled-variant reliability study — {} benchmark(s), {} rules, {mode}, {} shards",
        report.benchmarks.len(),
        report.rules,
        g(report.shards as u64),
    );

    let mut cross = CrossTable::default();
    for b in &report.benchmarks {
        let base = baseline_of(&b.variants);
        println!(
            "\n{} — fault space {}, scoring: {} analysis ({} points, {} visits)",
            b.name,
            g(base.campaign.fault_space),
            g(b.scoring.analyses),
            g(b.scoring.points),
            g(b.scoring.solver_visits),
        );
        let rows: Vec<Vec<String>> = b
            .variants
            .iter()
            .map(|v| {
                let counts = v.campaign.outcome_counts();
                cross.merge(&CrossTable::of_report(&v.campaign));
                let mut row = vec![
                    v.criterion.clone(),
                    format!("{:.2} %", v.coverage_pct()),
                    g(v.live_surface),
                ];
                row.extend(FaultClass::ALL.iter().map(|c| g(counts[c.index()])));
                row.push(format!("{:.2} %", v.benign_pct()));
                row.push(match delta_pp(v, base) {
                    Some(d) => format!("{d:+.2} pp"),
                    None => "—".to_owned(),
                });
                row
            })
            .collect();
        print!(
            "{}",
            report::format_table(
                &[
                    "criterion",
                    "masked cov.",
                    "live surface",
                    "benign",
                    "deviation",
                    "sdc",
                    "crash",
                    "hang",
                    "benign %",
                    "Δ benign",
                ],
                &rows,
            )
        );
    }

    println!("\nstatic verdict × dynamic outcome (all variants):");
    let cross_rows: Vec<Vec<String>> = [true, false]
        .iter()
        .map(|&masked| {
            let mut row = vec![if masked { "masked" } else { "live" }.to_owned()];
            row.extend(FaultClass::ALL.iter().map(|&c| g(cross.count(masked, c))));
            row
        })
        .collect();
    print!(
        "{}",
        report::format_table(
            &["static \\ dynamic", "benign", "deviation", "sdc", "crash", "hang"],
            &cross_rows,
        )
    );

    if violations.is_empty() {
        println!(
            "\nsoundness: OK — every statically-masked fault was observed benign on every variant"
        );
    } else {
        println!("\nsoundness: {} VIOLATION(S)", violations.len());
        for (b, c, n) in violations {
            println!("  {b}/{c}: {n} statically-masked fault(s) corrupted the execution");
        }
    }
    if regressions.is_empty() {
        println!("coverage: OK — no reliability-improving schedule grew the live fault surface");
    } else {
        println!("coverage: {} REGRESSION(S)", regressions.len());
        for (b, c) in regressions {
            println!("  {b}/{c}: live surface above the baseline schedule");
        }
    }
}

/// The deterministic stdout summary (the full resumable report goes to
/// `--report`; stdout omits the per-outcome rows).
fn summary_json(
    report: &StudyReport,
    early_exits: &EarlyExits,
    violations: &[(String, String, u64)],
    regressions: &[(String, String)],
) -> Json {
    let mut cross = CrossTable::default();
    let benchmarks: Vec<Json> = report
        .benchmarks
        .iter()
        .map(|b| {
            let base = baseline_of(&b.variants);
            let variants: Vec<Json> = b
                .variants
                .iter()
                .map(|v| {
                    cross.merge(&CrossTable::of_report(&v.campaign));
                    let counts = v.campaign.outcome_counts();
                    let mut fields = vec![
                        ("criterion", Json::str(&v.criterion)),
                        ("coverage_gated", Json::Bool(v.coverage_gated)),
                        ("masked_site_bits", Json::UInt(v.masked_site_bits)),
                        ("total_site_bits", Json::UInt(v.total_site_bits)),
                        ("live_surface", Json::UInt(v.live_surface)),
                        ("total_surface", Json::UInt(v.total_surface)),
                        ("coverage_pct", Json::Float(v.coverage_pct())),
                        ("runs", Json::UInt(v.campaign.runs())),
                        (
                            "early_exits",
                            Json::UInt(
                                early_exits
                                    .get(&(b.name.clone(), v.criterion.clone()))
                                    .copied()
                                    .unwrap_or(0),
                            ),
                        ),
                        (
                            "outcomes",
                            Json::Obj(
                                FaultClass::ALL
                                    .iter()
                                    .map(|c| (c.name().to_owned(), Json::UInt(counts[c.index()])))
                                    .collect(),
                            ),
                        ),
                        ("benign_pct", Json::Float(v.benign_pct())),
                    ];
                    if let Some(d) = delta_pp(v, base) {
                        fields.push(("delta_benign_pp", Json::Float(d)));
                    }
                    fields.push(("violations", Json::UInt(v.campaign.violations().len() as u64)));
                    fields.push(("cross", CrossTable::of_report(&v.campaign).to_json()));
                    Json::obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(&b.name)),
                ("fault_space", Json::UInt(base.campaign.fault_space)),
                ("scoring_analyses", Json::UInt(b.scoring.analyses)),
                ("variants", Json::Arr(variants)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("rules", Json::str(&report.rules)),
        ("seed", Json::UInt(report.seed)),
        (
            "sample",
            match report.sample {
                Some(n) => Json::UInt(n),
                None => Json::str("exhaustive"),
            },
        ),
        ("shards", Json::UInt(report.shards as u64)),
        ("benchmarks", Json::Arr(benchmarks)),
        ("cross", cross.to_json()),
        ("soundness_ok", Json::Bool(violations.is_empty())),
        ("coverage_ok", Json::Bool(regressions.is_empty())),
    ])
}
