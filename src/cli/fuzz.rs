//! `bec fuzz` — the differential fuzzing engine: generate seeded random
//! programs over the full IR surface (branches, bounded loops, calls,
//! scratch-memory traffic), run the analyze → campaign → cross-check loop
//! on each, and record every empirical contradiction of the analysis to a
//! findings log. `--minimize` shrinks each finding to a minimal reproducer
//! replayable with `bec sim <file> --fault <cycle>:<reg>:<bit>`.
//!
//! Like `bec study`, the command takes no input file — its subjects are
//! generated — and parses its own argument list. Stdout is deterministic
//! for a fixed (seed, budget, profile, rules, sample, shards,
//! class-checks) tuple: worker count and engine never reach it, and the
//! corpus files written by `--corpus-dir` are byte-identical across runs.
//!
//! Exit code 1 signals findings — on the real analysis any finding is a
//! soundness bug. `--demo-unsound` swaps in the deliberately unsound
//! test oracle (every accessed site bit claimed masked), guaranteeing
//! findings to demonstrate the violation → minimizer → reproducer
//! pipeline.

use super::{all_cores, rule_options, CliError};
use bec_core::report::group_digits as g;
use bec_fuzzgen::GenConfig;
use bec_sim::json::Json;
use bec_sim::{run_fuzz, Engine, FaultClass, FuzzReport, FuzzSpec, Oracle};
use std::path::PathBuf;

struct Flags {
    spec: FuzzSpec,
    rules_name: String,
    profile_name: String,
    corpus_dir: Option<PathBuf>,
    json: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut spec = FuzzSpec::default();
    let mut rules_name = String::from("paper");
    let mut profile_name = String::from("full");
    let mut corpus_dir = None;
    let mut json = false;
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
                rule_options(&v)?;
                rules_name = v;
            }
            "--seed" => {
                let v = value("--seed")?;
                spec.seed = v.parse().map_err(|_| CliError::usage(format!("bad seed `{v}`")))?;
            }
            "--budget" => {
                let v = value("--budget")?;
                let n: u64 = v.parse().map_err(|_| CliError::usage(format!("bad budget `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--budget must be at least 1"));
                }
                spec.budget = n;
            }
            "--sample" => {
                let v = value("--sample")?;
                let n: u64 =
                    v.parse().map_err(|_| CliError::usage(format!("bad sample size `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--sample must be at least 1"));
                }
                spec.sample = Some(n);
            }
            "--exhaustive" => spec.sample = None,
            "--shards" => {
                let v = value("--shards")?;
                let n: u32 =
                    v.parse().map_err(|_| CliError::usage(format!("bad shard count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--shards must be at least 1"));
                }
                spec.shards = n;
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
            // Wall-clock lever only: findings and stdout bytes are pinned
            // identical under both engines.
            "--engine" => {
                let v = value("--engine")?;
                spec.engine = Engine::parse(&v).ok_or_else(|| {
                    CliError::usage(format!("unknown engine `{v}` (expected scalar or bitsliced)"))
                })?;
            }
            "--class-checks" => {
                let v = value("--class-checks")?;
                spec.class_checks =
                    v.parse().map_err(|_| CliError::usage(format!("bad probe count `{v}`")))?;
            }
            "--profile" => {
                let v = value("--profile")?;
                spec.profile = match v.as_str() {
                    "tiny" => GenConfig::tiny(),
                    "full" => GenConfig::full(),
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown profile `{other}` (expected tiny or full)"
                        )))
                    }
                };
                profile_name = v;
            }
            "--corpus-dir" => corpus_dir = Some(PathBuf::from(value("--corpus-dir")?)),
            "--minimize" => spec.minimize = true,
            "--demo-unsound" => spec.oracle = Oracle::AssumeAllMasked,
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    // Worker count never reaches stdout, so defaulting to all cores is
    // determinism-free parallelism; an explicit value is honored.
    spec.workers = workers.unwrap_or_else(all_cores);
    Ok(Flags { spec, rules_name, profile_name, corpus_dir, json })
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let options = rule_options(&flags.rules_name)?;
    let start = std::time::Instant::now();
    let report =
        run_fuzz(&flags.spec, &options, flags.corpus_dir.as_deref()).map_err(CliError::failed)?;
    // Timing is not deterministic, so it goes to stderr only.
    eprintln!(
        "fuzz: {} program(s), {} campaign run(s), {} probe(s) in {:.2?}",
        report.programs,
        report.campaign_runs,
        report.class_probes,
        start.elapsed()
    );

    if flags.json {
        println!("{}", summary_json(&flags, &report).render());
    } else {
        print_text(&flags, &report);
    }

    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "{} finding(s): the analysis disagreed with observed executions",
            report.findings.len()
        )))
    }
}

fn print_text(flags: &Flags, report: &FuzzReport) {
    let mode = match flags.spec.sample {
        Some(n) => format!("seeded sample of {} per program", g(n)),
        None => "exhaustive".to_owned(),
    };
    println!(
        "Differential fuzzing — seed {}, {} program(s), {} profile, {} rules, {mode}, {} shards",
        report.seed,
        g(report.budget),
        flags.profile_name,
        flags.rules_name,
        g(flags.spec.shards as u64),
    );
    println!("\ncampaign runs: {}", g(report.campaign_runs));
    for c in FaultClass::ALL {
        println!("  {:<9} {}", c.name(), g(report.outcome_counts[c.index()]));
    }
    println!("class-equivalence probes: {}", g(report.class_probes));

    if report.is_clean() {
        println!(
            "\nfindings: none — every statically-masked fault was benign and every \
             probed class pair agreed"
        );
        return;
    }
    println!("\nfindings: {}", report.findings.len());
    for f in &report.findings {
        let kind = match f.kind {
            bec_sim::MismatchKind::MaskedViolation => "masked-violation",
            bec_sim::MismatchKind::ClassDivergence => "class-divergence",
        };
        println!(
            "  {kind} {} (seed {}): func {} {} reg {} bit {} cycle {} → {}",
            f.label,
            f.program_seed,
            f.func,
            f.point,
            f.fault.reg,
            f.fault.bit,
            f.fault.cycle,
            f.observed.name(),
        );
        if let Some(m) = &f.minimized {
            let w = &m.witness;
            println!(
                "    minimized: {} → {} instruction(s); replay: bec sim {}.min.bec --fault {}:{}:{}",
                m.initial_instructions,
                m.instructions,
                f.label,
                w.fault.cycle,
                w.fault.reg,
                w.fault.bit,
            );
        }
    }
}

/// The deterministic stdout JSON: the findings log plus the session echo.
fn summary_json(flags: &Flags, report: &FuzzReport) -> Json {
    let mut fields = vec![
        ("rules".to_owned(), Json::str(&flags.rules_name)),
        ("profile".to_owned(), Json::str(&flags.profile_name)),
        (
            "sample".to_owned(),
            match flags.spec.sample {
                Some(n) => Json::UInt(n),
                None => Json::str("exhaustive"),
            },
        ),
        ("shards".to_owned(), Json::UInt(flags.spec.shards as u64)),
        ("class_checks".to_owned(), Json::UInt(flags.spec.class_checks as u64)),
    ];
    match report.to_json() {
        Json::Obj(report_fields) => fields.extend(report_fields),
        other => fields.push(("report".to_owned(), other)),
    }
    Json::Obj(fields)
}
