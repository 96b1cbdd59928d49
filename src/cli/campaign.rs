//! `bec campaign` — the sharded fault-injection campaign with differential
//! validation: lifts the input, enumerates the statically classified fault
//! space, runs it (exhaustively or as a seeded sample) on the worker pool,
//! and cross-checks every observed outcome against the BEC verdict. Any
//! statically-masked fault observed corrupting the execution is a soundness
//! violation and a hard failure (exit code 1).
//!
//! The JSON report is deterministic for a fixed (input, seed, sample,
//! shards) tuple — worker count and timing never influence it — and is
//! resumable: `--report out.json --resume out.json` re-runs only the shards
//! missing from an interrupted campaign.

use super::{all_cores, campaign_flag, input, load_resume, write_report, CliError, CommonArgs};
use bec_core::{report, BecAnalysis};
use bec_sim::json::Json;
use bec_sim::shard::CampaignReport;
use bec_sim::study::{prepare_campaign, run_prepared, StudySpec};
use bec_sim::{Engine, FaultClass, PoolStats, SiteVerdicts};
use bec_telemetry::Telemetry;

struct Flags {
    /// The campaign knobs. `workers`, `engine` and `checkpoint_interval`
    /// are wall-clock levers only: the report bytes are identical for
    /// every setting. `max_cycles: None` picks `100 × golden + 10k`,
    /// enough for any trace-identical (masked) run while cutting
    /// corrupted-counter loops off quickly.
    spec: StudySpec,
    report_path: Option<String>,
    resume_path: Option<String>,
}

fn parse_flags(args: &CommonArgs) -> Result<Flags, CliError> {
    let mut flags = Flags {
        spec: StudySpec { workers: all_cores(), ..StudySpec::default() },
        report_path: None,
        resume_path: None,
    };
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| CliError::usage(format!("{name} needs a value"))).cloned()
        };
        match flag.as_str() {
            "--report" => flags.report_path = Some(value("--report")?),
            "--resume" => flags.resume_path = Some(value("--resume")?),
            other => {
                if !campaign_flag(&mut flags.spec, other, value)? {
                    return Err(CliError::usage(format!("unknown flag `{other}`")));
                }
            }
        }
    }
    Ok(flags)
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let spec = &flags.spec;
    let program = input::load_program(&args.file)?;
    let tel = Telemetry::enabled();
    let resume = match &flags.resume_path {
        Some(path) => load_resume(path, "campaign report", CampaignReport::parse, &tel)?,
        None => None,
    };
    // The shared campaign driver (`bec_sim::study`): golden probe, derived
    // injection budget, checkpointed engine, sharded pool. The analysis is
    // dropped once its verdicts are extracted, before the golden run.
    let verdicts = SiteVerdicts::of(&program, &BecAnalysis::analyze(&program, &args.options));
    let run = prepare_campaign(&args.file, &program, &verdicts, spec, None, &tel)
        .and_then(|prep| run_prepared(&args.file, &program, prep, spec, resume, &tel))
        .map_err(CliError::failed)?;
    let (campaign, stats, interval) = (run.report, run.stats, run.interval);

    if let Some(path) = &flags.report_path {
        write_report(path, || campaign.render(), &tel)?;
    }

    // Timing is real but nondeterministic — it goes to stderr so stdout
    // stays byte-reproducible for a fixed spec.
    eprintln!("campaign: {}", summary_line(campaign.runs(), &stats));
    args.export_telemetry(&tel)?;

    let violations = campaign.violations();
    if args.json {
        println!(
            "{}",
            with_engine_metadata(campaign.to_json(), spec.engine, interval, stats.early_exits)
                .render()
        );
    } else {
        let fault_space = campaign.fault_space;
        let adaptive = spec.checkpoint_interval.is_none();
        print_text(
            args,
            &campaign,
            fault_space,
            spec.engine,
            interval,
            adaptive,
            stats.early_exits,
        );
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "{} soundness violation(s): statically-masked faults corrupted the execution",
            violations.len()
        )))
    }
}

/// The unified stderr execution summary every campaign-shaped command
/// prints: runs, wall time, throughput, workers, shard and early-exit
/// tallies. Nondeterministic by design, stderr-only.
pub(super) fn summary_line(runs: u64, stats: &PoolStats) -> String {
    let secs = stats.wall.as_secs_f64();
    format!(
        "{} runs in {:.1} ms ({:.0} runs/s) on {} workers ({} shards executed, {} resumed, {} early-converged)",
        report::group_digits(runs),
        secs * 1e3,
        runs as f64 / secs.max(1e-9),
        stats.workers,
        stats.executed_shards,
        stats.resumed_shards,
        report::group_digits(stats.early_exits),
    )
}

/// Appends the engine metadata to the stdout JSON. The `--report` file
/// stays free of it: the report artifact must be byte-identical across
/// engines and intervals (and resumable between them), so the engine
/// name, the interval and the interval-dependent (but worker- and
/// engine-independent) early-exit count are presentation metadata only.
fn with_engine_metadata(doc: Json, engine: Engine, interval: u64, early_exits: u64) -> Json {
    match doc {
        Json::Obj(mut fields) => {
            fields.push(("engine".to_owned(), Json::str(engine.name())));
            fields.push(("checkpoint_interval".to_owned(), Json::UInt(interval)));
            fields.push(("early_exits".to_owned(), Json::UInt(early_exits)));
            Json::Obj(fields)
        }
        other => other,
    }
}

fn print_text(
    args: &CommonArgs,
    campaign: &CampaignReport,
    fault_space: u64,
    engine: Engine,
    interval: u64,
    adaptive: bool,
    early_exits: u64,
) {
    let g = report::group_digits;
    println!("Differential fault-injection campaign for {}\n", args.file);
    let mode = match campaign.spec.sample {
        Some(n) => format!("seeded sample of {} (seed {})", g(n), campaign.spec.seed),
        None => "exhaustive".to_owned(),
    };
    // Without checkpoints the bitsliced engine has nothing to batch from
    // and silently degrades to scalar from-scratch runs — say so.
    let engine = match interval {
        0 => "scalar, from-scratch (checkpointing disabled)".to_owned(),
        n if adaptive => {
            format!("{}, checkpointed at block boundaries (~{} cycle spacing)", engine.name(), g(n))
        }
        n => format!("{}, checkpointed every {} cycles", engine.name(), g(n)),
    };
    print!(
        "{}",
        report::format_table(
            &["campaign", ""],
            &[
                vec!["fault space (site occurrences)".into(), g(fault_space)],
                vec!["mode".into(), mode],
                vec!["engine".into(), engine],
                vec!["shards".into(), g(campaign.spec.shards as u64)],
                vec!["runs".into(), g(campaign.runs())],
                vec!["early-converged runs".into(), g(early_exits)],
                vec!["statically masked runs".into(), g(campaign.masked_runs())],
            ],
        )
    );
    println!();
    let counts = campaign.outcome_counts();
    print!(
        "{}",
        report::format_table(
            &["outcome", "runs"],
            &FaultClass::ALL
                .iter()
                .map(|c| vec![c.name().into(), g(counts[c.index()])])
                .collect::<Vec<_>>(),
        )
    );

    let violations = campaign.violations();
    if violations.is_empty() {
        println!("\ndifferential check: OK — every statically-masked fault was observed benign");
    } else {
        println!("\ndifferential check: {} VIOLATION(S)", violations.len());
        for v in violations.iter().take(16) {
            println!(
                "  func {} {} {} bit {} occurrence {} (cycle {}): statically masked, observed {}",
                v.fault.func,
                v.fault.point,
                v.fault.spec.reg,
                v.fault.spec.bit,
                v.fault.occurrence,
                v.fault.spec.cycle,
                v.class.name(),
            );
        }
        if violations.len() > 16 {
            println!("  … and {} more", violations.len() - 16);
        }
    }
}
