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

use super::{input, load_resume, write_report, CliError, CommonArgs};
use bec::artifacts::ArtifactStore;
use bec::spawn::{run_spawned, SpawnConfig, WorkerSource};
use bec_core::{report, BecAnalysis};
use bec_sim::json::Json;
use bec_sim::shard::CampaignReport;
use bec_sim::study::{prepare_campaign, run_prepared, StudySpec, DEFAULT_SEED, DEFAULT_SHARDS};
use bec_sim::{Engine, FaultClass, PoolStats, SimLimits, Simulator, SiteVerdicts};
use bec_telemetry::Telemetry;

struct Flags {
    sample: Option<u64>,
    seed: u64,
    shards: u32,
    workers: usize,
    /// Per-fault execution engine. Never influences the report bytes —
    /// the bitsliced engine is a wall-clock lever, exactly like the
    /// checkpoint interval.
    engine: Engine,
    report_path: Option<String>,
    resume_path: Option<String>,
    /// Per-run cycle budget; `None` picks `100 × golden + 10k`, enough for
    /// any trace-identical (masked) run while cutting corrupted-counter
    /// loops off quickly.
    max_cycles: Option<u64>,
    /// Checkpoint spacing in cycles; 0 disables the checkpointed engine,
    /// `None` derives a default from the golden trace length. The report
    /// bytes are identical for every setting — only wall-clock changes.
    checkpoint_interval: Option<u64>,
    /// Worker *processes* to spawn (1 = in-process). Like `--workers` and
    /// the engine, a pure wall-clock lever: the merged report is
    /// byte-identical at any spawn count.
    spawn: usize,
}

fn parse_flags(args: &CommonArgs) -> Result<Flags, CliError> {
    let mut flags = Flags {
        sample: None,
        seed: DEFAULT_SEED,
        shards: DEFAULT_SHARDS,
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        engine: Engine::default(),
        report_path: None,
        resume_path: None,
        max_cycles: None,
        checkpoint_interval: None,
        spawn: 1,
    };
    let mut it = args.rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| CliError::usage(format!("{name} needs a value"))).cloned()
        };
        match flag.as_str() {
            "--sample" => {
                let v = value("--sample")?;
                let n: u64 =
                    v.parse().map_err(|_| CliError::usage(format!("bad sample size `{v}`")))?;
                if n == 0 {
                    // A 0-run campaign would vacuously report "OK" — reject
                    // it so a typo'd CI invocation cannot disable the gate.
                    return Err(CliError::usage("--sample must be at least 1"));
                }
                flags.sample = Some(n);
            }
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = v.parse().map_err(|_| CliError::usage(format!("bad seed `{v}`")))?;
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: u32 =
                    v.parse().map_err(|_| CliError::usage(format!("bad shard count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--shards must be at least 1"));
                }
                flags.shards = n;
            }
            "--workers" => {
                let v = value("--workers")?;
                let n: usize =
                    v.parse().map_err(|_| CliError::usage(format!("bad worker count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--workers must be at least 1"));
                }
                flags.workers = n;
            }
            "--engine" => {
                let v = value("--engine")?;
                flags.engine = Engine::parse(&v).ok_or_else(|| {
                    CliError::usage(format!("unknown engine `{v}` (expected scalar or bitsliced)"))
                })?;
            }
            "--report" => flags.report_path = Some(value("--report")?),
            "--resume" => flags.resume_path = Some(value("--resume")?),
            "--max-cycles" => {
                let v = value("--max-cycles")?;
                flags.max_cycles = Some(
                    v.parse().map_err(|_| CliError::usage(format!("bad cycle budget `{v}`")))?,
                );
            }
            "--checkpoint-interval" => {
                let v = value("--checkpoint-interval")?;
                flags.checkpoint_interval = Some(
                    v.parse()
                        .map_err(|_| CliError::usage(format!("bad checkpoint interval `{v}`")))?,
                );
            }
            "--spawn" => {
                let v = value("--spawn")?;
                let n: usize =
                    v.parse().map_err(|_| CliError::usage(format!("bad spawn count `{v}`")))?;
                if n == 0 {
                    return Err(CliError::usage("--spawn must be at least 1"));
                }
                flags.spawn = n;
            }
            other => return Err(CliError::usage(format!("unknown flag `{other}`"))),
        }
    }
    Ok(flags)
}

/// The prepare phase with `--cache-dir` wired in: analysis verdicts and
/// (under the adaptive checkpoint policy) the golden pair come from the
/// artifact store when warm, so a warm run skips the whole analysis +
/// golden phase. Cold or cacheless runs compute exactly what
/// `run_campaign_with` always did — the prepared campaign, and therefore
/// the report, is byte-identical either way.
pub(super) fn prepare_cached(
    file: &str,
    program: &bec_ir::Program,
    options: &bec_core::BecOptions,
    rules: &str,
    store: Option<&ArtifactStore>,
    spec: &StudySpec,
    tel: &Telemetry,
) -> Result<bec_sim::PreparedCampaign, String> {
    let compute_verdicts = || SiteVerdicts::of(program, &BecAnalysis::analyze(program, options));
    let probe_limit = spec.max_cycles.unwrap_or(100_000_000);
    let (verdicts, golden_override) = match store {
        Some(s) => {
            // `load_program` already read the file; raw bytes are the key.
            let bytes = std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            let verdicts = s.verdicts_or(rules, &bytes, tel, compute_verdicts);
            // The golden pair is only cacheable under the adaptive policy
            // it was recorded with; an explicit interval re-probes.
            let golden = match spec.checkpoint_interval {
                None => Some(s.golden_or(&bytes, probe_limit, tel, || {
                    Simulator::with_limits(program, SimLimits { max_cycles: probe_limit })
                        .run_golden_aligned()
                })),
                Some(_) => None,
            };
            (verdicts, golden)
        }
        None => (compute_verdicts(), None),
    };
    prepare_campaign(file, program, &verdicts, spec, golden_override, None, tel)
}

pub fn run(args: &CommonArgs) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    let program = input::load_program(&args.file)?;
    let tel = Telemetry::enabled();
    let resume = match &flags.resume_path {
        Some(path) => load_resume(path, "campaign report", CampaignReport::parse, &tel)?,
        None => None,
    };
    // The shared campaign driver (`bec_sim::study`): golden probe, derived
    // injection budget, checkpointed engine, sharded pool. The checkpoint
    // interval never changes the report bytes — it is a wall-clock lever.
    let spec = StudySpec {
        seed: flags.seed,
        sample: flags.sample,
        shards: flags.shards,
        workers: flags.workers,
        max_cycles: flags.max_cycles,
        checkpoint_interval: flags.checkpoint_interval,
        engine: flags.engine,
        // Single-program campaigns have no variants to share a golden
        // substrate across; the flag only matters to `bec study`.
        golden_reuse: true,
    };
    let store = match &args.cache_dir {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(CliError::failed)?),
        None => None,
    };
    let prep = prepare_cached(
        &args.file,
        &program,
        &args.options,
        &args.rules,
        store.as_ref(),
        &spec,
        &tel,
    )
    .map_err(CliError::failed)?;
    let run = if flags.spawn > 1 {
        let source = WorkerSource::File { path: args.file.clone() };
        let cfg = SpawnConfig {
            spawn: flags.spawn,
            rules: &args.rules,
            cache_dir: args.cache_dir.as_deref(),
        };
        run_spawned(&source, &args.file, prep, &spec, &cfg, resume, &tel)
    } else {
        run_prepared(&args.file, &program, prep, &spec, resume, &tel)
    }
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
            with_engine_metadata(campaign.to_json(), flags.engine, interval, stats.early_exits)
                .render()
        );
    } else {
        let fault_space = campaign.fault_space;
        let adaptive = flags.checkpoint_interval.is_none();
        print_text(
            args,
            &campaign,
            fault_space,
            flags.engine,
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
