//! Subcommand dispatch and shared plumbing for the `bec` binary.

mod analyze;
mod campaign;
mod encode;
mod fuzz;
mod input;
mod prune;
mod schedule;
mod sim;
mod study;

use bec_core::BecOptions;
use bec_sim::study::StudySpec;
use bec_sim::Engine;
use bec_telemetry::Telemetry;

/// CLI failure modes: usage errors print the help text, operational
/// failures print the message alone.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command/flag, missing file).
    Usage(String),
    /// The command itself failed (parse error, unencodable program, …).
    Failed(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn failed(msg: impl Into<String>) -> CliError {
        CliError::Failed(msg.into())
    }
}

/// Options shared by every subcommand, parsed from the raw argument list.
pub struct CommonArgs {
    /// Input path.
    pub file: String,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Coalescing rule set.
    pub options: BecOptions,
    /// Chrome-trace JSON destination (`--trace-out`).
    pub trace_out: Option<String>,
    /// Metrics snapshot destination (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Remaining command-specific flags, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Writes the trace/metrics exports requested by `--trace-out` /
    /// `--metrics-out`. Exports carry timing and thread attribution; the
    /// determinism contract keeps them out of stdout and report files, so
    /// requesting them never changes any byte-compared artifact.
    pub fn export_telemetry(&self, tel: &Telemetry) -> Result<(), CliError> {
        write_exports(tel, self.trace_out.as_deref(), self.metrics_out.as_deref())
    }
}

/// Maps a `--rules` name to its option set (shared by every argument
/// parser).
pub(crate) fn rule_options(name: &str) -> Result<BecOptions, CliError> {
    match name {
        "paper" => Ok(BecOptions::paper()),
        "extended" => Ok(BecOptions::extended()),
        "branches-only" => Ok(BecOptions::branches_only()),
        other => Err(CliError::usage(format!("unknown rule set `{other}`"))),
    }
}

/// The default worker count: one per available core. Report bytes never
/// depend on it, so parallelism is free determinism-wise.
pub(crate) fn all_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies one campaign flag shared by `campaign` and `study`
/// (`--sample/--seed/--shards/--workers/--engine/--max-cycles/
/// --checkpoint-interval`) to `spec`, reading its value through `value`.
/// Returns `Ok(false)` when `flag` is not one of them.
pub(crate) fn campaign_flag(
    spec: &mut StudySpec,
    flag: &str,
    mut value: impl FnMut(&str) -> Result<String, CliError>,
) -> Result<bool, CliError> {
    match flag {
        "--sample" => {
            let v = value(flag)?;
            let n: u64 =
                v.parse().map_err(|_| CliError::usage(format!("bad sample size `{v}`")))?;
            if n == 0 {
                // A 0-run campaign would vacuously report "OK" — reject it
                // so a typo'd CI invocation cannot disable the gate.
                return Err(CliError::usage("--sample must be at least 1"));
            }
            spec.sample = Some(n);
        }
        "--seed" => {
            let v = value(flag)?;
            spec.seed = v.parse().map_err(|_| CliError::usage(format!("bad seed `{v}`")))?;
        }
        "--shards" => {
            let v = value(flag)?;
            let n: u32 =
                v.parse().map_err(|_| CliError::usage(format!("bad shard count `{v}`")))?;
            if n == 0 {
                return Err(CliError::usage("--shards must be at least 1"));
            }
            spec.shards = n;
        }
        "--workers" => {
            let v = value(flag)?;
            let n: usize =
                v.parse().map_err(|_| CliError::usage(format!("bad worker count `{v}`")))?;
            if n == 0 {
                return Err(CliError::usage("--workers must be at least 1"));
            }
            spec.workers = n;
        }
        // Wall-clock lever only: the engine never changes report bytes.
        "--engine" => {
            let v = value(flag)?;
            spec.engine = Engine::parse(&v).ok_or_else(|| {
                CliError::usage(format!("unknown engine `{v}` (expected scalar or bitsliced)"))
            })?;
        }
        "--max-cycles" => {
            let v = value(flag)?;
            spec.max_cycles =
                Some(v.parse().map_err(|_| CliError::usage(format!("bad cycle budget `{v}`")))?);
        }
        "--checkpoint-interval" => {
            let v = value(flag)?;
            spec.checkpoint_interval = Some(
                v.parse().map_err(|_| CliError::usage(format!("bad checkpoint interval `{v}`")))?,
            );
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Shared export step for subcommands that parse their own argument lists.
pub(crate) fn write_exports(
    tel: &Telemetry,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), CliError> {
    if let Some(path) = trace_out {
        tel.write_trace(path)
            .map_err(|e| CliError::failed(format!("cannot write trace `{path}`: {e}")))?;
    }
    if let Some(path) = metrics_out {
        tel.write_metrics(path)
            .map_err(|e| CliError::failed(format!("cannot write metrics `{path}`: {e}")))?;
    }
    Ok(())
}

/// Reads a `--resume` report with the streaming reader `parse`, inside a
/// `report.decode` span. A missing file means a fresh run, so the same
/// `--report out.json --resume out.json` invocation works the first time
/// too.
pub(crate) fn load_resume<T>(
    path: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
    tel: &Telemetry,
) -> Result<Option<T>, CliError> {
    let span = tel.span("report.decode").arg("path", path);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CliError::failed(format!("cannot read `{path}`: {e}"))),
    };
    let report =
        parse(&text).map_err(|e| CliError::failed(format!("{path}: not a {what}: {e}")))?;
    drop(span.arg("bytes", text.len()));
    Ok(Some(report))
}

/// Writes a `--report` file, inside a `report.encode` span: the text
/// `render` returns, then a final newline (`render` sizes its buffer with
/// room for it, so the text is never copied).
pub(crate) fn write_report(
    path: &str,
    render: impl FnOnce() -> String,
    tel: &Telemetry,
) -> Result<(), CliError> {
    let span = tel.span("report.encode").arg("path", path);
    let mut text = render();
    text.push('\n');
    let bytes = text.len();
    std::fs::write(path, text)
        .map_err(|e| CliError::failed(format!("cannot write `{path}`: {e}")))?;
    drop(span.arg("bytes", bytes));
    Ok(())
}

fn parse_common(args: &[String]) -> Result<CommonArgs, CliError> {
    let mut file = None;
    let mut json = false;
    let mut options = BecOptions::paper();
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut rest = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace-out" => {
                let v = it.next().ok_or_else(|| CliError::usage("--trace-out needs a path"))?;
                trace_out = Some(v.clone());
            }
            "--metrics-out" => {
                let v = it.next().ok_or_else(|| CliError::usage("--metrics-out needs a path"))?;
                metrics_out = Some(v.clone());
            }
            "--rules" => {
                let v = it.next().ok_or_else(|| CliError::usage("--rules needs a value"))?;
                options = rule_options(v)?;
            }
            flag if flag.starts_with("--") => {
                rest.push(a.clone());
                // Flags with values keep them adjacent for the subcommand.
                if matches!(
                    flag,
                    "--criterion"
                        | "--fault"
                        | "--max-cycles"
                        | "--base"
                        | "--sample"
                        | "--seed"
                        | "--shards"
                        | "--workers"
                        | "--report"
                        | "--resume"
                        | "--checkpoint-interval"
                        | "--engine"
                ) {
                    if let Some(v) = it.next() {
                        rest.push(v.clone());
                    }
                }
            }
            _ if file.is_none() => file = Some(a.clone()),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    Ok(CommonArgs {
        file: file.ok_or_else(|| CliError::usage("missing input file"))?,
        json,
        options,
        trace_out,
        metrics_out,
        rest,
    })
}

/// Runs the CLI on an argument list (exposed for the integration tests).
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::usage(String::new()));
    };
    match cmd.as_str() {
        "analyze" => analyze::run(&parse_common(&args[1..])?),
        "campaign" => campaign::run(&parse_common(&args[1..])?),
        "prune" => prune::run(&parse_common(&args[1..])?),
        "schedule" => schedule::run(&parse_common(&args[1..])?),
        "sim" => sim::run(&parse_common(&args[1..])?),
        // `study` takes no input file (its subjects are the built-in suite
        // benchmarks), so it parses its own argument list.
        "study" => study::run(&args[1..]),
        // `fuzz` generates its own subjects; it parses its own argument
        // list too.
        "fuzz" => fuzz::run(&args[1..]),
        "encode" => encode::run(&parse_common(&args[1..])?),
        "help" | "--help" | "-h" => Err(CliError::Usage(String::new())),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}
