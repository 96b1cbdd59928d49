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
mod worker;

use bec_core::BecOptions;
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
    /// Artifact cache directory (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Name of the selected rule set (salts cache keys, forwarded to
    /// spawned workers).
    pub rules: String,
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
/// parser, so spawned workers resolve names exactly like their parent).
pub(crate) fn rule_options(name: &str) -> Result<BecOptions, CliError> {
    match name {
        "paper" => Ok(BecOptions::paper()),
        "extended" => Ok(BecOptions::extended()),
        "branches-only" => Ok(BecOptions::branches_only()),
        other => Err(CliError::usage(format!("unknown rule set `{other}`"))),
    }
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
    let mut cache_dir = None;
    let mut rules = String::from("paper");
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
                rules = v.clone();
            }
            "--cache-dir" => {
                let v = it.next().ok_or_else(|| CliError::usage("--cache-dir needs a path"))?;
                cache_dir = Some(v.clone());
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
                        | "--spawn"
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
        cache_dir,
        rules,
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
        // Hidden: the worker half of `bec campaign --spawn`. Parses its own
        // argument list (slice specs and partial-report paths are not
        // user-facing flags).
        "campaign-worker" => worker::run(&args[1..]),
        "encode" => encode::run(&parse_common(&args[1..])?),
        "help" | "--help" | "-h" => Err(CliError::Usage(String::new())),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}
