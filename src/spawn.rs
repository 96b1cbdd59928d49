//! `bec campaign --spawn N` — the multi-process campaign driver.
//!
//! The parent runs the prepare phase once (analysis verdicts, golden
//! probe, shard plan), partitions the pending shard indices into `N`
//! contiguous slices, and execs `N` child `bec campaign-worker` processes.
//! Each child re-derives the identical [`PreparedCampaign`] from the same
//! deterministic inputs, executes only its slice via
//! [`bec_sim::run_sharded_slice`], streams `shard <index> <runs>` progress
//! lines over its stdout pipe, and writes its partial [`CampaignReport`]
//! as JSON. The parent merges the disjoint partials slot-wise; because
//! shard outcomes depend only on the plan, the merged report is
//! byte-identical to an in-process run at any `(--spawn, --workers)`
//! combination (pinned by `tests/distributed_equivalence.rs`).
//!
//! Partial reports carry the same cache/engine version salt as resume
//! reports, so a parent never merges a partial written by a different
//! binary generation.

use bec_sim::study::{CampaignRun, StudySpec};
use bec_sim::{CampaignReport, PoolStats, PreparedCampaign};
use bec_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

/// How a spawned worker re-obtains the program under campaign. Workers
/// re-derive programs from scratch — the protocol ships names, never
/// program bytes — so a worker's campaign inputs provably come from the
/// same deterministic pipeline as the parent's.
pub enum WorkerSource {
    /// A program file on disk, as `bec campaign FILE`.
    File {
        /// Path to the program, passed through to the worker verbatim.
        path: String,
    },
    /// A scheduled suite variant, as one `bec study` campaign.
    Suite {
        /// Suite benchmark name.
        bench: String,
        /// Scheduling criterion name selecting the variant.
        criterion: String,
    },
}

/// Spawn-mode knobs that are not part of the deterministic [`StudySpec`].
pub struct SpawnConfig<'a> {
    /// Number of worker processes to spawn.
    pub spawn: usize,
    /// Rule-set name, forwarded so workers analyze under the same rules.
    pub rules: &'a str,
    /// `--cache-dir`, forwarded so workers share the artifact store.
    pub cache_dir: Option<&'a str>,
}

/// One spawned worker process and the plumbing the parent keeps on it.
struct Worker {
    child: std::process::Child,
    partial: PathBuf,
    stdout: std::thread::JoinHandle<u64>,
    stderr: std::thread::JoinHandle<String>,
}

/// The worker binary: `BEC_SPAWN_BIN` when set (tests point this at a
/// specific build), otherwise the running executable.
fn worker_binary() -> Result<PathBuf, String> {
    if let Ok(bin) = std::env::var("BEC_SPAWN_BIN") {
        return Ok(PathBuf::from(bin));
    }
    std::env::current_exe().map_err(|e| format!("cannot locate the bec binary: {e}"))
}

/// Partitions `pending` into `n` contiguous, near-equal, non-empty slices.
fn partition(pending: &[usize], n: usize) -> Vec<Vec<usize>> {
    let n = n.min(pending.len()).max(1);
    let (base, extra) = (pending.len() / n, pending.len() % n);
    let mut slices = Vec::with_capacity(n);
    let mut at = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        slices.push(pending[at..at + len].to_vec());
        at += len;
    }
    slices
}

/// Runs a prepared campaign by farming its pending shards out to
/// `cfg.spawn` child processes and merging their partial reports. The
/// result is byte-identical to [`bec_sim::study::run_prepared`] on the
/// same inputs.
///
/// # Errors
///
/// Fails when a worker cannot be spawned, exits unsuccessfully, or writes
/// a partial that disagrees with the plan (wrong salt, duplicate or
/// missing shards).
pub fn run_spawned(
    source: &WorkerSource,
    label: &str,
    prep: PreparedCampaign,
    spec: &StudySpec,
    cfg: &SpawnConfig<'_>,
    resume: Option<CampaignReport>,
    tel: &Telemetry,
) -> Result<CampaignRun, String> {
    let started = Instant::now();
    let mut report = match resume {
        Some(prev) => {
            prev.validate_resume(label, &prep.plan, prep.budget)?;
            prev
        }
        None => CampaignReport::empty(label, &prep.plan, prep.budget),
    };
    let pending = report.pending_shards();
    let resumed_shards = prep.plan.shard_count() - pending.len();
    if pending.is_empty() {
        tel.gauge("spawn.children", 0);
        let stats = idle_stats(started, spec.workers, 0, resumed_shards);
        return finish(report, stats, prep, tel);
    }

    let slices = partition(&pending, cfg.spawn);
    tel.gauge("spawn.children", slices.len() as u64);
    let exe = worker_binary()?;
    let planned_runs: u64 = pending.iter().map(|&s| prep.plan.shard(s).len() as u64).sum();
    let mut meter = tel.meter(&format!("campaign {label} [spawn {}]", slices.len()), planned_runs);

    // Progress events stream from per-child stdout reader threads; the
    // parent folds them into the shared telemetry meter as they arrive.
    let (tx, rx) = mpsc::channel::<u64>();
    let mut workers = Vec::with_capacity(slices.len());
    for (i, slice) in slices.iter().enumerate() {
        let partial =
            std::env::temp_dir().join(format!("bec-partial-{}-{i}.json", std::process::id()));
        let mut child = spawn_worker(&exe, source, spec, cfg, slice, &partial)
            .map_err(|e| format!("{label}: {e}"))?;
        let out = child.stdout.take().expect("worker stdout is piped");
        let err = child.stderr.take().expect("worker stderr is piped");
        let tx = tx.clone();
        let stdout = std::thread::spawn(move || drain_protocol(out, &tx));
        let stderr = std::thread::spawn(move || {
            let mut buf = String::new();
            let _ = BufReader::new(err).read_to_string(&mut buf);
            buf
        });
        workers.push(Worker { child, partial, stdout, stderr });
    }
    drop(tx);

    let mut done_runs = 0u64;
    while let Ok(runs) = rx.recv() {
        done_runs += runs;
        meter.update(done_runs, &[]);
    }

    let mut early_exits = 0u64;
    for (i, mut w) in workers.into_iter().enumerate() {
        let status = w.child.wait().map_err(|e| format!("{label}: waiting for worker {i}: {e}"))?;
        early_exits += w.stdout.join().expect("stdout reader panicked");
        let stderr = w.stderr.join().expect("stderr reader panicked");
        if !status.success() {
            let _ = std::fs::remove_file(&w.partial);
            return Err(format!("{label}: worker {i} failed ({status}): {}", stderr.trim()));
        }
        merge_partial(&mut report, label, &prep, &w.partial, i)?;
        let _ = std::fs::remove_file(&w.partial);
    }
    if !report.is_complete() {
        return Err(format!("{label}: spawned workers left shards unexecuted"));
    }

    let stats = idle_stats(started, spec.workers, pending.len(), resumed_shards);
    let stats = PoolStats { early_exits, ..stats };
    finish(report, stats, prep, tel)
}

/// Publishes the deterministic outcome tallies (exactly as the in-process
/// pool does) and assembles the [`CampaignRun`].
fn finish(
    report: CampaignReport,
    stats: PoolStats,
    prep: PreparedCampaign,
    tel: &Telemetry,
) -> Result<CampaignRun, String> {
    tel.gauge("campaign.fault_space", prep.plan.fault_space());
    tel.gauge("campaign.golden_cycles", prep.golden.cycles());
    for (i, &count) in report.outcome_counts().iter().enumerate() {
        tel.add(&format!("campaign.outcome.{}", bec_sim::FaultClass::ALL[i].name()), count);
    }
    Ok(CampaignRun { report, stats, interval: prep.interval, golden: prep.golden })
}

fn idle_stats(
    started: Instant,
    workers: usize,
    executed_shards: usize,
    resumed_shards: usize,
) -> PoolStats {
    PoolStats {
        wall: started.elapsed(),
        workers,
        executed_shards,
        resumed_shards,
        early_exits: 0,
        batches: 0,
        batched_lanes: 0,
        forked_lanes: 0,
    }
}

/// Builds and spawns one `campaign-worker` child for `slice`.
fn spawn_worker(
    exe: &Path,
    source: &WorkerSource,
    spec: &StudySpec,
    cfg: &SpawnConfig<'_>,
    slice: &[usize],
    partial: &Path,
) -> Result<std::process::Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("campaign-worker");
    match source {
        WorkerSource::File { path } => {
            cmd.arg(path);
        }
        WorkerSource::Suite { bench, criterion } => {
            cmd.args(["--suite", bench, "--criterion", criterion]);
        }
    }
    cmd.args(["--rules", cfg.rules]);
    cmd.args(["--seed", &spec.seed.to_string()]);
    if let Some(n) = spec.sample {
        cmd.args(["--sample", &n.to_string()]);
    }
    cmd.args(["--shards", &spec.shards.to_string()]);
    cmd.args(["--workers", &spec.workers.to_string()]);
    // Workers re-derive the budget from the same inputs; the explicit
    // flag is only forwarded when the user pinned one, so a worker's
    // golden cache key matches the parent's.
    if let Some(mc) = spec.max_cycles {
        cmd.args(["--max-cycles", &mc.to_string()]);
    }
    if let Some(ci) = spec.checkpoint_interval {
        cmd.args(["--checkpoint-interval", &ci.to_string()]);
    }
    cmd.args(["--engine", spec.engine.name()]);
    if let Some(dir) = cfg.cache_dir {
        cmd.args(["--cache-dir", dir]);
    }
    let slice_arg = slice.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    cmd.args(["--slice", &slice_arg]);
    cmd.args(["--partial-out", partial.to_str().ok_or("temp path is not valid UTF-8")?]);
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.spawn().map_err(|e| format!("cannot spawn worker `{}`: {e}", exe.display()))
}

/// Parses the worker stdout protocol, forwarding per-shard run counts to
/// the meter channel; returns the worker's early-exit total from its
/// final `done` line. Unknown lines are ignored (forward compatibility).
fn drain_protocol(out: impl Read, tx: &mpsc::Sender<u64>) -> u64 {
    let mut early = 0u64;
    for line in BufReader::new(out).lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("shard") => {
                let _index = words.next();
                if let Some(runs) = words.next().and_then(|w| w.parse::<u64>().ok()) {
                    let _ = tx.send(runs);
                }
            }
            Some("done") => {
                let _executed = words.next();
                if let Some(e) = words.next().and_then(|w| w.parse::<u64>().ok()) {
                    early = e;
                }
            }
            _ => {}
        }
    }
    early
}

/// Reads one worker's partial report, validates it against the plan
/// (salt, spec, budget, per-shard fault identity) and merges its shards
/// into `report`. Overlapping shards are rejected.
fn merge_partial(
    report: &mut CampaignReport,
    label: &str,
    prep: &PreparedCampaign,
    path: &PathBuf,
    worker: usize,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{label}: worker {worker} partial {}: {e}", path.display()))?;
    let partial = CampaignReport::parse(&text)
        .map_err(|e| format!("{label}: worker {worker} partial: {e}"))?;
    partial
        .validate_resume(label, &prep.plan, prep.budget)
        .map_err(|e| format!("{label}: worker {worker} partial: {e}"))?;
    for (i, slot) in partial.shards.into_iter().enumerate() {
        let Some(result) = slot else { continue };
        if report.shards[i].is_some() {
            return Err(format!("{label}: worker {worker} partial re-executed shard {i}"));
        }
        report.shards[i] = Some(result);
    }
    Ok(())
}

/// The campaign half a worker process runs: prepared inputs re-derived
/// in-process by the caller, a slice executed via
/// [`bec_sim::run_sharded_slice`], progress printed in the parent's
/// protocol. Kept here (not in the CLI module) so the protocol's two
/// halves live side by side.
///
/// # Errors
///
/// Propagates pool errors (e.g. a slice index outside the plan).
pub fn run_worker_slice(
    program: &bec_ir::Program,
    prep: &PreparedCampaign,
    spec: &StudySpec,
    slice: &[usize],
    label: &str,
) -> Result<(CampaignReport, PoolStats), String> {
    use std::io::Write;
    let sim =
        bec_sim::Simulator::with_limits(program, bec_sim::SimLimits { max_cycles: prep.budget });
    let mut on_shard = |index: usize, runs: usize| {
        println!("shard {index} {runs}");
        let _ = std::io::stdout().flush();
    };
    bec_sim::run_sharded_slice(
        &sim,
        &prep.golden,
        &prep.ckpts,
        &prep.plan,
        spec.workers,
        slice,
        label,
        spec.engine,
        &Telemetry::disabled(),
        &mut on_shard,
    )
}

#[cfg(test)]
mod tests {
    use super::partition;

    #[test]
    fn partition_is_contiguous_and_near_equal() {
        let pending: Vec<usize> = (0..10).collect();
        let slices = partition(&pending, 3);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0], vec![0, 1, 2, 3]);
        assert_eq!(slices[1], vec![4, 5, 6]);
        assert_eq!(slices[2], vec![7, 8, 9]);
        // More workers than shards: one shard each, no empties.
        let slices = partition(&pending[..2], 8);
        assert_eq!(slices, vec![vec![0], vec![1]]);
    }
}
