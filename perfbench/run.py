#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the `bec` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-sampled --seed 3052 \
        --seconds 35 --trace 0

The script builds `bec` (and, for traced runs, the replay tool in
`perfbench/tracer`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), sets the workload up, measures it in a closed loop for
`--seconds` seconds (one invocation at a time), checks every output and
prints one JSON object as the last line of stdout:

* `--trace 0` drives the built `bec` binary and reports the end-to-end
  metrics (medians over the invocations of the run);
* `--trace 1` alternates untraced `bec` invocations with traced replays of
  the same workload through the layers' public functions and reports the
  per-layer split computed from the replay's Chrome trace.

Work files go to `.bench_work/<workload>/`; the last replay's trace stays
there as `trace.json`. See `perfbench/NOTES.md` for the workload choices.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 2
SHA = "examples/bench_sha.s"
STUDY_SAMPLE = 16000
STUDY_VARIANTS = 24  # 8 suite benchmarks x 3 schedules
RESUME_SAMPLE = 20000
# Order-invariant outcome totals of the exhaustive bench_sha campaign.
EXHAUSTIVE_OUTCOMES = {
    "benign": 115871,
    "deviation": 7083,
    "sdc": 149825,
    "crash": 36149,
    "hang": 0,
}
EXHAUSTIVE_MASKED = 103168
CLASSES = ("benign", "deviation", "sdc", "crash", "hang")

# Span name of the traced replay -> per-layer time metric.
LAYER_OF_SPAN = {
    "rv32.parse": "rv32.parse_s",
    "lang.compile": "lang.compile_s",
    "core.analyze": "core.analyze_s",
    "core.surface": "core.analyze_s",
    "sched.schedule": "sched.schedule_s",
    "study.verify": "study.verify_s",
    "sim.golden.record": "sim.golden.record_s",
    "sim.shard.plan": "sim.shard.plan_s",
    "sim.pool.run": "sim.pool.run_s",
    "sim.json.decode": "sim.json.decode_s",
    "sim.json.encode": "sim.json.encode_s",
}
LAYER_TIMES = sorted(set(LAYER_OF_SPAN.values()))
# Counts the replay reports that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "core.analyses",
    "core.solver_visits",
    "sched.variants",
    "sim.golden.golden_cycles",
    "sim.golden.derived",
    "sim.shard.fault_space",
    "sim.pool.runs",
    "sim.pool.batches",
    "sim.pool.batched_lanes",
    "sim.pool.forked_lanes",
    "sim.pool.early_exits",
    "sim.pool.resumed_shards",
    "sim.json.decode_bytes",
    "sim.json.encode_bytes",
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Invocation:
    """One finished child process: exit code, wall, CPU, peak RSS, stdout."""

    def __init__(self, argv, workdir, name):
        out_path = os.path.join(workdir, f"{name}.out")
        err_path = os.path.join(workdir, f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGINT, or SIGTERM via main's handler): stop
                # the child and reap it before unwinding.
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        self.err_path = err_path

    def stderr_tail(self):
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            return f.read()[-400:]


def parse_campaign_text(text):
    """Facts from `bec campaign`'s text report (digits grouped by spaces)."""
    rows = {}
    for line in text.splitlines():
        m = re.match(r"^(\S.*?)\s{2,}(\d[\d ]*)$", line.rstrip())
        if m:
            rows[m.group(1)] = int(m.group(2).replace(" ", ""))
    return {
        "runs": rows.get("runs"),
        "fault_space": rows.get("fault space (site occurrences)"),
        "outcomes": {c: rows.get(c) for c in CLASSES},
        "masked": rows.get("statically masked runs"),
        "violations": 0 if "differential check: OK" in text else 1,
    }


def parse_study_json(text):
    """Facts from `bec study --json`'s summary."""
    doc = json.loads(text)
    variants = [v for b in doc["benchmarks"] for v in b["variants"]]
    return {
        "benchmarks": len(doc["benchmarks"]),
        "runs": [v["runs"] for v in variants],
        "violations": sum(v["violations"] for v in variants),
        "coverage_ok": doc["coverage_ok"] and doc["soundness_ok"],
        # An inequivalent variant aborts the CLI with exit code 1.
        "equivalence_ok": True,
    }


def campaign_problems(facts, runs, exhaustive):
    problems = []
    if facts["violations"]:
        problems.append("soundness violations reported")
    if facts["runs"] != runs:
        problems.append(f"runs {facts['runs']} != planned {runs}")
    outcomes = facts["outcomes"]
    if None in outcomes.values() or sum(outcomes.values()) != facts["runs"]:
        problems.append(f"outcome rows do not add up to the runs: {outcomes}")
    if exhaustive:
        if facts["fault_space"] != runs:
            problems.append("exhaustive run count differs from the fault space")
        if outcomes != EXHAUSTIVE_OUTCOMES:
            problems.append(f"outcome totals {outcomes} != pinned {EXHAUSTIVE_OUTCOMES}")
        if facts["masked"] != EXHAUSTIVE_MASKED:
            problems.append(f"masked runs {facts['masked']} != pinned {EXHAUSTIVE_MASKED}")
    return problems


def study_problems(facts, sample):
    problems = []
    if facts["benchmarks"] != 8 or len(facts["runs"]) != STUDY_VARIANTS:
        problems.append(f"expected 8 benchmarks / {STUDY_VARIANTS} variants")
    if any(r != sample for r in facts["runs"]):
        problems.append(f"variant runs {facts['runs']} != planned {sample}")
    if facts["violations"]:
        problems.append("soundness violations reported")
    if not facts["coverage_ok"]:
        problems.append("coverage gate failed")
    if not facts["equivalence_ok"]:
        problems.append("equivalence gate failed")
    return problems


class Workload:
    """Commands and checks of one named workload."""

    def __init__(self, name, seed, work, release):
        self.name = name
        self.seed = seed
        self.work = work
        self.bec_path = os.path.join(release, "bec")
        self.tracer_path = os.path.join(release, "bec-perfbench-tracer")
        self.report = os.path.join(work, "R.json")
        self.report_out = os.path.join(work, "R2.json")

    def _bec(self, *args):
        return [self.bec_path] + [str(a) for a in args]

    def _campaign(self, *args):
        return self._bec("campaign", SHA, "--workers", WORKERS, *args)

    def _study(self, sample):
        return self._bec(
            "study", "--sample", sample, "--workers", WORKERS, "--seed", self.seed, "--json"
        )

    def setup_command(self):
        """The invocation that creates the workload's input (checked,
        untimed), or None."""
        if self.name == "report-resume":
            return self._campaign(
                "--sample", RESUME_SAMPLE, "--seed", self.seed, "--report", self.report
            )
        return None

    def prepare_command(self):
        """The workload's invocation reduced to its prepare phase: the same
        program and flags with a single sampled fault."""
        if self.name == "study-sampled":
            return self._study(1)
        return self._campaign("--sample", 1, "--seed", self.seed)

    def timed_command(self):
        if self.name == "study-sampled":
            return self._study(STUDY_SAMPLE)
        if self.name == "campaign-exhaustive":
            return self._campaign()
        return self._campaign(
            "--sample", RESUME_SAMPLE, "--seed", self.seed,
            "--resume", self.report, "--report", self.report_out,
        )

    def replay_command(self, trace_out):
        """The traced replay of `timed_command`: the tracer takes the same
        subcommand and flags, minus the output format."""
        args = [a for a in self.timed_command()[1:] if a != "--json"]
        return [self.tracer_path] + args + ["--trace-out", trace_out]

    def fault_runs(self):
        """Fault outcomes in the final report of one timed invocation."""
        return {
            "study-sampled": STUDY_SAMPLE * STUDY_VARIANTS,
            "campaign-exhaustive": sum(EXHAUSTIVE_OUTCOMES.values()),
            "report-resume": RESUME_SAMPLE,
        }[self.name]

    def problems(self, kind, facts):
        """Correctness problems of one invocation's facts; `kind` is
        `setup`, `prepare` or `timed`."""
        if self.name == "study-sampled":
            return study_problems(facts, 1 if kind == "prepare" else STUDY_SAMPLE)
        if kind == "prepare":
            return campaign_problems(facts, 1, exhaustive=False)
        if self.name == "campaign-exhaustive":
            return campaign_problems(facts, self.fault_runs(), exhaustive=True)
        problems = campaign_problems(facts, RESUME_SAMPLE, exhaustive=False)
        if kind == "timed" and not same_bytes(self.report, self.report_out):
            problems.append("resumed report is not byte-identical to the input report")
        return problems

    def cli_facts(self, inv):
        if self.name == "study-sampled":
            return parse_study_json(inv.stdout)
        return parse_campaign_text(inv.stdout)


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


class Ledger:
    """Attempted and failed invocations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, problems_of):
        self.attempted += 1
        try:
            problems = problems_of()
        except (ValueError, KeyError, TypeError, OSError) as e:
            problems = [f"unreadable output: {e!r}"]
        if problems:
            self.failed += 1
            log(f"{what}: FAILED: {'; '.join(problems)}")


def run_cli(workload, ledger, kind, argv, tag):
    inv = Invocation(argv, workload.work, tag)

    def problems():
        if inv.rc != 0:
            return [f"exit code {inv.rc}: {inv.stderr_tail()}"]
        return workload.problems(kind, workload.cli_facts(inv))

    ledger.check(f"{kind} {tag}", problems)
    return inv


def closed_loop(seconds, step):
    """Calls `step(i)` one at a time until `seconds` have elapsed (at least
    once; an invocation already started always completes)."""
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        step(i)
        i += 1


def self_times(trace_path):
    """Self time in seconds per span name of the main timeline, plus the
    root span's duration."""
    with open(trace_path, encoding="utf-8") as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X" and e["tid"] == 0]
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    child = [0] * len(events)
    stack = []
    for i, e in enumerate(events):
        while stack and e["ts"] >= events[stack[-1]]["ts"] + events[stack[-1]]["dur"]:
            stack.pop()
        if stack:
            child[stack[-1]] += e["dur"]
        stack.append(i)
    selfs = {}
    for e, c in zip(events, child):
        selfs[e["name"]] = selfs.get(e["name"], 0.0) + max(e["dur"] - c, 0) / 1e6
    root = sum(e["dur"] for e in events if e["name"] == "replay") / 1e6
    return selfs, root


def layer_split(trace_path, counts):
    """Per-layer self times of one replay. The scoring analysis runs inside
    `Scheduler::new`; its own wall time moves from `sched` to `core`."""
    selfs, root = self_times(trace_path)
    layers = {m: 0.0 for m in LAYER_TIMES}
    for span, secs in selfs.items():
        if span in LAYER_OF_SPAN:
            layers[LAYER_OF_SPAN[span]] += secs
    scoring = min(counts["scoring_analysis_us"] / 1e6, layers["sched.schedule_s"])
    layers["sched.schedule_s"] -= scoring
    layers["core.analyze_s"] += scoring
    return layers, root


def ratio(a, b):
    return a / b if b else 0.0


def measure_end_to_end(workload, ledger, seconds):
    prepare_walls = []
    reps = 9 if workload.name == "study-sampled" else 25
    for i in range(reps):
        inv = run_cli(workload, ledger, "prepare", workload.prepare_command(), f"prepare{i}")
        prepare_walls.append(inv.wall_s)

    timed = []
    closed_loop(
        seconds,
        lambda i: timed.append(run_cli(workload, ledger, "timed", workload.timed_command(), f"timed{i}")),
    )
    runs = workload.fault_runs()
    med = statistics.median
    return {
        "wall_s": (med(t.wall_s for t in timed), "s"),
        "setup_s": (med(prepare_walls), "s"),
        "faults_per_s": (med(runs / t.wall_s for t in timed), "1/s"),
        "cpu_s": (med(t.cpu_s for t in timed), "s"),
        "peak_rss_mb": (med(t.peak_rss_mb for t in timed), "MB"),
    }


def measure_per_layer(workload, ledger, seconds):
    untraced, traced, splits, counts_seen = [], [], [], []
    trace_out = os.path.join(workload.work, "trace.json")

    def replay(i):
        inv = Invocation(workload.replay_command(trace_out), workload.work, f"replay{i}")
        traced.append(inv.wall_s)

        def problems():
            if inv.rc != 0:
                return [f"exit code {inv.rc}: {inv.stderr_tail()}"]
            out = json.loads(inv.stdout)
            counts_seen.append(out["counts"])
            splits.append(layer_split(trace_out, out["counts"]))
            problems = workload.problems("timed", out["facts"])
            exact = {k: out["counts"][k] for k in EXACT_COUNTS}
            first = {k: counts_seen[0][k] for k in EXACT_COUNTS}
            if exact != first:
                problems.append(f"deterministic counts moved: {exact} != {first}")
            return problems

        ledger.check(f"replay {i}", problems)

    def step(i):
        untraced.append(run_cli(workload, ledger, "timed", workload.timed_command(), f"timed{i}").wall_s)
        replay(i)

    closed_loop(seconds, step)
    if not splits:
        raise SystemExit("perfbench: no traced replay succeeded")

    med = statistics.median
    c = counts_seen[0]
    layer = {m: med(s[0][m] for s in splits) for m in LAYER_TIMES}
    sums = [sum(s[0].values()) for s in splits]
    decode_s = layer["sim.json.decode_s"]
    metrics = {name: (value, "s") for name, value in layer.items()}
    metrics.update({
        "core.analyses": (c["core.analyses"], "count"),
        "core.solver_visits": (c["core.solver_visits"], "count"),
        "sched.variants": (c["sched.variants"], "count"),
        "sim.golden.golden_cycles": (c["sim.golden.golden_cycles"], "cycles"),
        "sim.golden.derived": (c["sim.golden.derived"], "count"),
        "sim.shard.fault_space": (c["sim.shard.fault_space"], "count"),
        "sim.pool.runs": (c["sim.pool.runs"], "count"),
        "sim.pool.batches": (c["sim.pool.batches"], "count"),
        "sim.pool.lanes_per_batch": (ratio(c["sim.pool.batched_lanes"], c["sim.pool.batches"]), "lanes"),
        "sim.pool.fork_ratio": (ratio(c["sim.pool.forked_lanes"], c["sim.pool.batched_lanes"]), "ratio"),
        "sim.pool.early_exit_ratio": (ratio(c["sim.pool.early_exits"], c["sim.pool.runs"]), "ratio"),
        "sim.pool.utilization": (
            med(ratio(k["sim.pool.cpu_us"], k["sim.pool.wall_us"] * max(k["sim.pool.workers"], 1))
                for k in counts_seen),
            "ratio",
        ),
        "sim.pool.resumed_shards": (c["sim.pool.resumed_shards"], "count"),
        "sim.json.decode_mb_per_s": (ratio(c["sim.json.decode_bytes"] / 1e6, decode_s), "MB/s"),
        "sim.json.encode_bytes": (c["sim.json.encode_bytes"], "bytes"),
        "cli.residual_s": (med(untraced) - med(sums), "s"),
        "trace.coverage": (med(ratio(sum(s[0].values()), s[1]) for s in splits), "ratio"),
        "trace.overhead_s": (med(traced) - med(untraced), "s"),
    })
    return metrics


def build(trace):
    cargo = ["cargo", "build", "--release", "--offline"]
    steps = [cargo + ["--bin", "bec"]]
    if trace:
        steps.append(cargo + ["--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")])
    for argv in steps:
        # Cargo's progress goes to stderr; keep stdout for the result line.
        rc = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr).returncode
        if rc != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["study-sampled", "campaign-exhaustive", "report-resume"])
    ap.add_argument("--seed", type=int, default=3052)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SystemExit(f"perfbench: no Cargo workspace at {ROOT}; run from a bec checkout")

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(args.trace)

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = Workload(args.workload, args.seed, work, os.path.join(ROOT, target, "release"))
    ledger = Ledger()
    setup = workload.setup_command()
    if setup:
        run_cli(workload, ledger, "setup", setup, "setup")

    if args.trace:
        metrics = measure_per_layer(workload, ledger, args.seconds)
    else:
        metrics = measure_end_to_end(workload, ledger, args.seconds)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
