//! Regenerates Table I: the cost of exhaustive fault-injection campaigns
//! (wall time and archive size of distinguishable traces).
//!
//! The paper's campaigns took hours and hundreds of gigabytes on full
//! workloads; this harness demonstrates the same cost *asymmetry* on scaled
//! workloads — the exhaustive campaign cost explodes with trace length,
//! while the BEC analysis runs once at compile time.
//!
//! The campaign here is deliberately the *naive* one the paper measures:
//! every bit of every fault-space register at every cycle, each run from
//! scratch, with no checkpoints, early exits or static pruning.
//!
//! ```text
//! cargo run -p bec-bench --release --bin table1
//! ```

use bec_core::report::{format_table, group_digits};
use bec_core::{BecAnalysis, BecOptions};
use bec_ir::{Program, Reg};
use bec_sim::{FaultSpec, GoldenRun, Simulator};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Runs, archive bytes of the distinguishable (non-golden) traces — 16
/// bytes per executed instruction, mirroring the paper's disk costs — and
/// wall time of the naive exhaustive campaign over `program`.
fn exhaustive_campaign(
    program: &Program,
    golden: &GoldenRun,
    threads: usize,
) -> (u64, u64, Duration) {
    let started = Instant::now();
    let sim = Simulator::new(program);
    let regs: Vec<Reg> = program.config.fault_regs().collect();
    let xlen = u64::from(program.config.xlen);
    let runs = golden.cycles() * regs.len() as u64 * xlen;
    let golden_digest = golden.result.hash.digest();
    // Fault `i` flips bit `i % xlen` of register `i / xlen % regs` at
    // cycle `i / (regs × xlen)`; worker `t` runs every `threads`-th fault.
    let mut traces: HashMap<u128, u64> = HashMap::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let (sim, regs) = (&sim, &regs);
                scope.spawn(move || {
                    let mut seen = HashMap::new();
                    for i in (t..runs).step_by(threads) {
                        let reg = regs[(i / xlen) as usize % regs.len()];
                        let cycle = i / xlen / regs.len() as u64;
                        let r =
                            sim.run_with_fault(FaultSpec { cycle, reg, bit: (i % xlen) as u32 });
                        let digest = r.hash.digest();
                        if digest != golden_digest {
                            seen.entry(digest).or_insert(r.cycles);
                        }
                    }
                    seen
                })
            })
            .collect();
        for w in workers {
            for (digest, cycles) in w.join().expect("campaign worker panicked") {
                traces.entry(digest).or_insert(cycles);
            }
        }
    });
    (runs, traces.values().map(|c| c * 16).sum(), started.elapsed())
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut rows = Vec::new();
    for b in bec_suite::tiny() {
        let program = b.compile().expect("benchmark compiles");
        let golden = Simulator::new(&program).run_golden();
        let (runs, trace_bytes, wall) = exhaustive_campaign(&program, &golden, threads);

        // For comparison: one BEC analysis run of the same program.
        let t0 = Instant::now();
        let _bec = BecAnalysis::analyze(&program, &BecOptions::paper());
        let analysis_time = t0.elapsed();

        rows.push(vec![
            b.name.to_owned(),
            group_digits(golden.cycles()),
            group_digits(runs),
            format!("{:.2} s", wall.as_secs_f64()),
            format!("{:.1} MB", trace_bytes as f64 / 1e6),
            format!("{:.1} ms", analysis_time.as_secs_f64() * 1e3),
        ]);
    }

    println!(
        "TABLE I: TIME AND DISK SPACE REQUIREMENTS FOR THE EXHAUSTIVE FAULT INJECTION\nCAMPAIGN (scaled workloads; the BEC analysis column shows the compile-time\nalternative's cost on the same program)\n"
    );
    let headers =
        ["Benchmark", "Cycles", "FI runs", "Campaign time", "Trace archive", "BEC analysis"];
    print!("{}", format_table(&headers, &rows));
    println!(
        "\npaper (full workloads): bitcount 0.5h/1GB, AES 2h/7GB, CRC32 7h/116GB,\nSHA 10h/100GB, RSA 50h/700GB"
    );
}
