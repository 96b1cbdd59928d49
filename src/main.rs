//! `bec` — the command-line driver of the BEC reproduction.
//!
//! Reads RV32I assembly (`.s`, via [`bec_rv32::parse_asm`]) or the
//! block-structured IR dialect (`.bec`/`.ir`, via
//! [`bec_ir::parse_program`]) and runs the paper's analyses on it:
//!
//! ```text
//! bec analyze  file.s              fault-site / coalescing report
//! bec prune    file.s              fault-injection pruning (Table III row)
//! bec schedule file.s              vulnerability-aware rescheduling
//! bec sim      file.s              execute (optionally with a bit flip)
//! bec campaign file.s              sharded differential fault campaign
//! bec study                        scheduled-variant reliability study
//!                                  over the built-in benchmark suite
//! bec encode   file.s              RV32I machine-code emission
//! ```
//!
//! Every command accepts `--json` for machine-readable output.

mod cli;

use std::process::ExitCode;

const USAGE: &str = "\
bec — bit-level soft-error reliability analysis (BEC, CGO 2024)

USAGE:
    bec <COMMAND> [OPTIONS] <FILE>

COMMANDS:
    analyze    BEC analysis: fault sites, equivalence classes, masked bits
    prune      fault-injection pruning report (paper Table III)
    schedule   vulnerability-aware instruction scheduling (paper Table IV)
    sim        execute the program (optionally injecting one bit flip)
    campaign   sharded fault-injection campaign, cross-checked against the
               static analysis (statically-masked fault observed corrupting
               the run ⇒ soundness violation, exit 1)
    study      scheduled-variant reliability study over the built-in suite
               benchmarks: baseline + one schedule per criterion from ONE
               shared analysis, a differential campaign per variant, and a
               Table IV-style report (gate failures ⇒ exit 1)
    fuzz       differential fuzzing: generated seeded programs fed through
               the analyze → campaign → cross-check loop; any finding is a
               soundness bug (findings ⇒ exit 1)
    encode     emit RV32I machine code

INPUT:
    *.s / *.asm        standard RV32I assembly (bec-rv32 frontend)
    *.bec / *.ir       block-structured IR dialect (bec-ir parser)
    anything else      sniffed by content
    (`bec study` and `bec fuzz` take no file: their subjects are the
    built-in benchmarks and generated programs respectively)

COMMON OPTIONS:
    --json                     machine-readable JSON on stdout
    --rules <paper|extended|branches-only>
                               coalescing rule set (default: paper)

COMMAND OPTIONS:
    schedule: --criterion <best|worst|original>   (default: best)
              --emit-asm                          print the scheduled program
    sim:      --fault <cycle>:<reg>:<bit>         single-event upset to inject
              --max-cycles <N>                    execution budget
              --checkpoint-interval <N>           replay the fault from the
                                                  nearest golden checkpoint
    campaign: --sample <N>                        seeded sub-exhaustive sample
                                                  (default: exhaustive)
              --seed <S>                          sampling seed (default 3052)
              --shards <N>                        work shards (default 64)
              --workers <N>                       threads (default: all cores)
              --report <PATH>                     write the JSON report
              --resume <PATH>                     resume an interrupted report
              --max-cycles <N>                    per-run execution budget
              --checkpoint-interval <N>           checkpoint spacing in cycles
                                                  (0 = from-scratch engine;
                                                  default: trace length / 64)
              --engine <scalar|bitsliced>         per-fault execution engine
                                                  (default: bitsliced; never
                                                  changes the report bytes)
    study:    --bench <NAME[,NAME]>               benchmarks to study (repeat
                                                  or comma-separate; default:
                                                  all eight suite benchmarks)
              --sample/--seed/--shards/--workers/--report/--resume/
              --max-cycles/--checkpoint-interval/
              --engine                            as for campaign, applied to
                                                  every variant campaign
    fuzz:     --seed <S>                          master seed (default 3052)
              --budget <N>                        programs to generate
                                                  (default 16)
              --profile <tiny|full>               generator profile
                                                  (default: full surface)
              --sample/--exhaustive/--shards/
              --workers/--engine                  as for campaign, applied to
                                                  every per-program campaign
              --class-checks <N>                  class-equivalence probes per
                                                  program (default 8)
              --corpus-dir <DIR>                  persist programs, findings
                                                  log and reproducers
              --minimize                          shrink findings to minimal
                                                  replayable reproducers
              --demo-unsound                      swap in the deliberately
                                                  unsound oracle (guaranteed
                                                  findings; demonstrates the
                                                  minimizer pipeline)
    encode:   --base <ADDR>                       text base address, decimal or
                                                  0x-prefixed hex (default 0)
              --raw                               bare hex words, one per line
";

/// Restores the default `SIGPIPE` disposition so `bec encode | head`
/// terminates quietly like any other Unix filter instead of panicking on
/// the closed pipe (Rust's runtime ignores `SIGPIPE` by default).
#[cfg(unix)]
fn reset_sigpipe() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGPIPE = 13 and SIG_DFL = 0 on every Unix Rust supports.
    unsafe {
        signal(13, 0);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(cli::CliError::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(cli::CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
