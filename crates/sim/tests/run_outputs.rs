//! `Simulator::run_outputs` (the uninstrumented run on the decoded ops)
//! must report exactly the outcome and outputs of `Simulator::run_golden`:
//! on every suite benchmark, every `examples/*.s` program, a program that
//! traps and a run cut short by its cycle budget. Register files wider
//! than the simulator supports are rejected before any run.

use bec_ir::{parse_program, Program};
use bec_sim::{CrashKind, ExecOutcome, SimLimits, Simulator};
use std::path::Path;

fn assert_same(label: &str, program: &Program, limits: SimLimits) -> ExecOutcome {
    let sim = Simulator::with_limits(program, limits);
    let golden = sim.run_golden();
    let (outcome, outputs) = sim.run_outputs();
    assert_eq!(outcome, golden.result.outcome, "{label}: outcome");
    assert_eq!(outputs, golden.outputs(), "{label}: outputs");
    outcome
}

fn examples() -> Vec<(String, Program)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "examples missing");
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("example reads");
            (p.display().to_string(), bec_rv32::parse_asm(&text).expect("example assembles"))
        })
        .collect()
}

#[test]
fn suite_benchmarks_agree() {
    for b in bec_suite::all() {
        let program = b.compile().expect("suite benchmark compiles");
        let outcome = assert_same(b.name, &program, SimLimits::default());
        assert_eq!(outcome, ExecOutcome::Completed, "{}", b.name);
    }
}

#[test]
fn examples_agree() {
    for (label, program) in examples() {
        assert_same(&label, &program, SimLimits::default());
    }
}

#[test]
fn a_trap_agrees() {
    let program = parse_program(
        "func @main(args=0, ret=none) {\nentry:\n    li t0, 7\n    print t0\n    \
         li t1, 2147483644\n    lw t2, 0(t1)\n    print t2\n    exit\n}\n",
    )
    .unwrap();
    let outcome = assert_same("out-of-bounds load", &program, SimLimits::default());
    assert_eq!(outcome, ExecOutcome::Crashed(CrashKind::MemOutOfBounds));
}

#[test]
fn a_timeout_agrees() {
    for (label, program) in examples() {
        for max_cycles in [0, 1, 7] {
            let outcome = assert_same(&label, &program, SimLimits { max_cycles });
            assert_eq!(outcome, ExecOutcome::Timeout, "{label} at {max_cycles} cycles");
        }
    }
}

/// Register files wider than 64 never reach the simulator: the verifier
/// rejects them, naming the limit.
#[test]
fn a_register_file_wider_than_64_is_rejected() {
    let program = parse_program(
        "machine xlen=16 regs=65 zero=none\nfunc @main(args=0, ret=none) {\nentry:\n    \
         li r64, 3\n    print r64\n    exit\n}\n",
    )
    .unwrap();
    let err = bec_ir::verify_program(&program).expect_err("65 registers are rejected");
    assert!(err.to_string().contains("64-register limit"), "{err}");
}
