//! The one-pass OR-mask fault surface (`bec_core::surface::function_surface`)
//! against the retained set-based algorithm
//! (`bec_core::reference::function_surface`): every function of every suite
//! benchmark under every schedule, every `examples/*.s` program and
//! generated programs on the 8-bit and the 16-bit machine must get the same
//! count.
//!
//! Each function is weighted twice: every point once, and every point by a
//! pseudo-random weight that is zero for some points, so a point counted
//! differently by the two algorithms cannot hide in the total.

use bec_core::{reference, surface, BecAnalysis, BecOptions};
use bec_fuzzgen::{generate, GenConfig};
use bec_ir::{PointId, Program};
use bec_sched::Scheduler;
use std::path::Path;

/// A pseudo-random point weight in `0..1024` (a multiplicative hash of the
/// point index).
fn weight(p: PointId) -> u64 {
    (u64::from(p.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54
}

fn assert_same_surface(label: &str, program: &Program, options: &BecOptions) {
    let bec = BecAnalysis::analyze(program, options);
    for (fi, fa) in bec.functions().iter().enumerate() {
        let f = &program.functions[fi];
        let once = |_: PointId| 1;
        assert_eq!(
            surface::function_surface(program, f, fa, once),
            reference::function_surface(program, f, fa, once),
            "{label} @{}: every point once",
            f.name
        );
        assert_eq!(
            surface::function_surface(program, f, fa, weight),
            reference::function_surface(program, f, fa, weight),
            "{label} @{}: weighted points",
            f.name
        );
    }
}

#[test]
fn suite_benchmarks_under_every_schedule() {
    let options = BecOptions::paper();
    for b in bec_suite::all() {
        let program = b.compile().expect("suite benchmark compiles");
        for variant in Scheduler::new(&program, &options).variants() {
            let label = format!("{}/{}", b.name, variant.criterion.name());
            assert_same_surface(&label, &variant.program, &options);
        }
    }
}

#[test]
fn examples() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "examples missing");
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("example reads");
        let program = bec_rv32::parse_asm(&text).expect("example assembles");
        let label = path.display().to_string();
        assert_same_surface(&label, &program, &BecOptions::paper());
        assert_same_surface(&label, &program, &BecOptions::extended());
    }
}

#[test]
fn generated_programs() {
    for seed in 0..24 {
        for (shape, cfg) in [("tiny", GenConfig::tiny()), ("full", GenConfig::full())] {
            let g = generate(seed, &cfg);
            assert_same_surface(&format!("{shape} seed {seed}"), &g.program, &BecOptions::paper());
        }
    }
}
