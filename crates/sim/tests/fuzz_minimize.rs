//! The fuzzing engine and the delta-debugging minimizer, end to end.
//!
//! The demonstration oracle ([`Oracle::AssumeAllMasked`]) plays a
//! deliberately unsound analysis — every accessed site bit claimed masked —
//! which guarantees findings on any program whose faults are observable.
//! That exercises the full violation pipeline (witness search, shrinking,
//! reproducer emission) without needing a real soundness bug, while the
//! real-oracle tests assert the pipeline stays silent on the sound
//! analysis.

use bec_core::BecOptions;
use bec_fuzzgen::{generate, GenConfig};
use bec_ir::{parse_program, verify_program};
use bec_sim::{run_fuzz, Engine, FaultClass, FuzzSpec, Minimizer, Oracle, Simulator, StudySpec};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bec-fuzz-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn minimizer_shrinks_demo_violation_to_a_small_reproducer() {
    let g = generate(0xD3ADB33F, &GenConfig::full());
    let options = BecOptions::paper();
    let minimizer = Minimizer::new(&options, Oracle::AssumeAllMasked);
    let m = minimizer.minimize(&g.program).expect("demo oracle guarantees a violation");
    assert!(
        m.instructions <= 20,
        "reproducer still has {} instructions (from {}):\n{}",
        m.instructions,
        m.initial_instructions,
        m.source
    );
    assert!(m.instructions <= m.initial_instructions);
    assert!(m.shrinks > 0, "a full-profile program must admit at least one shrink");

    // The violation predicate survives the shrinking: the minimized
    // program still violates, with the recorded witness.
    let again = minimizer.find_violation(&m.program).expect("violation preserved");
    assert_eq!(again, m.witness);
    assert_ne!(m.witness.observed, FaultClass::Benign);
}

#[test]
fn minimization_is_deterministic() {
    let g = generate(0xCAFE, &GenConfig::full());
    let options = BecOptions::paper();
    let minimizer = Minimizer::new(&options, Oracle::AssumeAllMasked);
    let a = minimizer.minimize(&g.program).expect("violation");
    let b = minimizer.minimize(&g.program).expect("violation");
    assert_eq!(a.source, b.source);
    assert_eq!(a.witness, b.witness);
    assert_eq!((a.candidates, a.shrinks), (b.candidates, b.shrinks));
}

#[test]
fn reproducer_round_trips_and_replays() {
    let g = generate(0xB00, &GenConfig::full());
    let options = BecOptions::paper();
    let minimizer = Minimizer::new(&options, Oracle::AssumeAllMasked);
    let m = minimizer.minimize(&g.program).expect("violation");

    // The reproducer file — comment header included — parses, verifies,
    // and reproduces the program the witness was recorded on.
    let text = m.reproducer();
    let p = parse_program(&text).expect("reproducer parses");
    verify_program(&p).expect("reproducer verifies");
    assert_eq!(p, m.program, "comment header must not change the program");

    // Replaying the witness fault through the plain simulator (what
    // `bec sim <file> --fault cycle:reg:bit` does) observes the recorded
    // non-benign class.
    let sim = Simulator::new(&p);
    let golden = sim.run_golden();
    let run = sim.run_with_fault(m.witness.fault);
    assert_eq!(run.classify(&golden.result), m.witness.observed);
}

#[test]
fn fuzzing_the_real_analysis_finds_nothing() {
    let spec = FuzzSpec {
        campaign: StudySpec { seed: 0xF002, sample: Some(64), shards: 8, ..StudySpec::default() },
        budget: 3,
        class_checks: 4,
        ..FuzzSpec::default()
    };
    let report = run_fuzz(&spec, &BecOptions::paper(), None).expect("campaigns run");
    assert!(report.is_clean(), "sound analysis produced findings: {:?}", report.findings);
    assert_eq!(report.programs, 3);
    assert!(report.campaign_runs > 0);
    assert!(report.class_probes > 0, "full-profile programs have multi-member classes");
    assert_eq!(report.outcome_counts.iter().sum::<u64>(), report.campaign_runs);
}

#[test]
fn findings_log_is_invariant_under_workers_and_engine() {
    let base = FuzzSpec {
        campaign: StudySpec { seed: 0xF003, sample: Some(48), shards: 8, ..StudySpec::default() },
        budget: 2,
        class_checks: 3,
        ..FuzzSpec::default()
    };
    let reference = run_fuzz(&base, &BecOptions::paper(), None).unwrap().to_json().render();
    for (workers, engine) in [(4, Engine::Bitsliced), (1, Engine::Scalar), (3, Engine::Scalar)] {
        let spec =
            FuzzSpec { campaign: StudySpec { workers, engine, ..base.campaign }, ..base.clone() };
        let got = run_fuzz(&spec, &BecOptions::paper(), None).unwrap().to_json().render();
        assert_eq!(got, reference, "log bytes moved under workers={workers} engine={engine:?}");
    }
}

#[test]
fn demo_oracle_produces_minimized_corpus_deterministically() {
    let spec = FuzzSpec {
        campaign: StudySpec { seed: 0xF004, ..FuzzSpec::default().campaign },
        budget: 2,
        minimize: true,
        oracle: Oracle::AssumeAllMasked,
        ..FuzzSpec::default()
    };
    let dir_a = temp_dir("corpus-a");
    let dir_b = temp_dir("corpus-b");
    let a = run_fuzz(&spec, &BecOptions::paper(), Some(&dir_a)).unwrap();
    let b = run_fuzz(&spec, &BecOptions::paper(), Some(&dir_b)).unwrap();

    assert!(!a.is_clean(), "the unsound demo oracle must produce findings");
    for f in &a.findings {
        let m = f.minimized.as_ref().expect("first finding per program is minimized");
        assert!(m.instructions <= 20, "{} instructions", m.instructions);
    }

    // The corpus round-trips: both directories hold byte-identical files.
    let mut names: Vec<String> = std::fs::read_dir(&dir_a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.contains(&"findings.json".to_owned()));
    assert!(names.contains(&"fuzz-0000.bec".to_owned()));
    assert!(names.contains(&"fuzz-0000.min.bec".to_owned()));
    let mut names_b: Vec<String> = std::fs::read_dir(&dir_b)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names_b.sort();
    assert_eq!(names, names_b);
    for name in &names {
        let bytes_a = std::fs::read(dir_a.join(name)).unwrap();
        let bytes_b = std::fs::read(dir_b.join(name)).unwrap();
        assert_eq!(bytes_a, bytes_b, "{name} differs between identical sessions");
    }
    assert_eq!(a.to_json().render(), b.to_json().render());
    assert_eq!(std::fs::read_to_string(dir_a.join("findings.json")).unwrap(), a.to_json().render());

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
