//! Plan-equivalence contract of campaign planning: the plan
//! [`SiteTable::plan`] builds from the per-point site table — drawing
//! sampled faults by decoding their canonical indices — equals the plan
//! [`ShardPlan::build`] makes from the fully collected fault space, in
//! faults, shard bounds and fault-space size, for sampled, boundary and
//! exhaustive sizes alike. Report bytes follow from the plan, so this is
//! what keeps sampled reports byte-identical.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::shard::{CampaignSpec, ShardPlan, SiteTable};
use bec_sim::{ExecOutcome, Simulator, SiteVerdicts};

const SEEDS: [u64; 2] = [3052, 60607];
const SHARDS: [u32; 3] = [1, 7, 64];

/// Asserts `got` and `want` plan the same faults into the same shards.
fn assert_same_plan(what: &str, got: &ShardPlan, want: &ShardPlan) {
    assert_eq!(got.fault_space(), want.fault_space(), "{what}: fault space");
    assert_eq!(got.runs(), want.runs(), "{what}: runs");
    assert_eq!(got.shard_count(), want.shard_count(), "{what}: shard count");
    for i in 0..want.shard_count() {
        let (g, w) = (got.shard(i), want.shard(i));
        assert_eq!(g.len(), w.len(), "{what}: bounds of shard {i}");
        if let Some(k) = (0..w.len()).find(|&k| g[k] != w[k]) {
            panic!("{what}: shard {i} fault {k}: {:?} != {:?}", g[k], w[k]);
        }
    }
}

/// Checks every sample size, seed and shard count of the contract on
/// `program`.
fn assert_plans_match(label: &str, program: &Program) {
    let golden = Simulator::new(program).run_golden();
    assert_eq!(golden.result.outcome, ExecOutcome::Completed, "{label}: golden completes");
    let verdicts = SiteVerdicts::of(program, &BecAnalysis::analyze(program, &BecOptions::paper()));
    let table = SiteTable::new(&verdicts, &golden);
    let space = verdicts.fault_space(&golden);
    let len = space.len() as u64;
    assert_eq!(table.len(), len, "{label}: table size");
    assert!(len > 64, "{label}: a space of {len} faults cannot exercise the sizes");
    for sample in [1, 64, 16_000, len - 1, len, len + 1] {
        for seed in SEEDS {
            for shards in SHARDS {
                let spec = CampaignSpec::sampled(seed, sample, shards);
                let what = format!("{label} sample {sample} seed {seed} shards {shards}");
                assert_same_plan(&what, &table.plan(spec), &ShardPlan::build(space.clone(), spec));
            }
        }
    }
    for shards in SHARDS {
        let spec = CampaignSpec::exhaustive(shards);
        let what = format!("{label} exhaustive shards {shards}");
        assert_same_plan(&what, &table.plan(spec), &ShardPlan::build(space.clone(), spec));
    }
}

/// One test per program, so the harness spreads the slow `space − 1`
/// samples over its threads.
macro_rules! plan_tests {
    (suite: $($bench:ident),*; examples: $($example:ident),*;) => {
        mod suite {
            $(
                #[test]
                fn $bench() {
                    let b = bec_suite::benchmark(stringify!($bench)).expect("suite benchmark");
                    super::assert_plans_match(b.name, &b.compile().expect("compiles"));
                }
            )*
        }

        mod examples {
            $(
                #[test]
                fn $example() {
                    let path = format!("{}/{}.s", super::EXAMPLES, stringify!($example));
                    let text = std::fs::read_to_string(&path).expect("example readable");
                    let program = bec_rv32::parse_asm(&text).expect("example assembles");
                    super::assert_plans_match(&path, &program);
                }
            )*
        }

        #[test]
        fn every_program_is_covered() {
            let mut suite: Vec<_> = bec_suite::all().iter().map(|b| b.name).collect();
            suite.sort_unstable();
            let mut want = vec![$(stringify!($bench)),*];
            want.sort_unstable();
            assert_eq!(suite, want, "suite benchmarks without a plan test");
            let mut examples: Vec<_> = std::fs::read_dir(EXAMPLES)
                .expect("examples directory")
                .map(|e| e.expect("directory entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "s"))
                .map(|p| p.file_stem().expect("file name").to_string_lossy().into_owned())
                .collect();
            examples.sort_unstable();
            let mut want = vec![$(stringify!($example)),*];
            want.sort_unstable();
            assert_eq!(examples, want, "examples/*.s without a plan test");
        }
    };
}

const EXAMPLES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");

plan_tests! {
    suite: bitcount, dijkstra, crc32, adpcm_enc, adpcm_dec, aes, rsa, sha;
    examples: bench_bitcount, bench_crc32, bench_sha, countyears, gcd, memcopy;
}
