//! Use case 1 end-to-end: run an actual fault-injection campaign with and
//! without BEC pruning on a real kernel, and show that the pruned campaign
//! reaches the same conclusions with fewer runs.
//!
//! Both campaigns run on the sharded pool that `bec campaign` uses, from
//! explicit fault lists:
//!
//! * **inject-on-read** — every bit of every value-live site at every
//!   dynamic occurrence (the paper's "Live in values");
//! * **BEC-pruned** — one representative bit per non-masked coalescing
//!   class, injected at every occurrence of its most frequent member (the
//!   paper's "Live in bits").
//!
//! ```text
//! cargo run --release --example fi_pruning
//! ```

use bec_core::{BecAnalysis, BecOptions};
use bec_sim::{
    run_sharded, CampaignReport, CampaignSpec, Engine, FaultClass, FaultSpec, ShardPlan, Simulator,
    SiteTable, SiteVerdicts, SitedFault,
};
use bec_telemetry::Telemetry;
use std::time::Duration;

fn main() {
    // A scaled-down CRC32 so the campaigns finish in seconds.
    let bench = bec_suite::crc32::scaled(2);
    let program = bench.compile().expect("compiles");
    let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
    let sim = Simulator::new(&program);
    let (golden, ckpts) = sim.run_golden_aligned();
    println!("crc32 (2 words): {} cycles, golden output {:?}\n", golden.cycles(), golden.outputs());

    let verdicts = SiteVerdicts::of(&program, &bec);
    let value: Vec<SitedFault> = SiteTable::new(&verdicts, &golden)
        .iter()
        .filter(|f| bec.functions()[f.func as usize].liveness.is_live_after(f.point, f.spec.reg))
        .collect();
    let mut bits = Vec::new();
    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        for (rep, sites) in fa.coalescing.site_classes() {
            if rep == s0 {
                continue;
            }
            // The member with the most occurrences, so every window is covered.
            let Some(site) = sites.iter().max_by_key(|s| golden.occurrences(fi, s.point).len())
            else {
                continue;
            };
            for (k, &c) in golden.occurrences(fi, site.point).iter().enumerate() {
                bits.push(SitedFault {
                    spec: FaultSpec {
                        cycle: golden.window_open_cycle(c),
                        reg: site.reg,
                        bit: site.bit,
                    },
                    func: fi as u32,
                    point: site.point,
                    occurrence: k as u32,
                    masked: false,
                });
            }
        }
    }

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let run = |label: &str, faults: Vec<SitedFault>| {
        let plan = ShardPlan::build(faults, CampaignSpec::exhaustive(64));
        let tel = Telemetry::disabled();
        run_sharded(&sim, &golden, &ckpts, &plan, threads, None, label, Engine::Bitsliced, &tel)
            .expect("fresh campaign")
    };
    let (v, v_stats) = run("inject-on-read", value);
    let (b, b_stats) = run("bec-pruned", bits);

    let show = |name: &str, r: &CampaignReport, wall: Duration| {
        let counts = r.outcome_counts();
        let g = |c: FaultClass| counts[c.index()];
        println!(
            "{name:<12} runs {:>6}  benign {:>6}  sdc {:>5}  crash {:>4}  deviation {:>4}  hang {:>3}  ({:.2}s)",
            r.runs(),
            g(FaultClass::Benign),
            g(FaultClass::Sdc),
            g(FaultClass::Crash),
            g(FaultClass::Deviation),
            g(FaultClass::Hang),
            wall.as_secs_f64()
        );
    };
    show("inject-on-read", &v, v_stats.wall);
    show("BEC-pruned", &b, b_stats.wall);

    let saved = 100.0 * (1.0 - b.runs() as f64 / v.runs() as f64);
    println!("\nruns saved by bit-level pruning: {saved:.1}%");
    // The pruned campaign must still surface every distinct failure mode.
    let effective = |r: &CampaignReport| r.runs() > r.outcome_counts()[FaultClass::Benign.index()];
    assert_eq!(effective(&v), effective(&b), "pruning must not hide failure modes");
    assert!(b.runs() < v.runs());
}
