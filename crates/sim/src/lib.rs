//! ISA-level simulator with single-bit fault injection — the reproduction's
//! stand-in for the paper's instrumented SPIKE RISC-V simulator (§V).
//!
//! The simulator executes [`bec_ir::Program`]s cycle by cycle, records an
//! execution trace (executed instructions, register/memory side effects,
//! observable outputs), and can flip one register bit at a chosen cycle —
//! the paper's single-event-upset model. On top of it sit:
//!
//! * [`shard`] + [`pool`] — the sharded campaign engine: the statically
//!   classified fault space partitioned into work-stealing shards executed
//!   on a thread pool, with seeded sampling and a resumable JSON
//!   [`CampaignReport`] that doubles as a differential soundness oracle
//!   (statically-masked faults must be observed benign);
//! * [`checkpoint`] — periodic golden-run checkpoints: fault runs start at
//!   the nearest checkpoint before their injection cycle and early-exit as
//!   soon as they provably re-converge with the golden run, making
//!   exhaustive campaigns several times cheaper at byte-identical reports;
//! * [`study`] — the scheduled-variant reliability study engine: one
//!   differential campaign per program variant, aggregated into a
//!   resumable, Table IV-style [`StudyReport`] with a static-verdict ×
//!   dynamic-outcome cross-table per variant;
//! * [`substrate`] — the variant-shared golden substrate: the baseline's
//!   golden run, aligned checkpoints and event streams recorded once per
//!   benchmark, with every scheduled variant's campaign inputs *derived*
//!   through the schedule permutation instead of re-simulated;
//! * [`validate`] — the empirical soundness validation of §V / Table II:
//!   fault sites in one equivalence class must produce identical traces.
//!
//! ```
//! use bec_sim::{Simulator, FaultSpec};
//! use bec_ir::{parse_program, Reg};
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 40
//!     addi t0, t0, 2
//!     print t0
//!     exit
//! }
//! "#)?;
//! let sim = Simulator::new(&p);
//! let golden = sim.run_golden();
//! assert_eq!(golden.outputs(), &[42]);
//! // Flip bit 0 of t0 right after the li: the print observes 43.
//! let run = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 0 });
//! assert_eq!(run.outputs(), &[43]);
//! # Ok::<(), bec_ir::IrError>(())
//! ```

pub mod bitslice;
pub mod checkpoint;
pub mod exec;
pub mod fuzz;
pub mod json;
pub mod machine;
pub mod minimize;
pub mod pool;
pub mod runner;
pub mod shard;
pub mod study;
pub mod substrate;
pub mod trace;
pub mod validate;

pub use bitslice::Engine;
pub use checkpoint::{default_checkpoint_interval, Checkpoint, CheckpointLog};
pub use exec::{CrashKind, ExecOutcome};
pub use fuzz::{run_fuzz, FuzzFinding, FuzzReport, FuzzSpec};
pub use machine::{FaultSpec, Machine, Memory};
pub use minimize::{Minimized, Minimizer, Oracle, Witness};
pub use pool::{run_sharded, PoolStats};
pub use runner::{FaultRun, GoldenRun, Injector, RunResult, SimLimits, Simulator};
pub use shard::{
    site_fault_space, CampaignReport, CampaignSpec, FaultOutcome, ShardPlan, ShardResult,
    SiteTable, SiteVerdicts, SitedFault,
};
pub use study::{CrossTable, PreparedCampaign, SharedGolden, StudyReport, StudySpec};
pub use substrate::{DerivedGolden, GoldenSubstrate};
pub use trace::{FaultClass, TraceHash};
pub use validate::{validate_program, Mismatch, MismatchKind, ValidationReport};
