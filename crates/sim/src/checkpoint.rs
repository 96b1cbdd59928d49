//! Golden-run checkpoints: periodic snapshots of the executor state that
//! let a fault-injection run (a) start at the nearest checkpoint before its
//! injection cycle instead of cycle 0, and (b) stop as soon as it provably
//! re-converges with the golden run.
//!
//! A checkpoint captures the complete deterministic executor state at a
//! cycle boundary: the register file, the call stack, the control position,
//! the cycle/step counters, the running [`TraceHash`] state (FNV is
//! sequential, so the hash state at cycle *c* is a valid resume point), the
//! number of outputs emitted so far, and the memory — stored as a
//! cumulative *dirty-word image* (every word written since cycle 0, with
//! its value at capture time) plus an incremental 128-bit memory digest.
//! Restoring checkpoint *k* applies its image onto the program's initial
//! memory: O(distinct dirty words), however many stores the prefix
//! executed, and per-checkpoint storage is bounded by the program's
//! working set.
//!
//! **Convergence early-exit.** After its injection cycle, a faulted run
//! compares its state against the golden checkpoint at every
//! checkpoint-aligned cycle. Equality of *all* of (cycle, steps, control
//! position, call stack, register file, trace-hash state, memory digest,
//! output count) implies the remaining execution is identical to the golden
//! suffix — the executor is deterministic in exactly that state — so the
//! run completes with the golden hash and is classified
//! [`crate::FaultClass::Benign`] without executing the tail. The register
//! comparison is modulo *dynamically dead bits*: each checkpoint carries,
//! per register, the mask of bits the golden suffix observes before
//! overwriting them (bitwise operations propagate bit-for-bit, so e.g. an
//! `andi` keeps only the immediate's bits live in its source), and a bit
//! outside that mask is overwritten before any instruction can observe
//! it, so a lingering faulted value there cannot change the suffix. The
//! memory digest is the only probabilistic
//! component; it is 128 bits wide, and the baseline classifier already
//! trusts 128-bit trace-hash equality for the same verdict (see
//! `docs/oracle.md`).
//!
//! ```
//! use bec_sim::{FaultSpec, Simulator};
//! use bec_ir::{parse_program, Reg};
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 5
//!     li t1, 1
//!     add t1, t1, t1
//!     li t0, 7
//!     print t0
//!     exit
//! }
//! "#)?;
//! let sim = Simulator::new(&p);
//! let (golden, log) = sim.run_golden_checkpointed(2); // checkpoint every 2 cycles
//! assert!(log.is_enabled());
//! // Flip a bit of t0 while it is dead: the run converges with the golden
//! // state at a checkpoint boundary and early-exits as Benign.
//! let fault = FaultSpec { cycle: 1, reg: Reg::T0, bit: 0 };
//! let run = sim.run_with_fault_checkpointed(&golden, &log, fault);
//! assert_eq!(run.class, bec_sim::FaultClass::Benign);
//! assert!(run.converged_at.is_some());
//! assert!(run.simulated_cycles < golden.cycles());
//! # Ok::<(), bec_ir::IrError>(())
//! ```

use crate::trace::TraceHash;
use std::sync::Arc;

/// How a capturing run decides which cycle boundaries get a checkpoint.
///
/// `Uniform` is the legacy fixed grid (`bec campaign
/// --checkpoint-interval n`); checkpoint `i` sits exactly at cycle
/// `i · n`, so lookups are a division. `Aligned` is the adaptive grid the
/// default (interval-less) campaigns use: checkpoints are captured only at
/// *block-entry* cycle boundaries, starting with a small spacing that
/// doubles (thinning the recorded prefix) whenever the log would exceed
/// its size cap. Block-entry boundaries matter because machine state there
/// is invariant under in-block instruction scheduling — the property the
/// shared golden substrate (`crate::substrate`) rests on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Spacing {
    /// Fixed grid: checkpoint `i` at cycle `i · n`; 0 disables capture.
    Uniform(u64),
    /// Block-entry-aligned adaptive grid: capture at the first block-entry
    /// boundary at or after `next`, then advance `next` by `spacing`.
    Aligned {
        /// Current minimum spacing between captures, in cycles.
        spacing: u64,
        /// Next cycle at or after which a capture is due.
        next: u64,
    },
}

/// Soft cap on recorded checkpoints in aligned mode: on overflow the log
/// drops every odd-indexed checkpoint (keeping cycle 0) and doubles its
/// spacing, bounding memory at ~2× the cap for arbitrarily long traces.
const ALIGNED_CAP: usize = 128;

/// Initial spacing of an aligned log (the same floor
/// [`default_checkpoint_interval`] uses for uniform grids).
const ALIGNED_INITIAL_SPACING: u64 = 16;

/// One call-stack frame as captured in a checkpoint (also the executor's
/// runtime frame representation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSnap {
    /// Index of the decoded op to return to.
    pub ret: u32,
    /// Synthetic return-address token checked on `ret`.
    pub ra_token: u64,
}

/// A full executor snapshot at one cycle boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Cycle this checkpoint was captured at (state *before* the
    /// instruction at this cycle executes, and before any fault injected at
    /// this cycle is applied).
    pub cycle: u64,
    /// Executor step counter at the boundary (includes zero-cost jumps).
    pub(crate) steps: u64,
    /// Control position: the index of the next decoded op, canonicalized
    /// past any zero-cost jumps.
    pub(crate) pos: u32,
    /// The call stack.
    pub(crate) stack: Vec<FrameSnap>,
    /// The full register file.
    pub(crate) regs: Vec<u64>,
    /// Running trace-hash state.
    pub(crate) hash: TraceHash,
    /// Incremental memory digest (relative to the initial memory image).
    pub(crate) mem_digest: u128,
    /// Number of observable outputs emitted so far.
    pub(crate) outputs_len: u32,
    /// Cumulative memory image relative to the initial memory: every word
    /// written since cycle 0, with its value at capture time, sorted by
    /// word index. Restoring applies exactly these words onto the initial
    /// image — O(distinct dirty words), independent of how many stores the
    /// prefix executed. Shared, not copied, by the logs the golden
    /// substrate derives.
    pub(crate) mem_image: Arc<[(u32, u32)]>,
    /// Per-register mask of the *bits* the golden suffix from this cycle
    /// observes before overwriting (per-bit dynamic liveness, filled in by
    /// a backward pass after the recording run; one entry per register).
    /// A faulted bit outside its register's mask is overwritten before it
    /// can influence anything, so the convergence check may ignore it.
    /// Initialized to all-ones (exact comparison) until the pass runs.
    pub(crate) live_bits: Vec<u64>,
}

/// The checkpoint sequence of one golden run, plus the run's terminal
/// counters (needed to prove that a converged faulted run would also have
/// finished within its own budget).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointLog {
    /// The capture policy this log was (or is being) recorded under.
    pub(crate) spacing: Spacing,
    /// Recorded checkpoints, in cycle order. Uniform: checkpoint `i` is at
    /// cycle `i · n`. Aligned: cycles are block-entry boundaries, looked up
    /// by binary search.
    pub(crate) checkpoints: Vec<Checkpoint>,
    /// Total cycles of the recorded golden run.
    pub(crate) final_cycles: u64,
    /// Final step-counter value of the recorded golden run.
    pub(crate) final_steps: u64,
    /// Whether the recorded golden run completed (vs trapped / timed out).
    pub(crate) completed: bool,
}

impl CheckpointLog {
    /// A log that records checkpoints every `interval` cycles (pass 0 to
    /// disable). Filled by `Simulator::run_golden_checkpointed`.
    pub(crate) fn new(interval: u64) -> CheckpointLog {
        CheckpointLog {
            spacing: Spacing::Uniform(interval),
            checkpoints: Vec::new(),
            final_cycles: 0,
            final_steps: 0,
            completed: false,
        }
    }

    /// An adaptive block-entry-aligned log (see [`Spacing::Aligned`]):
    /// captures at block-entry cycle boundaries starting from cycle 0,
    /// doubling its spacing whenever [`ALIGNED_CAP`] checkpoints would be
    /// exceeded. Filled by `Simulator::run_golden_aligned`.
    pub(crate) fn aligned() -> CheckpointLog {
        CheckpointLog {
            spacing: Spacing::Aligned { spacing: ALIGNED_INITIAL_SPACING, next: 0 },
            ..CheckpointLog::new(0)
        }
    }

    /// The empty, disabled log: fault runs fall back to from-scratch
    /// execution with no convergence checks.
    pub fn disabled() -> CheckpointLog {
        CheckpointLog::new(0)
    }

    /// Whether this log's policy records checkpoints at all (independent of
    /// whether any were recorded yet).
    pub(crate) fn captures(&self) -> bool {
        !matches!(self.spacing, Spacing::Uniform(0))
    }

    /// Whether this log can actually accelerate fault runs.
    pub fn is_enabled(&self) -> bool {
        self.captures() && !self.checkpoints.is_empty()
    }

    /// The characteristic checkpoint spacing in cycles (0 = disabled). For
    /// an aligned log this is the *current minimum* spacing — captures sit
    /// at the first block-entry boundary at or after each multiple, so the
    /// realized gaps may be slightly wider.
    pub fn interval(&self) -> u64 {
        match self.spacing {
            Spacing::Uniform(n) => n,
            Spacing::Aligned { spacing, .. } => spacing,
        }
    }

    /// Number of recorded checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether no checkpoint was recorded.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Total dirty words stored across all checkpoint images (storage
    /// accounting).
    pub fn delta_words(&self) -> u64 {
        self.checkpoints.iter().map(|c| c.mem_image.len() as u64).sum()
    }

    /// Whether the capturing run owes a checkpoint at this cycle boundary
    /// (`at_block_entry` is consulted lazily, aligned mode only).
    pub(crate) fn capture_due(&self, cycle: u64, at_block_entry: impl FnOnce() -> bool) -> bool {
        match self.spacing {
            Spacing::Uniform(0) => false,
            Spacing::Uniform(n) => cycle == self.checkpoints.len() as u64 * n,
            Spacing::Aligned { next, .. } => cycle >= next && at_block_entry(),
        }
    }

    /// Advances the aligned capture policy after a checkpoint was pushed at
    /// `cycle`: schedules the next capture one spacing ahead and, when the
    /// cap is exceeded, drops every odd-indexed checkpoint (cycle 0 stays)
    /// and doubles the spacing.
    pub(crate) fn note_captured(&mut self, cycle: u64) {
        let Spacing::Aligned { mut spacing, .. } = self.spacing else { return };
        if self.checkpoints.len() > ALIGNED_CAP {
            let mut i = 0usize;
            self.checkpoints.retain(|_| {
                let keep = i.is_multiple_of(2);
                i += 1;
                keep
            });
            spacing *= 2;
        }
        self.spacing = Spacing::Aligned { spacing, next: cycle + spacing };
    }

    /// Index of the latest checkpoint at or before `cycle`.
    pub(crate) fn nearest_at_or_before(&self, cycle: u64) -> usize {
        debug_assert!(self.is_enabled());
        match self.spacing {
            Spacing::Uniform(n) => ((cycle / n) as usize).min(self.checkpoints.len() - 1),
            // Aligned logs always open with a cycle-0 checkpoint, so the
            // partition point is at least 1.
            Spacing::Aligned { .. } => {
                self.checkpoints.partition_point(|c| c.cycle <= cycle).max(1) - 1
            }
        }
    }
}

/// A sensible default checkpoint interval for a golden run of `cycles`
/// instructions: about 64 checkpoints, but never denser than one every 16
/// cycles (below that, the per-boundary capture/compare cost outweighs the
/// saved re-execution on the tiny traces it would apply to).
pub fn default_checkpoint_interval(cycles: u64) -> u64 {
    (cycles / 64).max(16)
}

/// Mixes one `(word index, word value)` pair into a 128-bit contribution
/// for the incremental memory digest. The digest of a memory image is the
/// XOR of `mem_mix` over its words *relative to the initial image*: it
/// starts at 0 and every store folds out the old word and folds in the new
/// one, so maintaining it is O(1) per store and no full-memory scan is ever
/// needed (all runs of one program share the same initial image).
pub(crate) fn mem_mix(widx: u32, word: u32) -> u128 {
    // SplitMix64 finalizer over two different seeds of the packed pair.
    fn fin(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let packed = (widx as u64) << 32 | word as u64;
    let hi = fin(packed ^ 0x9e37_79b9_7f4a_7c15);
    let lo = fin(packed.wrapping_add(0x6a09_e667_f3bc_c909));
    (hi as u128) << 64 | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_interval_scales_with_trace_length() {
        assert_eq!(default_checkpoint_interval(0), 16);
        assert_eq!(default_checkpoint_interval(100), 16);
        assert_eq!(default_checkpoint_interval(6400), 100);
        assert_eq!(default_checkpoint_interval(1 << 20), (1 << 20) / 64);
    }

    #[test]
    fn mem_mix_separates_address_and_value() {
        assert_ne!(mem_mix(0, 0), 0);
        assert_ne!(mem_mix(0, 1), mem_mix(1, 0));
        assert_ne!(mem_mix(7, 42), mem_mix(42, 7));
        // Folding a word out cancels exactly.
        let d = mem_mix(3, 5) ^ mem_mix(3, 9);
        assert_eq!(d ^ mem_mix(3, 5), mem_mix(3, 9));
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = CheckpointLog::disabled();
        assert!(!log.is_enabled());
        assert_eq!(log.interval(), 0);
        assert_eq!(log.delta_words(), 0);
    }

    fn ck(cycle: u64) -> Checkpoint {
        Checkpoint {
            cycle,
            steps: 0,
            pos: 0,
            stack: Vec::new(),
            regs: Vec::new(),
            hash: TraceHash::new(),
            mem_digest: 0,
            outputs_len: 0,
            mem_image: Arc::new([]),
            live_bits: Vec::new(),
        }
    }

    #[test]
    fn aligned_capture_waits_for_block_entries() {
        let mut log = CheckpointLog::aligned();
        assert!(log.captures());
        // Due immediately, but only at a block-entry boundary.
        assert!(!log.capture_due(0, || false));
        assert!(log.capture_due(0, || true));
        log.checkpoints.push(ck(0));
        log.note_captured(0);
        // Next capture one spacing ahead — not before, even at block entry.
        assert!(!log.capture_due(ALIGNED_INITIAL_SPACING - 1, || true));
        // At or *after* the due cycle: the first block entry wins.
        assert!(log.capture_due(ALIGNED_INITIAL_SPACING + 3, || true));
        log.checkpoints.push(ck(ALIGNED_INITIAL_SPACING + 3));
        log.note_captured(ALIGNED_INITIAL_SPACING + 3);
        assert_eq!(log.interval(), ALIGNED_INITIAL_SPACING);
        assert_eq!(
            log.spacing,
            Spacing::Aligned {
                spacing: ALIGNED_INITIAL_SPACING,
                next: 2 * ALIGNED_INITIAL_SPACING + 3
            }
        );
    }

    #[test]
    fn aligned_log_thins_and_doubles_on_overflow() {
        let mut log = CheckpointLog::aligned();
        for i in 0..=(ALIGNED_CAP as u64 + 1) {
            log.checkpoints.push(ck(i * ALIGNED_INITIAL_SPACING));
            log.note_captured(i * ALIGNED_INITIAL_SPACING);
        }
        // The overflow push triggered thinning: even indices survive, the
        // cycle-0 checkpoint stays, spacing doubles (one more push landed
        // after the thin).
        assert_eq!(log.len(), ALIGNED_CAP / 2 + 2);
        assert_eq!(log.checkpoints[0].cycle, 0);
        assert_eq!(log.checkpoints[1].cycle, 2 * ALIGNED_INITIAL_SPACING);
        assert_eq!(log.interval(), 2 * ALIGNED_INITIAL_SPACING);
    }

    #[test]
    fn aligned_lookups_binary_search_irregular_grids() {
        let mut log = CheckpointLog::aligned();
        for &c in &[0u64, 17, 40, 99] {
            log.checkpoints.push(ck(c));
            log.note_captured(c);
        }
        assert!(log.is_enabled());
        assert_eq!(log.nearest_at_or_before(0), 0);
        assert_eq!(log.nearest_at_or_before(16), 0);
        assert_eq!(log.nearest_at_or_before(17), 1);
        assert_eq!(log.nearest_at_or_before(64), 2);
        assert_eq!(log.nearest_at_or_before(1000), 3);
    }
}
