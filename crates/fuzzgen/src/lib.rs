//! Seeded, always-terminating random program generator over the IR surface
//! — the case source of the differential fuzzing engine (`bec fuzz`) and of
//! the random-soundness property tests.
//!
//! [`generate`] draws a program from a deterministic [`bec_testutil::Rng`]:
//! the same `(seed, config)` pair produces byte-identical source text on
//! any host, so every finding is replayable from its seed alone. Programs
//! cover multi-block control flow (if/else diamonds), counted loops,
//! function calls, loads/stores into a scratch `.data` global and printed
//! (signature-protected) outputs — the full surface the BEC analysis
//! claims verdicts on.
//!
//! Termination is guaranteed by construction, not by budget: the only
//! back-edges are counted-loop latches whose counter register is *reserved*
//! while the loop body is generated (no generated instruction can overwrite
//! it), decremented exactly once per trip, and started at a bounded trip
//! count; calls only target leaf helpers generated before `main`, so the
//! call graph is acyclic and call depth is ≤ 1. Memory accesses are
//! width-aligned constant offsets into an in-bounds scratch global computed
//! from a fresh `la`, so the golden run can neither fault nor wander.
//!
//! The generator also respects the ABI discipline the analysis's
//! interprocedural model assumes: caller-saved registers are considered
//! clobbered (undefined) after every call and never read before being
//! rewritten, loop counters that must survive calls live in callee-saved
//! registers, and helper bodies never touch `ra` or callee-saved registers.
//!
//! ```
//! use bec_fuzzgen::{generate, GenConfig};
//!
//! let a = generate(7, &GenConfig::full());
//! let b = generate(7, &GenConfig::full());
//! assert_eq!(a.source, b.source);
//! assert!(a.program.functions.len() >= 1);
//! ```

use bec_ir::{parse_program, verify_program, Program};
use bec_testutil::Rng;
use std::collections::BTreeSet;

/// Shape of the generated programs. Start from [`GenConfig::tiny`] or
/// [`GenConfig::full`] and override fields as needed.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Register width in bits. Memory-enabled configs need `xlen ≥ 13`:
    /// the data region starts at `0x1000` and small machines only address
    /// `2^xlen` bytes.
    pub xlen: u32,
    /// Register-file size.
    pub regs: u32,
    /// Whether the machine hardwires `x0` to zero (`zero=x0` vs
    /// `zero=none`).
    pub zero: bool,
    /// Helper functions callable from `main` (0 disables calls).
    pub max_helpers: u32,
    /// Top-level statement count of `main`, inclusive range.
    pub stmts: (u32, u32),
    /// Maximum control-flow nesting depth (ifs and loops).
    pub max_depth: u32,
    /// Generate if/else diamonds.
    pub branches: bool,
    /// Generate counted loops.
    pub loops: bool,
    /// Generate `la` + load/store pairs into the scratch global.
    pub memory: bool,
    /// Words in the scratch global (memory configs only).
    pub scratch_words: u32,
}

impl GenConfig {
    /// The historical `random_soundness` shape: a tiny machine whose full
    /// fault space is cheap to inject exhaustively. Straight-line and loop
    /// code over six 8-bit registers; no branches beyond the loop latch, no
    /// memory, no calls.
    pub fn tiny() -> GenConfig {
        GenConfig {
            xlen: 8,
            regs: 6,
            zero: false,
            max_helpers: 0,
            stmts: (3, 8),
            max_depth: 1,
            branches: false,
            loops: true,
            memory: false,
            scratch_words: 0,
        }
    }

    /// The full IR surface on a 16-bit, 32-register machine: diamonds,
    /// nested counted loops, leaf calls with the RISC-V ABI register split,
    /// and aligned scratch-memory traffic. 16-bit words keep exhaustive
    /// per-bit injection affordable while still exercising every rule.
    pub fn full() -> GenConfig {
        GenConfig {
            xlen: 16,
            regs: 32,
            zero: true,
            max_helpers: 2,
            stmts: (4, 9),
            max_depth: 2,
            branches: true,
            loops: true,
            memory: true,
            scratch_words: 8,
        }
    }
}

/// One generated program: the seed that replays it, the exact source text,
/// and its parsed (and verified) form.
#[derive(Clone, Debug)]
pub struct GeneratedProgram {
    /// The seed `generate` was called with.
    pub seed: u64,
    /// The emitted source text (IR dialect; parses via
    /// [`bec_ir::parse_program`]).
    pub source: String,
    /// The parsed program.
    pub program: Program,
}

/// A helper function signature visible to `main`'s call generator.
struct Helper {
    name: String,
    args: u32,
    returns: bool,
}

/// Per-function generation state: the register discipline that makes every
/// program well-defined and terminating.
struct FnGen<'a> {
    cfg: &'a GenConfig,
    rng: &'a mut Rng,
    /// General-purpose palette: registers statements may write.
    gp: Vec<String>,
    /// Reserved loop-counter pool; a counter leaves the pool for the
    /// duration of its loop body, so nothing can overwrite it.
    counters: Vec<String>,
    /// Caller-saved registers (clobbered-after-call set); empty when the
    /// function makes no calls.
    caller_saved: Vec<String>,
    /// Registers currently holding a defined value (reads only come from
    /// here — this is what keeps post-call reads ABI-disciplined).
    defined: BTreeSet<String>,
    /// Zero-register name, usable as a source operand only.
    zero: Option<String>,
    helpers: &'a [Helper],
    lines: Vec<String>,
    label_n: u32,
}

impl FnGen<'_> {
    fn inst(&mut self, text: String) {
        self.lines.push(format!("    {text}"));
    }

    fn label(&mut self, name: &str) {
        self.lines.push(format!("{name}:"));
    }

    fn fresh_label(&mut self, prefix: &str) -> String {
        self.label_n += 1;
        format!("{prefix}{}", self.label_n)
    }

    /// A defined source operand (occasionally the zero register).
    fn src(&mut self) -> String {
        if let Some(z) = &self.zero {
            if !self.defined.is_empty() && self.rng.range_u64(0, 8) == 0 {
                return z.clone();
            }
        }
        let all: Vec<&String> = self.defined.iter().collect();
        self.rng.choose(&all).to_string()
    }

    /// A writable destination register; becomes defined.
    fn dst(&mut self) -> String {
        let d = self.rng.choose(&self.gp).clone();
        self.defined.insert(d.clone());
        d
    }

    /// Emits `li` initializations until at least `n` registers are defined.
    fn ensure_defined(&mut self, n: usize) {
        while self.defined.len() < n {
            let d = self.dst();
            let imm = self.rng.range_i64(0, 256);
            self.inst(format!("li {d}, {imm}"));
        }
    }

    fn alu_rr(&mut self) {
        let ops =
            ["add", "sub", "and", "or", "xor", "mul", "sltu", "slt", "divu", "remu", "sll", "srl"];
        let op = *self.rng.choose(&ops);
        let (a, b) = (self.src(), self.src());
        let d = self.dst();
        self.inst(format!("{op} {d}, {a}, {b}"));
    }

    fn alu_ri(&mut self) {
        let ops = ["addi", "andi", "ori", "xori", "slti", "sltiu"];
        let op = *self.rng.choose(&ops);
        let a = self.src();
        let i = self.rng.range_i64(-32, 256);
        let d = self.dst();
        self.inst(format!("{op} {d}, {a}, {i}"));
    }

    fn shift_imm(&mut self) {
        let ops = ["slli", "srli", "srai"];
        let op = *self.rng.choose(&ops);
        let a = self.src();
        let i = self.rng.range_u64(0, self.cfg.xlen as u64);
        let d = self.dst();
        self.inst(format!("{op} {d}, {a}, {i}"));
    }

    fn unary(&mut self) {
        let ops = ["mv", "seqz", "snez", "neg", "not"];
        let op = *self.rng.choose(&ops);
        let a = self.src();
        let d = self.dst();
        self.inst(format!("{op} {d}, {a}"));
    }

    fn load_imm(&mut self) {
        let i = self.rng.range_i64(0, 1 << self.cfg.xlen.min(12));
        let d = self.dst();
        self.inst(format!("li {d}, {i}"));
    }

    fn print(&mut self) {
        let r = self.src();
        self.inst(format!("print {r}"));
    }

    /// `la` + one aligned, in-bounds access as an adjacent pair, so the
    /// base register provably holds the scratch address at the access.
    fn mem_op(&mut self) {
        let words = self.cfg.scratch_words as usize;
        let base = self.dst();
        self.inst(format!("la {base}, @scratch"));
        match self.rng.choose_weighted(&[3, 3, 1, 1, 1, 1]) {
            0 => {
                let off = 4 * self.rng.index(words);
                let d = self.dst();
                self.inst(format!("lw {d}, {off}({base})"));
            }
            1 => {
                let off = 4 * self.rng.index(words);
                let s = self.src();
                self.inst(format!("sw {s}, {off}({base})"));
            }
            2 => {
                let off = self.rng.index(4 * words);
                let op = if self.rng.bool() { "lb" } else { "lbu" };
                let d = self.dst();
                self.inst(format!("{op} {d}, {off}({base})"));
            }
            3 => {
                let off = self.rng.index(4 * words);
                let s = self.src();
                self.inst(format!("sb {s}, {off}({base})"));
            }
            4 => {
                let off = 2 * self.rng.index(2 * words);
                let op = if self.rng.bool() { "lh" } else { "lhu" };
                let d = self.dst();
                self.inst(format!("{op} {d}, {off}({base})"));
            }
            _ => {
                let off = 2 * self.rng.index(2 * words);
                let s = self.src();
                self.inst(format!("sh {s}, {off}({base})"));
            }
        }
    }

    /// An if/else diamond. Definitions inside a branch are only trusted
    /// after the join if both arms made them (set intersection).
    fn diamond(&mut self, depth: u32) {
        let (then_l, else_l, join_l) =
            (self.fresh_label("then"), self.fresh_label("else"), self.fresh_label("join"));
        let conds = ["beq", "bne", "blt", "bge", "bltu", "bgeu"];
        let zconds = ["beqz", "bnez", "bltz", "bgez"];
        if self.rng.bool() {
            let (c, a, b) = (*self.rng.choose(&conds), self.src(), self.src());
            self.inst(format!("{c} {a}, {b}, {then_l}, {else_l}"));
        } else {
            let (c, a) = (*self.rng.choose(&zconds), self.src());
            self.inst(format!("{c} {a}, {then_l}, {else_l}"));
        }
        let before = self.defined.clone();
        self.label(&then_l.clone());
        let n_then = self.rng.range_u64(1, 4) as u32;
        self.stmts(n_then, depth + 1);
        self.inst(format!("j {join_l}"));
        let after_then = std::mem::replace(&mut self.defined, before);
        self.label(&else_l.clone());
        let n_else = self.rng.range_u64(1, 4) as u32;
        self.stmts(n_else, depth + 1);
        self.inst(format!("j {join_l}"));
        self.defined = self.defined.intersection(&after_then).cloned().collect();
        self.label(&join_l);
    }

    /// A counted loop: the counter is removed from every palette while the
    /// body is generated, so no statement can overwrite it; the body runs
    /// at least once, so its definitions survive the loop. A body that may
    /// call starts with every caller-saved register undefined: the head is
    /// also reached from the latch, after the previous trip's calls
    /// clobbered them.
    fn counted_loop(&mut self, depth: u32) {
        let Some(counter) = self.counters.pop() else { return };
        let (head_l, exit_l) = (self.fresh_label("head"), self.fresh_label("exit"));
        let trips = self.rng.range_u64(1, 5);
        self.inst(format!("li {counter}, {trips}"));
        self.defined.insert(counter.clone());
        self.inst(format!("j {head_l}"));
        self.label(&head_l.clone());
        if !self.helpers.is_empty() {
            for r in &self.caller_saved {
                self.defined.remove(r);
            }
        }
        let n_body = self.rng.range_u64(1, 5) as u32;
        self.stmts(n_body, depth + 1);
        self.inst(format!("addi {counter}, {counter}, -1"));
        self.inst(format!("bnez {counter}, {head_l}, {exit_l}"));
        self.label(&exit_l);
        self.counters.push(counter);
    }

    /// A call to a previously generated leaf helper: arguments are set up
    /// in `a0..`, then every caller-saved register is treated as clobbered
    /// (the analysis's ABI model), with `a0` redefined by a returning
    /// callee.
    fn call(&mut self) {
        let h = &self.helpers[self.rng.index(self.helpers.len())];
        let (name, args, returns) = (h.name.clone(), h.args, h.returns);
        for i in 0..args {
            let arg = format!("a{i}");
            if !self.defined.is_empty() && self.rng.bool() {
                let s = self.src();
                self.inst(format!("mv {arg}, {s}"));
            } else {
                let imm = self.rng.range_i64(0, 256);
                self.inst(format!("li {arg}, {imm}"));
            }
            self.defined.insert(arg);
        }
        self.inst(format!("call @{name}"));
        for r in self.caller_saved.clone() {
            self.defined.remove(&r);
        }
        if returns {
            self.defined.insert("a0".to_owned());
        }
        // Nothing may be generated between here and the next statement that
        // reads a clobbered register: reads only come from `defined`.
        self.ensure_defined(1);
    }

    /// Emits `n` statements at `depth`.
    fn stmts(&mut self, n: u32, depth: u32) {
        for _ in 0..n {
            // A call inside one diamond arm can clobber registers the other
            // arm left alone, emptying the join intersection — re-seed so
            // every statement has a defined source to read.
            self.ensure_defined(1);
            let nested = depth < self.cfg.max_depth;
            let weights = [
                6,                                               // alu rr
                4,                                               // alu ri
                2,                                               // shift imm
                2,                                               // unary
                3,                                               // li
                1,                                               // print
                if self.cfg.branches && nested { 2 } else { 0 }, // if/else
                if self.cfg.loops && nested && !self.counters.is_empty() { 2 } else { 0 },
                if !self.helpers.is_empty() { 2 } else { 0 }, // call
                if self.cfg.memory { 3 } else { 0 },          // mem pair
            ];
            match self.rng.choose_weighted(&weights) {
                0 => self.alu_rr(),
                1 => self.alu_ri(),
                2 => self.shift_imm(),
                3 => self.unary(),
                4 => self.load_imm(),
                5 => self.print(),
                6 => self.diamond(depth),
                7 => self.counted_loop(depth),
                8 => self.call(),
                _ => self.mem_op(),
            }
        }
    }
}

/// The register palettes of one function, derived from the machine shape.
struct Palettes {
    gp: Vec<String>,
    counters: Vec<String>,
    caller_saved: Vec<String>,
    zero: Option<String>,
}

fn main_palettes(cfg: &GenConfig) -> Palettes {
    if cfg.regs >= 32 {
        // ABI split: statements write temporaries and argument registers;
        // loop counters live in callee-saved registers so they survive
        // calls; `ra`/`sp` are never touched.
        let gp = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3"];
        let counters = ["s2", "s3", "s4", "s5"];
        let caller_saved = [
            "t0", "t1", "t2", "t3", "t4", "t5", "t6", "a0", "a1", "a2", "a3", "a4", "a5", "a6",
            "a7", "ra",
        ];
        Palettes {
            gp: gp.iter().map(|s| s.to_string()).collect(),
            counters: counters.iter().map(|s| s.to_string()).collect(),
            caller_saved: caller_saved.iter().map(|s| s.to_string()).collect(),
            zero: cfg.zero.then(|| "zero".to_owned()),
        }
    } else {
        // Small machines: plain `rN` names, the top two registers reserved
        // as loop counters. No calls on small machines, so no ABI split.
        let n = cfg.regs as usize;
        let split = n.saturating_sub(2).max(1);
        Palettes {
            gp: (0..split).map(|i| format!("r{i}")).collect(),
            counters: (split..n).map(|i| format!("r{i}")).collect(),
            caller_saved: Vec::new(),
            zero: None,
        }
    }
}

/// Helper functions are leaves: they only use temporaries and their
/// argument registers, never `ra`, callee-saved registers or further calls
/// — which keeps the call graph acyclic and the analysis's ABI call model
/// (`transitively_saved = ∅`) exact.
fn helper_palettes(cfg: &GenConfig, args: u32) -> Palettes {
    let mut gp: Vec<String> = ["t0", "t1", "t2", "t3"].iter().map(|s| s.to_string()).collect();
    for i in 0..args {
        gp.push(format!("a{i}"));
    }
    Palettes {
        gp,
        counters: vec!["t5".to_owned(), "t6".to_owned()],
        caller_saved: Vec::new(),
        zero: cfg.zero.then(|| "zero".to_owned()),
    }
}

fn gen_function(
    cfg: &GenConfig,
    rng: &mut Rng,
    out: &mut String,
    helpers: &[Helper],
    sig: Option<&Helper>,
) {
    let (name, args, returns) = match sig {
        Some(h) => (h.name.as_str(), h.args, h.returns),
        None => ("main", 0, false),
    };
    let palettes = if sig.is_some() { helper_palettes(cfg, args) } else { main_palettes(cfg) };
    let mut g = FnGen {
        cfg,
        rng,
        gp: palettes.gp,
        counters: palettes.counters,
        caller_saved: palettes.caller_saved,
        defined: (0..args).map(|i| format!("a{i}")).collect(),
        zero: palettes.zero,
        helpers,
        lines: Vec::new(),
        label_n: 0,
    };
    let ret = if sig.map(|h| h.returns) == Some(true) { "a0" } else { "none" };
    g.label("entry");
    g.ensure_defined(2.min(g.gp.len()));
    let (lo, hi) = if sig.is_some() { (2, 5) } else { (cfg.stmts.0, cfg.stmts.1 + 1) };
    let n = g.rng.range_u64(lo as u64, hi as u64) as u32;
    let depth = if sig.is_some() { cfg.max_depth.saturating_sub(1) } else { 0 };
    g.stmts(n, depth);
    if sig.is_some() {
        if returns && !g.defined.contains("a0") {
            let s = g.src();
            g.inst(format!("mv a0, {s}"));
        }
        g.inst(if returns { "ret a0".to_owned() } else { "ret".to_owned() });
    } else {
        // The observable signature: print live values, then exit.
        g.ensure_defined(1);
        for _ in 0..g.rng.range_u64(1, 3) {
            g.print();
        }
        g.inst("exit".to_owned());
    }
    out.push_str(&format!("func @{name}(args={args}, ret={ret}) {{\n"));
    for line in &g.lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("}\n");
}

/// Generates one program from `seed` under `cfg`. Deterministic: equal
/// `(seed, cfg)` produce byte-identical [`GeneratedProgram::source`].
///
/// # Panics
///
/// Panics if the generated text fails to parse or verify — a generator bug
/// by definition, with the offending source in the panic message.
pub fn generate(seed: u64, cfg: &GenConfig) -> GeneratedProgram {
    assert!(!cfg.memory || cfg.xlen >= 13, "memory configs need xlen >= 13 (data base 0x1000)");
    let mut rng = Rng::seeded(seed);
    let mut src = String::new();
    let zero = if cfg.zero { "x0".to_owned() } else { "none".to_owned() };
    src.push_str(&format!("machine xlen={} regs={} zero={zero}\n", cfg.xlen, cfg.regs));
    if cfg.memory {
        let init: Vec<String> =
            (0..cfg.scratch_words).map(|_| rng.range_i64(0, 256).to_string()).collect();
        src.push_str(&format!(
            "global scratch: word[{}] = {{ {} }}\n",
            cfg.scratch_words,
            init.join(", ")
        ));
    }
    src.push_str("entry @main\n");
    let n_helpers =
        if cfg.max_helpers > 0 { rng.range_u64(0, cfg.max_helpers as u64 + 1) } else { 0 };
    let helpers: Vec<Helper> = (0..n_helpers)
        .map(|i| Helper {
            name: format!("h{i}"),
            args: rng.range_u64(0, 3) as u32,
            returns: rng.bool(),
        })
        .collect();
    for h in &helpers {
        gen_function(cfg, &mut rng, &mut src, &[], Some(h));
    }
    gen_function(cfg, &mut rng, &mut src, &helpers, None);

    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => panic!("generated program does not parse: {e}\nseed {seed}\n{src}"),
    };
    if let Err(e) = verify_program(&program) {
        panic!("generated program does not verify: {e}\nseed {seed}\n{src}");
    }
    GeneratedProgram { seed, source: src, program }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        for seed in 0..20 {
            let a = generate(seed, &GenConfig::full());
            let b = generate(seed, &GenConfig::full());
            assert_eq!(a.source, b.source, "seed {seed}");
        }
    }

    #[test]
    fn tiny_profile_parses_and_stays_small() {
        for seed in 0..50 {
            let g = generate(seed, &GenConfig::tiny());
            assert_eq!(g.program.config.xlen, 8);
            assert_eq!(g.program.functions.len(), 1, "tiny programs have no helpers");
            assert!(!g.source.contains("call"), "tiny programs make no calls");
        }
    }

    #[test]
    fn full_profile_covers_the_surface() {
        // Across a modest seed range the full profile must exercise every
        // feature class at least once: diamonds, loops, calls, loads and
        // stores.
        let mut saw = (false, false, false, false, false);
        for seed in 0..60 {
            let g = generate(seed, &GenConfig::full());
            let s = &g.source;
            saw.0 |= s.contains("then");
            saw.1 |= s.contains("head");
            saw.2 |= s.contains("call @");
            saw.3 |= s.contains("lw ") || s.contains("lb") || s.contains("lh");
            saw.4 |= s.contains("sw ") || s.contains("sb ") || s.contains("sh ");
        }
        assert!(saw.0, "no branch generated");
        assert!(saw.1, "no loop generated");
        assert!(saw.2, "no call generated");
        assert!(saw.3, "no load generated");
        assert!(saw.4, "no store generated");
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = generate(1, &GenConfig::full());
        let b = generate(2, &GenConfig::full());
        assert_ne!(a.source, b.source);
    }
}
