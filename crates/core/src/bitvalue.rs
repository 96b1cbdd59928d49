//! Global abstract bit-value analysis (Algorithm 1 of the paper).
//!
//! A forward dataflow over [`AbsValue`]s computing `k(p, v)` — the abstract
//! bit values of data point `v` after program point `p` — for every accessed
//! `(p, v)` pair. Definitions reaching a read are combined with the meet
//! operator of Fig. 3b; instruction side effects are evaluated in the
//! abstract domain (Fig. 3c and friends). The analysis starts optimistically
//! at ⊥ and rises monotonically, so the fixpoint it reaches is the MFP
//! solution the paper's §V requires.
//!
//! The solver is dense: in/out words live in flat `Vec<AbsValue>` arrays
//! indexed arithmetically by `point_idx * num_regs + reg_idx` (no hashing),
//! the worklist is a reverse-postorder priority queue with a dedup bitmap
//! (each pop takes the pending point earliest in RPO, which converges loops
//! in near-minimal passes), and the transfer function writes into a
//! caller-provided scratch buffer instead of allocating a `Vec` per visit.

use bec_dataflow::{AbsValue, BitValue};
use bec_ir::semantics::eval_alu;
use bec_ir::{
    AccessTable, AluOp, Cfg, DefUse, Function, Inst, MachineConfig, PointId, PointInst,
    PointLayout, Program, Reg, RegMask,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The value lookup the coalescing rules need: `k(p, v)` for reads.
/// Implemented by the dense [`BitValues`] and by the retained reference
/// solver.
pub trait ValueQuery {
    /// `k(p, v)` for `v` read at `p`: the merged incoming value. Unknown
    /// pairs yield ⊤.
    fn value_in(&self, p: PointId, r: Reg) -> AbsValue;
}

/// Results of the bit-value analysis for one function, in flat dense
/// storage.
#[derive(Clone, Debug)]
pub struct BitValues {
    width: u32,
    nregs: u32,
    /// Merged incoming value of each register read: `⋀_{o ∈ def(p,u)} k(o, u)`.
    in_vals: Vec<AbsValue>,
    /// Value written at each definition: `k(p, v)` for `v ∈ write(p)`.
    out_vals: Vec<AbsValue>,
    /// Registers read per point (incoming values recorded).
    read_mask: Vec<RegMask>,
    /// Registers written per point, minus the zero register (whose writes
    /// vanish).
    out_mask: Vec<RegMask>,
    /// Worklist pops until the fixpoint (solver statistic).
    visits: u64,
}

impl BitValues {
    /// Runs the analysis on `func` of `program`, using precomputed def–use
    /// chains.
    pub fn compute(program: &Program, func: &Function, du: &DefUse) -> BitValues {
        let layout = PointLayout::of(func);
        let cfg = Cfg::of(func);
        let access = AccessTable::of(program, func, &layout);
        BitValues::compute_with(program, func, &layout, &cfg, &access, du)
    }

    /// [`BitValues::compute`] with the shared per-function context
    /// precomputed by the caller.
    pub fn compute_with(
        program: &Program,
        func: &Function,
        layout: &PointLayout,
        cfg: &Cfg,
        access: &AccessTable,
        du: &DefUse,
    ) -> BitValues {
        let config = &program.config;
        let width = config.xlen;
        let nregs = config.num_regs;
        let zero = match config.zero_reg {
            Some(z) => RegMask::of(z),
            None => RegMask::empty(),
        };
        let np = layout.len();
        let mut bv = BitValues {
            width,
            nregs,
            in_vals: vec![AbsValue::bottom(width); np * nregs as usize],
            out_vals: vec![AbsValue::bottom(width); np * nregs as usize],
            read_mask: (0..np).map(|i| access.read_mask(PointId(i as u32))).collect(),
            out_mask: (0..np)
                .map(|i| access.write_mask(PointId(i as u32)).difference(zero))
                .collect(),
            visits: 0,
        };

        // Reverse-postorder priority worklist with a dedup bitmap, seeded
        // with every point.
        let rank = layout.rpo_ranks(cfg);
        let mut queue: BinaryHeap<Reverse<(u32, u32)>> =
            (0..np as u32).map(|p| Reverse((rank[p as usize], p))).collect();
        let mut queued = vec![true; np];
        let mut scratch: Vec<(Reg, AbsValue)> = Vec::with_capacity(4);
        while let Some(Reverse((_, pi))) = queue.pop() {
            let p = PointId(pi);
            queued[p.index()] = false;
            bv.visits += 1;

            // Merge reaching definitions into incoming operand values.
            for u in bv.read_mask[p.index()].iter() {
                let v = bv.incoming(config, du, p, u);
                let slot = bv.slot(p, u);
                bv.in_vals[slot] = v;
            }

            // Evaluate the instruction in the abstract domain.
            scratch.clear();
            let pinst = layout.resolve(func, p);
            transfer(config, program, pinst, |r| bv.read_val(config, p, r), &mut scratch);
            for &(r, val) in &scratch {
                if config.is_zero_reg(r) {
                    continue; // writes to the zero register vanish
                }
                let slot = bv.slot(p, r);
                let new = bv.out_vals[slot].meet(&val);
                if new != bv.out_vals[slot] {
                    bv.out_vals[slot] = new;
                    // Re-queue every reader of this definition.
                    for &q in du.uses(p, r) {
                        if !queued[q.index()] {
                            queued[q.index()] = true;
                            queue.push(Reverse((rank[q.index()], q.0)));
                        }
                    }
                }
            }
        }
        bv
    }

    #[inline]
    fn slot(&self, p: PointId, r: Reg) -> usize {
        debug_assert!(!r.is_virtual() && r.index() < self.nregs);
        p.index() * self.nregs as usize + r.index() as usize
    }

    fn incoming(&self, config: &MachineConfig, du: &DefUse, p: PointId, u: Reg) -> AbsValue {
        if config.is_zero_reg(u) {
            return AbsValue::constant(self.width, 0);
        }
        let defs = du.defs(p, u);
        if defs.is_empty() {
            // Value flows in from outside the function (argument or
            // uninitialized register): unknown.
            return AbsValue::top(self.width);
        }
        let mut acc = AbsValue::bottom(self.width);
        for &d in defs {
            acc = acc.meet(&self.out_vals[self.slot(d, u)]);
        }
        acc
    }

    fn read_val(&self, config: &MachineConfig, p: PointId, r: Reg) -> AbsValue {
        if config.is_zero_reg(r) {
            return AbsValue::constant(self.width, 0);
        }
        if self.read_mask[p.index()].contains(r) {
            self.in_vals[self.slot(p, r)]
        } else {
            AbsValue::top(self.width)
        }
    }

    /// `k(p, v)` for `v` read at `p`: the merged incoming value. Unknown
    /// pairs yield ⊤.
    pub fn value_in(&self, p: PointId, r: Reg) -> AbsValue {
        if p.index() < self.read_mask.len() && self.read_mask[p.index()].contains(r) {
            self.in_vals[self.slot(p, r)]
        } else {
            AbsValue::top(self.width)
        }
    }

    /// `k(p, v)` after `p`: the written value if `v ∈ write(p)`, otherwise
    /// the incoming value (reads leave the register unchanged).
    pub fn value_after(&self, p: PointId, r: Reg) -> AbsValue {
        if p.index() < self.out_mask.len() && self.out_mask[p.index()].contains(r) {
            self.out_vals[self.slot(p, r)]
        } else {
            self.value_in(p, r)
        }
    }

    /// Number of worklist pops the solver took to reach the fixpoint.
    pub fn visits(&self) -> u64 {
        self.visits
    }
}

impl ValueQuery for BitValues {
    fn value_in(&self, p: PointId, r: Reg) -> AbsValue {
        BitValues::value_in(self, p, r)
    }
}

/// Abstract evaluation of one program point. Pushes `(reg, value)` for each
/// written register into `out` (the caller's scratch buffer — cleared by
/// the caller, so one buffer serves the whole fixpoint without
/// re-allocating). `get` supplies incoming operand values.
pub fn transfer(
    config: &MachineConfig,
    program: &Program,
    pi: PointInst<'_>,
    get: impl Fn(Reg) -> AbsValue,
    out: &mut Vec<(Reg, AbsValue)>,
) {
    let w = config.xlen;
    let inst = match pi {
        PointInst::Inst(i) => i,
        PointInst::Term(_) => return, // terminators write nothing
    };
    match inst {
        Inst::Li { rd, imm } => out.push((*rd, AbsValue::constant(w, *imm as u64))),
        Inst::La { rd, global } => {
            let addr = program.global_address(global).unwrap_or(0);
            out.push((*rd, AbsValue::constant(w, addr)));
        }
        Inst::Mv { rd, rs } => out.push((*rd, get(*rs))),
        Inst::Neg { rd, rs } => out.push((*rd, get(*rs).neg())),
        Inst::Seqz { rd, rs } => out.push((*rd, AbsValue::bool_word(w, get(*rs).is_zero()))),
        Inst::Snez { rd, rs } => {
            let z = get(*rs).is_zero();
            out.push((*rd, AbsValue::bool_word(w, z.not())));
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            out.push((*rd, alu_transfer(config, *op, &get(*rs1), &get(*rs2))));
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let b = AbsValue::constant(w, *imm as u64);
            out.push((*rd, alu_transfer(config, *op, &get(*rs1), &b)));
        }
        Inst::Load { rd, .. } => out.push((*rd, AbsValue::top(w))), // memory not modeled
        Inst::Call { callee } => {
            // ABI summary: every written/clobbered register becomes unknown.
            out.extend(
                program.call_effects(callee).writes.into_iter().map(|r| (r, AbsValue::top(w))),
            );
        }
        Inst::Store { .. } | Inst::Print { .. } | Inst::Nop => {}
    }
}

/// Abstract ALU transfer. Constants fold through the concrete semantics
/// ([`bec_ir::semantics::eval_alu`]), so the abstract and concrete worlds
/// agree by construction.
pub fn alu_transfer(config: &MachineConfig, op: AluOp, a: &AbsValue, b: &AbsValue) -> AbsValue {
    let w = config.xlen;
    if a.has_bottom() || b.has_bottom() {
        return AbsValue::bottom(w);
    }
    if let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) {
        return AbsValue::constant(w, eval_alu(config, op, ca, cb));
    }
    match op {
        AluOp::And => a.and(b),
        AluOp::Or => a.or(b),
        AluOp::Xor => a.xor(b),
        AluOp::Add => a.add(b),
        AluOp::Sub => a.sub(b),
        AluOp::Mul => a.mul_low(b),
        AluOp::Sll | AluOp::Srl | AluOp::Sra => match b.as_const() {
            Some(amt) => {
                let k = config.shamt(amt);
                match op {
                    AluOp::Sll => a.shl_const(k),
                    AluOp::Srl => a.shr_const(k),
                    _ => a.sra_const(k),
                }
            }
            // Unknown shift amount: only an all-zero operand survives.
            None => {
                if a.as_const() == Some(0) {
                    AbsValue::constant(w, 0)
                } else {
                    AbsValue::top(w)
                }
            }
        },
        AluOp::Slt => AbsValue::bool_word(w, a.lt_s(b)),
        AluOp::Sltu => AbsValue::bool_word(w, a.lt_u(b)),
        AluOp::Mulh | AluOp::Mulhu | AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => {
            AbsValue::top(w)
        }
    }
}

/// Abstract evaluation of a branch condition on abstract operands; `Zero`
/// means provably not taken, `One` provably taken.
pub fn cond_transfer(cond: bec_ir::Cond, a: &AbsValue, b: &AbsValue) -> BitValue {
    use bec_ir::Cond;
    match cond {
        Cond::Eq => a.eq(b),
        Cond::Ne => a.eq(b).not(),
        Cond::Lt => a.lt_s(b),
        Cond::Ge => a.lt_s(b).not(),
        Cond::Ltu => a.lt_u(b),
        Cond::Geu => a.lt_u(b).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::parse_program;

    fn analyze(src: &str) -> (Program, BitValues) {
        let p = parse_program(src).unwrap();
        let f = p.entry_function();
        let du = DefUse::compute(f, &p);
        let bv = BitValues::compute(&p, f, &du);
        (p.clone(), bv)
    }

    #[test]
    fn constants_propagate_through_straightline() {
        let (_, bv) = analyze(
            "func @main(args=0, ret=none) {\nentry:\n    li t0, 5\n    addi t1, t0, 2\n    slli t1, t1, 1\n    print t1\n    exit\n}\n",
        );
        assert_eq!(bv.value_after(PointId(1), Reg::T1).as_const(), Some(7));
        assert_eq!(bv.value_after(PointId(2), Reg::T1).as_const(), Some(14));
    }

    #[test]
    fn motivating_example_bit_values() {
        // Fig. 2b: inside the loop v1 is unknown; andi pins high bits.
        let (_, bv) = analyze(
            r#"machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r0, 0
    li r1, 7
    j loop
loop:
    andi r2, r1, 1
    andi r3, r1, 3
    addi r1, r1, -1
    seqz r2, r2
    snez r3, r3
    and  r2, r2, r3
    add  r0, r0, r2
    bnez r1, loop
exit:
    ret r0
}
"#,
        );
        let (r1, r2, r3) = (Reg::phys(1), Reg::phys(2), Reg::phys(3));
        // k(p1, v1) = 0111 right after the initialization.
        assert_eq!(bv.value_after(PointId(1), r1).to_string(), "0111");
        // Inside the loop the induction variable is unknown (p3 = first andi).
        assert_eq!(bv.value_in(PointId(3), r1).to_string(), "××××");
        // k(p3, v2) = 000× (Fig. 2b).
        assert_eq!(bv.value_after(PointId(3), r2).to_string(), "000×");
        // k(p4, v3) = 00×× after andi r3, r1, 3.
        assert_eq!(bv.value_after(PointId(4), r3).to_string(), "00××");
        // seqz and snez produce 000× (boolean with unknown bit 0).
        assert_eq!(bv.value_after(PointId(6), r2).to_string(), "000×");
        assert_eq!(bv.value_after(PointId(7), r3).to_string(), "000×");
    }

    #[test]
    fn join_meets_disagreeing_constants() {
        let (_, bv) = analyze(
            r#"func @main(args=0, ret=none) {
entry:
    li t1, 1
    bnez t1, a, b
a:
    li t0, 4
    j join
b:
    li t0, 5
    j join
join:
    print t0
    exit
}
"#,
        );
        // At the join, t0 = 4 ∧ 5 = 010× ... 100 meets 101 = 10×.
        let print_pt = PointId(6); // entry:li,bnez(2) a:li,j(2) b:li,j(2) → join starts at 6
        let v = bv.value_in(print_pt, Reg::T0);
        assert_eq!(v.bit(0), BitValue::Top);
        assert_eq!(v.bit(2), BitValue::One);
        assert_eq!(v.bit(1), BitValue::Zero);
    }

    #[test]
    fn loads_and_calls_clobber_to_top() {
        let src = r#"
global g: word[1] = { 42 }
func @f(args=0, ret=a0) {
entry:
    li a0, 1
    ret a0
}
func @main(args=0, ret=none) {
entry:
    li t0, 3
    la t1, @g
    lw t2, 0(t1)
    call @f
    print a0
    exit
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.function("main").unwrap();
        let du = DefUse::compute(f, &p);
        let bv = BitValues::compute(&p, f, &du);
        // la produces the known global address.
        assert_eq!(
            bv.value_after(PointId(1), Reg::T1).as_const(),
            Some(bec_ir::program::DATA_BASE)
        );
        // Loads are unknown.
        assert_eq!(bv.value_after(PointId(2), Reg::T2), AbsValue::top(32));
        // The call clobbers t0 (caller-saved).
        assert_eq!(bv.value_after(PointId(3), Reg::T0), AbsValue::top(32));
        assert_eq!(bv.value_after(PointId(3), Reg::A0), AbsValue::top(32));
    }

    #[test]
    fn x0_reads_are_constant_zero() {
        let (_, bv) = analyze(
            "func @main(args=0, ret=none) {\nentry:\n    add t0, zero, zero\n    print t0\n    exit\n}\n",
        );
        assert_eq!(bv.value_after(PointId(0), Reg::T0).as_const(), Some(0));
    }

    #[test]
    fn unknown_shift_amount_is_top_unless_zero_operand() {
        let c = MachineConfig::rv32();
        let top = AbsValue::top(32);
        let zero = AbsValue::constant(32, 0);
        assert_eq!(alu_transfer(&c, AluOp::Sll, &zero, &top).as_const(), Some(0));
        assert_eq!(alu_transfer(&c, AluOp::Sll, &top, &top), AbsValue::top(32));
    }

    #[test]
    fn solver_records_visit_count() {
        let (_, bv) = analyze(
            "func @main(args=0, ret=none) {\nentry:\n    li t0, 5\n    print t0\n    exit\n}\n",
        );
        // Straight-line code: every point visited exactly once.
        assert_eq!(bv.visits(), 3);
    }
}
