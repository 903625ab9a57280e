//! The fast dispatch layer: stepping over the decoded IR into the caller's
//! successor sink.
//!
//! [`MachineState::step`] is the *reference* interpreter — it walks the
//! [`sympl_asm::Instr`] AST and returns a fresh `Vec` of successors, which
//! keeps it independent of the lowering and easy to audit against the
//! paper. The search engines instead call [`MachineState::step_into`],
//! which dispatches over [`DecodedProgram`] ops and hands successors to a
//! caller-owned [`SuccessorSink`]:
//!
//! * **The caller's sink; forks gather** — a step with one successor hands
//!   it to [`SuccessorSink::put`], so a search engine moves it once, from
//!   the stepper straight into its visited set and frontier. A fork rule
//!   materialises all its cases through [`SuccessorSink::put_forks`]
//!   first, into a buffer the sink owns, and the sink takes them in order.
//!   [`SuccessorBuf`] is the storing sink, reused across steps.
//! * **No per-step state clone** — `step_into` consumes the state, so the
//!   common deterministic step mutates it in place and hands it on; only
//!   genuine forks clone, and even then the last fork case takes the moved
//!   state.
//! * **No AST re-matching** — ops are dense `Copy` values with pre-split
//!   operands and pre-resolved targets (see [`sympl_asm::decoded`]).
//!
//! Equivalence with the reference interpreter — same successor *contents*
//! in the same *order* — is load-bearing: fingerprint dedup, witness
//! traces, and outcome counts must not depend on which dispatcher ran. The
//! fork paths are literally shared (`crate::step`'s free functions), and
//! the decoded-vs-AST property suite pins the rest.

use sympl_asm::{DecodedOp, DecodedProgram};
use sympl_detect::DetectorSet;
use sympl_symbolic::{fork_compare, symbolic_binop, ArithOutcome, Location, Value};

use crate::step::{
    apply_fork_cases, fork_div_zero, fork_jump_targets, fork_load_targets, fork_store_targets,
    step_check,
};
use crate::SuccessorSink;
use crate::{Exception, ExecLimits, MachineState, OutItem, Status};

/// A reusable, storing successor sink for [`MachineState::step_into`].
///
/// A caller keeps one and drains it after each expansion; the backing
/// storage (and its capacity) survives across steps, so the fork hot path
/// stops round-tripping the global allocator.
#[derive(Debug, Default)]
pub struct SuccessorBuf {
    items: Vec<MachineState>,
}

impl SuccessorBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SuccessorBuf::default()
    }

    /// Appends one successor.
    #[inline]
    pub fn push(&mut self, state: MachineState) {
        self.items.push(state);
    }

    /// Number of buffered successors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The buffered successors, in push order.
    #[must_use]
    pub fn as_slice(&self) -> &[MachineState] {
        &self.items
    }

    /// Removes and yields all buffered successors, keeping the capacity.
    pub fn drain(&mut self) -> std::vec::Drain<'_, MachineState> {
        self.items.drain(..)
    }

    /// Drops all buffered successors, keeping the capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl Extend<MachineState> for SuccessorBuf {
    fn extend<T: IntoIterator<Item = MachineState>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

impl SuccessorSink for SuccessorBuf {
    #[inline]
    fn put(&mut self, state: MachineState) {
        self.items.push(state);
    }

    #[inline]
    fn put_forks(&mut self, gather: impl FnOnce(&mut Vec<MachineState>)) {
        gather(&mut self.items);
    }
}

impl MachineState {
    /// Executes one instruction symbolically over the decoded IR, handing
    /// every successor to `out`. Semantically identical to
    /// [`MachineState::step`] — same successors, same order — but consumes
    /// the state (deterministic steps mutate in place, no clone) and hands
    /// successors to the caller's sink (no per-step `Vec`): a lone
    /// successor through [`SuccessorSink::put`], a fork rule's cases
    /// through [`SuccessorSink::put_forks`].
    ///
    /// Terminal states hand on nothing, mirroring `step`'s empty vector.
    pub fn step_into(
        self,
        program: &DecodedProgram,
        detectors: &DetectorSet,
        limits: &ExecLimits,
        out: &mut impl SuccessorSink,
    ) {
        if self.status().is_terminal() {
            return;
        }
        // Watchdog: the §5.4 instruction bound.
        if self.steps() >= limits.max_steps {
            let mut s = self;
            s.set_status(Status::TimedOut);
            out.put(s);
            return;
        }
        let pc = self.pc();
        let Some(op) = program.op(pc) else {
            let mut s = self;
            s.set_status(Status::Exception(Exception::IllegalInstruction));
            out.put(s);
            return;
        };

        let mut succ = self;
        succ.bump_steps();

        match op {
            DecodedOp::Nop => {
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::Halt => {
                succ.set_status(Status::Halted);
                out.put(succ);
            }
            DecodedOp::MovImm { rd, imm } => {
                succ.set_reg(rd, Value::Int(imm));
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::MovReg { rd, rs } => {
                let v = succ.reg(rs);
                succ.copy_reg_with_constraints(rd, v, Location::Reg(rs));
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::BinImm { op, rd, rs, imm } => {
                let a = succ.reg(rs);
                step_bin(succ, pc, op, rd, a, Value::Int(imm), None, limits, out);
            }
            DecodedOp::BinReg { op, rd, rs, rt } => {
                let a = succ.reg(rs);
                let (b, bloc) = succ.reg_with_loc(rt);
                step_bin(succ, pc, op, rd, a, b, bloc, limits, out);
            }
            DecodedOp::SetImm { cmp, rd, rs, imm } => {
                let (a, aloc) = succ.reg_with_loc(rs);
                if let Value::Int(x) = a {
                    // Concrete fast path: one case, no constraints learned.
                    succ.set_reg(rd, Value::Int(i64::from(cmp.eval(x, imm))));
                    succ.set_pc(pc + 1);
                    out.put(succ);
                } else {
                    let cases = fork_compare(cmp, a, aloc, Value::Int(imm), None);
                    apply_fork_cases(
                        succ,
                        &cases,
                        limits.track_constraints,
                        |s, result| {
                            s.set_reg(rd, Value::Int(i64::from(result)));
                            s.set_pc(pc + 1);
                        },
                        out,
                    );
                }
            }
            DecodedOp::SetReg { cmp, rd, rs, rt } => {
                let (a, aloc) = succ.reg_with_loc(rs);
                let (b, bloc) = succ.reg_with_loc(rt);
                if let (Value::Int(x), Value::Int(y)) = (a, b) {
                    succ.set_reg(rd, Value::Int(i64::from(cmp.eval(x, y))));
                    succ.set_pc(pc + 1);
                    out.put(succ);
                } else {
                    let cases = fork_compare(cmp, a, aloc, b, bloc);
                    apply_fork_cases(
                        succ,
                        &cases,
                        limits.track_constraints,
                        |s, result| {
                            s.set_reg(rd, Value::Int(i64::from(result)));
                            s.set_pc(pc + 1);
                        },
                        out,
                    );
                }
            }
            DecodedOp::BranchImm {
                cmp,
                rs,
                imm,
                target,
            } => {
                let (a, aloc) = succ.reg_with_loc(rs);
                if let Value::Int(x) = a {
                    succ.set_pc(if cmp.eval(x, imm) {
                        target as usize
                    } else {
                        pc + 1
                    });
                    out.put(succ);
                } else {
                    let cases = fork_compare(cmp, a, aloc, Value::Int(imm), None);
                    apply_fork_cases(
                        succ,
                        &cases,
                        limits.track_constraints,
                        |s, result| {
                            s.set_pc(if result { target as usize } else { pc + 1 });
                        },
                        out,
                    );
                }
            }
            DecodedOp::BranchReg {
                cmp,
                rs,
                rt,
                target,
            } => {
                let (a, aloc) = succ.reg_with_loc(rs);
                let (b, bloc) = succ.reg_with_loc(rt);
                if let (Value::Int(x), Value::Int(y)) = (a, b) {
                    succ.set_pc(if cmp.eval(x, y) {
                        target as usize
                    } else {
                        pc + 1
                    });
                    out.put(succ);
                } else {
                    let cases = fork_compare(cmp, a, aloc, b, bloc);
                    apply_fork_cases(
                        succ,
                        &cases,
                        limits.track_constraints,
                        |s, result| {
                            s.set_pc(if result { target as usize } else { pc + 1 });
                        },
                        out,
                    );
                }
            }
            DecodedOp::Jmp { target } => {
                succ.set_pc(target as usize);
                out.put(succ);
            }
            DecodedOp::Jal { target } => {
                succ.set_reg(sympl_asm::LINK_REG, Value::Int(pc as i64 + 1));
                succ.set_pc(target as usize);
                out.put(succ);
            }
            DecodedOp::Jr { rs } => match succ.reg(rs) {
                Value::Int(v) => {
                    if v >= 0 && (v as usize) < program.len() {
                        succ.set_pc(v as usize);
                    } else {
                        succ.set_status(Status::Exception(Exception::IllegalInstruction));
                    }
                    out.put(succ);
                }
                Value::Err => fork_jump_targets(succ, rs, program.len(), limits, out),
            },
            DecodedOp::Load { rt, rs, offset } => match succ.reg(rs) {
                Value::Int(base) => {
                    let addr = base.wrapping_add(offset);
                    match u64::try_from(addr)
                        .ok()
                        .and_then(|a| succ.mem(a).map(|v| (a, v)))
                    {
                        Some((a, v)) => {
                            succ.copy_reg_with_constraints(rt, v, Location::Mem(a));
                            succ.set_pc(pc + 1);
                        }
                        None => {
                            succ.set_status(Status::Exception(Exception::IllegalAddress));
                        }
                    }
                    out.put(succ);
                }
                Value::Err => fork_load_targets(succ, rt, rs, offset, limits, out),
            },
            DecodedOp::Store { rt, rs, offset } => match succ.reg(rs) {
                Value::Int(base) => {
                    let addr = base.wrapping_add(offset);
                    match u64::try_from(addr) {
                        Ok(a) => {
                            let v = succ.reg(rt);
                            succ.copy_mem_with_constraints(a, v, Location::Reg(rt));
                            succ.set_pc(pc + 1);
                        }
                        Err(_) => {
                            succ.set_status(Status::Exception(Exception::IllegalAddress));
                        }
                    }
                    out.put(succ);
                }
                Value::Err => fork_store_targets(succ, rt, rs, offset, limits, out),
            },
            DecodedOp::Read { rd } => {
                let v = succ.read_input();
                succ.set_reg(rd, Value::Int(v));
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::Print { rs } => {
                succ.push_output(OutItem::Val(succ.reg(rs)));
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::PrintS { text } => {
                succ.push_output(OutItem::Str(program.text(text).clone()));
                succ.set_pc(pc + 1);
                out.put(succ);
            }
            DecodedOp::Check { id } => {
                step_check(succ, id, detectors, limits.track_constraints, out);
            }
        }
    }
}

/// Arithmetic over the symbolic domain, shared by the `BinImm`/`BinReg`
/// dispatch arms. Mirrors the AST interpreter's `Instr::Bin` arm exactly.
#[allow(clippy::too_many_arguments)]
fn step_bin(
    mut succ: MachineState,
    pc: usize,
    op: sympl_asm::BinOp,
    rd: sympl_asm::Reg,
    a: Value,
    b: Value,
    bloc: Option<Location>,
    limits: &ExecLimits,
    out: &mut impl SuccessorSink,
) {
    match symbolic_binop(op, a, b) {
        ArithOutcome::Value(v) => {
            succ.set_reg(rd, v);
            succ.set_pc(pc + 1);
            out.put(succ);
        }
        ArithOutcome::DivByZero => {
            succ.set_status(Status::Exception(Exception::DivByZero));
            out.put(succ);
        }
        ArithOutcome::ForkOnDivisorZero => {
            fork_div_zero(succ, rd, bloc, limits.track_constraints, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::{parse_program, Program, Reg};

    fn drain(
        state: MachineState,
        program: &Program,
        detectors: &DetectorSet,
        limits: &ExecLimits,
    ) -> Vec<MachineState> {
        let mut buf = SuccessorBuf::new();
        state.step_into(program.decoded(), detectors, limits, &mut buf);
        buf.drain().collect()
    }

    /// Every op kind, stepped by both dispatchers from the same state, must
    /// produce identical successor vectors (full structural equality,
    /// including constraints, digests, and the step counter).
    #[test]
    fn matches_ast_interpreter_per_step() {
        let program = parse_program(
            r#"
            mov $2, 1
            read $1
            mov $3, $1
        loop:
            setgt $5, $3, 1
            beq $5, 0, exit
            mult $2, $2, $3
            subi $3, $3, 1
            jmp loop
        exit:
            prints "Factorial = "
            print $2
            halt
            "#,
        )
        .unwrap();
        let detectors = DetectorSet::new();
        let limits = ExecLimits::with_max_steps(500);

        let mut frontier = vec![MachineState::with_input(vec![4])];
        let mut expanded = 0usize;
        while let Some(s) = frontier.pop() {
            if s.status().is_terminal() {
                continue;
            }
            let reference = s.step(&program, &detectors, &limits);
            let fast = drain(s, &program, &detectors, &limits);
            assert_eq!(reference, fast);
            for (a, b) in reference.iter().zip(&fast) {
                assert_eq!(a.fingerprint(), b.fingerprint());
            }
            frontier.extend(fast);
            expanded += 1;
        }
        assert!(expanded > 20);
    }

    #[test]
    fn symbolic_forks_match_ast_interpreter() {
        let program = parse_program("beq $1, 5, yes\nprint $0\nhalt\nyes: print $1\nhalt").unwrap();
        let detectors = DetectorSet::new();
        let limits = ExecLimits::default();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let reference = s.step(&program, &detectors, &limits);
        let fast = drain(s, &program, &detectors, &limits);
        assert_eq!(reference.len(), 2);
        assert_eq!(reference, fast);
    }

    #[test]
    fn buffer_reuse_keeps_capacity_and_appends() {
        let program = parse_program("nop\nhalt").unwrap();
        let detectors = DetectorSet::new();
        let limits = ExecLimits::default();
        let mut buf = SuccessorBuf::new();
        MachineState::new().step_into(program.decoded(), &detectors, &limits, &mut buf);
        assert_eq!(buf.len(), 1);
        // Appending without draining accumulates (the caller owns policy).
        MachineState::new().step_into(program.decoded(), &detectors, &limits, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.drain().count(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn terminal_state_appends_nothing() {
        let program = parse_program("halt").unwrap();
        let mut s = MachineState::new();
        s.set_status(Status::Halted);
        let mut buf = SuccessorBuf::new();
        s.step_into(
            program.decoded(),
            &DetectorSet::new(),
            &ExecLimits::default(),
            &mut buf,
        );
        assert!(buf.is_empty());
    }
}
