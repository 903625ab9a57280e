//! Fast in-place execution of fully concrete states.
//!
//! The symbolic executor clones states at every step so it can fork; for
//! the tens of thousands of runs the SimpleScalar-substitute fault injector
//! performs (paper §6.3, Table 2), that is far too slow. This module
//! executes one state *in place* with purely concrete semantics. Any `err`
//! encountered is an error — concrete execution is only defined on concrete
//! states — which also gives the property tests a cross-check: on concrete
//! states, [`step_concrete`] and [`MachineState::step`] must agree exactly.
//!
//! Dispatch runs over the pre-decoded IR ([`sympl_asm::DecodedProgram`],
//! cached on the program). [`run_concrete`] additionally executes the
//! decoder's fused superinstruction pairs: its intermediate states are
//! unobservable, so collapsing two dispatches into one is safe as long as
//! the watchdog is still consulted between the sub-ops (a timeout mid-pair
//! must leave the state exactly where the unfused loop would). The
//! breakpoint runner stays unfused — it must observe the pc before *every*
//! instruction.

use std::fmt;

use sympl_asm::{DecodedOp, DecodedProgram, Operand, Program, SuperOp};
use sympl_detect::{eval_expr, DetectError, DetectorSet};
use sympl_symbolic::Value;

use crate::{Exception, ExecLimits, MachineState, OutItem, Status};

/// Errors from the concrete executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConcreteError {
    /// The state contains the symbolic `err` value; concrete semantics are
    /// undefined. Use the symbolic executor instead.
    SymbolicValue {
        /// Program counter at which the `err` was encountered.
        pc: usize,
    },
}

impl fmt::Display for ConcreteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcreteError::SymbolicValue { pc } => {
                write!(
                    f,
                    "symbolic err value encountered at pc {pc} during concrete execution"
                )
            }
        }
    }
}

impl std::error::Error for ConcreteError {}

fn concrete(v: Value, pc: usize) -> Result<i64, ConcreteError> {
    v.as_int().ok_or(ConcreteError::SymbolicValue { pc })
}

fn operand_concrete(state: &MachineState, src: Operand, pc: usize) -> Result<i64, ConcreteError> {
    match src {
        Operand::Imm(v) => Ok(v),
        Operand::Reg(r) => concrete(state.reg(r), pc),
    }
}

/// Executes exactly one instruction in place.
///
/// Terminal states are left untouched. Returns `Ok(())` on success.
///
/// # Errors
///
/// [`ConcreteError::SymbolicValue`] if an operand holds `err`.
pub fn step_concrete(
    state: &mut MachineState,
    program: &Program,
    detectors: &DetectorSet,
    limits: &ExecLimits,
) -> Result<(), ConcreteError> {
    let decoded = program.decoded();
    if state.status().is_terminal() {
        return Ok(());
    }
    if state.steps() >= limits.max_steps {
        state.set_status(Status::TimedOut);
        return Ok(());
    }
    let pc = state.pc();
    let Some(op) = decoded.op(pc) else {
        state.set_status(Status::Exception(Exception::IllegalInstruction));
        return Ok(());
    };
    state.bump_steps();
    exec_op(state, pc, op, decoded, detectors)
}

/// Executes one decoded op. The caller has already checked the terminal
/// status and the watchdog, and bumped the step counter — bump-before-read
/// matters: a `SymbolicValue` error must leave the counter advanced, just
/// as the pre-IR executor did.
fn exec_op(
    state: &mut MachineState,
    pc: usize,
    op: DecodedOp,
    decoded: &DecodedProgram,
    detectors: &DetectorSet,
) -> Result<(), ConcreteError> {
    match op {
        DecodedOp::Nop => state.set_pc(pc + 1),
        DecodedOp::Halt => state.set_status(Status::Halted),
        DecodedOp::MovImm { rd, imm } => {
            state.set_reg(rd, Value::Int(imm));
            state.set_pc(pc + 1);
        }
        DecodedOp::MovReg { rd, rs } => {
            let v = concrete(state.reg(rs), pc)?;
            state.set_reg(rd, Value::Int(v));
            state.set_pc(pc + 1);
        }
        DecodedOp::BinImm { op, rd, rs, imm } => {
            let a = concrete(state.reg(rs), pc)?;
            exec_bin(state, pc, op, rd, a, imm);
        }
        DecodedOp::BinReg { op, rd, rs, rt } => {
            let a = concrete(state.reg(rs), pc)?;
            let b = concrete(state.reg(rt), pc)?;
            exec_bin(state, pc, op, rd, a, b);
        }
        DecodedOp::SetImm { cmp, rd, rs, imm } => {
            let a = concrete(state.reg(rs), pc)?;
            state.set_reg(rd, Value::Int(i64::from(cmp.eval(a, imm))));
            state.set_pc(pc + 1);
        }
        DecodedOp::SetReg { cmp, rd, rs, rt } => {
            let a = concrete(state.reg(rs), pc)?;
            let b = concrete(state.reg(rt), pc)?;
            state.set_reg(rd, Value::Int(i64::from(cmp.eval(a, b))));
            state.set_pc(pc + 1);
        }
        DecodedOp::BranchImm {
            cmp,
            rs,
            imm,
            target,
        } => {
            let a = concrete(state.reg(rs), pc)?;
            state.set_pc(if cmp.eval(a, imm) {
                target as usize
            } else {
                pc + 1
            });
        }
        DecodedOp::BranchReg {
            cmp,
            rs,
            rt,
            target,
        } => {
            let a = concrete(state.reg(rs), pc)?;
            let b = concrete(state.reg(rt), pc)?;
            state.set_pc(if cmp.eval(a, b) {
                target as usize
            } else {
                pc + 1
            });
        }
        DecodedOp::Jmp { target } => state.set_pc(target as usize),
        DecodedOp::Jal { target } => {
            state.set_reg(sympl_asm::LINK_REG, Value::Int(pc as i64 + 1));
            state.set_pc(target as usize);
        }
        DecodedOp::Jr { rs } => {
            let v = concrete(state.reg(rs), pc)?;
            if v >= 0 && (v as usize) < decoded.len() {
                state.set_pc(v as usize);
            } else {
                state.set_status(Status::Exception(Exception::IllegalInstruction));
            }
        }
        DecodedOp::Load { rt, rs, offset } => {
            let base = concrete(state.reg(rs), pc)?;
            exec_load(state, pc, rt, base, offset);
        }
        DecodedOp::Store { rt, rs, offset } => {
            let base = concrete(state.reg(rs), pc)?;
            exec_store(state, pc, rt, base, offset);
        }
        DecodedOp::Read { rd } => {
            let v = state.read_input();
            state.set_reg(rd, Value::Int(v));
            state.set_pc(pc + 1);
        }
        DecodedOp::Print { rs } => {
            let v = state.reg(rs);
            state.push_output(OutItem::Val(v));
            state.set_pc(pc + 1);
        }
        DecodedOp::PrintS { text } => {
            state.push_output(OutItem::Str(decoded.text(text).clone()));
            state.set_pc(pc + 1);
        }
        DecodedOp::Check { id } => {
            let Some(det) = detectors.get(id) else {
                state.set_status(Status::Exception(Exception::IllegalInstruction));
                return Ok(());
            };
            let Some(lhs) = state.location_value(det.target()) else {
                state.set_status(Status::Exception(Exception::IllegalAddress));
                return Ok(());
            };
            let lhs = concrete(lhs, pc)?;
            match eval_expr(det.expr(), state) {
                Ok(out) => {
                    let rhs = concrete(out.value, pc)?;
                    if det.cmp().eval(lhs, rhs) {
                        state.set_pc(pc + 1);
                    } else {
                        state.set_status(Status::Detected(id));
                    }
                }
                Err(DetectError::DivByZero) => {
                    state.set_status(Status::Exception(Exception::DivByZero));
                }
                Err(_) => {
                    state.set_status(Status::Exception(Exception::IllegalAddress));
                }
            }
        }
    }
    Ok(())
}

fn exec_bin(
    state: &mut MachineState,
    pc: usize,
    op: sympl_asm::BinOp,
    rd: sympl_asm::Reg,
    a: i64,
    b: i64,
) {
    match op.apply(a, b) {
        Some(v) => {
            state.set_reg(rd, Value::Int(v));
            state.set_pc(pc + 1);
        }
        None => state.set_status(Status::Exception(Exception::DivByZero)),
    }
}

fn exec_load(state: &mut MachineState, pc: usize, rt: sympl_asm::Reg, base: i64, offset: i64) {
    let addr = base.wrapping_add(offset);
    match u64::try_from(addr).ok().and_then(|a| state.mem(a)) {
        Some(v) => {
            state.set_reg(rt, v);
            state.set_pc(pc + 1);
        }
        None => state.set_status(Status::Exception(Exception::IllegalAddress)),
    }
}

fn exec_store(state: &mut MachineState, pc: usize, rt: sympl_asm::Reg, base: i64, offset: i64) {
    let addr = base.wrapping_add(offset);
    match u64::try_from(addr) {
        Ok(a) => {
            let v = state.reg(rt);
            state.set_mem(a, v);
            state.set_pc(pc + 1);
        }
        Err(_) => state.set_status(Status::Exception(Exception::IllegalAddress)),
    }
}

/// Executes one fused pair. Byte-equivalent to two trips around the
/// unfused loop: each sub-op bumps the step counter before reading its
/// operands, the pair aborts if sub-op 1 went terminal, and the watchdog
/// is consulted between the sub-ops so a mid-pair timeout leaves the state
/// exactly where the unfused loop would.
fn exec_fused(
    state: &mut MachineState,
    pc: usize,
    fused: SuperOp,
    limits: &ExecLimits,
) -> Result<(), ConcreteError> {
    match fused {
        SuperOp::CmpBranch {
            cmp,
            rd,
            rs,
            src,
            bcmp,
            bimm,
            target,
        } => {
            state.bump_steps();
            let a = concrete(state.reg(rs), pc)?;
            let b = operand_concrete(state, src, pc)?;
            state.set_reg(rd, Value::Int(i64::from(cmp.eval(a, b))));
            state.set_pc(pc + 1);
            if state.steps() >= limits.max_steps {
                state.set_status(Status::TimedOut);
                return Ok(());
            }
            state.bump_steps();
            let flag = concrete(state.reg(rd), pc + 1)?;
            state.set_pc(if bcmp.eval(flag, bimm) {
                target as usize
            } else {
                pc + 2
            });
        }
        SuperOp::LoadOp {
            rt,
            rs,
            offset,
            op,
            rd,
            rs2,
            src2,
        } => {
            state.bump_steps();
            let base = concrete(state.reg(rs), pc)?;
            exec_load(state, pc, rt, base, offset);
            if state.status().is_terminal() {
                return Ok(());
            }
            if state.steps() >= limits.max_steps {
                state.set_status(Status::TimedOut);
                return Ok(());
            }
            state.bump_steps();
            let a = concrete(state.reg(rs2), pc + 1)?;
            let b = operand_concrete(state, src2, pc + 1)?;
            exec_bin(state, pc + 1, op, rd, a, b);
        }
        SuperOp::OpStore {
            op,
            rd,
            rs,
            src,
            rt,
            bs,
            offset,
        } => {
            state.bump_steps();
            let a = concrete(state.reg(rs), pc)?;
            let b = operand_concrete(state, src, pc)?;
            exec_bin(state, pc, op, rd, a, b);
            if state.status().is_terminal() {
                return Ok(());
            }
            if state.steps() >= limits.max_steps {
                state.set_status(Status::TimedOut);
                return Ok(());
            }
            state.bump_steps();
            // Both the base and the stored value are read *after* sub-op 1,
            // so a pair fused on either `rt == rd` or `bs == rd` sees the
            // freshly computed result, exactly as the unfused loop would.
            let base = concrete(state.reg(bs), pc + 1)?;
            exec_store(state, pc + 1, rt, base, offset);
        }
    }
    Ok(())
}

/// Runs a concrete state to a terminal status (halt, exception, detection,
/// or watchdog timeout).
///
/// This is the only executor that uses the decoder's fused
/// superinstruction pairs (its intermediate states are unobservable); the
/// fusion table is consulted only on fall-through into the first op of a
/// pair, so jumps into the middle of a pair behave normally.
///
/// # Errors
///
/// [`ConcreteError::SymbolicValue`] if the state stops being concrete.
pub fn run_concrete(
    state: &mut MachineState,
    program: &Program,
    detectors: &DetectorSet,
    limits: &ExecLimits,
) -> Result<(), ConcreteError> {
    let decoded = program.decoded();
    while !state.status().is_terminal() {
        if state.steps() >= limits.max_steps {
            state.set_status(Status::TimedOut);
            return Ok(());
        }
        let pc = state.pc();
        let Some(op) = decoded.op(pc) else {
            state.set_status(Status::Exception(Exception::IllegalInstruction));
            return Ok(());
        };
        if let Some(fused) = decoded.fused_at(pc) {
            exec_fused(state, pc, fused, limits)?;
        } else {
            state.bump_steps();
            exec_op(state, pc, op, decoded, detectors)?;
        }
    }
    Ok(())
}

/// Runs concretely until the instruction at `breakpoint` is *about to
/// execute* for the `occurrence`-th time (1-based), or the program ends.
///
/// Returns `true` if the breakpoint was reached. This implements the
/// paper's §6.2 injection strategy: the error is planted "just before the
/// instruction that uses the register, in order to ensure fault activation".
///
/// # Errors
///
/// [`ConcreteError::SymbolicValue`] if the prefix is not concrete.
pub fn run_concrete_to_breakpoint(
    state: &mut MachineState,
    program: &Program,
    detectors: &DetectorSet,
    limits: &ExecLimits,
    breakpoint: usize,
    occurrence: u32,
) -> Result<bool, ConcreteError> {
    let mut seen = 0u32;
    loop {
        if state.status().is_terminal() {
            return Ok(false);
        }
        if state.pc() == breakpoint {
            seen += 1;
            if seen >= occurrence {
                return Ok(true);
            }
        }
        step_concrete(state, program, detectors, limits)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::{parse_program, Reg};

    fn lim() -> ExecLimits {
        ExecLimits::default()
    }

    #[test]
    fn runs_factorial_concretely() {
        let p = parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap();
        let mut s = MachineState::with_input(vec![5]);
        run_concrete(&mut s, &p, &DetectorSet::new(), &lim()).unwrap();
        assert_eq!(s.status(), &Status::Halted);
        assert_eq!(s.output_ints(), vec![120]);
        assert_eq!(s.rendered_output(), "Factorial = 120");
    }

    #[test]
    fn err_value_is_rejected() {
        let p = parse_program("print $1\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        // print itself is fine (prints err), but arithmetic on err fails.
        let p2 = parse_program("addi $2, $1, 1\nhalt").unwrap();
        let e = run_concrete(&mut s, &p2, &DetectorSet::new(), &lim()).unwrap_err();
        assert_eq!(e, ConcreteError::SymbolicValue { pc: 0 });
        let _ = p;
    }

    #[test]
    fn breakpoint_stops_before_execution() {
        let p = parse_program("mov $1, 1\nmov $2, 2\nmov $3, 3\nhalt").unwrap();
        let mut s = MachineState::new();
        let reached =
            run_concrete_to_breakpoint(&mut s, &p, &DetectorSet::new(), &lim(), 2, 1).unwrap();
        assert!(reached);
        assert_eq!(s.pc(), 2);
        assert_eq!(s.reg(Reg::r(2)), Value::Int(2));
        assert_eq!(
            s.reg(Reg::r(3)),
            Value::Int(0),
            "breakpoint instr not yet run"
        );
    }

    #[test]
    fn breakpoint_occurrence_counts_loop_iterations() {
        let p = parse_program("mov $1, 3\nloop: subi $1, $1, 1\nbgt $1, 0, loop\nhalt").unwrap();
        let mut s = MachineState::new();
        let reached =
            run_concrete_to_breakpoint(&mut s, &p, &DetectorSet::new(), &lim(), 1, 3).unwrap();
        assert!(reached);
        assert_eq!(s.reg(Reg::r(1)), Value::Int(1), "two decrements executed");
    }

    #[test]
    fn breakpoint_never_reached_returns_false() {
        let p = parse_program("halt\nnop").unwrap();
        let mut s = MachineState::new();
        let reached =
            run_concrete_to_breakpoint(&mut s, &p, &DetectorSet::new(), &lim(), 1, 1).unwrap();
        assert!(!reached);
        assert_eq!(s.status(), &Status::Halted);
    }

    #[test]
    fn watchdog_timeout() {
        let p = parse_program("loop: jmp loop").unwrap();
        let mut s = MachineState::new();
        run_concrete(
            &mut s,
            &p,
            &DetectorSet::new(),
            &ExecLimits::with_max_steps(25),
        )
        .unwrap();
        assert_eq!(s.status(), &Status::TimedOut);
    }

    #[test]
    fn fused_compare_branch_times_out_where_the_unfused_chain_does() {
        // The factorial loop head `setgt $5 $3 $4; beq $5 0 exit` lowers to
        // a fused compare-branch pair, entered once per iteration.
        let p = parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: print $2\nhalt",
        )
        .unwrap();
        let decoded = p.decoded();
        assert!(matches!(
            decoded.fused_at(4),
            Some(SuperOp::CmpBranch { .. })
        ));
        let detectors = DetectorSet::new();
        let mut golden = MachineState::with_input(vec![5]);
        run_concrete(&mut golden, &p, &detectors, &lim()).unwrap();
        assert_eq!(golden.status(), &Status::Halted);
        // Every watchdog bound up to the golden run's length, so the
        // timeout lands both between and inside every fused pair.
        for max_steps in 1..=golden.steps() {
            let limits = ExecLimits::with_max_steps(max_steps);
            let mut fused = MachineState::with_input(vec![5]);
            run_concrete(&mut fused, &p, &detectors, &limits).unwrap();
            let mut unfused = MachineState::with_input(vec![5]);
            let mut successors = crate::SuccessorBuf::new();
            while !unfused.status().is_terminal() {
                unfused.step_into(decoded, &detectors, &limits, &mut successors);
                assert_eq!(successors.len(), 1, "concrete state must not fork");
                unfused = successors.drain().next().unwrap();
            }
            assert_eq!(fused.status(), unfused.status(), "max_steps {max_steps}");
            assert_eq!(fused.steps(), unfused.steps(), "max_steps {max_steps}");
            assert_eq!(fused.pc(), unfused.pc(), "max_steps {max_steps}");
        }
    }

    #[test]
    fn agrees_with_symbolic_executor_on_concrete_states() {
        // Differential test: run the same program both ways and compare
        // final states field by field.
        let p = parse_program(
            "read $1\nmov $29, 1000\nst $1, 0($29)\nld $2, 0($29)\n\
             setgt $3, $2, 10\nbeq $3, 1, big\naddi $4, $2, 100\njmp out\n\
             big: subi $4, $2, 100\nout: print $4\nhalt",
        )
        .unwrap();
        for input in [0, 5, 10, 11, 100, -50] {
            let detectors = DetectorSet::new();
            let limits = lim();
            // Concrete in place.
            let mut a = MachineState::with_input(vec![input]);
            run_concrete(&mut a, &p, &detectors, &limits).unwrap();
            // Symbolic (must produce exactly one successor per step).
            let mut b = MachineState::with_input(vec![input]);
            while !b.status().is_terminal() {
                let mut succ = b.step(&p, &detectors, &limits);
                assert_eq!(succ.len(), 1, "concrete state must not fork");
                b = succ.pop().unwrap();
            }
            assert_eq!(a, b, "executors disagree on input {input}");
        }
    }

    #[test]
    fn detection_matches_symbolic() {
        use sympl_detect::Detector;
        let mut detectors = DetectorSet::new();
        detectors.insert(Detector::parse("det(7, $(2), <=, (100))").unwrap());
        let p = parse_program("read $2\ncheck 7\nprint $2\nhalt").unwrap();
        let mut ok = MachineState::with_input(vec![50]);
        run_concrete(&mut ok, &p, &detectors, &lim()).unwrap();
        assert_eq!(ok.status(), &Status::Halted);
        let mut caught = MachineState::with_input(vec![500]);
        run_concrete(&mut caught, &p, &detectors, &lim()).unwrap();
        assert_eq!(caught.status(), &Status::Detected(7));
    }
}
