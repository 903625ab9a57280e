//! The symbolic executor: one instruction, possibly many successors.
//!
//! Deterministic behaviour mirrors the paper's Maude *equations* (§5.1);
//! every non-determinism — comparisons on `err`, erroneous jump targets,
//! erroneous load/store pointers, divisions by a symbolic divisor — mirrors
//! its *rewrite rules* (§5.2) and fans out into multiple successor states.
//! Fork cases whose learned constraints are unsatisfiable are pruned on the
//! spot (the constraint solver's false-positive elimination).

use sympl_asm::{Instr, Operand, Program, Reg};
use sympl_detect::{eval_expr, DetectError, DetectorSet};
use sympl_symbolic::{fork_compare, symbolic_binop, ArithOutcome, CmpCase, Location, Value};

use crate::{Exception, ExecLimits, MachineState, OutItem, Status};

impl MachineState {
    /// Executes one instruction symbolically, returning every successor
    /// state. Terminal states return an empty vector.
    ///
    /// The successor count is 1 for deterministic instructions, 2 for a
    /// forked comparison/branch, and up to `|code|` or `|memory| + 1` for
    /// control/pointer errors (subject to [`ExecLimits`] caps).
    #[must_use]
    pub fn step(
        &self,
        program: &Program,
        detectors: &DetectorSet,
        limits: &ExecLimits,
    ) -> Vec<MachineState> {
        if self.status().is_terminal() {
            return Vec::new();
        }
        // Watchdog: the §5.4 instruction bound.
        if self.steps() >= limits.max_steps {
            let mut s = self.clone();
            s.set_status(Status::TimedOut);
            return vec![s];
        }
        let Some(instr) = program.fetch(self.pc()) else {
            let mut s = self.clone();
            s.set_status(Status::Exception(Exception::IllegalInstruction));
            return vec![s];
        };

        let mut succ = self.clone();
        succ.bump_steps();

        // Match by reference: cloning the instruction here would allocate
        // for `String`-carrying variants on every fetch.
        match instr {
            Instr::Nop => {
                succ.set_pc(self.pc() + 1);
                vec![succ]
            }
            Instr::Halt => {
                succ.set_status(Status::Halted);
                vec![succ]
            }
            Instr::Mov { rd, src } => {
                match *src {
                    Operand::Imm(v) => succ.set_reg(*rd, Value::Int(v)),
                    Operand::Reg(rs) => {
                        let v = self.reg(rs);
                        succ.copy_reg_with_constraints(*rd, v, Location::Reg(rs));
                    }
                }
                succ.set_pc(self.pc() + 1);
                vec![succ]
            }
            Instr::Bin { op, rd, rs, src } => {
                let a = self.reg(*rs);
                let (b, bloc) = self.operand_value(*src);
                match symbolic_binop(*op, a, b) {
                    ArithOutcome::Value(v) => {
                        succ.set_reg(*rd, v);
                        succ.set_pc(self.pc() + 1);
                        vec![succ]
                    }
                    ArithOutcome::DivByZero => {
                        succ.set_status(Status::Exception(Exception::DivByZero));
                        vec![succ]
                    }
                    ArithOutcome::ForkOnDivisorZero => {
                        let mut out = Vec::with_capacity(2);
                        fork_div_zero(succ, *rd, bloc, limits.track_constraints, &mut out);
                        out
                    }
                }
            }
            Instr::Set { cmp, rd, rs, src } => {
                let (a, aloc) = self.reg_with_loc(*rs);
                let (b, bloc) = self.operand_value(*src);
                let cases = fork_compare(*cmp, a, aloc, b, bloc);
                let rd = *rd;
                let next = self.pc() + 1;
                let mut out = Vec::with_capacity(cases.len());
                apply_fork_cases(
                    succ,
                    &cases,
                    limits.track_constraints,
                    |s, result| {
                        s.set_reg(rd, Value::Int(i64::from(result)));
                        s.set_pc(next);
                    },
                    &mut out,
                );
                out
            }
            Instr::Branch {
                cmp,
                rs,
                src,
                target,
            } => {
                let (a, aloc) = self.reg_with_loc(*rs);
                let (b, bloc) = self.operand_value(*src);
                let cases = fork_compare(*cmp, a, aloc, b, bloc);
                let (target, next) = (*target, self.pc() + 1);
                let mut out = Vec::with_capacity(cases.len());
                apply_fork_cases(
                    succ,
                    &cases,
                    limits.track_constraints,
                    |s, result| {
                        s.set_pc(if result { target } else { next });
                    },
                    &mut out,
                );
                out
            }
            Instr::Jmp { target } => {
                succ.set_pc(*target);
                vec![succ]
            }
            Instr::Jal { target } => {
                succ.set_reg(sympl_asm::LINK_REG, Value::Int(self.pc() as i64 + 1));
                succ.set_pc(*target);
                vec![succ]
            }
            Instr::Jr { rs } => match self.reg(*rs) {
                Value::Int(v) => {
                    if v >= 0 && (v as usize) < program.len() {
                        succ.set_pc(v as usize);
                        vec![succ]
                    } else {
                        succ.set_status(Status::Exception(Exception::IllegalInstruction));
                        vec![succ]
                    }
                }
                Value::Err => {
                    let mut out = Vec::new();
                    fork_jump_targets(succ, *rs, program.len(), limits, &mut out);
                    out
                }
            },
            Instr::Load { rt, rs, offset } => match self.reg(*rs) {
                Value::Int(base) => {
                    let addr = base.wrapping_add(*offset);
                    match u64::try_from(addr)
                        .ok()
                        .and_then(|a| self.mem(a).map(|v| (a, v)))
                    {
                        Some((a, v)) => {
                            succ.copy_reg_with_constraints(*rt, v, Location::Mem(a));
                            succ.set_pc(self.pc() + 1);
                            vec![succ]
                        }
                        None => {
                            succ.set_status(Status::Exception(Exception::IllegalAddress));
                            vec![succ]
                        }
                    }
                }
                Value::Err => {
                    let mut out = Vec::new();
                    fork_load_targets(succ, *rt, *rs, *offset, limits, &mut out);
                    out
                }
            },
            Instr::Store { rt, rs, offset } => match self.reg(*rs) {
                Value::Int(base) => {
                    let addr = base.wrapping_add(*offset);
                    match u64::try_from(addr) {
                        Ok(a) => {
                            let v = self.reg(*rt);
                            succ.copy_mem_with_constraints(a, v, Location::Reg(*rt));
                            succ.set_pc(self.pc() + 1);
                            vec![succ]
                        }
                        Err(_) => {
                            succ.set_status(Status::Exception(Exception::IllegalAddress));
                            vec![succ]
                        }
                    }
                }
                Value::Err => {
                    let mut out = Vec::new();
                    fork_store_targets(succ, *rt, *rs, *offset, limits, &mut out);
                    out
                }
            },
            Instr::Read { rd } => {
                let v = succ.read_input();
                succ.set_reg(*rd, Value::Int(v));
                succ.set_pc(self.pc() + 1);
                vec![succ]
            }
            Instr::Print { rs } => {
                succ.push_output(OutItem::Val(self.reg(*rs)));
                succ.set_pc(self.pc() + 1);
                vec![succ]
            }
            Instr::PrintS { text } => {
                succ.push_output(OutItem::Str(text.clone()));
                succ.set_pc(self.pc() + 1);
                vec![succ]
            }
            Instr::Check { id } => {
                let mut out = Vec::new();
                step_check(succ, *id, detectors, limits.track_constraints, &mut out);
                out
            }
        }
    }

    /// An operand's value, plus the location it was read from when that
    /// location currently holds `err` (for constraint attachment).
    pub(crate) fn operand_value(&self, src: Operand) -> (Value, Option<Location>) {
        match src {
            Operand::Imm(v) => (Value::Int(v), None),
            Operand::Reg(r) => self.reg_with_loc(r),
        }
    }

    pub(crate) fn reg_with_loc(&self, r: Reg) -> (Value, Option<Location>) {
        let v = self.reg(r);
        let loc = if v.is_err() {
            Some(Location::Reg(r))
        } else {
            None
        };
        (v, loc)
    }
}

// ---------------------------------------------------------------------------
// Fork machinery, shared between the AST reference interpreter above and the
// decoded dispatch (`crate::dispatch`). Each function consumes the
// already-bumped successor `succ`; its registers/memory/pc still equal the
// pre-state's (only the step counter differs, and these paths never read
// it), so reading operands from `succ` is equivalent to reading them from
// the pre-state. Keeping one copy of these rules is what guarantees the two
// dispatchers fork identically.
// ---------------------------------------------------------------------------

/// A successor sink: where the shared fork rules append the states they
/// materialise. Implemented by `Vec<MachineState>` (the reference
/// interpreter's return value) and by [`crate::SuccessorBuf`] (the engine's
/// reusable buffer), so each fork case lands directly in the caller's
/// storage instead of round-tripping through an intermediate `Vec`.
pub(crate) trait SuccessorSink {
    /// Appends one successor.
    fn put(&mut self, state: MachineState);
}

impl SuccessorSink for Vec<MachineState> {
    #[inline]
    fn put(&mut self, state: MachineState) {
        self.push(state);
    }
}

/// Division with a symbolic divisor: fork on `isEqual(divisor, 0)`, as in
/// the paper's division equations. The trap case comes first.
pub(crate) fn fork_div_zero(
    succ: MachineState,
    rd: Reg,
    bloc: Option<Location>,
    track_constraints: bool,
    out: &mut impl SuccessorSink,
) {
    let next = succ.pc() + 1;
    // Case 1: divisor == 0 -> div-zero exception.
    let mut trap = succ.clone();
    let feasible = match bloc {
        Some(loc) if track_constraints => {
            let zero_ok = trap.constraints().get(loc).is_none_or(|set| set.allows(0));
            if zero_ok {
                trap.set_location(loc, Value::Int(0));
            }
            zero_ok
        }
        _ => true,
    };
    if feasible {
        trap.set_status(Status::Exception(Exception::DivByZero));
        out.put(trap);
    }
    // Case 2: divisor != 0 -> err result.
    let mut go = succ;
    let feasible = match bloc {
        Some(loc) if track_constraints => go
            .constraints_mut()
            .constrain(loc, sympl_symbolic::Constraint::Ne(0)),
        _ => true,
    };
    if feasible {
        go.set_reg(rd, Value::Err);
        go.set_pc(next);
        out.put(go);
    }
}

/// Materialises comparison fork cases in order, pruning infeasible ones.
/// The last feasible case takes ownership of `succ` instead of cloning it.
pub(crate) fn apply_fork_cases(
    succ: MachineState,
    cases: &[CmpCase],
    track_constraints: bool,
    mut finish: impl FnMut(&mut MachineState, bool),
    out: &mut impl SuccessorSink,
) {
    let last = cases.len() - 1;
    let mut succ = Some(succ);
    for (i, case) in cases.iter().enumerate() {
        let mut s = if i == last {
            succ.take().expect("state consumed only by the last case")
        } else {
            succ.as_ref()
                .expect("state present before last case")
                .clone()
        };
        if !apply_case(&mut s, case, track_constraints) {
            continue;
        }
        finish(&mut s, case.result);
        out.put(s);
    }
}

/// `jr` through an erroneous register: "the program either jumps to an
/// arbitrary (but valid) code location or throws an illegal-instruction
/// exception" (§5.2). Landing at address `t` pins the register to `t`.
pub(crate) fn fork_jump_targets(
    succ: MachineState,
    rs: Reg,
    code_len: usize,
    limits: &ExecLimits,
    out: &mut impl SuccessorSink,
) {
    for t in ExecLimits::spread(limits.fork_jump_targets, code_len) {
        let mut s = succ.clone();
        // The landed-on address is the concrete value the corrupted
        // register must have held.
        s.set_reg(rs, Value::Int(t as i64));
        s.set_pc(t);
        out.put(s);
    }
    // The register held an out-of-range value.
    let mut trap = succ;
    trap.set_status(Status::Exception(Exception::IllegalInstruction));
    out.put(trap);
}

/// Load through an erroneous pointer: fork over every defined word or
/// trap (§5.2 "errors in pointer values of loads").
pub(crate) fn fork_load_targets(
    succ: MachineState,
    rt: Reg,
    rs: Reg,
    offset: i64,
    limits: &ExecLimits,
    out: &mut impl SuccessorSink,
) {
    let next = succ.pc() + 1;
    let addrs: Vec<u64> = succ.defined_addresses().collect();
    for i in ExecLimits::spread(limits.fork_mem_targets, addrs.len()) {
        let a = addrs[i];
        let mut s = succ.clone();
        let v = succ.mem(a).expect("address enumerated from defined set");
        // Reading from `a` pins the base register to `a - offset`.
        s.set_reg(rs, Value::Int((a as i64).wrapping_sub(offset)));
        s.copy_reg_with_constraints(rt, v, Location::Mem(a));
        s.set_pc(next);
        out.put(s);
    }
    let mut trap = succ;
    trap.set_status(Status::Exception(Exception::IllegalAddress));
    out.put(trap);
}

/// Store through an erroneous pointer: overwrite any defined word, or
/// create a new value in memory (§5.2 "errors in pointer values of
/// stores").
pub(crate) fn fork_store_targets(
    succ: MachineState,
    rt: Reg,
    rs: Reg,
    offset: i64,
    limits: &ExecLimits,
    out: &mut impl SuccessorSink,
) {
    let next = succ.pc() + 1;
    let addrs: Vec<u64> = succ.defined_addresses().collect();
    let value = succ.reg(rt);
    for i in ExecLimits::spread(limits.fork_mem_targets, addrs.len()) {
        let a = addrs[i];
        let mut s = succ.clone();
        s.set_reg(rs, Value::Int((a as i64).wrapping_sub(offset)));
        s.copy_mem_with_constraints(a, value, Location::Reg(rt));
        s.set_pc(next);
        out.put(s);
    }
    // "Creates a new value in memory": a store to a previously
    // undefined address.
    let mut fresh = succ;
    let a = fresh.fresh_address();
    fresh.set_reg(rs, Value::Int((a as i64).wrapping_sub(offset)));
    fresh.copy_mem_with_constraints(a, value, Location::Reg(rt));
    fresh.set_pc(next);
    out.put(fresh);
}

/// Executes a `check` instruction (§5.3): evaluate the detector, fork
/// on symbolic comparisons; the false branch *detects* — it throws and
/// halts the program with [`Status::Detected`].
pub(crate) fn step_check(
    succ: MachineState,
    id: u32,
    detectors: &DetectorSet,
    track_constraints: bool,
    out: &mut impl SuccessorSink,
) {
    let Some(det) = detectors.get(id) else {
        // A check referencing a missing detector is a configuration
        // error surfaced as an illegal instruction.
        let mut s = succ;
        s.set_status(Status::Exception(Exception::IllegalInstruction));
        out.put(s);
        return;
    };
    let target = det.target();
    let Some(lhs) = succ.location_value(target) else {
        let mut s = succ;
        s.set_status(Status::Exception(Exception::IllegalAddress));
        out.put(s);
        return;
    };
    let lloc = lhs.is_err().then_some(target);
    let rhs = match eval_expr(det.expr(), &succ) {
        Ok(v) => v,
        Err(DetectError::DivByZero) => {
            let mut s = succ;
            s.set_status(Status::Exception(Exception::DivByZero));
            out.put(s);
            return;
        }
        Err(_) => {
            let mut s = succ;
            s.set_status(Status::Exception(Exception::IllegalAddress));
            out.put(s);
            return;
        }
    };
    let cases = fork_compare(det.cmp(), lhs, lloc, rhs.value, rhs.origin.single());
    let next = succ.pc() + 1;
    apply_fork_cases(
        succ,
        &cases,
        track_constraints,
        |s, result| {
            if result {
                // Check passed: execution continues.
                s.set_pc(next);
            } else {
                // Check failed: the detector throws and halts — detection.
                s.set_status(Status::Detected(id));
            }
        },
        out,
    );
}

/// Applies one fork case's learned facts to a successor state. Returns
/// `false` when the constraints are unsatisfiable (the path is pruned).
/// With `track` disabled (the constraint-solver ablation), nothing is
/// learned and every fork case stays feasible.
fn apply_case(state: &mut MachineState, case: &CmpCase, track: bool) -> bool {
    if !track {
        return true;
    }
    if let Some((loc, constraint)) = case.constraint {
        if !state.constraints_mut().constrain(loc, constraint) {
            return false;
        }
    }
    if let Some((loc, v)) = case.substitute {
        // Equality learning must be consistent with what the path already
        // knows about the location.
        if let Some(set) = state.constraints().get(loc) {
            if !set.allows(v) {
                return false;
            }
        }
        state.set_location(loc, Value::Int(v));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::parse_program;
    use sympl_detect::Detector;

    fn limits() -> ExecLimits {
        ExecLimits::default()
    }

    fn dets() -> DetectorSet {
        DetectorSet::new()
    }

    /// Run the symbolic executor to completion from `state`, collecting all
    /// terminal states (tiny exhaustive search for tests).
    fn explore(
        program: &Program,
        detectors: &DetectorSet,
        state: MachineState,
    ) -> Vec<MachineState> {
        let lim = limits();
        let mut frontier = vec![state];
        let mut terminal = Vec::new();
        while let Some(s) = frontier.pop() {
            if s.status().is_terminal() {
                terminal.push(s);
                continue;
            }
            frontier.extend(s.step(program, detectors, &lim));
        }
        terminal
    }

    #[test]
    fn straight_line_arithmetic() {
        let p = parse_program("mov $1, 6\nmov $2, 7\nmult $3, $1, $2\nprint $3\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(terminal.len(), 1);
        assert_eq!(terminal[0].status(), &Status::Halted);
        assert_eq!(terminal[0].output_ints(), vec![42]);
    }

    #[test]
    fn branch_on_concrete_value_is_deterministic() {
        let p = parse_program(
            "mov $1, 5\nbeq $1, 5, yes\nprint $0\nhalt\nyes: mov $2, 1\nprint $2\nhalt",
        )
        .unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(terminal.len(), 1);
        assert_eq!(terminal[0].output_ints(), vec![1]);
    }

    #[test]
    fn branch_on_err_forks_both_ways() {
        let p = parse_program("beq $1, 5, yes\nprint $0\nhalt\nyes: mov $2, 1\nprint $2\nhalt")
            .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let terminal = explore(&p, &dets(), s);
        assert_eq!(terminal.len(), 2);
        let outputs: Vec<Vec<i64>> = terminal.iter().map(MachineState::output_ints).collect();
        assert!(outputs.contains(&vec![0]));
        assert!(outputs.contains(&vec![1]));
    }

    #[test]
    fn equality_fork_substitutes_concrete_value() {
        let p = parse_program("beq $1, 5, yes\nhalt\nyes: print $1\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let terminal = explore(&p, &dets(), s);
        // In the taken branch $1 must be 5, so the print shows 5, not err.
        let taken = terminal
            .iter()
            .find(|t| t.output_values().next().is_some())
            .unwrap();
        assert_eq!(taken.output_ints(), vec![5]);
    }

    #[test]
    fn constraints_keep_later_comparisons_consistent() {
        // $1 = err; if ($1 > 10) { if ($1 <= 10) { print 999 } }
        // The inner branch contradicts the outer: 999 must be unreachable.
        let p = parse_program(
            "setgt $2, $1, 10\nbeq $2, 0, out\nsetle $3, $1, 10\nbeq $3, 0, out\nmov $4, 999\nprint $4\nout: halt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let terminal = explore(&p, &dets(), s);
        assert!(
            terminal.iter().all(|t| !t.output_ints().contains(&999)),
            "contradictory path must be pruned by the constraint solver"
        );
    }

    #[test]
    fn division_by_symbolic_divisor_forks_trap_and_err() {
        let p = parse_program("div $2, $3, $1\nprint $2\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        s.set_reg(Reg::r(3), Value::Int(10));
        let terminal = explore(&p, &dets(), s);
        assert_eq!(terminal.len(), 2);
        assert!(terminal
            .iter()
            .any(|t| t.status() == &Status::Exception(Exception::DivByZero)));
        assert!(terminal
            .iter()
            .any(|t| t.status() == &Status::Halted && t.output_contains_err()));
    }

    #[test]
    fn concrete_division_by_zero_traps() {
        let p = parse_program("mov $1, 0\ndiv $2, $3, $1\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(
            terminal[0].status(),
            &Status::Exception(Exception::DivByZero)
        );
    }

    #[test]
    fn jr_on_err_forks_over_all_code_locations() {
        let p = parse_program("jr $31\nmov $1, 1\nprint $1\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(31), Value::Err);
        let succ = s.step(&p, &dets(), &limits());
        // 4 instructions + 1 illegal-instruction case.
        assert_eq!(succ.len(), 5);
        let trap_count = succ
            .iter()
            .filter(|t| t.status() == &Status::Exception(Exception::IllegalInstruction))
            .count();
        assert_eq!(trap_count, 1);
        // Landing pins the register to the landed address.
        for t in succ.iter().filter(|t| !t.status().is_terminal()) {
            assert_eq!(t.reg(Reg::r(31)), Value::Int(t.pc() as i64));
        }
    }

    #[test]
    fn jr_fanout_respects_cap() {
        let p = parse_program("jr $31\nnop\nnop\nnop\nnop\nnop\nnop\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(31), Value::Err);
        let lim = ExecLimits {
            fork_jump_targets: Some(3),
            ..ExecLimits::default()
        };
        let succ = s.step(&p, &dets(), &lim);
        assert_eq!(succ.len(), 4); // 3 targets + trap
    }

    #[test]
    fn jr_concrete_out_of_range_traps() {
        let p = parse_program("mov $31, 99\njr $31\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(
            terminal[0].status(),
            &Status::Exception(Exception::IllegalInstruction)
        );
    }

    #[test]
    fn load_from_undefined_memory_traps() {
        let p = parse_program("ld $1, 100($0)\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(
            terminal[0].status(),
            &Status::Exception(Exception::IllegalAddress)
        );
    }

    #[test]
    fn load_through_err_pointer_forks_over_memory() {
        let p = parse_program("ld $1, 0($2)\nprint $1\nhalt").unwrap();
        let mut s = MachineState::new();
        s.load_memory([(8, 11), (16, 22)]);
        s.set_reg(Reg::r(2), Value::Err);
        let succ = s.step(&p, &dets(), &limits());
        assert_eq!(succ.len(), 3); // two words + illegal address
        let values: Vec<_> = succ
            .iter()
            .filter(|t| !t.status().is_terminal())
            .map(|t| t.reg(Reg::r(1)))
            .collect();
        assert!(values.contains(&Value::Int(11)));
        assert!(values.contains(&Value::Int(22)));
    }

    #[test]
    fn store_through_err_pointer_can_create_fresh_word() {
        let p = parse_program("mov $1, 77\nst $1, 0($2)\nhalt").unwrap();
        let mut s = MachineState::new();
        s.load_memory([(8, 1)]);
        s.set_reg(Reg::r(2), Value::Err);
        // Step past the mov first.
        let s = s.step(&p, &dets(), &limits()).pop().unwrap();
        let succ = s.step(&p, &dets(), &limits());
        assert_eq!(succ.len(), 2); // overwrite [8] or create fresh [16]
        assert!(succ.iter().any(|t| t.mem(8) == Some(Value::Int(77))));
        assert!(succ.iter().any(|t| t.mem(16) == Some(Value::Int(77))));
    }

    #[test]
    fn watchdog_times_out_infinite_loop() {
        let p = parse_program("loop: jmp loop").unwrap();
        let lim = ExecLimits::with_max_steps(50);
        let mut frontier = vec![MachineState::new()];
        let mut terminal = Vec::new();
        while let Some(s) = frontier.pop() {
            if s.status().is_terminal() {
                terminal.push(s);
                continue;
            }
            frontier.extend(s.step(&p, &dets(), &lim));
        }
        assert_eq!(terminal.len(), 1);
        assert_eq!(terminal[0].status(), &Status::TimedOut);
        assert!(terminal[0].steps() >= 50);
    }

    #[test]
    fn check_passing_and_failing_concretely() {
        let mut detectors = DetectorSet::new();
        detectors.insert(Detector::parse("det(1, $(2), >=, (10))").unwrap());
        let p = parse_program("mov $2, 5\ncheck 1\nhalt").unwrap();
        let terminal = explore(&p, &detectors, MachineState::new());
        assert_eq!(terminal[0].status(), &Status::Detected(1));

        let p2 = parse_program("mov $2, 15\ncheck 1\nhalt").unwrap();
        let terminal2 = explore(&p2, &detectors, MachineState::new());
        assert_eq!(terminal2[0].status(), &Status::Halted);
    }

    #[test]
    fn check_on_err_forks_detected_and_missed() {
        let mut detectors = DetectorSet::new();
        detectors.insert(Detector::parse("det(1, $(2), >=, (10))").unwrap());
        let p = parse_program("check 1\nprint $2\nhalt").unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(2), Value::Err);
        let terminal = explore(&p, &detectors, s);
        assert_eq!(terminal.len(), 2);
        let detected = terminal
            .iter()
            .find(|t| t.status() == &Status::Detected(1))
            .expect("one fork detected");
        // The detected branch learned $2 < 10.
        assert!(detected
            .constraints()
            .get(Location::reg(2))
            .is_some_and(|c| c.allows(9) && !c.allows(10)));
        let missed = terminal
            .iter()
            .find(|t| t.status() == &Status::Halted)
            .expect("one fork missed");
        assert!(missed.output_contains_err());
        assert!(missed
            .constraints()
            .get(Location::reg(2))
            .is_some_and(|c| c.allows(10) && !c.allows(9)));
    }

    #[test]
    fn check_with_unknown_detector_traps() {
        let p = parse_program("check 42\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(
            terminal[0].status(),
            &Status::Exception(Exception::IllegalInstruction)
        );
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let p = parse_program("jal f\nprint $1\nhalt\nf: mov $1, 9\njr $31").unwrap();
        let terminal = explore(&p, &dets(), MachineState::new());
        assert_eq!(terminal.len(), 1);
        assert_eq!(terminal[0].output_ints(), vec![9]);
    }

    #[test]
    fn read_and_print_io() {
        let p = parse_program("read $1\nread $2\nadd $3, $1, $2\nprint $3\nhalt").unwrap();
        let terminal = explore(&p, &dets(), MachineState::with_input(vec![30, 12]));
        assert_eq!(terminal[0].output_ints(), vec![42]);
    }

    #[test]
    fn paper_factorial_err_injection_outcomes() {
        // §4.1: error in the loop counter $3 right after the first
        // decrement, with input 5. The true case of the forked loop
        // condition exits and prints the current product (5); the false
        // case keeps looping, propagating err into the product via `mult`,
        // so later exits print err and the deepest path times out — exactly
        // the behaviours the paper walks through.
        let p = parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap();
        let lim = ExecLimits::with_max_steps(300);
        let mut s = MachineState::with_input(vec![5]);
        while s.pc() != 8 {
            let mut succ = s.step(&p, &dets(), &lim);
            assert_eq!(succ.len(), 1);
            s = succ.pop().unwrap();
        }
        s.set_reg(Reg::r(3), Value::Err);
        let mut frontier = vec![s];
        let mut terminal = Vec::new();
        while let Some(t) = frontier.pop() {
            if t.status().is_terminal() {
                terminal.push(t);
                continue;
            }
            frontier.extend(t.step(&p, &dets(), &lim));
        }
        let printed: Vec<i64> = terminal
            .iter()
            .filter(|t| t.status() == &Status::Halted)
            .flat_map(MachineState::output_ints)
            .collect();
        assert!(printed.contains(&5), "printed = {printed:?}");
        assert!(
            terminal.iter().any(MachineState::output_contains_err),
            "some exit must print the propagated err"
        );
        assert!(
            terminal.iter().any(|t| t.status() == &Status::TimedOut),
            "the ever-looping fork must hit the watchdog"
        );
    }
}
