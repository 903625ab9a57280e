//! Preparing an injection: concrete prefix, plant the `err`, search.

use std::cell::Cell;
use std::collections::HashMap;

use sympl_asm::{Instr, Program};
use sympl_check::{Explorer, Predicate, SearchLimits, SearchReport};
use sympl_detect::DetectorSet;
use sympl_machine::{
    run_concrete, run_concrete_to_breakpoint, step_concrete, ExecLimits, MachineState,
};
use sympl_symbolic::Value;

use crate::{InjectTarget, InjectionPoint};

/// The seed states produced by applying an injection point.
#[derive(Debug, Clone)]
pub struct PreparedInjection {
    /// The point that was applied.
    pub point: InjectionPoint,
    /// Initial symbolic states for the search (several when the corruption
    /// itself is non-deterministic, e.g. a fetch error's landing site).
    pub seeds: Vec<MachineState>,
    /// Whether the breakpoint was reached on the error-free path. An
    /// unreached breakpoint means the fault is never activated for this
    /// input; the paper counts such injections as benign.
    pub activated: bool,
}

/// Runs the error-free execution and returns the final state (for golden
/// outputs and memory layouts).
///
/// # Panics
///
/// Panics if the program is not concretely executable from a fresh state
/// (this indicates a malformed workload, not an injected error).
#[must_use]
pub fn golden_run(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    limits: &ExecLimits,
) -> MachineState {
    let mut s = MachineState::with_input(input.to_vec());
    run_concrete(&mut s, program, detectors, limits)
        .expect("golden run must be concrete: no err values exist before injection");
    s
}

/// Runs the concrete prefix up to the injection point and plants the error.
///
/// Returns the seed states for the symbolic search. If the breakpoint is
/// never reached (the instruction is not on this input's path), `seeds` is
/// empty and `activated` is `false`.
#[must_use]
pub fn prepare(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    point: &InjectionPoint,
    limits: &ExecLimits,
) -> PreparedInjection {
    let mut state = MachineState::with_input(input.to_vec());
    let reached = run_concrete_to_breakpoint(
        &mut state,
        program,
        detectors,
        limits,
        point.breakpoint,
        point.occurrence,
    )
    .expect("prefix must be concrete: no err values exist before injection");

    if !reached {
        return PreparedInjection {
            point: *point,
            seeds: Vec::new(),
            activated: false,
        };
    }

    let seeds = apply_target(program, detectors, state, point, limits);
    PreparedInjection {
        point: *point,
        seeds,
        activated: true,
    }
}

fn apply_target(
    program: &Program,
    detectors: &DetectorSet,
    state: MachineState,
    point: &InjectionPoint,
    limits: &ExecLimits,
) -> Vec<MachineState> {
    let instr = program
        .fetch(point.breakpoint)
        .expect("breakpoint was reached, so it is a valid address");
    match point.target {
        InjectTarget::Register(r) => {
            let mut s = state;
            s.set_reg(r, Value::Err);
            vec![s]
        }
        InjectTarget::LoadedWord => {
            // Corrupt the word the load is about to read.
            let Instr::Load { rs, offset, .. } = instr else {
                return Vec::new();
            };
            let mut s = state;
            let Some(base) = s.reg(*rs).as_int() else {
                return Vec::new();
            };
            let Ok(addr) = u64::try_from(base.wrapping_add(*offset)) else {
                return Vec::new();
            };
            if s.mem(addr).is_none() {
                // The load would trap anyway; the memory error cannot
                // manifest.
                return Vec::new();
            }
            s.set_mem(addr, Value::Err);
            vec![s]
        }
        InjectTarget::Destination => {
            // Functional-unit error: execute the instruction, then corrupt
            // what it wrote.
            let mut s = state;
            // Identify a stored word's address before the store executes.
            let store_addr = if let Instr::Store { rs, offset, .. } = instr {
                s.reg(*rs)
                    .as_int()
                    .and_then(|base| u64::try_from(base.wrapping_add(*offset)).ok())
            } else {
                None
            };
            if step_concrete(&mut s, program, detectors, limits).is_err() {
                return Vec::new();
            }
            if s.status().is_terminal() {
                return Vec::new();
            }
            if let Some(addr) = store_addr {
                s.set_mem(addr, Value::Err);
            } else if let Some(rd) = instr.dest_reg() {
                s.set_reg(rd, Value::Err);
            } else {
                return Vec::new();
            }
            vec![s]
        }
        InjectTarget::ChangedTarget { wrong } => {
            // Execute, then err in both the intended and the wrong target.
            let mut s = state;
            if step_concrete(&mut s, program, detectors, limits).is_err() {
                return Vec::new();
            }
            if s.status().is_terminal() {
                return Vec::new();
            }
            if let Some(rd) = instr.dest_reg() {
                s.set_reg(rd, Value::Err);
            }
            s.set_reg(wrong, Value::Err);
            vec![s]
        }
        InjectTarget::NopToTargeted { wrong } => {
            let mut s = state;
            if step_concrete(&mut s, program, detectors, limits).is_err() {
                return Vec::new();
            }
            if s.status().is_terminal() {
                return Vec::new();
            }
            s.set_reg(wrong, Value::Err);
            vec![s]
        }
        InjectTarget::TargetedToNop => {
            // The intended write never happens: skip the instruction and
            // mark its destination stale (err).
            let mut s = state;
            if let Some(rd) = instr.dest_reg() {
                s.set_reg(rd, Value::Err);
            }
            s.set_pc(point.breakpoint + 1);
            s.bump_steps();
            vec![s]
        }
        InjectTarget::ProgramCounter => {
            // Fetch error: the PC lands on an arbitrary valid location.
            (0..program.len())
                .filter(|&t| t != point.breakpoint)
                .map(|t| {
                    let mut s = state.clone();
                    s.set_pc(t);
                    s
                })
                .collect()
        }
    }
}

/// A cache of the shared error-free prefix for one (program, detectors,
/// input, limits) configuration: every injection point of a campaign
/// re-runs the same concrete execution up to its breakpoint, so one sweep
/// that snapshots the state at the *first arrival* of every PC replaces
/// per-point prefix re-execution with an O(1) copy-on-write clone.
///
/// Exactness: concrete execution is deterministic and the machine state
/// is a pure content function (rolling fingerprints included), so a
/// cloned first-arrival snapshot is indistinguishable from a state
/// [`run_concrete_to_breakpoint`] produced fresh — for occurrence 1, which
/// is every point [`crate::enumerate_points`] emits. Later-occurrence
/// points fall back to the uncached path (snapshots record first arrivals
/// only). A PC with no snapshot was never reached before termination:
/// the fault is not activated on this input, decided without re-running
/// anything.
///
/// The saved work is reported through [`PrefixCache::steps_saved`]:
/// the concrete steps each served prepare did *not* re-execute.
#[derive(Debug)]
pub struct PrefixCache<'a> {
    program: &'a Program,
    detectors: &'a DetectorSet,
    input: Vec<i64>,
    limits: ExecLimits,
    /// First-arrival state per PC, captured pre-expansion (the exact state
    /// `run_concrete_to_breakpoint` hands to `apply_target`).
    snapshots: HashMap<usize, MachineState>,
    /// Steps of the whole error-free run (what a fresh prepare of an
    /// unreached breakpoint would have executed before giving up).
    full_run_steps: u64,
    steps_saved: Cell<u64>,
    hits: Cell<usize>,
}

impl<'a> PrefixCache<'a> {
    /// Runs the error-free execution once, snapshotting the first arrival
    /// at every PC. The sweep's own cost is one concrete run — the same
    /// price a single uncached `prepare` pays.
    ///
    /// # Panics
    ///
    /// Panics if the prefix is not concretely executable (no err values
    /// exist before injection; a failure indicates a malformed workload).
    #[must_use]
    pub fn new(
        program: &'a Program,
        detectors: &'a DetectorSet,
        input: &[i64],
        limits: &ExecLimits,
    ) -> Self {
        let mut snapshots = HashMap::new();
        let mut state = MachineState::with_input(input.to_vec());
        // Mirrors `run_concrete_to_breakpoint`: terminal check first, then
        // the PC is observable as a breakpoint, then one step.
        while !state.status().is_terminal() {
            snapshots.entry(state.pc()).or_insert_with(|| state.clone());
            step_concrete(&mut state, program, detectors, limits)
                .expect("prefix must be concrete: no err values exist before injection");
        }
        PrefixCache {
            program,
            detectors,
            input: input.to_vec(),
            limits: limits.clone(),
            snapshots,
            full_run_steps: state.steps(),
            steps_saved: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// The program the cache swept.
    #[must_use]
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The input the cache swept under.
    #[must_use]
    pub fn input(&self) -> &[i64] {
        &self.input
    }

    /// Concrete prefix steps served from snapshots instead of re-executed.
    #[must_use]
    pub fn steps_saved(&self) -> u64 {
        self.steps_saved.get()
    }

    /// Prepares served from the cache (vs. fallback to [`prepare`]).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    fn note_saved(&self, steps: u64) {
        self.steps_saved.set(self.steps_saved.get() + steps);
        self.hits.set(self.hits.get() + 1);
    }
}

/// [`prepare`] served from a [`PrefixCache`]: identical outputs for
/// occurrence-1 points (see the cache's exactness contract), with the
/// shared prefix cloned instead of re-executed. Later-occurrence points
/// fall back to the uncached path.
#[must_use]
pub fn prepare_cached(cache: &PrefixCache<'_>, point: &InjectionPoint) -> PreparedInjection {
    if point.occurrence > 1 {
        return prepare(
            cache.program,
            cache.detectors,
            &cache.input,
            point,
            &cache.limits,
        );
    }
    match cache.snapshots.get(&point.breakpoint) {
        Some(snapshot) => {
            cache.note_saved(snapshot.steps());
            let seeds = apply_target(
                cache.program,
                cache.detectors,
                snapshot.clone(),
                point,
                &cache.limits,
            );
            PreparedInjection {
                point: *point,
                seeds,
                activated: true,
            }
        }
        None => {
            // Never reached pre-terminal: not activated. A fresh prepare
            // would have executed the whole error-free run to learn this.
            cache.note_saved(cache.full_run_steps);
            PreparedInjection {
                point: *point,
                seeds: Vec::new(),
                activated: false,
            }
        }
    }
}

/// The result of one injection-point search task.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The injection point examined.
    pub point: InjectionPoint,
    /// Whether the fault was activated (breakpoint reached).
    pub activated: bool,
    /// The search report (empty when not activated).
    pub report: SearchReport,
}

impl PointOutcome {
    /// Whether the search found predicate-matching terminal states.
    #[must_use]
    pub fn found_errors(&self) -> bool {
        !self.report.solutions.is_empty()
    }
}

/// Prepares an injection point and model-checks its seed states on a
/// caller-supplied [`Explorer`]: the unit of campaign work (one cluster
/// task runs many of these against one engine configuration).
#[must_use]
pub fn run_point_with(
    explorer: &Explorer<'_>,
    input: &[i64],
    point: &InjectionPoint,
    predicate: &Predicate,
) -> PointOutcome {
    let prepared = prepare(
        explorer.program(),
        explorer.detectors(),
        input,
        point,
        explorer.exec_limits(),
    );
    if !prepared.activated || prepared.seeds.is_empty() {
        return PointOutcome {
            point: *point,
            activated: prepared.activated,
            report: SearchReport::default(),
        };
    }
    let report = explorer.explore(prepared.seeds, predicate);
    PointOutcome {
        point: *point,
        activated: true,
        report,
    }
}

/// [`run_point_with`], with the prepare phase served from a
/// [`PrefixCache`] instead of re-running the error-free prefix. The cache
/// must have been built for the same program, detectors, input, and exec
/// limits the explorer carries — campaign layers build one cache per
/// (task, input) next to the task's explorer configuration.
#[must_use]
pub fn run_point_cached(
    explorer: &Explorer<'_>,
    cache: &PrefixCache<'_>,
    point: &InjectionPoint,
    predicate: &Predicate,
) -> PointOutcome {
    let prepared = prepare_cached(cache, point);
    if !prepared.activated || prepared.seeds.is_empty() {
        return PointOutcome {
            point: *point,
            activated: prepared.activated,
            report: SearchReport::default(),
        };
    }
    let report = explorer.explore(prepared.seeds, predicate);
    PointOutcome {
        point: *point,
        activated: true,
        report,
    }
}

/// Prepares an injection point and model-checks its seed states: the
/// one-shot form of [`run_point_with`], constructing a throwaway
/// [`Explorer`] for the given budgets.
#[must_use]
pub fn run_point(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    point: &InjectionPoint,
    predicate: &Predicate,
    limits: &SearchLimits,
) -> PointOutcome {
    let explorer = Explorer::new(program, detectors).with_limits(limits.clone());
    run_point_with(&explorer, input, point, predicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enumerate_points, ErrorClass};
    use sympl_asm::{parse_program, Reg};
    use sympl_machine::Status;

    fn dets() -> DetectorSet {
        DetectorSet::new()
    }

    #[test]
    fn golden_run_produces_reference_output() {
        let p = parse_program("read $1\nmult $2, $1, $1\nprint $2\nhalt").unwrap();
        let s = golden_run(&p, &dets(), &[7], &ExecLimits::default());
        assert_eq!(s.status(), &Status::Halted);
        assert_eq!(s.output_ints(), vec![49]);
    }

    #[test]
    fn prepare_register_injection_plants_err() {
        let p = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::Register(Reg::r(1)));
        let prep = prepare(&p, &dets(), &[10], &point, &ExecLimits::default());
        assert!(prep.activated);
        assert_eq!(prep.seeds.len(), 1);
        assert_eq!(prep.seeds[0].reg(Reg::r(1)), Value::Err);
        assert_eq!(prep.seeds[0].pc(), 1, "stopped at the breakpoint");
    }

    #[test]
    fn unreached_breakpoint_is_not_activated() {
        let p = parse_program("beq $0, 0, end\nmov $1, 1\nend: halt").unwrap();
        // Instruction 1 is dead code on this path.
        let point = InjectionPoint::new(1, InjectTarget::Register(Reg::r(1)));
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        assert!(!prep.activated);
        assert!(prep.seeds.is_empty());
    }

    #[test]
    fn loaded_word_injection_corrupts_memory() {
        let p =
            parse_program("mov $29, 64\nmov $1, 5\nst $1, 0($29)\nld $2, 0($29)\nprint $2\nhalt")
                .unwrap();
        let point = InjectionPoint::new(3, InjectTarget::LoadedWord);
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        assert!(prep.activated);
        assert_eq!(prep.seeds[0].mem(64), Some(Value::Err));
    }

    #[test]
    fn destination_injection_runs_the_instruction_first() {
        let p = parse_program("mov $1, 5\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::Destination);
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        assert!(prep.activated);
        let seed = &prep.seeds[0];
        assert_eq!(seed.pc(), 2, "instruction already executed");
        assert_eq!(seed.reg(Reg::r(2)), Value::Err);
        assert_eq!(seed.reg(Reg::r(1)), Value::Int(5), "source unharmed");
    }

    #[test]
    fn changed_target_corrupts_both_destinations() {
        let p = parse_program("mov $1, 5\naddi $2, $1, 1\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::ChangedTarget { wrong: Reg::r(10) });
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        let seed = &prep.seeds[0];
        assert_eq!(seed.reg(Reg::r(2)), Value::Err);
        assert_eq!(seed.reg(Reg::r(10)), Value::Err);
    }

    #[test]
    fn targeted_to_nop_skips_and_stales() {
        let p = parse_program("mov $1, 5\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::TargetedToNop);
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        let seed = &prep.seeds[0];
        assert_eq!(seed.pc(), 2, "instruction skipped");
        assert_eq!(seed.reg(Reg::r(2)), Value::Err, "stale destination");
    }

    #[test]
    fn pc_injection_fans_out_over_code() {
        let p = parse_program("mov $1, 1\nmov $2, 2\nmov $3, 3\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::ProgramCounter);
        let prep = prepare(&p, &dets(), &[], &point, &ExecLimits::default());
        assert_eq!(prep.seeds.len(), p.len() - 1, "every other location");
        let pcs: Vec<usize> = prep.seeds.iter().map(MachineState::pc).collect();
        assert!(!pcs.contains(&1));
    }

    #[test]
    fn run_point_finds_err_in_output() {
        let p = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let point = InjectionPoint::new(1, InjectTarget::Register(Reg::r(1)));
        let outcome = run_point(
            &p,
            &dets(),
            &[10],
            &point,
            &Predicate::OutputContainsErr,
            &SearchLimits::default(),
        );
        assert!(outcome.activated);
        assert!(outcome.found_errors());
        assert_eq!(outcome.report.solutions.len(), 1);
    }

    #[test]
    fn cached_prepare_equals_fresh_prepare() {
        // Every point of a register campaign on a looping program: the
        // cached prefix must reproduce the fresh prepare bit-for-bit —
        // same activation, same seed fingerprints, same seed order.
        let p = parse_program(
            "ori $2 $0 #1\nread $1\nloop: mult $2 $2 $1\nsubi $1 $1 #1\n\
             setgt $5 $1 $0\nbeq $5 0 exit\nbeq $0 #0 loop\nexit: print $2\nhalt",
        )
        .unwrap();
        let d = dets();
        let input = [3i64];
        let limits = ExecLimits::default();
        let cache = PrefixCache::new(&p, &d, &input, &limits);
        let mut points = enumerate_points(&p, &ErrorClass::RegisterFile);
        points.extend(enumerate_points(&p, &ErrorClass::ProgramCounter));
        // Include a dead-code point so the not-activated path is covered.
        points.push(InjectionPoint::new(6, InjectTarget::Register(Reg::r(2))));
        assert!(!points.is_empty());
        for point in &points {
            let fresh = prepare(&p, &d, &input, point, &limits);
            let cached = prepare_cached(&cache, point);
            assert_eq!(cached.activated, fresh.activated, "{point:?}");
            let fp = |prep: &PreparedInjection| {
                prep.seeds
                    .iter()
                    .map(|s| s.fingerprint())
                    .collect::<Vec<_>>()
            };
            assert_eq!(fp(&cached), fp(&fresh), "{point:?}");
        }
        assert!(cache.hits() > 0);
        assert!(
            cache.steps_saved() > 0,
            "the loop program has real prefixes to save"
        );
    }

    #[test]
    fn whole_register_campaign_on_factorial() {
        // End-to-end: enumerate the register-file campaign on the paper's
        // factorial program and check at least one point prints err.
        let p = parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap();
        let points = enumerate_points(&p, &ErrorClass::RegisterFile);
        assert!(points.len() >= 8, "factorial uses many registers");
        let limits = SearchLimits {
            exec: ExecLimits::with_max_steps(400),
            ..SearchLimits::default()
        };
        let mut found = 0;
        for point in &points {
            let out = run_point(
                &p,
                &dets(),
                &[4],
                point,
                &Predicate::OutputContainsErr,
                &limits,
            );
            if out.found_errors() {
                found += 1;
            }
        }
        assert!(found >= 3, "several register errors must reach the output");
    }
}
