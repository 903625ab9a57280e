//! Outcome predicates: the user-defined functions on terminal machine
//! states that the search command filters by (paper §5.4).

use std::fmt;
use std::sync::Arc;

use sympl_machine::{MachineState, Status};

/// A predicate over *terminal* machine states.
///
/// The paper lets the user supply any first-order formula over the final
/// state; the common queries from the evaluation are provided as variants
/// and anything else via [`Predicate::Custom`].
///
/// Predicates are **frontier-policy agnostic**: they see only terminal
/// states, never the frontier, so which states a search *matches* is
/// independent of [`crate::FrontierPolicy`] — the policy can only change
/// discovery order (and, on truncated searches, which prefix was explored;
/// see [`crate::FrontierPolicy::determinism_contract`]). Nothing in this
/// module may branch on the policy; everything policy-shaped lives in
/// [`crate::frontier`], which is what keeps a new policy a one-file
/// change.
#[derive(Clone)]
pub enum Predicate {
    /// `output(S) contains err` — the paper's running example query.
    OutputContainsErr,
    /// The program halted normally (no exception/hang) but its printed
    /// integers differ from the expected sequence — the §6.1 "incorrect
    /// output" query (erroneous advisory, wrong substitution, …).
    WrongOutput {
        /// The error-free (golden) output.
        expected: Vec<i64>,
    },
    /// The program halted normally and printed exactly this sequence —
    /// used to hunt a *specific* catastrophic outcome (tcas printing 2).
    ExactOutput {
        /// The outcome searched for.
        output: Vec<i64>,
    },
    /// The program crashed (threw an exception).
    Crashed,
    /// The program hit the watchdog bound (hang).
    Hung,
    /// A detector fired.
    Detected,
    /// Every terminal state matches.
    Any,
    /// An arbitrary user predicate.
    Custom(Arc<dyn Fn(&MachineState) -> bool + Send + Sync>),
}

impl Predicate {
    /// Evaluates the predicate on a terminal state.
    ///
    /// Allocation-free: this runs once per terminal state on the engine's
    /// hot path, so output comparisons stream
    /// [`MachineState::output_ints_iter`] against the expected sequence
    /// instead of collecting a fresh `Vec` per call, and the contains-err
    /// probe is an O(1) cached counter check.
    #[must_use]
    pub fn matches(&self, state: &MachineState) -> bool {
        match self {
            Predicate::OutputContainsErr => state.output_contains_err(),
            Predicate::WrongOutput { expected } => {
                state.status() == &Status::Halted
                    && (state.output_contains_err()
                        || !state.output_ints_iter().eq(expected.iter().copied()))
            }
            Predicate::ExactOutput { output } => {
                state.status() == &Status::Halted
                    && !state.output_contains_err()
                    && state.output_ints_iter().eq(output.iter().copied())
            }
            Predicate::Crashed => matches!(state.status(), Status::Exception(_)),
            Predicate::Hung => state.status() == &Status::TimedOut,
            Predicate::Detected => matches!(state.status(), Status::Detected(_)),
            Predicate::Any => true,
            Predicate::Custom(f) => f(state),
        }
    }

    /// A custom predicate from a closure.
    #[must_use]
    pub fn custom(f: impl Fn(&MachineState) -> bool + Send + Sync + 'static) -> Self {
        Predicate::Custom(Arc::new(f))
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::OutputContainsErr => f.write_str("OutputContainsErr"),
            Predicate::WrongOutput { expected } => {
                write!(f, "WrongOutput {{ expected: {expected:?} }}")
            }
            Predicate::ExactOutput { output } => write!(f, "ExactOutput {{ output: {output:?} }}"),
            Predicate::Crashed => f.write_str("Crashed"),
            Predicate::Hung => f.write_str("Hung"),
            Predicate::Detected => f.write_str("Detected"),
            Predicate::Any => f.write_str("Any"),
            Predicate::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_machine::{Exception, OutItem};
    use sympl_symbolic::Value;

    fn halted_with(values: &[Value]) -> MachineState {
        let mut s = MachineState::new();
        for v in values {
            s.push_output(OutItem::Val(*v));
        }
        s.set_status(Status::Halted);
        s
    }

    #[test]
    fn output_contains_err() {
        let p = Predicate::OutputContainsErr;
        assert!(p.matches(&halted_with(&[Value::Err])));
        assert!(!p.matches(&halted_with(&[Value::Int(1)])));
    }

    #[test]
    fn wrong_output_requires_normal_halt() {
        let p = Predicate::WrongOutput { expected: vec![1] };
        assert!(p.matches(&halted_with(&[Value::Int(2)])));
        assert!(
            p.matches(&halted_with(&[Value::Err])),
            "err output is wrong"
        );
        assert!(!p.matches(&halted_with(&[Value::Int(1)])));
        let mut crashed = halted_with(&[Value::Int(2)]);
        crashed.set_status(Status::Exception(Exception::DivByZero));
        assert!(!p.matches(&crashed), "crashes are not wrong-output");
    }

    #[test]
    fn exact_output_excludes_err() {
        let p = Predicate::ExactOutput { output: vec![2] };
        assert!(p.matches(&halted_with(&[Value::Int(2)])));
        assert!(!p.matches(&halted_with(&[Value::Int(2), Value::Err])));
        assert!(!p.matches(&halted_with(&[Value::Int(1)])));
    }

    #[test]
    fn status_predicates() {
        let mut s = MachineState::new();
        s.set_status(Status::Exception(Exception::IllegalAddress));
        assert!(Predicate::Crashed.matches(&s));
        s.set_status(Status::TimedOut);
        assert!(Predicate::Hung.matches(&s));
        s.set_status(Status::Detected(3));
        assert!(Predicate::Detected.matches(&s));
        assert!(Predicate::Any.matches(&s));
    }

    #[test]
    fn custom_predicate() {
        let p = Predicate::custom(|s| s.output_ints().len() == 2);
        assert!(p.matches(&halted_with(&[Value::Int(1), Value::Int(2)])));
        assert!(!p.matches(&halted_with(&[Value::Int(1)])));
        assert!(format!("{p:?}").contains("Custom"));
    }
}
