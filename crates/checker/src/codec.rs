//! Wire records for the checker's configuration and result types.
//!
//! These extend the state codec (`sympl_machine::codec`) upward: a
//! [`Solution`] is an encoded state plus its witness trace, an
//! [`OutcomeCounts`] is the terminal tally, and a [`SearchLimits`] record
//! carries everything a remote worker needs to run the *same* search —
//! the watchdog/fork bounds, the state/solution/time budgets, the
//! frontier policy, and the spill budget. Together with the predicate
//! codec they are the payload vocabulary of the `sympl_wire` network
//! protocol. Each record is declared once through
//! [`sympl_symbolic::codec_record!`].
//!
//! [`encode_predicate`] is the one fallible encoder:
//! [`Predicate::Custom`] wraps an arbitrary closure and has no wire
//! representation, so encoding it surfaces [`CodecError::Unsupported`]
//! instead of silently shipping a different query.

use sympl_machine::codec::CodecError;
use sympl_symbolic::codec::Codec;
use sympl_symbolic::codec_record;

use crate::{FrontierPolicy, OutcomeCounts, Predicate, PriorityHeuristic, SearchLimits, Solution};

const PRED_OUTPUT_CONTAINS_ERR: u8 = 0;
const PRED_WRONG_OUTPUT: u8 = 1;
const PRED_EXACT_OUTPUT: u8 = 2;
const PRED_CRASHED: u8 = 3;
const PRED_HUNG: u8 = 4;
const PRED_DETECTED: u8 = 5;
const PRED_ANY: u8 = 6;

/// Appends a [`Predicate`].
///
/// # Errors
///
/// [`CodecError::Unsupported`] for [`Predicate::Custom`]: closures cannot
/// cross the wire, so distributed campaigns must use the data-carrying
/// variants.
pub fn encode_predicate(predicate: &Predicate, buf: &mut Vec<u8>) -> Result<(), CodecError> {
    match predicate {
        Predicate::OutputContainsErr => buf.push(PRED_OUTPUT_CONTAINS_ERR),
        Predicate::WrongOutput { expected } => {
            buf.push(PRED_WRONG_OUTPUT);
            expected.encode(buf);
        }
        Predicate::ExactOutput { output } => {
            buf.push(PRED_EXACT_OUTPUT);
            output.encode(buf);
        }
        Predicate::Crashed => buf.push(PRED_CRASHED),
        Predicate::Hung => buf.push(PRED_HUNG),
        Predicate::Detected => buf.push(PRED_DETECTED),
        Predicate::Any => buf.push(PRED_ANY),
        Predicate::Custom(_) => return Err(CodecError::Unsupported("custom predicate")),
    }
    Ok(())
}

/// Decodes a [`Predicate`] at `*pos`, advancing it.
///
/// # Errors
///
/// [`CodecError::BadTag`] on an unknown tag, plus the varint errors.
pub fn decode_predicate(bytes: &[u8], pos: &mut usize) -> Result<Predicate, CodecError> {
    match u8::decode(bytes, pos)? {
        PRED_OUTPUT_CONTAINS_ERR => Ok(Predicate::OutputContainsErr),
        PRED_WRONG_OUTPUT => Ok(Predicate::WrongOutput {
            expected: Codec::decode(bytes, pos)?,
        }),
        PRED_EXACT_OUTPUT => Ok(Predicate::ExactOutput {
            output: Codec::decode(bytes, pos)?,
        }),
        PRED_CRASHED => Ok(Predicate::Crashed),
        PRED_HUNG => Ok(Predicate::Hung),
        PRED_DETECTED => Ok(Predicate::Detected),
        PRED_ANY => Ok(Predicate::Any),
        tag => Err(CodecError::BadTag {
            what: "predicate",
            tag,
        }),
    }
}

/// A predicate inside a record (a task frame) forwards to
/// [`encode_predicate`] / [`decode_predicate`].
impl Codec for Predicate {
    /// # Panics
    ///
    /// On [`Predicate::Custom`]: callers refuse such a value with
    /// [`encode_predicate`] before encoding the record that holds it.
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_predicate(self, buf).expect("a custom predicate has no wire form");
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        decode_predicate(bytes, pos)
    }
}

const POLICY_BFS: u8 = 0;
const POLICY_DFS: u8 = 1;
const POLICY_PRIORITY: u8 = 2;
const POLICY_IDDFS: u8 = 3;

codec_record! {
    enum FrontierPolicy as "frontier policy" {
        POLICY_BFS => Bfs,
        POLICY_DFS => Dfs,
        POLICY_PRIORITY => Priority(heuristic),
        POLICY_IDDFS => IterativeDeepening { initial_depth, depth_step },
    }
}

const HEUR_CONSTRAINTS: u8 = 0;
const HEUR_DEPTH: u8 = 1;
const HEUR_OUTPUT: u8 = 2;

codec_record! {
    enum PriorityHeuristic as "priority heuristic" {
        HEUR_CONSTRAINTS => ConstraintMapSize,
        HEUR_DEPTH => Depth,
        HEUR_OUTPUT => OutputLen,
    }
}

codec_record! {
    struct SearchLimits { exec, max_states, max_solutions, max_time, policy, max_frontier_bytes }
}

codec_record! {
    struct Solution { state, trace }
}

codec_record! {
    struct OutcomeCounts { halted, crashed, hung, detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchReport, SubtreeSummary};
    use sympl_machine::MachineState;
    use sympl_symbolic::Value;

    fn sample_solution() -> Solution {
        let mut state = MachineState::with_input(vec![4, 5]);
        state.set_reg(sympl_asm::Reg::r(2), Value::Err);
        state.set_status(sympl_machine::Status::Halted);
        Solution {
            state,
            trace: vec![0, 1, 5, 6, 6],
        }
    }

    #[test]
    fn predicates_roundtrip_and_custom_is_rejected() {
        let preds = [
            Predicate::OutputContainsErr,
            Predicate::WrongOutput {
                expected: vec![1, -2, 3],
            },
            Predicate::ExactOutput { output: vec![] },
            Predicate::Crashed,
            Predicate::Hung,
            Predicate::Detected,
            Predicate::Any,
        ];
        for p in preds {
            let mut buf = Vec::new();
            encode_predicate(&p, &mut buf).unwrap();
            let mut pos = 0;
            let decoded = decode_predicate(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(format!("{decoded:?}"), format!("{p:?}"));
        }
        let custom = Predicate::custom(|_| true);
        assert_eq!(
            encode_predicate(&custom, &mut Vec::new()),
            Err(CodecError::Unsupported("custom predicate"))
        );
        assert!(matches!(
            decode_predicate(&[99], &mut 0),
            Err(CodecError::BadTag {
                what: "predicate",
                ..
            })
        ));
    }

    #[test]
    fn policies_and_limits_roundtrip() {
        let policies = [
            FrontierPolicy::Bfs,
            FrontierPolicy::Dfs,
            FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
            FrontierPolicy::IterativeDeepening {
                initial_depth: 7,
                depth_step: 13,
            },
        ];
        for policy in policies {
            let limits = SearchLimits {
                policy,
                max_frontier_bytes: Some(1 << 20),
                max_time: Some(std::time::Duration::from_millis(1234)),
                ..SearchLimits::default()
            };
            let mut buf = Vec::new();
            limits.encode(&mut buf);
            let mut pos = 0;
            let decoded = SearchLimits::decode(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(decoded.policy, limits.policy);
            assert_eq!(decoded.exec, limits.exec);
            assert_eq!(decoded.max_states, limits.max_states);
            assert_eq!(decoded.max_solutions, limits.max_solutions);
            assert_eq!(decoded.max_time, limits.max_time);
            assert_eq!(decoded.max_frontier_bytes, limits.max_frontier_bytes);
        }
    }

    /// A search report as the memo store keeps it: two solutions and a
    /// terminal tally, every statistic non-zero.
    fn sample_report() -> SubtreeSummary {
        let report = SearchReport {
            solutions: vec![sample_solution(), sample_solution()],
            states_explored: 1234,
            terminals: OutcomeCounts {
                halted: 3,
                crashed: 1,
                hung: 0,
                detected: 2,
            },
            duplicate_hits: 55,
            exhausted: true,
            hit_state_cap: false,
            hit_solution_cap: true,
            hit_time_cap: false,
            elapsed: std::time::Duration::from_micros(987_654),
            states_per_second: 1_234_567.89,
            workers: 8,
            steals: 17,
            peak_frontier_len: 99,
            peak_frontier_bytes: 4096,
            spilled_states: 12,
            memo_hits: 0,
            memo_states_skipped: 0,
        };
        SubtreeSummary::from_report(&report, 42)
    }

    #[test]
    fn solutions_and_reports_roundtrip() {
        let summary = sample_report();
        let mut buf = Vec::new();
        summary.encode(&mut buf);
        let mut pos = 0;
        let decoded = SubtreeSummary::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(decoded, summary, "full Eq round-trip");
        assert_eq!(decoded.to_report(), summary.to_report());
        // Decoded solution states carry live fingerprint caches.
        assert_eq!(
            decoded.solutions[0].state.fingerprint(),
            decoded.solutions[0].state.fingerprint_from_scratch()
        );

        // The bare record pair round-trips on its own too.
        let record = (summary.solutions.clone(), summary.terminals);
        let mut buf = Vec::new();
        record.encode(&mut buf);
        let mut pos = 0;
        let decoded = <(Vec<Solution>, OutcomeCounts)>::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(decoded, record);
    }

    #[test]
    fn truncated_reports_error_cleanly() {
        let mut buf = Vec::new();
        sample_report().encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(SubtreeSummary::decode(&buf[..cut], &mut 0).is_err());
        }
        let mut buf = Vec::new();
        (vec![sample_solution()], OutcomeCounts::default()).encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(<(Vec<Solution>, OutcomeCounts)>::decode(&buf[..cut], &mut 0).is_err());
        }
    }
}
