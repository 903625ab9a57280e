//! # sympl-check — the bounded model checker
//!
//! Implements the paper's §5.4: Maude's exhaustive `search` command,
//! re-expressed as an explicit breadth-first exploration of the symbolic
//! machine's state space. The searcher starts from an initial (possibly
//! already-corrupted) state, expands every non-deterministic successor of
//! the error model, deduplicates revisited states, bounds the exploration
//! with the watchdog instruction limit plus state/solution/time budgets,
//! and collects every *terminal* state satisfying a user-supplied outcome
//! predicate — the analogue of
//!
//! ```text
//! search regErrors(start(program, first, detectors)) =>!
//!     (S:MachineState) such that (output(S) contains err) .
//! ```
//!
//! Each solution carries a witness *trace* (the program-counter path from
//! the initial state), which is the paper's "execution trace of how the
//! error evaded detection and led to the failure".
//!
//! ```
//! use sympl_asm::parse_program;
//! use sympl_check::{search, Predicate, SearchLimits};
//! use sympl_detect::DetectorSet;
//! use sympl_machine::MachineState;
//! use sympl_symbolic::Value;
//! use sympl_asm::Reg;
//!
//! let program = parse_program("print $1\nhalt")?;
//! let mut initial = MachineState::new();
//! initial.set_reg(Reg::r(1), Value::Err);
//! let report = search(
//!     &program,
//!     &DetectorSet::new(),
//!     initial,
//!     &Predicate::OutputContainsErr,
//!     &SearchLimits::default(),
//! );
//! assert_eq!(report.solutions.len(), 1);
//! assert!(report.exhausted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod explorer;
pub mod frontier;
pub mod memo;
mod predicate;
mod report;
mod search;
mod visited;

pub use explorer::Explorer;
pub use frontier::{
    FifoQueue, FrontierPolicy, FrontierQueue, IddQueue, LifoQueue, PriorityFrontier,
    PriorityHeuristic, SpillOrder, SpillingFrontier,
};
pub use memo::{memo_key, probe_digest, MemoError, MemoStore, SubtreeSummary};
pub use predicate::Predicate;
pub use report::{OutcomeCounts, SearchReport, Solution};
pub use search::{search, search_many, SearchLimits};
