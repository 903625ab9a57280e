//! # SymPLFIED — Symbolic Program-Level Fault Injection and Error Detection
//!
//! A Rust reproduction of *SymPLFIED* (Pattabiraman, Nakka, Kalbarczyk,
//! Iyer — DSN 2008): a program-level framework that accepts a program in a
//! generic assembly language, error detectors embedded through `check`
//! annotations, and a class of transient hardware errors, and
//! **exhaustively enumerates all errors in that class that evade detection
//! and lead to program failure** — or proves (within bounds) that none do.
//!
//! Every erroneous value is represented by the single abstract symbol
//! `err`; execution forks at each non-deterministic use of `err`
//! (comparisons, branches, corrupted jump targets and pointers), learned
//! constraints prune infeasible forks, and a breadth-first model checker
//! sweeps the resulting state space.
//!
//! ## Quick start
//!
//! ```
//! use symplfied::prelude::*;
//!
//! // A program that should print input+1; verify whether a register error
//! // can silently corrupt the output.
//! let program = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt")?;
//! let framework = Framework::new(program).with_input(vec![41]);
//! let verdict = framework.enumerate_undetected(ErrorClass::RegisterFile);
//!
//! // No detectors in the program, so errors escape:
//! assert!(!verdict.is_resilient());
//! for finding in verdict.findings.iter().take(3) {
//!     println!("{}: {}", finding.point, finding.solution.state.rendered_output());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | Component | Crate (re-exported here) |
//! |---|---|
//! | assembly language, parser, MIPS front-end | [`asm`] |
//! | `err` domain, constraints, solver | [`symbolic`] |
//! | machine model, symbolic executor | [`machine`] |
//! | detector model | [`detect`] |
//! | model checker | [`check`] |
//! | error model & campaigns | [`inject`] |
//! | concrete-injection baseline | [`ssim`] |
//! | parallel campaign runner | [`cluster`] |
//! | network wire protocol + TCP transport | [`wire`] |
//! | evaluation workloads | [`apps`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sympl_apps as apps;
pub use sympl_asm as asm;
pub use sympl_check as check;
pub use sympl_cluster as cluster;
pub use sympl_detect as detect;
pub use sympl_inject as inject;
pub use sympl_machine as machine;
pub use sympl_ssim as ssim;
pub use sympl_symbolic as symbolic;
pub use sympl_wire as wire;

mod framework;

pub use framework::{Framework, Verdict};

/// The commonly used names, for `use symplfied::prelude::*`.
pub mod prelude {
    pub use crate::framework::{Framework, Verdict};
    pub use sympl_asm::{parse_program, Cmp, Instr, Operand, Program, ProgramBuilder, Reg};
    pub use sympl_check::{
        search, Explorer, FrontierPolicy, Predicate, PriorityHeuristic, SearchLimits, SearchReport,
    };
    pub use sympl_cluster::{run_cluster, CampaignReport, ClusterConfig};
    pub use sympl_detect::{Detector, DetectorSet};
    pub use sympl_inject::{
        enumerate_points, run_point, Campaign, ComputationError, ErrorClass, InjectTarget,
        InjectionPoint,
    };
    pub use sympl_machine::{run_concrete, Exception, ExecLimits, MachineState, OutItem, Status};
    pub use sympl_ssim::{run_campaign as run_ssim_campaign, CampaignConfig, ConcreteOutcome};
    pub use sympl_symbolic::{Constraint, ConstraintMap, ConstraintSet, Location, Value};
}
