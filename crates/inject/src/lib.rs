//! # sympl-inject — the SymPLFIED error model and injection campaigns
//!
//! Implements the paper's fault model (§3.3, Table 1) and the injection
//! strategy of the evaluation (§6.1–6.2):
//!
//! * [`ErrorClass`] — the error classes: register-file, memory, program
//!   counter (fetch), and the computation/decode categories of Table 1.
//! * [`InjectionPoint`] — one candidate injection: a breakpoint (static
//!   instruction, dynamic occurrence) plus the corrupted target. Points are
//!   enumerated per class with the paper's activation optimization: errors
//!   are injected *just before the instruction that uses the location*, so
//!   every injected fault is activated.
//! * [`prepare`] — runs the error-free prefix concretely to the breakpoint
//!   and plants the symbolic `err`, producing the seed states for a search.
//! * [`run_point`] — prepare + model-check, the unit of work a campaign
//!   shards across workers.
//! * [`golden_run`] — the error-free reference execution (for wrong-output
//!   predicates).
//!
//! ```
//! use sympl_asm::parse_program;
//! use sympl_check::{Predicate, SearchLimits};
//! use sympl_detect::DetectorSet;
//! use sympl_inject::{enumerate_points, run_point, ErrorClass};
//!
//! let program = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt")?;
//! let detectors = DetectorSet::new();
//! let points = enumerate_points(&program, &ErrorClass::RegisterFile);
//! assert!(!points.is_empty());
//! let outcome = run_point(
//!     &program,
//!     &detectors,
//!     &[41],
//!     &points[0],
//!     &Predicate::OutputContainsErr,
//!     &SearchLimits::default(),
//! );
//! assert!(outcome.activated);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod class;
mod codec;
mod derive;
mod point;
mod prepare;
mod query;

pub use campaign::{enumerate_points, Campaign};
pub use class::{ComputationError, ErrorClass};
pub use derive::{derive_range_detectors, observe_range, DerivedDetectors, ObservedRange};
pub use point::{InjectTarget, InjectionPoint};
pub use prepare::{
    golden_run, prepare, prepare_cached, run_point, run_point_cached, run_point_with, PointOutcome,
    PrefixCache, PreparedInjection,
};
pub use query::{Query, QueryKind};
