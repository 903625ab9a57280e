//! # sympl-machine — the SymPLFIED machine model
//!
//! This crate implements the paper's machine model (§5.1) and the execution
//! half of the error model (§5.2). The central abstraction is
//! [`MachineState`]: the mutable "soup" of processor structures — program
//! counter, register file, memory, input/output streams — plus the
//! ConstraintMap of the symbolic engine. Code is immutable and lives outside
//! the state, exactly as in the paper's Maude specification.
//!
//! Two executors operate on states:
//!
//! * [`MachineState::step`] — the *symbolic* executor. Deterministic
//!   instructions behave like the paper's Maude equations; instructions that
//!   touch an `err` value fork, returning several successor states (Maude's
//!   rewrite rules): comparisons and branches fork into true/false with
//!   learned constraints, `jr` on an erroneous register forks to every valid
//!   code location, and loads/stores through an erroneous pointer fork over
//!   every defined memory word plus the illegal-address case.
//! * [`MachineState::step_into`] — the same symbolic semantics dispatched
//!   over the pre-decoded IR ([`sympl_asm::DecodedProgram`]) into the
//!   caller's [`SuccessorSink`] (the reusable [`SuccessorBuf`], or a search
//!   engine that takes each successor straight into its frontier); this is
//!   the allocation-free hot path the search engines drive (see the
//!   `dispatch` module docs in the source).
//! * [`run_concrete`] / [`step_concrete`] — a fast in-place executor for
//!   fully concrete states (also dispatched over the decoded IR, with
//!   superinstruction fusion in [`run_concrete`]), used by the
//!   SimpleScalar-substitute fault injector and for replaying symbolic
//!   findings with witness values.
//!
//! # Example
//!
//! ```
//! use sympl_asm::parse_program;
//! use sympl_detect::DetectorSet;
//! use sympl_machine::{ExecLimits, MachineState, Status};
//!
//! let program = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt")?;
//! let mut state = MachineState::with_input(vec![41]);
//! let detectors = DetectorSet::new();
//! let limits = ExecLimits::default();
//! sympl_machine::run_concrete(&mut state, &program, &detectors, &limits)?;
//! assert_eq!(state.status(), &Status::Halted);
//! assert_eq!(state.output_ints(), vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod concrete;
mod cow;
mod dispatch;
mod fingerprint;
mod limits;
mod state;
mod step;

pub use codec::{decode_state, encode_state, CodecError, StateDecoder, StateEncoder};
pub use concrete::{run_concrete, run_concrete_to_breakpoint, step_concrete, ConcreteError};
pub use dispatch::SuccessorBuf;
pub use fingerprint::{
    cell_hash, Fingerprint, FingerprintBuildHasher, FingerprintHasher, FingerprintSet,
    Fnv128Hasher, ZobristComponent,
};
pub use limits::ExecLimits;
pub use state::{Exception, MachineState, OutItem, Status};
pub use step::SuccessorSink;
