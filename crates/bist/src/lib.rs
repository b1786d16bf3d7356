//! # twm-bist — transparent BIST engine
//!
//! This crate is the run-time half of the reproduction: it executes march
//! tests (transparent or not) against the fault-injected memory simulator of
//! [`twm_mem`], compacts read streams in a [`Misr`] signature register, runs
//! the two-phase *signature prediction → transparent test → compare* flow of
//! transparent BIST, and models the periodic idle-window scheduling that
//! motivates the paper's push for shorter transparent tests.
//!
//! * [`executor`] — runs a [`twm_march::MarchTest`] on a
//!   [`twm_mem::FaultyMemory`], recording every read with its expected
//!   fault-free value and its XOR offset from the initial content.
//! * [`lowered`] — pre-lowered operation streams: a test's symbolic data
//!   patterns resolved once per (test, width) pair, so repeated executions
//!   (fault-coverage sweeps) skip per-address pattern resolution entirely.
//! * [`misr`] — a multiple-input signature register (LFSR-based) with
//!   configurable feedback polynomial.
//! * [`flow`] — the transparent BIST session: prediction phase, test phase,
//!   signature comparison and content-preservation check.
//! * [`fault_local`] — [`FaultLocalSession`]: the session prepared once
//!   under a content image, answering faulty-memory queries (trails,
//!   repaired runs) by sweeping only the words a fault can reach.
//! * [`controller`] — periodic testing in idle windows: how many idle
//!   windows a test needs and how likely it is to complete without
//!   interfering with normal operation.
//! * [`diagnosis`] — localisation of the defective words and bits from the
//!   read records of a failing run.
//!
//! ```
//! use twm_bist::flow::run_scheme_session;
//! use twm_bist::misr::Misr;
//! use twm_core::scheme::{SchemeId, SchemeRegistry};
//! use twm_march::algorithms::march_c_minus;
//! use twm_mem::{FaultyMemory, MemoryConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Any registered scheme's transform runs through the same session API.
//! let registry = SchemeRegistry::all(8)?;
//! let transformed = registry.transform(SchemeId::TwmTa, &march_c_minus())?;
//! let mut memory = FaultyMemory::fault_free(MemoryConfig::new(64, 8)?);
//! memory.fill_random(42);
//!
//! let outcome = run_scheme_session(&transformed, &mut memory, Misr::standard(8))?;
//! assert!(!outcome.fault_detected());          // fault-free memory
//! assert!(outcome.content_preserved);          // transparent test restored content
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell_trails;
pub mod controller;
pub mod diagnosis;
mod error;
pub mod executor;
pub mod fault_local;
pub mod flow;
pub mod lowered;
pub mod misr;

pub use cell_trails::CellTrailTable;
pub use diagnosis::{diagnose, DiagnosisReport, SuspectCell};
pub use error::BistError;
pub use executor::{
    detect_lowered_at, execute, execute_lowered, execute_with, probe_lowered_at, ExecutionOptions,
    ExecutionResult, ReadRecord,
};
pub use fault_local::FaultLocalSession;
pub use flow::{
    run_scheme_session, run_scheme_session_local, run_scheme_session_staged, LocalSessionOutcome,
    SessionOutcome, SessionReference, StagedSessionOutcome,
};
pub use lowered::{LoweredElement, LoweredOp, LoweredTest};
pub use misr::Misr;
