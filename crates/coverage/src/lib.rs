//! # twm-coverage — fault-universe enumeration and coverage evaluation
//!
//! The DATE 2005 paper's central quality claim (Section 5) is that the
//! transparent word-oriented march test produced by TWM_TA detects exactly
//! the same functional faults as the corresponding *non-transparent*
//! word-oriented march test — stuck-at faults, transition faults and all
//! three coupling-fault types, both inside a word and between words. This
//! crate turns that analytical argument into a simulation experiment:
//!
//! * [`universe`] — enumerate (or sample) the fault universe of a memory
//!   configuration, class by class;
//! * [`engine`] — the [`CoverageEngine`]: run a march test against every
//!   fault of a universe and report the per-class coverage, stream
//!   per-fault verdicts, or compare two tests fault by fault;
//! * [`equivalence`] — the coverage-equivalence report types (the coverage
//!   theorem check, produced by [`CoverageEngine::compare`]);
//! * [`states`] — the state-traversal analysis behind Figure 1: which
//!   two-cell states and coupling-fault excitation conditions a test covers,
//!   and which intra-word bit-pair write/read combinations a word-oriented
//!   test exercises.
//! * [`aliasing`] — how much detection the MISR signature comparison loses
//!   to aliasing compared with the exact-compare oracle (the motivation the
//!   paper cites for signature-free schemes such as TOMT).
//! * [`matrix`] — [`scheme_matrix`]: the paper's whole scheme comparison
//!   (complexity, fault-free session cost, coverage) over every scheme of a
//!   [`twm_core::SchemeRegistry`] in one call.
//!
//! ## The `CoverageEngine`
//!
//! All evaluation flows through one reusable object. Build it once per
//! `(memory shape, march test)` pair; it owns the pre-lowered operation
//! stream, the pre-generated pseudo-random initial contents, and a pool of
//! reusable [`twm_mem::FaultyMemory`] arenas re-armed per fault — so
//! repeated evaluations over different universes allocate no per-fault
//! memories:
//!
//! ```
//! use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
//! use twm_core::scheme::{SchemeId, SchemeRegistry};
//! use twm_march::algorithms::march_c_minus;
//! use twm_mem::MemoryConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(16, 4)?;
//! let registry = SchemeRegistry::all(4)?;
//! let engine = CoverageEngine::for_scheme(
//!     registry.get(SchemeId::TwmTa).unwrap(),
//!     &march_c_minus(),
//!     config,
//! )?
//! .content(ContentPolicy::Random { seed: 1 })
//! .build()?;
//!
//! let faults = UniverseBuilder::new(config).stuck_at().transition().build();
//! let report = engine.report(&faults)?;
//! assert_eq!(report.total_coverage(), 1.0);     // all SAFs and TFs detected
//!
//! // Streaming verdicts: bounded memory for universes that do not fit RAM.
//! let escaped = engine
//!     .verdicts(&faults)
//!     .filter(|v| v.as_ref().is_ok_and(|v| !v.detected))
//!     .count();
//! assert_eq!(escaped, 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Execution strategy and the `parallel` feature
//!
//! Fault-injection runs are independent, so the engine fans the universe
//! across the threads of its [`WorkerPool`] — the workspace's one fan-out
//! primitive. The `parallel` feature (on by default) only decides what
//! [`Strategy`] resolves to; without it every strategy resolves to one
//! thread and the pool runs inline. The strategy is explicit on the builder:
//! [`Strategy::Serial`], [`Strategy::Parallel`]` { threads }` (zero is
//! rejected with [`CoverageError::ZeroThreads`], never clamped), or the
//! default [`Strategy::Auto`] — available parallelism, overridable with the
//! documented `TWM_COVERAGE_THREADS` environment-variable fallback.
//! Verdicts are merged back in universe order, so the produced
//! [`CoverageReport`] is **bit-identical** for any thread count, and every
//! verdict equals the naive reference [`fault_detected`] (property-tested
//! in `tests/reference_equivalence.rs`).
//!
//! ## Migrating from the free-function API
//!
//! The historical free functions (`evaluate`, `evaluate_with`,
//! `evaluate_serial`, `evaluate_parallel`,
//! `evaluate_parallel_with_threads`) went through a deprecation cycle and
//! have been **removed**; see the MIGRATION table in the repository's
//! `CHANGES.md` for the one-line engine replacements.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aliasing;
pub mod engine;
pub mod equivalence;
mod error;
pub mod evaluator;
pub mod matrix;
mod pool;
pub mod report;
pub mod states;
pub mod universe;

pub use aliasing::AliasingReport;
pub use engine::{CoverageEngine, CoverageEngineBuilder, FaultVerdict, Strategy, Verdicts};
pub use equivalence::EquivalenceReport;
pub use error::CoverageError;
pub use evaluator::{fault_detected, ContentPolicy, EvaluationOptions};
pub use matrix::{scheme_matrix, MatrixOptions, SchemeMatrix, SchemeMatrixRow};
pub use pool::WorkerPool;
pub use report::{ClassCoverage, CoverageReport};
pub use universe::{CouplingScope, UniverseBuilder};
