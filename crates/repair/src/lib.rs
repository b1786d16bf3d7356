//! # twm-repair — diagnosis-to-repair for transparent BIST
//!
//! The paper's transparent BIST schemes end at a MISR pass/fail verdict;
//! the point of *periodic field test*, though, is to **act** on a failure.
//! This crate closes that loop — **detect → localise → allocate spares →
//! verify** — at engine-driven speed:
//!
//! * [`dictionary`] — [`SignatureDictionary`]: every fault of a universe
//!   (plus sampled multi-fault injections, gated by
//!   [`twm_coverage::CoverageEngine::injection_detected`]) mapped to its
//!   per-stage MISR signature trail and inverted into
//!   [`AmbiguityClass`]es; built in parallel through the coverage
//!   [`twm_coverage::Strategy`] machinery and bit-identical for any thread
//!   count. Single stuck-at and transition faults are answered from a
//!   single-cell trail table ([`twm_bist::CellTrailTable`]) in a few
//!   table multiplications each, every other injection by a fault-local
//!   sweep.
//! * [`localise`] — [`DiagnosticSession`]: registry-driven follow-up
//!   scheme sessions, dictionary lookup and targeted fault-local probes
//!   ([`twm_bist::probe_lowered_at`]) fused with the read-log
//!   [`twm_bist::DiagnosisReport`] into ranked [`LocatedDefect`]s.
//! * [`allocator`] — [`RepairAllocator`]: greedy or
//!   exact-for-small-spare-counts assignment of
//!   [`twm_mem::RepairableMemory`] spare words to defective words,
//!   emitting a [`RepairPlan`].
//! * [`verify`] — [`verify_repair`]: the scheme session re-run through the
//!   remap table, proving the signature comes back clean; and
//!   [`FaultLocalSession`], the same session prepared once under a
//!   reference content so dictionary trails and repair checks sweep only
//!   an injection's footprint (and remapped) words, and single-cell
//!   faults sweep none ([`FaultLocalSession::single_fault_trails`]).
//!
//! ## The whole loop
//!
//! ```
//! use twm_core::scheme::{SchemeId, SchemeRegistry};
//! use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
//! use twm_march::algorithms::march_c_minus;
//! use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, RepairableMemory};
//! use twm_repair::{
//!     diagnose_and_repair, DiagnosticSession, DictionaryOptions, RepairAllocator,
//!     SignatureDictionary,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(8, 4)?;
//! let registry = SchemeRegistry::comparison(4)?;
//! let engine = CoverageEngine::for_scheme(
//!     registry.get(SchemeId::TwmTa).unwrap(),
//!     &march_c_minus(),
//!     config,
//! )?
//! .content(ContentPolicy::Random { seed: 9 })
//! .build()?;
//!
//! // Build the dictionary once per deployment.
//! let universe = UniverseBuilder::new(config).stuck_at().transition().build();
//! let dictionary = SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default())?;
//!
//! // A fielded memory develops a defect.
//! let mut memory = FaultyMemory::with_faults(
//!     config,
//!     vec![Fault::stuck_at(BitAddress::new(5, 2), true)],
//! )?;
//! memory.fill_random(9); // the engine's reference content
//!
//! // Localise, allocate one of two spares, remap, re-verify.
//! let session = DiagnosticSession::new(&registry, &march_c_minus())?
//!     .with_dictionary(&dictionary)?;
//! let flow = diagnose_and_repair(
//!     &session,
//!     &RepairAllocator::default(),
//!     RepairableMemory::new(memory, 2)?,
//! )?;
//! assert_eq!(flow.localisation.defects[0].cell, BitAddress::new(5, 2));
//! assert!(flow.plan.fully_repairs());
//! assert!(flow.verification.clean());                 // signature is clean again
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocator;
pub mod dictionary;
mod error;
pub mod localise;
pub mod lookup;
pub mod verify;

pub use allocator::{AllocatorOptions, RepairAllocator, RepairAssignment, RepairPlan};
pub use dictionary::{
    AmbiguityClass, AmbiguityStats, DictionaryOptions, DictionaryStream, SignatureDictionary,
    SignatureTrail,
};
pub use error::RepairError;
pub use localise::{
    localise_class, localise_trail, localise_trail_normalised, DefectEvidence, DiagnosticSession,
    LocalisationOutcome, LocatedDefect, TrailDiagnosis,
};
pub use lookup::TrailLookup;
pub use verify::{verify_repair, FaultLocalSession, RepairVerification};

use twm_mem::RepairableMemory;

/// The result of one end-to-end [`diagnose_and_repair`] pass.
#[derive(Debug)]
pub struct RepairFlowOutcome {
    /// The localisation evidence.
    pub localisation: LocalisationOutcome,
    /// The spare plan (already applied to [`RepairFlowOutcome::memory`]).
    pub plan: RepairPlan,
    /// The post-repair verification.
    pub verification: RepairVerification,
    /// The repaired memory, remap table programmed.
    pub memory: RepairableMemory,
}

/// Runs the whole loop on a repairable memory: localise its defects with
/// `session`, allocate its spares with `allocator`, program the remap
/// table and re-verify with the session's probe scheme.
///
/// The memory's *main* array is diagnosed; defects in words already
/// served by a spare are treated as repaired and skipped; the plan is
/// allocated against the memory's **available** spare slots and
/// translated to them — so a memory carrying earlier repairs keeps them
/// and draws from the remaining spares. The verification session runs
/// through the remap table.
///
/// # Errors
///
/// Propagates the errors of [`DiagnosticSession::localise`],
/// [`RepairPlan::apply`] and [`verify_repair`].
pub fn diagnose_and_repair(
    session: &DiagnosticSession<'_>,
    allocator: &RepairAllocator,
    mut memory: RepairableMemory,
) -> Result<RepairFlowOutcome, RepairError> {
    // Localise on the main array: the session restores the content it
    // found, so the repair below starts from the pre-diagnosis state.
    let localisation = session.localise(memory.main_mut())?;
    // Words already served by a spare are repaired — the main-array scan
    // re-flags their (masked) defects, but they need no new assignment.
    let actionable: Vec<LocatedDefect> = localisation
        .defects
        .iter()
        .filter(|defect| memory.mapped_spare(defect.cell.word).is_none())
        .cloned()
        .collect();
    let available = memory.available_spares();
    let mut plan = allocator.allocate(&actionable, available.len());
    // The allocator numbers slots 0..k over whatever budget it was given;
    // translate those ranks to the concrete free slots of this memory.
    for assignment in &mut plan.assignments {
        assignment.spare = available[assignment.spare];
    }
    plan.apply(&mut memory)?;
    let transform = session.probe_transform();
    let verification = verify_repair(transform, &mut memory, session.misr().clone())?;
    Ok(RepairFlowOutcome {
        localisation,
        plan,
        verification,
        memory,
    })
}
