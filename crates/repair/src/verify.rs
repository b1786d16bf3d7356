//! Repair verification: prove the signature comes back clean on the
//! remapped memory — naively by re-running the whole session
//! ([`verify_repair`]), or fault-locally under a dictionary's reference
//! content ([`FaultLocalSession::verify`]).

use std::sync::{Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};

use twm_bist::{
    run_scheme_session, run_scheme_session_local, CellTrailTable, Misr, SessionOutcome,
    SessionReference,
};
use twm_core::scheme::SchemeTransform;
use twm_coverage::ContentPolicy;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryAccess, MemoryConfig, RepairableMemory};

use crate::dictionary::{apply_content, SignatureTrail};
use crate::{RepairError, RepairPlan};

/// The verdict of re-running a scheme session after a repair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairVerification {
    /// The post-repair session outcome.
    pub outcome: SessionOutcome,
}

impl RepairVerification {
    /// Whether the repair is proven good: matching signatures, zero exact
    /// mismatches and preserved content.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.outcome.fault_detected()
            && !self.outcome.fault_detected_exact()
            && self.outcome.content_preserved
    }
}

/// Re-runs a scheme's transparent BIST session on a (repaired) memory —
/// typically a [`twm_mem::RepairableMemory`] with a freshly applied
/// [`crate::RepairPlan`] — and reports whether the session is clean.
///
/// This is the same session the periodic test runs in the field, executed
/// through the remap table, so a clean verification means the deployed
/// test itself can no longer see the defect.
///
/// # Errors
///
/// Returns [`RepairError::Bist`] for session failures (including MISR
/// width mismatches).
pub fn verify_repair<M: MemoryAccess>(
    transform: &SchemeTransform,
    memory: &mut M,
    misr: Misr,
) -> Result<RepairVerification, RepairError> {
    let outcome = run_scheme_session(transform, memory, misr)?;
    Ok(RepairVerification { outcome })
}

/// A scheme session prepared once for fault-local replays under one
/// reference content: the lowered tests, the fault-free session's trail
/// and counts, and the content image ([`SessionReference`]). Preparing one
/// derives the fault-free session in closed form, a few passes over the
/// content (~45 µs at 1K×32 for TWM_TA × March C−, 2-vCPU Xeon), so a
/// fleet runtime's cold build is cheap.
///
/// A query then costs a sweep of the injection's footprint words (see
/// [`twm_bist::run_scheme_session_local`]) instead of a session over the
/// whole memory, and a single stuck-at or transition fault costs a few
/// table lookups and one multiplication per element
/// ([`CellTrailTable`], built on the first such trail, never by
/// [`FaultLocalSession::new`], so a session that only verifies repairs
/// never pays for it). [`SignatureDictionary::build`](crate::SignatureDictionary::build)
/// computes every single-fault trail through
/// [`FaultLocalSession::single_fault_trails`] and every multi-fault one
/// through [`FaultLocalSession::trail`]; the fleet service verifies
/// repair plans through [`FaultLocalSession::verify`]. All equal the
/// naive full session — [`twm_bist::run_scheme_session_staged`] and
/// [`verify_repair`] — on a memory built with
/// [`FaultyMemory::with_faults`] and filled with the content
/// (property-tested in `tests/fault_local_verify.rs`).
///
/// Sweeps run on arena memories that hold the reference content and are
/// reused across queries and threads: a query re-arms one by copying
/// back only the words the previous sweep on it could change
/// ([`FaultyMemory::rearm_words`]), so no query touches the other words.
#[derive(Debug)]
pub struct FaultLocalSession {
    reference: SessionReference,
    cells: OnceLock<CellTrailTable>,
    arenas: Mutex<Vec<Arena>>,
}

/// An idle arena memory: the reference content everywhere except,
/// possibly, at `dirty` — the words its last sweep could change.
#[derive(Debug)]
struct Arena {
    memory: FaultyMemory,
    dirty: Vec<usize>,
}

impl FaultLocalSession {
    /// Prepares `transform`'s session on `config` under `content` (round 0
    /// of the policy), compacted with `misr`.
    ///
    /// # Errors
    ///
    /// [`RepairError::Bist`] if the MISR width differs from the memory
    /// width or the tests cannot be lowered for it.
    pub fn new(
        transform: &SchemeTransform,
        config: MemoryConfig,
        content: ContentPolicy,
        misr: Misr,
    ) -> Result<Self, RepairError> {
        let mut memory = FaultyMemory::fault_free(config);
        apply_content(&mut memory, content);
        let reference = SessionReference::new(transform, memory.snapshot(), misr)?;
        let arena = Arena {
            memory,
            dirty: Vec::new(),
        };
        Ok(Self {
            reference,
            cells: OnceLock::new(),
            arenas: Mutex::new(vec![arena]),
        })
    }

    /// The fault-free signature trail.
    #[must_use]
    pub fn fault_free_trail(&self) -> SignatureTrail {
        SignatureTrail::new(self.reference.trail().to_vec())
    }

    /// The signature trail a memory carrying `injection` produces.
    ///
    /// # Errors
    ///
    /// [`RepairError::Mem`] if a fault does not fit the memory.
    pub fn trail(&self, injection: &[Fault]) -> Result<SignatureTrail, RepairError> {
        let faults = FaultSet::from_faults(injection.iter().copied());
        let footprint = faults.word_footprint();
        let mut memory = self.arena(faults)?;
        let outcome = run_scheme_session_local(&self.reference, &mut memory, &footprint)?;
        self.release(memory, footprint);
        Ok(SignatureTrail::new(outcome.trail))
    }

    /// The trail of each fault as a single-fault injection, in order:
    /// stuck-at and transition faults from the single-cell table (built
    /// on the first call that asks for one), every other fault as
    /// [`FaultLocalSession::trail`] computes it. Equals
    /// [`FaultLocalSession::trail`] of each `[fault]`.
    ///
    /// # Errors
    ///
    /// [`RepairError::Mem`] if a fault does not fit the memory.
    pub fn single_fault_trails(
        &self,
        faults: &[Fault],
    ) -> Result<Vec<SignatureTrail>, RepairError> {
        let single_cell =
            |fault: &Fault| matches!(fault, Fault::StuckAt { .. } | Fault::TransitionFault { .. });
        let answers = if faults.iter().any(single_cell) {
            self.cells
                .get_or_init(|| CellTrailTable::new(&self.reference))
                .trails(faults)
        } else {
            vec![None; faults.len()]
        };
        answers
            .into_iter()
            .zip(faults)
            .map(|(answer, fault)| match answer {
                Some(trail) => Ok(SignatureTrail::new(trail)),
                None => self.trail(std::slice::from_ref(fault)),
            })
            .collect()
    }

    /// Whether `plan` repairs a memory carrying `injection`: the memory,
    /// with `spares` fresh spare words and the plan's remap table
    /// programmed, runs a clean session — matching signatures, no read
    /// mismatch, content preserved. Equals [`verify_repair`]'s
    /// [`RepairVerification::clean`] on the same repaired memory.
    ///
    /// # Errors
    ///
    /// [`RepairError::Mem`] if a fault does not fit the memory or the
    /// plan needs spares the memory does not have.
    pub fn verify(
        &self,
        injection: &[Fault],
        spares: usize,
        plan: &RepairPlan,
    ) -> Result<bool, RepairError> {
        let faults = FaultSet::from_faults(injection.iter().copied());
        let mut addresses = faults.word_footprint();
        let mut repairable = RepairableMemory::new(self.arena(faults)?, spares)?;
        plan.apply(&mut repairable)?;
        addresses.extend(repairable.remap_table().iter().map(|entry| entry.word));
        addresses.sort_unstable();
        addresses.dedup();
        let outcome = run_scheme_session_local(&self.reference, &mut repairable, &addresses)?;
        self.release(repairable.into_main(), addresses);
        Ok(outcome.clean())
    }

    /// An arena memory armed with `faults` over the reference content:
    /// an idle one re-armed, or a new one when every arena is in use.
    fn arena(&self, faults: FaultSet) -> Result<FaultyMemory, RepairError> {
        let idle = self
            .arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let image = self.reference.image();
        if let Some(Arena { mut memory, dirty }) = idle {
            memory.rearm_words(faults, image, &dirty)?;
            return Ok(memory);
        }
        let config = MemoryConfig::new(image.words(), image.width())?;
        let mut memory = FaultyMemory::with_faults(config, faults)?;
        memory.load_image(image)?;
        Ok(memory)
    }

    /// Returns an arena after a sweep of `swept`, which covers its faults'
    /// footprint and every word the sweep wrote.
    fn release(&self, memory: FaultyMemory, swept: Vec<usize>) {
        self.arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arena {
                memory,
                dirty: swept,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::{SchemeId, SchemeRegistry};
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{BitAddress, Fault, MemoryBuilder, RepairableMemory};

    #[test]
    fn repair_flips_a_failing_session_to_clean() {
        let registry = SchemeRegistry::comparison(4).unwrap();
        let transform = registry
            .transform(SchemeId::TwmTa, &march_c_minus())
            .unwrap();
        let faulty = MemoryBuilder::new(8, 4)
            .random_content(5)
            .fault(Fault::stuck_at(BitAddress::new(2, 3), true))
            .build()
            .unwrap();
        let mut memory = RepairableMemory::new(faulty, 1).unwrap();

        let before = verify_repair(&transform, &mut memory, Misr::standard(4)).unwrap();
        assert!(!before.clean());
        assert!(before.outcome.fault_detected_exact());

        memory.map_word(2, 0).unwrap();
        let after = verify_repair(&transform, &mut memory, Misr::standard(4)).unwrap();
        assert!(after.clean());
        assert_eq!(
            after.outcome.predicted_signature,
            after.outcome.test_signature
        );
    }

    #[test]
    fn misr_width_mismatch_is_reported() {
        let registry = SchemeRegistry::comparison(4).unwrap();
        let transform = registry
            .transform(SchemeId::TwmTa, &march_c_minus())
            .unwrap();
        let mut memory =
            RepairableMemory::new(MemoryBuilder::new(4, 4).build().unwrap(), 1).unwrap();
        assert!(matches!(
            verify_repair(&transform, &mut memory, Misr::standard(8)),
            Err(RepairError::Bist(_))
        ));
    }
}
