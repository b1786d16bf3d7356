//! Repair verification: prove the signature comes back clean on the
//! remapped memory by re-running the whole scheme session
//! ([`verify_repair`]). Its fault-local form, under a dictionary's
//! reference content, is [`twm_bist::FaultLocalSession::run_repaired`]
//! over [`RepairPlan::remaps`](crate::RepairPlan::remaps): it sweeps only
//! the injection's footprint and the remapped words, and its outcome is
//! clean exactly when [`RepairVerification::clean`] holds on the same
//! repaired memory (property-tested in `tests/fault_local_verify.rs`).

use serde::{Deserialize, Serialize};

use twm_bist::{run_scheme_session, Misr, SessionOutcome};
use twm_core::scheme::SchemeTransform;
use twm_mem::MemoryAccess;

use crate::RepairError;

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
