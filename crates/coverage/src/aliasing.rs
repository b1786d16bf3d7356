//! MISR aliasing analysis.
//!
//! Transparent BIST schemes that compare a predicted signature with the test
//! signature (Nicolaidis' scheme and the paper's TWM_TA) can *alias*: a
//! faulty read stream may compact to the fault-free signature, so the fault
//! escapes even though some read returned a wrong value. Aliasing is the
//! stated motivation for the signature-free schemes the paper cites (DPSC,
//! TOMT). [`crate::CoverageEngine::aliasing`] quantifies it: every fault of
//! a universe runs the engine's scheme session once, which yields both the
//! exact-compare verdict and the signature verdict, and the faults whose
//! detection is lost to compaction are collected in an [`AliasingReport`].

use serde::{Deserialize, Serialize};

use twm_mem::Fault;

/// Result of comparing exact-compare detection with signature detection over
/// a fault universe.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliasingReport {
    /// Faults evaluated.
    pub total: usize,
    /// Faults detected by the exact-compare oracle (at least one wrong read).
    pub detected_exact: usize,
    /// Faults detected by the signature comparison.
    pub detected_signature: usize,
    /// Faults that produced wrong reads but whose signature still matched
    /// the prediction (aliased).
    pub aliased: Vec<Fault>,
}

impl AliasingReport {
    /// Fraction of exact-detected faults lost to aliasing.
    #[must_use]
    pub fn aliasing_rate(&self) -> f64 {
        if self.detected_exact == 0 {
            0.0
        } else {
            self.aliased.len() as f64 / self.detected_exact as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::UniverseBuilder;
    use crate::{ContentPolicy, CoverageEngine, CoverageEngineBuilder, CoverageError};
    use twm_bist::{BistError, Misr};
    use twm_core::TwmTa;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{BitAddress, Fault, MemError, MemoryConfig};

    /// A TWM_TA × March C− engine builder over `config`.
    fn twm_ta(config: MemoryConfig) -> CoverageEngineBuilder {
        let scheme = TwmTa::new(config.width()).unwrap();
        CoverageEngine::for_scheme(&scheme, &march_c_minus(), config).unwrap()
    }

    #[test]
    fn signature_detection_tracks_exact_detection_for_single_faults() {
        let width = 8;
        let config = MemoryConfig::new(8, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .coupling_inversion()
            .sample_per_class(60, 13)
            .build();
        let report = twm_ta(config)
            .content(ContentPolicy::Random { seed: 404 })
            .build()
            .unwrap()
            .aliasing(&Misr::standard(width), &faults)
            .unwrap();
        assert_eq!(report.total, faults.len());
        // Every sampled SAF/TF/CFin produces at least one wrong read.
        assert_eq!(report.detected_exact, faults.len());
        // The signature flow should lose at most a tiny fraction to aliasing
        // (typically none for single faults with a decent polynomial).
        assert!(
            report.aliasing_rate() < 0.05,
            "rate = {}",
            report.aliasing_rate()
        );
        assert!(report.detected_signature >= report.detected_exact - report.aliased.len());
    }

    #[test]
    fn aliasing_runs_on_the_first_content_round_only() {
        let width = 4;
        let config = MemoryConfig::new(6, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(20, 7)
            .build();
        let aliasing = |contents_per_fault| {
            twm_ta(config)
                .content(ContentPolicy::Random { seed: 31 })
                .contents_per_fault(contents_per_fault)
                .build()
                .unwrap()
                .aliasing(&Misr::standard(width), &faults)
                .unwrap()
        };
        let one = aliasing(1);
        assert_eq!(one.total, faults.len());
        assert_eq!(aliasing(3), one);
    }

    #[test]
    fn empty_universe_is_rejected() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let result = twm_ta(config)
            .build()
            .unwrap()
            .aliasing(&Misr::standard(4), &[]);
        assert!(matches!(result, Err(CoverageError::EmptyUniverse)));
    }

    /// A fault outside the memory fails its session's re-arm, a memory
    /// error the session reports as a BIST error; a MISR of another width
    /// fails the session's preparation, before any fault runs.
    #[test]
    fn bad_faults_and_misr_widths_are_reported_as_bist_errors() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let engine = twm_ta(config).build().unwrap();
        let outside = BitAddress::new(4, 0);
        let mut faults = UniverseBuilder::new(config).stuck_at().build();
        faults.push(Fault::stuck_at(outside, true));
        let result = engine.aliasing(&Misr::standard(4), &faults);
        assert!(
            matches!(
                result,
                Err(CoverageError::Bist(BistError::Mem(MemError::FaultCellOutOfRange { cell })))
                    if cell == outside
            ),
            "{result:?}"
        );
        let result = engine.aliasing(&Misr::standard(8), &faults[..1]);
        assert!(
            matches!(
                result,
                Err(CoverageError::Bist(BistError::WidthMismatch {
                    misr: 8,
                    memory: 4
                }))
            ),
            "{result:?}"
        );
    }

    /// An engine built from a bare test has no scheme session to run.
    #[test]
    fn an_engine_without_a_scheme_is_rejected() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let faults = UniverseBuilder::new(config).stuck_at().build();
        let engine = CoverageEngine::builder(config)
            .test(&march_c_minus())
            .build()
            .unwrap();
        let result = engine.aliasing(&Misr::standard(4), &faults);
        assert!(matches!(result, Err(CoverageError::MissingScheme)));
        // A `with_test` sibling of a scheme engine carries no scheme either.
        let sibling = twm_ta(config)
            .build()
            .unwrap()
            .with_test(&march_c_minus())
            .unwrap();
        let result = sibling.aliasing(&Misr::standard(4), &faults);
        assert!(matches!(result, Err(CoverageError::MissingScheme)));
    }
}
