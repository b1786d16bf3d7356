//! Coverage-equivalence check (the paper's Section 5 theorem).
//!
//! The paper proves that the transparent word-oriented march test produced
//! by TWM_TA (TWMarch = TSMarch + ATMarch) preserves the fault coverage of
//! the corresponding *non-transparent* word-oriented march test
//! (SMarch + AMarch). Because a transparent test operates relative to the
//! arbitrary initial content, an individual fault instance may be detected
//! under one content and escape under another — but over a fault universe
//! that is *closed under content translation* (every polarity/transition
//! variant of every cell pair is present), the number of detected faults per
//! class is identical. [`crate::CoverageEngine::compare`] measures exactly
//! that into an [`EquivalenceReport`].
//!
//! One caveat the paper's abstract analysis glosses over and the bit-true
//! simulation makes visible: a *state* coupling fault (CFst) whose aggressor
//! rests at its activating value has already corrupted the victim before the
//! transparent test starts. The transparent test adopts that corrupted
//! content as its reference, so its CFst detection set differs from the
//! non-transparent test's (in both directions, depending on the idle
//! content). The equivalence therefore holds exactly for SAF, TF, CFid and
//! CFin, and approximately (within a few per cent) for CFst; see
//! EXPERIMENTS.md for the measured numbers.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use twm_mem::{Fault, FaultClass};

use crate::CoverageReport;

/// Per-fault disagreement between two tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Disagreement {
    /// The fault in question.
    pub fault: Fault,
    /// Whether the first test detected it.
    pub detected_by_first: bool,
    /// Whether the second test detected it.
    pub detected_by_second: bool,
}

/// Result of comparing the coverage of two march tests over the same fault
/// universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceReport {
    /// Coverage report of the first test.
    pub first: CoverageReport,
    /// Coverage report of the second test.
    pub second: CoverageReport,
    /// Faults on which the two tests disagree.
    pub disagreements: Vec<Disagreement>,
}

impl EquivalenceReport {
    /// Whether the per-class detected counts are identical (the coverage
    /// equivalence the paper proves).
    #[must_use]
    pub fn class_counts_equal(&self) -> bool {
        let counts = |report: &CoverageReport| -> BTreeMap<FaultClass, (usize, usize)> {
            report
                .per_class
                .iter()
                .map(|(class, c)| (*class, (c.total, c.detected)))
                .collect()
        };
        counts(&self.first) == counts(&self.second)
    }

    /// Whether the per-class detected counts are identical for the given
    /// fault classes.
    #[must_use]
    pub fn class_counts_equal_for(&self, classes: &[FaultClass]) -> bool {
        classes.iter().all(|class| {
            let first = self.first.per_class.get(class).copied().unwrap_or_default();
            let second = self
                .second
                .per_class
                .get(class)
                .copied()
                .unwrap_or_default();
            (first.total, first.detected) == (second.total, second.detected)
        })
    }

    /// Absolute difference in coverage fraction for one fault class.
    #[must_use]
    pub fn class_coverage_gap(&self, class: FaultClass) -> f64 {
        (self.first.class_coverage(class) - self.second.class_coverage(class)).abs()
    }

    /// Whether the two tests agree on every individual fault.
    #[must_use]
    pub fn fault_by_fault_equal(&self) -> bool {
        self.disagreements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{CouplingScope, UniverseBuilder};
    use crate::{ContentPolicy, CoverageEngine, CoverageError};
    use twm_core::atmarch::amarch;
    use twm_core::{TransparentScheme, TwmTa};
    use twm_march::algorithms::{march_c_minus, mats_plus};
    use twm_march::MarchTest;
    use twm_mem::MemoryConfig;

    fn config(words: usize, width: usize) -> MemoryConfig {
        MemoryConfig::new(words, width).unwrap()
    }

    fn engine(test: &MarchTest, config: MemoryConfig, content: ContentPolicy) -> CoverageEngine {
        CoverageEngine::builder(config)
            .test(test)
            .content(content)
            .build()
            .unwrap()
    }

    /// The non-transparent word-oriented counterpart of TWMarch:
    /// SMarch (the bit-oriented test on solid backgrounds) followed by
    /// AMarch.
    fn nontransparent_counterpart(bmarch: &MarchTest, width: usize) -> MarchTest {
        bmarch.concatenated(
            &amarch(width).unwrap(),
            format!("{} + AMarch (W={width})", bmarch.name()),
        )
    }

    #[test]
    fn twmarch_preserves_word_oriented_coverage_counts() {
        // The paper's Section 5 theorem, measured: per-class detected counts
        // of the transparent TWMarch equal those of the non-transparent
        // word-oriented march test, over a translation-closed fault universe.
        let width = 4;
        let c = config(6, width);
        let transformed = TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        let counterpart = nontransparent_counterpart(&march_c_minus(), width);
        // Full enumeration over intra-word and adjacent-word pairs is closed
        // under content translation (every variant of every pair is present).
        let faults = UniverseBuilder::new(c).all_classes().build();
        // The transparent test runs on arbitrary content; the non-transparent
        // test initialises the memory itself and is evaluated from all-zero
        // content. Under content translation these settings correspond, so
        // per-class detected counts must be identical.
        let transparent = engine(
            transformed.transparent_test(),
            c,
            ContentPolicy::Random { seed: 2024 },
        );
        let report = transparent
            .compare(&engine(&counterpart, c, ContentPolicy::Zeros), &faults)
            .unwrap();
        // Exact equality for the fault classes whose detection is purely
        // operation-driven.
        assert!(
            report.class_counts_equal_for(&[
                FaultClass::Saf,
                FaultClass::Tf,
                FaultClass::Cfid,
                FaultClass::Cfin,
            ]),
            "per-class counts differ:\n{}\n{}",
            report.first,
            report.second
        );
        // State coupling faults that are active in the idle state corrupt
        // the content before the transparent test starts; the detection sets
        // then differ slightly in both directions (see module docs). The
        // coverage gap stays small.
        assert!(
            report.class_coverage_gap(FaultClass::Cfst) < 0.05,
            "CFst coverage gap too large:\n{}\n{}",
            report.first,
            report.second
        );
        // Inter-word coupling faults are covered identically and completely.
        assert_eq!(report.first.inter_word.fraction(), 1.0);
        assert_eq!(report.second.inter_word.fraction(), 1.0);
    }

    #[test]
    fn equivalence_report_flags_genuinely_different_tests() {
        // MATS+ and March C- are not coverage-equivalent over coupling
        // faults; the report must say so.
        let c = config(8, 1);
        let faults = UniverseBuilder::new(c)
            .coupling_idempotent()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(100, 5)
            .build();
        let content = crate::EvaluationOptions::default().content;
        let report = engine(&mats_plus(), c, content)
            .compare(&engine(&march_c_minus(), c, content), &faults)
            .unwrap();
        assert!(!report.class_counts_equal());
        assert!(!report.fault_by_fault_equal());
        assert!(!report.disagreements.is_empty());
    }

    #[test]
    fn empty_universe_is_rejected() {
        let c = config(2, 2);
        let content = ContentPolicy::Zeros;
        let result =
            engine(&mats_plus(), c, content).compare(&engine(&march_c_minus(), c, content), &[]);
        assert!(matches!(result, Err(CoverageError::EmptyUniverse)));
    }
}
