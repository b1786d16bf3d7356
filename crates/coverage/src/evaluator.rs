//! Fault-coverage evaluation by fault injection and test execution.
//!
//! Each fault is injected into a memory with deterministic pseudo-random
//! content (transparent tests must work for *any* initial content, so the
//! content is part of the experiment), the march test is executed, and the
//! exact-compare oracle decides whether the fault was detected. Per-class
//! results are aggregated into a [`crate::CoverageReport`].
//!
//! ## Evaluation lives in the engine
//!
//! All evaluation flows through [`crate::CoverageEngine`] (see
//! [`crate::engine`]): built once per `(memory shape, march test)`, the
//! engine owns the pre-lowered operation stream, the pre-generated initial
//! contents and a pool of reusable memory arenas, and exposes
//! [`report`](crate::CoverageEngine::report) /
//! [`verdicts`](crate::CoverageEngine::verdicts) /
//! [`compare`](crate::CoverageEngine::compare).
//!
//! This module defines the option types the engine consumes —
//! [`ContentPolicy`] and [`EvaluationOptions`] — plus [`fault_detected`],
//! the deliberately naive reference every engine path is tested against.

use serde::{Deserialize, Serialize};

use twm_bist::{execute_with, ExecutionOptions};
use twm_march::MarchTest;
use twm_mem::{BitStorage, Fault, FaultSet, FaultyMemory, MemoryConfig};

use crate::CoverageError;

/// How the memory is initialised before each fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentPolicy {
    /// All-zero initial content — the natural setting for non-transparent
    /// march tests, which initialise the memory themselves.
    Zeros,
    /// Deterministic pseudo-random initial content derived from a seed — the
    /// setting transparent tests are designed for (they must work for any
    /// content).
    Random {
        /// Seed for the pseudo-random content.
        seed: u64,
    },
}

impl ContentPolicy {
    /// The initial content of round `round` on a `config` memory, as a raw
    /// storage image: all-zero, or the pseudo-random content of seed
    /// `seed + round` ([`BitStorage::fill_random`], the bits
    /// [`FaultyMemory::fill_random`] stores). Round 0 is the reference
    /// content of dictionaries and aliasing analyses.
    #[must_use]
    pub fn image(self, config: MemoryConfig, round: usize) -> BitStorage {
        let mut image = BitStorage::new(config.words(), config.width())
            .expect("a memory shape is a valid storage shape");
        if let ContentPolicy::Random { seed } = self {
            image.fill_random(seed.wrapping_add(round as u64));
        }
        image
    }
}

/// Options controlling the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvaluationOptions {
    /// Initial memory content policy.
    pub content: ContentPolicy,
    /// Number of different initial contents to try per fault; a fault counts
    /// as detected if it is detected for **every** tried content (the
    /// transparent test must not rely on a lucky content). Only meaningful
    /// for [`ContentPolicy::Random`].
    pub contents_per_fault: usize,
}

impl Default for EvaluationOptions {
    fn default() -> Self {
        Self {
            content: ContentPolicy::Random { seed: 0x7773_4D43 },
            contents_per_fault: 1,
        }
    }
}

/// Whether a set of simultaneously injected faults is detected by the test
/// (under every tried initial content) — the reference semantics of fault
/// coverage, computed the naive way.
///
/// Each content round builds a fresh [`FaultyMemory`] carrying `faults`,
/// fills it with [`FaultyMemory::fill_random`] (or leaves it zeroed under
/// [`ContentPolicy::Zeros`]) and executes the test over the **whole**
/// address space. Nothing is shared, pooled, tabulated or
/// footprint-limited: this is the paper's literal experiment, and every
/// [`crate::CoverageEngine`] verdict — table-resolved, fault-local,
/// parallel or streaming — must equal it (property-tested in
/// `tests/reference_equivalence.rs`). It is slow on large memories; sweeps
/// belong on the engine.
///
/// # Errors
///
/// * [`CoverageError::EmptyUniverse`] if `faults` is empty.
/// * [`CoverageError::Mem`] if a fault does not fit the memory shape.
/// * [`CoverageError::Bist`] if the test cannot be executed.
pub fn fault_detected(
    test: &MarchTest,
    faults: &[Fault],
    config: MemoryConfig,
    options: EvaluationOptions,
) -> Result<bool, CoverageError> {
    if faults.is_empty() {
        return Err(CoverageError::EmptyUniverse);
    }
    let tries = match options.content {
        ContentPolicy::Zeros => 1,
        ContentPolicy::Random { .. } => options.contents_per_fault.max(1),
    };
    for round in 0..tries {
        let mut memory =
            FaultyMemory::with_faults(config, FaultSet::from_faults(faults.iter().copied()))?;
        if let ContentPolicy::Random { seed } = options.content {
            memory.fill_random(seed.wrapping_add(round as u64));
        }
        let result = execute_with(
            test,
            &mut memory,
            ExecutionOptions {
                record_reads: false,
                stop_at_first_mismatch: true,
            },
        )?;
        if !result.detected() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{CouplingScope, UniverseBuilder};
    use crate::CoverageEngine;
    use twm_core::{TransparentScheme, TwmTa};
    use twm_march::algorithms::{march_c_minus, mats_plus};
    use twm_mem::FaultClass;

    fn config(words: usize, width: usize) -> MemoryConfig {
        MemoryConfig::new(words, width).unwrap()
    }

    fn engine(test: &MarchTest, c: MemoryConfig, seed: u64) -> CoverageEngine {
        CoverageEngine::builder(c)
            .test(test)
            .content(ContentPolicy::Random { seed })
            .build()
            .unwrap()
    }

    #[test]
    fn empty_universe_is_rejected() {
        let result = engine(&march_c_minus(), config(4, 1), 1).report(&[]);
        assert!(matches!(result, Err(CoverageError::EmptyUniverse)));
    }

    #[test]
    fn bit_oriented_march_c_minus_covers_saf_tf_and_cf() {
        let c = config(12, 1);
        let faults = UniverseBuilder::new(c)
            .all_classes()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(120, 3)
            .build();
        let report = engine(&march_c_minus(), c, 5).report(&faults).unwrap();
        for class in FaultClass::all() {
            assert_eq!(
                report.class_coverage(class),
                1.0,
                "March C- must cover 100% of {class}: {report}"
            );
        }
    }

    #[test]
    fn mats_plus_misses_coupling_faults_march_c_minus_catches() {
        // MATS+ is not a coupling-fault test; the evaluator must show that.
        let c = config(10, 1);
        let faults = UniverseBuilder::new(c)
            .coupling_idempotent()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(150, 11)
            .build();
        let mats = engine(&mats_plus(), c, 5).report(&faults).unwrap();
        let march_c = engine(&march_c_minus(), c, 5).report(&faults).unwrap();
        assert!(mats.class_coverage(FaultClass::Cfid) < 1.0);
        assert_eq!(march_c.class_coverage(FaultClass::Cfid), 1.0);
    }

    #[test]
    fn transparent_word_oriented_test_covers_word_memory_faults() {
        let width = 4;
        let c = config(8, width);
        let transformed = TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        let faults = UniverseBuilder::new(c)
            .all_classes()
            .sample_per_class(80, 21)
            .build();
        let report = CoverageEngine::builder(c)
            .test(transformed.transparent_test())
            .content(ContentPolicy::Random { seed: 17 })
            .contents_per_fault(2)
            .build()
            .unwrap()
            .report(&faults)
            .unwrap();
        assert_eq!(report.class_coverage(FaultClass::Saf), 1.0, "{report}");
        assert_eq!(report.class_coverage(FaultClass::Tf), 1.0, "{report}");
        // Inter-word coupling faults behave exactly like the bit-oriented
        // case, so the transparent test detects every sampled instance.
        assert_eq!(report.inter_word.fraction(), 1.0, "{report}");
        // Intra-word coupling coverage is bounded by what the word-oriented
        // (non-transparent) march test itself achieves; the equivalence with
        // that bound is checked in the `equivalence` module.
        assert!(report.intra_word.fraction() > 0.5, "{report}");
    }

    #[test]
    fn tsmarch_alone_misses_intra_word_coupling_faults() {
        // Without ATMarch the solid-background transparent test cannot excite
        // couplings between bits of the same word: this is the gap ATMarch
        // closes (Section 5 of the paper).
        let width = 4;
        let c = config(8, width);
        let transformed = TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        let faults = UniverseBuilder::new(c)
            .coupling_idempotent()
            .coupling_scope(CouplingScope::SameWord)
            .sample_per_class(60, 9)
            .build();
        let tsmarch_only = engine(
            transformed
                .stage(twm_core::SchemeTransform::STAGE_TSMARCH)
                .unwrap(),
            c,
            23,
        )
        .report(&faults)
        .unwrap();
        let full = engine(transformed.transparent_test(), c, 23)
            .report(&faults)
            .unwrap();
        assert!(tsmarch_only.intra_word.fraction() < 1.0);
        assert!(
            full.intra_word.fraction() > tsmarch_only.intra_word.fraction(),
            "ATMarch must add intra-word CF coverage: {} vs {}",
            full.intra_word.fraction(),
            tsmarch_only.intra_word.fraction()
        );
    }
}
