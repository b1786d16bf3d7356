//! Integration test for the paper's Section 5 coverage theorem, run across
//! three word widths and two march tests: the transparent word-oriented test
//! preserves the coverage of the non-transparent word-oriented test for the
//! operation-driven fault classes, and inter-word coupling faults are fully
//! covered by both. At the paper's 32-bit width the universe is every
//! fault of a 64-word memory: 1,933,312 faults, each engine answering them
//! from its verdict table.

use twm::core::atmarch::amarch;
use twm::core::{SchemeId, SchemeRegistry};
use twm::coverage::{
    ContentPolicy, CouplingScope, CoverageEngine, EquivalenceReport, UniverseBuilder,
};
use twm::march::algorithms::{march_c_minus, march_u};
use twm::mem::{FaultClass, MemoryConfig};

fn run_case(
    bmarch: &twm::march::MarchTest,
    words: usize,
    width: usize,
    seed: u64,
) -> EquivalenceReport {
    let config = MemoryConfig::new(words, width).unwrap();
    let transformed = SchemeRegistry::all(width)
        .unwrap()
        .transform(SchemeId::TwmTa, bmarch)
        .unwrap();
    let counterpart = bmarch.concatenated(
        &amarch(width).unwrap(),
        format!("{} + AMarch", bmarch.name()),
    );
    let faults = UniverseBuilder::new(config)
        .all_classes()
        .coupling_scope(CouplingScope::SameWordAndAdjacent)
        .build();
    let transparent = CoverageEngine::builder(config)
        .test(transformed.transparent_test())
        .content(ContentPolicy::Random { seed })
        .build()
        .unwrap();
    let nontransparent = CoverageEngine::builder(config)
        .test(&counterpart)
        .content(ContentPolicy::Zeros)
        .build()
        .unwrap();
    let report = transparent.compare(&nontransparent, &faults).unwrap();

    assert!(
        report.class_counts_equal_for(&[
            FaultClass::Saf,
            FaultClass::Tf,
            FaultClass::Cfid,
            FaultClass::Cfin
        ]),
        "{} W={width}: counts differ\n{}\n{}",
        bmarch.name(),
        report.first,
        report.second
    );
    assert!(
        report.class_coverage_gap(FaultClass::Cfst) < 0.05,
        "{} W={width}: CFst gap {:.3}",
        bmarch.name(),
        report.class_coverage_gap(FaultClass::Cfst)
    );
    assert_eq!(report.first.inter_word.fraction(), 1.0);
    assert_eq!(report.second.inter_word.fraction(), 1.0);
    assert_eq!(report.first.class_coverage(FaultClass::Saf), 1.0);
    assert_eq!(report.first.class_coverage(FaultClass::Tf), 1.0);
    assert_eq!(report.first.class_coverage(FaultClass::Cfin), 1.0);
    report
}

#[test]
fn march_c_minus_width_4() {
    run_case(&march_c_minus(), 5, 4, 0xAA01);
}

#[test]
fn march_c_minus_width_8() {
    run_case(&march_c_minus(), 4, 8, 0xAA02);
}

#[test]
fn march_u_width_4() {
    run_case(&march_u(), 5, 4, 0xAA03);
}

/// Every SAF, TF and same-word or adjacent-word CFst, CFid and CFin of a
/// 64×32 memory.
const FAULTS_64_BY_32: usize = 1_933_312;

#[test]
fn march_c_minus_64_by_32_exhaustive() {
    let report = run_case(&march_c_minus(), 64, 32, 0xAA04);
    assert_eq!(report.first.total_faults(), FAULTS_64_BY_32);
}

#[test]
fn march_u_64_by_32_exhaustive() {
    let report = run_case(&march_u(), 64, 32, 0xAA05);
    assert_eq!(report.first.total_faults(), FAULTS_64_BY_32);
}
