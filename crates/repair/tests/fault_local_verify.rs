//! Fault-local dictionary trails and repair verification against their
//! naive references: every trail a [`SignatureDictionary`] indexes must be
//! the trail [`run_scheme_session_staged`] produces on a memory built with
//! the injection and the reference content, and
//! [`FaultLocalSession::verify`] must return
//! [`verify_repair`]`(..).clean()` on the same repaired memory — across
//! every registered scheme, all-zero and random content, single and
//! multi-fault injections, allocator plans with 1–3 spares and plans that
//! remap only part of a coupling fault's footprint.

use twm_bist::{run_scheme_session_staged, Misr};
use twm_core::scheme::{SchemeId, SchemeRegistry, SchemeTransform};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_march::algorithms::{march_c_minus, march_u};
use twm_march::MarchTest;
use twm_mem::{
    BitAddress, Fault, FaultSet, FaultyMemory, MemoryConfig, RepairableMemory, SplitMix64,
    Transition,
};
use twm_repair::{
    localise_trail, verify_repair, DefectEvidence, DictionaryOptions, FaultLocalSession,
    LocatedDefect, RepairAllocator, RepairAssignment, RepairPlan, SignatureDictionary,
    SignatureTrail,
};

const CONTENTS: [ContentPolicy; 2] = [ContentPolicy::Zeros, ContentPolicy::Random { seed: 77 }];

/// The memory the naive flow diagnoses: the injection, then the content.
fn faulty(config: MemoryConfig, content: ContentPolicy, injection: &[Fault]) -> FaultyMemory {
    let mut memory =
        FaultyMemory::with_faults(config, FaultSet::from_faults(injection.iter().copied()))
            .unwrap();
    if let ContentPolicy::Random { seed } = content {
        memory.fill_random(seed);
    }
    memory
}

fn naive_trail(
    transform: &SchemeTransform,
    config: MemoryConfig,
    content: ContentPolicy,
    injection: &[Fault],
) -> SignatureTrail {
    let mut memory = faulty(config, content, injection);
    let staged =
        run_scheme_session_staged(transform, &mut memory, Misr::standard(config.width())).unwrap();
    SignatureTrail::new(staged.signature_trail())
}

fn naive_verify(
    transform: &SchemeTransform,
    config: MemoryConfig,
    content: ContentPolicy,
    injection: &[Fault],
    spares: usize,
    plan: &RepairPlan,
) -> bool {
    let mut memory = RepairableMemory::new(faulty(config, content, injection), spares).unwrap();
    plan.apply(&mut memory).unwrap();
    verify_repair(transform, &mut memory, Misr::standard(config.width()))
        .unwrap()
        .clean()
}

/// A plan remapping `words` onto spares `0..`.
fn plan_for(words: &[usize], spares: usize) -> RepairPlan {
    RepairPlan {
        assignments: words
            .iter()
            .enumerate()
            .map(|(spare, &word)| RepairAssignment {
                word,
                spare,
                defects: Vec::new(),
            })
            .collect(),
        unrepaired: Vec::new(),
        must_repair_words: words.to_vec(),
        spares_available: spares,
    }
}

/// An allocator plan for defects at the injection's victim cells.
fn allocator_plan(injection: &[Fault], spares: usize) -> RepairPlan {
    let defects: Vec<LocatedDefect> = injection
        .iter()
        .map(|fault| LocatedDefect {
            cell: fault.victim(),
            hypothesis: Some(fault.class()),
            stuck_value: None,
            confidence: 1.0,
            evidence: DefectEvidence::default(),
        })
        .collect();
    RepairAllocator::default().allocate(&defects, spares)
}

fn random_fault(rng: &mut SplitMix64, config: MemoryConfig) -> Fault {
    let (words, width) = (config.words(), config.width());
    let mut cell = || BitAddress::new(rng.next_below(words), rng.next_below(width));
    let a = cell();
    let mut v = cell();
    if v == a {
        v = BitAddress::new(v.word, (v.bit + 1) % width);
    }
    let flag = rng.next_below(2) == 1;
    let direction = if rng.next_below(2) == 1 {
        Transition::Rising
    } else {
        Transition::Falling
    };
    match rng.next_below(5) {
        0 => Fault::stuck_at(a, flag),
        1 => Fault::transition(a, direction),
        2 => Fault::coupling_inversion(a, v, direction),
        3 => Fault::coupling_idempotent(a, v, direction, flag),
        _ => Fault::coupling_state(a, v, flag, rng.next_below(2) == 1),
    }
}

fn engine(
    id: SchemeId,
    source: &MarchTest,
    config: MemoryConfig,
    content: ContentPolicy,
) -> CoverageEngine {
    let registry = SchemeRegistry::all(config.width()).unwrap();
    CoverageEngine::for_scheme(registry.get(id).unwrap(), source, config)
        .unwrap()
        .content(content)
        .strategy(Strategy::Serial)
        .build()
        .unwrap()
}

/// Every injection a dictionary indexes (or leaves undetected) carries
/// the naive session's trail — single faults of every class plus sampled
/// pairs, under every registered scheme and both content policies.
#[test]
fn dictionary_trails_equal_the_naive_session() {
    for (config, source) in [
        (MemoryConfig::new(6, 4).unwrap(), march_c_minus()),
        (MemoryConfig::new(5, 8).unwrap(), march_u()),
    ] {
        let universe = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .coupling_idempotent()
            .coupling_inversion()
            .coupling_state()
            .sample_per_class(24, 5)
            .build();
        for id in SchemeId::all() {
            for content in CONTENTS {
                let engine = engine(id, &source, config, content);
                let transform = engine.scheme_transform().unwrap();
                let dictionary = SignatureDictionary::build(
                    &engine,
                    &universe,
                    &DictionaryOptions {
                        multi_fault_samples: 16,
                        ..DictionaryOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    dictionary.fault_free_trail(),
                    &naive_trail(transform, config, content, &[]),
                    "{id:?} fault-free trail"
                );
                let mut checked = 0usize;
                for class in dictionary.classes() {
                    for injection in &class.injections {
                        let naive = naive_trail(transform, config, content, injection);
                        assert_eq!(class.trail, naive, "{id:?} {content:?} {injection:?}");
                        checked += 1;
                    }
                }
                for injection in dictionary.undetected() {
                    let naive = naive_trail(transform, config, content, injection);
                    assert_eq!(&naive, dictionary.fault_free_trail(), "{injection:?}");
                    checked += 1;
                }
                assert_eq!(
                    checked,
                    dictionary.stats().indexed + dictionary.undetected().len()
                );
            }
        }
    }
}

/// The fleet's flow — localise the trail, allocate 1–3 spares, verify the
/// class representative — agrees with the naive verification for every
/// indexed class.
#[test]
fn verification_of_allocator_plans_matches_verify_repair() {
    let config = MemoryConfig::new(6, 4).unwrap();
    let universe = UniverseBuilder::new(config)
        .stuck_at()
        .transition()
        .coupling_idempotent()
        .build();
    for id in SchemeId::all() {
        for content in CONTENTS {
            let engine = engine(id, &march_c_minus(), config, content);
            let transform = engine.scheme_transform().unwrap();
            let dictionary = SignatureDictionary::build(
                &engine,
                &universe,
                &DictionaryOptions {
                    multi_fault_samples: 8,
                    ..DictionaryOptions::default()
                },
            )
            .unwrap();
            let session =
                FaultLocalSession::new(transform, config, content, Misr::standard(4)).unwrap();
            let mut clean = 0usize;
            for class in dictionary.classes() {
                let diagnosis = localise_trail(&dictionary, &class.trail).unwrap();
                for spares in 1..=3 {
                    let plan = RepairAllocator::default().allocate(&diagnosis.defects, spares);
                    let representative = &class.injections[0];
                    let local = session.verify(representative, spares, &plan).unwrap();
                    let naive =
                        naive_verify(transform, config, content, representative, spares, &plan);
                    assert_eq!(
                        local, naive,
                        "{id:?} {content:?} {representative:?} {plan:?}"
                    );
                    clean += usize::from(local);
                }
            }
            assert!(clean > 0, "{id:?}: no plan verified clean");
        }
    }
}

/// Random single and multi-fault injections of every class, with plans
/// from the allocator (1–3 spares) and with no repair at all.
#[test]
fn verification_of_random_injections_matches_verify_repair() {
    let mut rng = SplitMix64::new(0xFA17);
    for round in 0..160 {
        let width = [2, 3, 4, 8, 16, 32][round % 6];
        let config = MemoryConfig::new(3 + rng.next_below(10), width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        let scheme = registry.iter().nth(round % registry.len()).unwrap();
        let transform = scheme.transform(&march_c_minus()).unwrap();
        let content = CONTENTS[rng.next_below(2)];
        let session =
            FaultLocalSession::new(&transform, config, content, Misr::standard(width)).unwrap();
        let injection: Vec<Fault> = (0..1 + rng.next_below(3))
            .map(|_| random_fault(&mut rng, config))
            .collect();
        assert_eq!(
            session.trail(&injection).unwrap(),
            naive_trail(&transform, config, content, &injection)
        );
        for spares in 0..=3 {
            let plan = allocator_plan(&injection, spares);
            assert_eq!(
                session.verify(&injection, spares, &plan).unwrap(),
                naive_verify(&transform, config, content, &injection, spares, &plan),
                "{:?} {content:?} {injection:?} with {spares} spares",
                scheme.id()
            );
        }
    }
}

/// A coupling fault spanning two words, repaired at only one of them:
/// remapping the victim hides it, remapping only the aggressor leaves the
/// victim exposed in the main array, and remapping both repairs it. The
/// local verdict follows the naive one in each case.
#[test]
fn partial_repair_of_a_two_word_coupling_footprint_matches_verify_repair() {
    let config = MemoryConfig::new(8, 8).unwrap();
    let aggressor = BitAddress::new(2, 5);
    let victim = BitAddress::new(6, 1);
    let faults = [
        Fault::coupling_idempotent(aggressor, victim, Transition::Rising, true),
        Fault::coupling_inversion(aggressor, victim, Transition::Falling),
        Fault::coupling_state(aggressor, victim, true, false),
        Fault::coupling_idempotent(victim, aggressor, Transition::Falling, false),
    ];
    let registry = SchemeRegistry::all(8).unwrap();
    let mut verdicts = [0usize; 2];
    for scheme in registry.iter() {
        let transform = scheme.transform(&march_c_minus()).unwrap();
        for content in CONTENTS {
            let session =
                FaultLocalSession::new(&transform, config, content, Misr::standard(8)).unwrap();
            for fault in faults {
                for words in [&[2usize][..], &[6], &[2, 6]] {
                    let plan = plan_for(words, 2);
                    let local = session.verify(&[fault], 2, &plan).unwrap();
                    let naive = naive_verify(&transform, config, content, &[fault], 2, &plan);
                    assert_eq!(
                        local,
                        naive,
                        "{:?} {fault:?} remapping {words:?}",
                        scheme.id()
                    );
                    verdicts[usize::from(local)] += 1;
                }
            }
        }
    }
    // Both verdicts occur, so the comparison is not vacuous.
    assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
}

#[test]
fn verification_reports_plans_that_need_missing_spares() {
    let config = MemoryConfig::new(4, 4).unwrap();
    let transform = SchemeRegistry::all(4)
        .unwrap()
        .transform(SchemeId::TwmTa, &march_c_minus())
        .unwrap();
    let session =
        FaultLocalSession::new(&transform, config, ContentPolicy::Zeros, Misr::standard(4))
            .unwrap();
    let fault = Fault::stuck_at(BitAddress::new(1, 1), true);
    assert!(session.verify(&[fault], 1, &plan_for(&[1, 2], 1)).is_err());
    let outside = Fault::stuck_at(BitAddress::new(4, 0), true);
    assert!(session.trail(&[outside]).is_err());
    // A failed query leaves the session usable.
    assert!(session.verify(&[fault], 1, &plan_for(&[1], 1)).unwrap());
    assert!(
        FaultLocalSession::new(&transform, config, ContentPolicy::Zeros, Misr::standard(8))
            .is_err()
    );
}
