//! The acceptance pin for the paged backend: over random universes,
//! widths and content policies, a `PagedDictionary` whose file is at
//! least **4× the page-cache budget** answers every lookup — and every
//! `localise_trail` diagnosis — bit-identically to the in-RAM
//! `SignatureDictionary` it was written from.

use proptest::prelude::*;

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_mem::{MemoryConfig, Word};
use twm_repair::{
    localise_trail, localise_trail_normalised, DictionaryOptions, SignatureDictionary,
    SignatureTrail, TrailLookup,
};
use twm_store::{PagedDictionary, StoreOptions};

/// Small pages + a 2-page budget: even toy dictionaries overflow the
/// cache by the required factor, so lookups genuinely stream from disk.
/// The page must still hold one full index entry (16 fixed bytes +
/// 16 per trail word + the 8-byte seal), so it is sized per-case from
/// the dictionary's actual trail length.
fn store_options(trail_words: usize) -> StoreOptions {
    let entry = 16 + trail_words * 16 + 8;
    let page_size = entry.next_power_of_two().max(256);
    StoreOptions {
        page_size,
        cache_budget: 2 * page_size,
    }
}

fn build(
    words: usize,
    width: usize,
    scheme: SchemeId,
    content: ContentPolicy,
    samples: usize,
) -> SignatureDictionary {
    let config = MemoryConfig::new(words, width).unwrap();
    let registry = SchemeRegistry::all(width).unwrap();
    let source = if words.is_multiple_of(2) {
        march_c_minus()
    } else {
        mats_plus()
    };
    let engine = CoverageEngine::for_scheme(registry.get(scheme).unwrap(), &source, config)
        .unwrap()
        .content(content)
        .build()
        .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions {
        multi_fault_samples: samples,
        ..DictionaryOptions::default()
    };
    SignatureDictionary::build(&engine, &universe, &options).unwrap()
}

fn temp_store(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "twm-equivalence-{}-{tag:x}.twmstore",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence: disk-served lookups are bit-identical
    /// to RAM over random shapes, schemes, contents and sampled
    /// multi-fault loads.
    #[test]
    fn paged_lookups_are_bit_identical_to_ram(
        words in 6usize..10,
        width_pick in 0usize..2,
        scheme_pick in 0usize..2,
        seed in any::<u64>(),
        samples in 0usize..50,
    ) {
        let width = [4, 8][width_pick];
        let scheme = [SchemeId::TwmTa, SchemeId::Scheme1][scheme_pick];
        let content = if seed.is_multiple_of(3) {
            ContentPolicy::Zeros
        } else {
            ContentPolicy::Random { seed }
        };
        let dictionary = build(words, width, scheme, content, samples);

        let path = temp_store((words as u64) << 32 | samples as u64);
        let options = store_options(dictionary.fault_free_trail().len());
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let paged = PagedDictionary::open(&path, &options).unwrap();

        // Acceptance: the file must dwarf the budget by >= 4x, so the
        // equivalence below is actually exercised out of core.
        prop_assert!(
            paged.file_bytes() >= 4 * options.cache_budget as u64,
            "file {} bytes < 4x budget {}",
            paged.file_bytes(),
            options.cache_budget
        );

        // Every indexed trail: same class, same diagnosis.
        for class in dictionary.classes() {
            prop_assert_eq!(paged.lookup(&class.trail).unwrap().as_ref(), Some(class));
            prop_assert_eq!(
                localise_trail(&paged, &class.trail).unwrap(),
                localise_trail(&dictionary, &class.trail).unwrap()
            );
        }
        // The fault-free trail and synthetic absent trails: same misses.
        let reference = dictionary.fault_free_trail();
        prop_assert_eq!(
            localise_trail(&paged, reference).unwrap(),
            localise_trail(&dictionary, reference).unwrap()
        );
        for probe in 0..16u32 {
            let trail = SignatureTrail::new(
                reference
                    .iter()
                    .enumerate()
                    .map(|(at, word)| {
                        let bits = word.to_bits() ^ u128::from(probe.wrapping_mul(at as u32 + 1));
                        Word::from_bits(bits & Word::ones(width).to_bits(), width).unwrap()
                    })
                    .collect(),
            );
            prop_assert_eq!(
                paged.lookup(&trail).unwrap(),
                dictionary.lookup(&trail).cloned()
            );
        }
        // Content-normalised lookup flows through the same trait path:
        // drift every signature by a constant, as a different memory
        // content would, and diagnose against the drifted expectation.
        let shift = SignatureTrail::new(
            vec![Word::from_bits(0b11, width).unwrap(); reference.len()],
        );
        let observed = dictionary.classes()[0].trail.xor(&shift).unwrap();
        let expected_drifted = reference.xor(&shift).unwrap();
        prop_assert_eq!(
            localise_trail_normalised(&paged, &observed, &expected_drifted).unwrap(),
            localise_trail_normalised(&dictionary, &observed, &expected_drifted).unwrap()
        );

        // And the statistics the store serves from its header agree.
        prop_assert_eq!(paged.ambiguity_stats(), dictionary.stats());
        std::fs::remove_file(&path).unwrap();
    }
}
