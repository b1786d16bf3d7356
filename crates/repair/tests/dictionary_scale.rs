//! Dictionary builds at a production memory shape. A TWM_TA × March C−
//! dictionary over 1,024 sampled SAF+TF injections on a 64K×32 memory must
//! build within a minute — it takes seconds with fault-local trails, and
//! minutes if every injection re-runs the whole session — and its trails
//! must equal the naive session's on a subset of the injections.
//!
//! Ignored by default (a debug build is far too slow); run it in release
//! mode:
//!
//! ```text
//! cargo test --release -p twm-repair --test dictionary_scale -- --ignored
//! ```

use std::collections::HashSet;
use std::time::{Duration, Instant};

use twm_bist::{run_scheme_session_staged, Misr};
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine};
use twm_march::algorithms::march_c_minus;
use twm_mem::{BitAddress, Fault, FaultSet, FaultyMemory, MemoryConfig, SplitMix64, Transition};
use twm_repair::{DictionaryOptions, SignatureDictionary, SignatureTrail};

const WORDS: usize = 64 * 1024;
const WIDTH: usize = 32;
const INJECTIONS: usize = 1024;
const NAIVE_SUBSET: usize = 32;
const BUDGET: Duration = Duration::from_secs(60);
const SEED: u64 = 0x64_0032;

/// `INJECTIONS` distinct faults, half stuck-at and half transition, at
/// uniformly drawn cells.
fn sampled_universe() -> Vec<Fault> {
    let mut rng = SplitMix64::new(SEED);
    let mut seen = HashSet::new();
    let mut faults = Vec::with_capacity(INJECTIONS);
    while faults.len() < INJECTIONS {
        let cell = BitAddress::new(rng.next_below(WORDS), rng.next_below(WIDTH));
        let flag = rng.next_below(2) == 1;
        let fault = if faults.len() % 2 == 0 {
            Fault::stuck_at(cell, flag)
        } else if flag {
            Fault::transition(cell, Transition::Rising)
        } else {
            Fault::transition(cell, Transition::Falling)
        };
        if seen.insert(fault) {
            faults.push(fault);
        }
    }
    faults
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn sampled_64k_by_32_dictionary_builds_within_a_minute() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let content = ContentPolicy::Random { seed: SEED };
    let registry = SchemeRegistry::all(WIDTH).unwrap();
    let engine = CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(content)
    .build()
    .unwrap();
    let universe = sampled_universe();

    let start = Instant::now();
    let dictionary =
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
    let elapsed = start.elapsed();
    println!(
        "64Kx32 TWM_TA x March C- dictionary: {INJECTIONS} injections in {:.2} s ({} classes)",
        elapsed.as_secs_f64(),
        dictionary.stats().classes
    );
    assert!(
        elapsed < BUDGET,
        "build took {elapsed:?}, over the {BUDGET:?} budget"
    );
    assert_eq!(
        dictionary.stats().indexed + dictionary.undetected().len(),
        INJECTIONS
    );

    // The naive session on one injection in 32, stuck-at and transition
    // faults alternating.
    let transform = engine.scheme_transform().unwrap();
    let stride = INJECTIONS / NAIVE_SUBSET;
    for fault in (0..NAIVE_SUBSET).map(|i| &universe[i * stride + i % 2]) {
        let mut memory =
            FaultyMemory::with_faults(config, FaultSet::from_faults([*fault])).unwrap();
        memory.fill_random(SEED);
        let staged =
            run_scheme_session_staged(transform, &mut memory, Misr::standard(WIDTH)).unwrap();
        let naive = SignatureTrail::new(staged.signature_trail());
        let indexed = dictionary
            .classes()
            .iter()
            .find(|class| class.injections.contains(&vec![*fault]))
            .map_or(dictionary.fault_free_trail(), |class| &class.trail);
        assert_eq!(
            indexed, &naive,
            "trail of {fault:?} differs from the naive session"
        );
    }
}
