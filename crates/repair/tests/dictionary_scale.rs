//! Dictionary builds at a production memory shape, TWM_TA × March C− on a
//! 64K×32 memory:
//!
//! * a dictionary over 1,024 sampled SAF+TF injections must build within
//!   a minute — it takes well under a second with fault-local trails, and
//!   minutes if every injection re-runs the whole session — and its
//!   trails must equal the naive session's on a subset of the injections;
//! * every trail of the full SAF+TF universe (8,388,608 faults), streamed
//!   through the single-cell table in chunks without building a
//!   dictionary, must take at most a minute, cost at most 1/50 of a
//!   fault-local sweep per fault (timed on the sampled injections), and
//!   equal the naive session's on a subset.
//!
//! Ignored by default (a debug build is far too slow); run it in release
//! mode:
//!
//! ```text
//! cargo test --release -p twm-repair --test dictionary_scale -- --ignored
//! ```

use std::collections::HashSet;
use std::time::{Duration, Instant};

use twm_bist::{run_scheme_session_staged, FaultLocalSession, Misr};
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
/// Minimum per-fault speed-up of single-cell table trails over
/// fault-local sweeps.
const TABLE_SPEEDUP_FLOOR: f64 = 50.0;
/// Words per chunk of the streamed full universe (4,096 faults).
const CHUNK_WORDS: usize = 32;
/// Universe chunks timed against the sample's sweeps per round.
const RATIO_CHUNKS: usize = 8;
/// Rounds of the sweep-against-table comparison.
const RATIO_ROUNDS: usize = 7;
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

/// The serial 64K×32 TWM_TA × March C− engine over random content.
fn engine() -> CoverageEngine {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let registry = SchemeRegistry::all(WIDTH).unwrap();
    CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: SEED })
    .build()
    .unwrap()
}

/// The trail the naive session produces for `fault`.
fn naive_trail(engine: &CoverageEngine, fault: Fault) -> SignatureTrail {
    let mut memory =
        FaultyMemory::with_faults(engine.config(), FaultSet::from_faults([fault])).unwrap();
    memory.fill_random(SEED);
    let staged = run_scheme_session_staged(
        engine.scheme_transform().unwrap(),
        &mut memory,
        Misr::standard(WIDTH),
    )
    .unwrap();
    SignatureTrail::new(staged.signature_trail())
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn sampled_64k_by_32_dictionary_builds_within_a_minute() {
    let engine = engine();
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
    let stride = INJECTIONS / NAIVE_SUBSET;
    for fault in (0..NAIVE_SUBSET).map(|i| &universe[i * stride + i % 2]) {
        let naive = naive_trail(&engine, *fault);
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

/// The SAF+TF faults of words `words`, in `UniverseBuilder` order: every
/// stuck-at fault, then every transition fault.
fn saf_tf_chunk(words: std::ops::Range<usize>) -> Vec<Fault> {
    let cells = || {
        words
            .clone()
            .flat_map(|word| (0..WIDTH).map(move |bit| BitAddress::new(word, bit)))
    };
    let stuck =
        cells().flat_map(|cell| [Fault::stuck_at(cell, false), Fault::stuck_at(cell, true)]);
    let transition = cells().flat_map(|cell| {
        [
            Fault::transition(cell, Transition::Rising),
            Fault::transition(cell, Transition::Falling),
        ]
    });
    stuck.chain(transition).collect()
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn full_64k_by_32_saf_tf_universe_streams_through_the_table() {
    let engine = engine();
    let config = engine.config();
    let session = FaultLocalSession::new(
        engine.scheme_transform().unwrap(),
        ContentPolicy::Random { seed: SEED }.image(config, 0),
        Misr::standard(WIDTH),
    )
    .unwrap();

    // The whole universe, one chunk of words at a time (only the table
    // calls timed).
    let mut elapsed = Duration::ZERO;
    let (mut faults, mut detected) = (0usize, 0usize);
    let fault_free = session.reference().trail();
    for first in (0..WORDS).step_by(CHUNK_WORDS) {
        let chunk = saf_tf_chunk(first..first + CHUNK_WORDS);
        let start = Instant::now();
        let trails = session.single_fault_trails(&chunk).unwrap();
        elapsed += start.elapsed();
        faults += trails.len();
        detected += trails.iter().filter(|trail| **trail != fault_free).count();
    }
    println!(
        "64Kx32 TWM_TA x March C- SAF+TF universe: {faults} trails in {:.2} s \
         ({:.3} µs each, {detected} detected)",
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e6 / faults as f64
    );
    assert_eq!(faults, 4 * WORDS * WIDTH);
    assert!(
        elapsed < BUDGET,
        "the universe took {elapsed:?}, over the {BUDGET:?} budget"
    );

    // Per fault, in alternating rounds: a fault-local sweep of each
    // sampled fault against table trails over chunks of the universe
    // (the median over rounds of their ratio). The sample through the
    // table must agree with its sweeps.
    let sample = sampled_universe();
    let chunks: Vec<Vec<Fault>> = (0..RATIO_CHUNKS)
        .map(|i| saf_tf_chunk(i * WORDS / RATIO_CHUNKS..i * WORDS / RATIO_CHUNKS + CHUNK_WORDS))
        .collect();
    let mut ratios = Vec::new();
    let mut swept = Vec::new();
    for _ in 0..RATIO_ROUNDS {
        let start = Instant::now();
        swept = sample
            .iter()
            .map(|fault| session.run(&[*fault]).unwrap().trail)
            .collect::<Vec<_>>();
        let sweep_s = start.elapsed().as_secs_f64() / sample.len() as f64;
        let start = Instant::now();
        let tabled: usize = chunks
            .iter()
            .map(|chunk| session.single_fault_trails(chunk).unwrap().len())
            .sum();
        let table_s = start.elapsed().as_secs_f64() / tabled as f64;
        ratios.push((sweep_s / table_s, sweep_s, table_s));
    }
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (speedup, sweep_s, table_s) = ratios[ratios.len() / 2];
    let start = Instant::now();
    let tabled = session.single_fault_trails(&sample).unwrap();
    let sample_s = start.elapsed().as_secs_f64() / sample.len() as f64;
    assert_eq!(tabled, swept, "table and sweep trails differ");
    println!(
        "per fault: sweep {:.2} µs, table {:.3} µs over the universe ({speedup:.0}x, \
         median of {RATIO_ROUNDS} rounds); table {:.3} µs over the sample (one fault per word)",
        sweep_s * 1e6,
        table_s * 1e6,
        sample_s * 1e6
    );
    assert!(
        speedup >= TABLE_SPEEDUP_FLOOR,
        "table trails are {speedup:.1}x a sweep per fault, below {TABLE_SPEEDUP_FLOOR}x"
    );

    // The naive session on one sampled fault in 32.
    let stride = INJECTIONS / NAIVE_SUBSET;
    for at in (0..NAIVE_SUBSET).map(|i| i * stride + i % 2) {
        assert_eq!(
            tabled[at],
            naive_trail(&engine, sample[at]).signatures(),
            "trail of {:?} differs from the naive session",
            sample[at]
        );
    }
}
