//! Property suite for the fault-local scheme session: sweeping only the
//! words a fault (or a repair) can make diverge must reproduce what the
//! naive full session, [`run_scheme_session_staged`], reports for the
//! whole memory — signature trail, exact mismatch count and content
//! verdict — for every registered scheme (including the prediction-free
//! TOMT), word widths 2–64 (1–128 for the fault-free reference), all-zero
//! and random content, every fault class, multi-fault injections,
//! remapped memories and constructed aliasing pairs whose errors cancel in
//! the MISR.

use proptest::prelude::*;

use twm_bist::{
    run_scheme_session_local, run_scheme_session_staged, BistError, Misr, SessionReference,
};
use twm_core::scheme::{SchemeId, SchemeRegistry, SchemeTransform};
use twm_march::algorithms::{self, march_c_minus};
use twm_march::{MarchTest, OpKind};
use twm_mem::{
    BitAddress, BitStorage, Fault, FaultSet, FaultyMemory, MemError, MemoryAccess, MemoryConfig,
    RepairableMemory, SplitMix64, Transition, Word,
};

/// One drawn case: a memory shape, a scheme transform, a content and an
/// injection of one to three faults of any modelled class.
struct Case {
    config: MemoryConfig,
    transform: SchemeTransform,
    seed: Option<u64>,
    faults: Vec<Fault>,
}

impl Case {
    fn draw(rng: &mut SplitMix64, source: &MarchTest) -> Self {
        let width = 2 + rng.next_below(63);
        let words = 2 + rng.next_below(18);
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        let scheme = rng.next_below(registry.len());
        let transform = registry
            .iter()
            .nth(scheme)
            .unwrap()
            .transform(source)
            .unwrap();
        let seed = (rng.next_below(2) == 1).then(|| rng.next_u64());
        let faults = (0..1 + rng.next_below(3))
            .map(|_| draw_fault(rng, words, width))
            .collect();
        Self {
            config,
            transform,
            seed,
            faults,
        }
    }

    fn width(&self) -> usize {
        self.config.width()
    }

    fn reference(&self) -> SessionReference {
        SessionReference::new(
            &self.transform,
            content(self.config, self.seed),
            Misr::standard(self.width()),
        )
        .unwrap()
    }

    /// The faulty memory the naive flow builds: faults first, then the
    /// content fill (static faults enforced on it).
    fn faulty(&self) -> FaultyMemory {
        let mut memory = FaultyMemory::with_faults(self.config, self.faults.clone()).unwrap();
        if let Some(seed) = self.seed {
            memory.fill_random(seed);
        }
        memory
    }
}

fn draw_fault(rng: &mut SplitMix64, words: usize, width: usize) -> Fault {
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

/// The fault-free content a session starts from: zeros, or the
/// simulator's own pseudo-random fill.
fn content(config: MemoryConfig, seed: Option<u64>) -> BitStorage {
    let mut memory = FaultyMemory::fault_free(config);
    if let Some(seed) = seed {
        memory.fill_random(seed);
    }
    memory.snapshot()
}

/// The words a local sweep must visit: the fault footprint plus the
/// remapped words.
fn swept(faults: &[Fault], remapped: &[usize]) -> Vec<usize> {
    let mut words = FaultSet::from_faults(faults.iter().copied()).word_footprint();
    words.extend_from_slice(remapped);
    words.sort_unstable();
    words.dedup();
    words
}

/// Runs the naive and the fault-local session on identically built
/// memories and asserts every observable agrees.
fn assert_local_matches_naive<M: MemoryAccess>(
    transform: &SchemeTransform,
    reference: &SessionReference,
    build: impl Fn() -> M,
    addresses: &[usize],
) {
    let misr = Misr::standard(reference.image().width());
    let mut naive_memory = build();
    let naive = run_scheme_session_staged(transform, &mut naive_memory, misr).unwrap();
    let mut local_memory = build();
    let local = run_scheme_session_local(reference, &mut local_memory, addresses).unwrap();
    let scheme = transform.scheme();
    assert_eq!(
        local.trail,
        naive.signature_trail(),
        "trail under {scheme:?}"
    );
    assert_eq!(
        local.mismatches, naive.outcome.mismatches,
        "mismatches under {scheme:?}"
    );
    assert_eq!(
        local.content_preserved, naive.outcome.content_preserved,
        "content verdict under {scheme:?}"
    );
    let naive_clean = !naive.outcome.fault_detected()
        && !naive.outcome.fault_detected_exact()
        && naive.outcome.content_preserved;
    assert_eq!(local.clean(), naive_clean);
    if reference.content_preserved() {
        // Unswept words keep their content in both runs, so the memories
        // end identical.
        assert_eq!(local_memory.content(), naive_memory.content());
    }
}

/// One of the library's source march tests.
fn source_test(index: usize) -> MarchTest {
    let tests = algorithms::all();
    tests[index % tests.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fault-free references equal the naive session on a healthy memory,
    /// at every width 1–128 (Nicolaidis alone at width 1, where the other
    /// schemes are undefined) and up to 300 words, so that an element's
    /// reads over the whole memory often outnumber the register's bits.
    #[test]
    fn reference_matches_the_naive_fault_free_session(seed in any::<u64>(), test in 0usize..64) {
        let mut rng = SplitMix64::new(seed);
        let width = 1 + rng.next_below(128);
        let words = if rng.next_below(4) == 0 {
            1 + rng.next_below(300)
        } else {
            1 + rng.next_below(20)
        };
        let config = MemoryConfig::new(words, width).unwrap();
        let schemes = if width == 1 {
            vec![SchemeId::Nicolaidis]
        } else {
            SchemeId::all().to_vec()
        };
        let transform = schemes[rng.next_below(schemes.len())]
            .scheme(width)
            .unwrap()
            .transform(&source_test(test))
            .unwrap();
        let seed = (rng.next_below(2) == 1).then(|| rng.next_u64());
        let reference =
            SessionReference::new(&transform, content(config, seed), Misr::standard(width)).unwrap();
        let mut memory = FaultyMemory::fault_free(config);
        memory.load_image(reference.image()).unwrap();
        let naive =
            run_scheme_session_staged(&transform, &mut memory, Misr::standard(width)).unwrap();
        prop_assert_eq!(reference.trail(), naive.signature_trail().as_slice());
        prop_assert_eq!(reference.mismatches(), naive.outcome.mismatches);
        prop_assert_eq!(reference.content_preserved(), naive.outcome.content_preserved);
    }

    /// Single and multi-fault injections of every class.
    #[test]
    fn local_session_matches_the_naive_session(seed in any::<u64>(), test in 0usize..64) {
        let mut rng = SplitMix64::new(seed);
        let case = Case::draw(&mut rng, &source_test(test));
        let addresses = swept(&case.faults, &[]);
        assert_local_matches_naive(&case.transform, &case.reference(), || case.faulty(), &addresses);
    }

    /// Repaired memories: remapped words are served by spares seeded with
    /// the word's content at repair time, so they join the sweep.
    #[test]
    fn local_session_matches_the_naive_session_through_a_remap_table(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let case = Case::draw(&mut rng, &march_c_minus());
        let words = case.config.words();
        let mut remapped: Vec<usize> =
            (0..1 + rng.next_below(3)).map(|_| rng.next_below(words)).collect();
        remapped.sort_unstable();
        remapped.dedup();
        let build = || {
            let mut memory = RepairableMemory::new(case.faulty(), remapped.len()).unwrap();
            for (spare, &word) in remapped.iter().enumerate() {
                memory.map_word(word, spare).unwrap();
            }
            memory
        };
        let addresses = swept(&case.faults, &remapped);
        assert_local_matches_naive(&case.transform, &case.reference(), build, &addresses);
    }
}

/// A memory that XORs chosen error words into chosen reads: `(word, n,
/// error)` corrupts the `n`-th read of `word`. Lets a test place errors
/// at exact stream positions.
struct Corrupting {
    inner: FaultyMemory,
    reads: Vec<usize>,
    errors: Vec<(usize, usize, Word)>,
}

impl MemoryAccess for Corrupting {
    fn config(&self) -> MemoryConfig {
        self.inner.config()
    }

    fn read_word(&mut self, address: usize) -> Result<Word, MemError> {
        let value = self.inner.read_word(address)?;
        let nth = self.reads[address];
        self.reads[address] += 1;
        Ok(self
            .errors
            .iter()
            .filter(|(word, n, _)| *word == address && *n == nth)
            .fold(value, |value, (_, _, error)| value ^ *error))
    }

    fn write_word(&mut self, address: usize, data: Word) -> Result<(), MemError> {
        self.inner.write_word(address, data)
    }

    fn peek_word(&self, address: usize) -> Result<Word, MemError> {
        self.inner.peek_word(address)
    }
}

fn reads_per_word(test: &MarchTest) -> Vec<usize> {
    test.elements()
        .iter()
        .map(|element| {
            element
                .ops
                .iter()
                .filter(|op| op.kind == OpKind::Read)
                .count()
        })
        .collect()
}

/// Two read errors in the last element whose MISR contributions cancel:
/// `e₂ = e₁ · x^(t₂ − t₁) mod P`. The naive session aliases (clean
/// signatures, two mismatches), and the fault-local session must report
/// the same aliased trail rather than a detection.
#[test]
fn cancelling_errors_alias_in_both_sessions() {
    let words = 12;
    for width in [2usize, 5, 8, 16, 32, 64] {
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        for scheme in registry.iter() {
            let transform = scheme.transform(&march_c_minus()).unwrap();
            let test = transform.transparent_test();
            let reads = reads_per_word(test);
            let last = test.elements().len() - 1;
            let before_last: usize = transform
                .signature_prediction()
                .map_or(0, |prediction| reads_per_word(prediction).iter().sum())
                + reads[..last].iter().sum::<usize>();
            let descending = test.elements()[last].order == twm_mem::AddressOrder::Descending;
            // Word `a` is read first in the last element, word `b` later.
            let (a, b) = if descending { (9, 3) } else { (3, 9) };
            let distance = (reads[last] * 6) as u64;
            let first = Word::from_bits(0b1011 & ((1 << width) - 1) | 1, width).unwrap();
            let mut shifted = Misr::standard(width);
            shifted.absorb(first);
            shifted.jump(distance);
            let second = shifted.signature();

            let initial = content(config, Some(17));
            let reference =
                SessionReference::new(&transform, initial.clone(), Misr::standard(width)).unwrap();
            let build = || {
                let mut inner = FaultyMemory::fault_free(config);
                inner.load_image(&initial).unwrap();
                Corrupting {
                    inner,
                    reads: vec![0; words],
                    errors: vec![(a, before_last, first), (b, before_last, second)],
                }
            };
            let naive =
                run_scheme_session_staged(&transform, &mut build(), Misr::standard(width)).unwrap();
            assert_eq!(
                naive.signature_trail(),
                reference.trail(),
                "{:?} at width {width}: constructed errors must cancel",
                transform.scheme()
            );
            assert_eq!(naive.outcome.mismatches, 2);
            let local = run_scheme_session_local(&reference, &mut build(), &[3, 9]).unwrap();
            assert_eq!(local.trail, naive.signature_trail());
            assert_eq!(local.mismatches, 2);
            assert!(!local.clean());
        }
    }
}

#[test]
fn shape_mismatches_are_rejected() {
    let transform = SchemeRegistry::all(8)
        .unwrap()
        .iter()
        .last()
        .unwrap()
        .transform(&march_c_minus())
        .unwrap();
    let config = MemoryConfig::new(4, 8).unwrap();
    let reference =
        SessionReference::new(&transform, content(config, None), Misr::standard(8)).unwrap();
    let mut wrong_words = FaultyMemory::fault_free(MemoryConfig::new(5, 8).unwrap());
    assert!(run_scheme_session_local(&reference, &mut wrong_words, &[0]).is_err());
    let mut wrong_width = FaultyMemory::fault_free(MemoryConfig::new(4, 16).unwrap());
    assert!(run_scheme_session_local(&reference, &mut wrong_width, &[0]).is_err());
    assert!(SessionReference::new(&transform, content(config, None), Misr::standard(16)).is_err());
}

/// The sweep's stream positions assume strictly ascending addresses, so
/// an unsorted or repeated list is an error, not a wrong trail.
#[test]
fn unsorted_or_repeated_addresses_are_rejected() {
    let transform = SchemeRegistry::all(8)
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .transform(&march_c_minus())
        .unwrap();
    let config = MemoryConfig::new(8, 8).unwrap();
    let reference =
        SessionReference::new(&transform, content(config, Some(3)), Misr::standard(8)).unwrap();
    for addresses in [&[5, 2][..], &[1, 4, 4], &[0, 0]] {
        let mut memory = FaultyMemory::fault_free(config);
        memory.load_image(reference.image()).unwrap();
        assert_eq!(
            run_scheme_session_local(&reference, &mut memory, addresses),
            Err(BistError::UnsortedAddresses),
            "{addresses:?}"
        );
    }
    let mut memory = FaultyMemory::fault_free(config);
    memory.load_image(reference.image()).unwrap();
    assert!(run_scheme_session_local(&reference, &mut memory, &[2, 5]).is_ok());
}
