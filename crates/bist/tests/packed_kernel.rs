//! Property suite for the lane-packed kernel: for every batch armed into a
//! [`PackedArena`], lane `i` of `detect_lowered_batch`'s mask must equal
//! the scalar fault-local verdict (`detect_lowered_at` over the victim's
//! word) on a [`FaultyMemory`] carrying lane `i`'s fault alone, under the
//! same content.
//!
//! The arena keeps lane planes only for *live* bits (bit positions that
//! host a fault in some lane) and runs every other bit of a word as one
//! shared value, so the suite covers both extremes: dense batches where
//! one word's faults fill all 64 lanes and every bit is live, and sparse
//! or partial batches with one live bit per word. Widths straddle the
//! 64-bit storage blocks (1 … 128); contents are all-zero and random, and
//! `reload` replays a batch under further images. A non-transparent test
//! that reads a literal pattern before writing it mismatches on fault-free
//! bits, which must flag every lane owning the word.

use twm_bist::{detect_lowered_at, detect_lowered_batch, LoweredTest};
use twm_core::{TransparentScheme, TwmTa};
use twm_march::algorithms::{march_c_minus, march_u};
use twm_march::notation::parse_march;
use twm_march::MarchTest;
use twm_mem::{
    BitAddress, BitStorage, Fault, FaultyMemory, MemoryConfig, Packed64, PackedArena, SplitMix64,
    Transition,
};

const WIDTHS: [usize; 11] = [1, 2, 7, 8, 31, 32, 33, 64, 65, 127, 128];

/// Reads a literal `1` from every word before the test has written it: a
/// stuck-at-1 cell is then caught only by a mismatch on another bit.
fn literal_read_first() -> MarchTest {
    parse_march("read-before-write", "⇑(r1,w1); ⇓(r1)").unwrap()
}

/// The march tests run against `width`-bit words: literal March C− and
/// March U, two short literal tests that leave some faults undetected
/// (the read-before-write test, and one that writes 1 before reading it,
/// which misses a rising transition fault on a cell that starts at 1), and
/// TWM_TA's transparent March C− where the width allows a word-oriented
/// transform.
fn tests(width: usize) -> Vec<MarchTest> {
    let mut tests = vec![
        march_c_minus(),
        march_u(),
        literal_read_first(),
        parse_march("write-before-read", "⇑(w1); ⇓(r1,w0); ⇑(r0)").unwrap(),
    ];
    if let Ok(scheme) = TwmTa::new(width) {
        let transform = scheme.transform(&march_c_minus()).unwrap();
        tests.push(transform.transparent_test().clone());
    }
    tests
}

fn random_image(config: MemoryConfig, rng: &mut SplitMix64) -> BitStorage {
    let mut image = BitStorage::new(config.words(), config.width()).unwrap();
    let mask = if config.width() == 128 {
        u128::MAX
    } else {
        (1u128 << config.width()) - 1
    };
    for word in 0..config.words() {
        image.set_word_bits(word, rng.next_u128() & mask);
    }
    image
}

fn random_fault(config: MemoryConfig, rng: &mut SplitMix64) -> Fault {
    let cell = BitAddress::new(
        rng.next_below(config.words()),
        rng.next_below(config.width()),
    );
    match rng.next_below(4) {
        0 => Fault::stuck_at(cell, false),
        1 => Fault::stuck_at(cell, true),
        2 => Fault::transition(cell, Transition::Rising),
        _ => Fault::transition(cell, Transition::Falling),
    }
}

/// The scalar fault-local verdict of one fault under one content.
fn scalar_detected(
    lowered: &LoweredTest,
    config: MemoryConfig,
    fault: Fault,
    image: Option<&BitStorage>,
) -> bool {
    let mut memory = FaultyMemory::with_faults(config, vec![fault]).unwrap();
    if let Some(image) = image {
        memory.load_image(image).unwrap();
    }
    detect_lowered_at(lowered, &mut memory, &[fault.victim().word]).unwrap()
}

/// Arms `faults` under the first image, replays the batch under the rest
/// with `reload`, and checks every lane of every round against the scalar
/// sweep. Returns each round's mask.
fn assert_lanes_match(
    test: &MarchTest,
    config: MemoryConfig,
    faults: &[Fault],
    images: &[Option<&BitStorage>],
) -> Vec<u64> {
    let lowered = LoweredTest::new(test, config.width()).unwrap();
    let mut arena = PackedArena::<Packed64>::new(config);
    let mut masks = Vec::new();
    for (round, &image) in images.iter().enumerate() {
        if round == 0 {
            arena.arm(faults, image).unwrap();
        } else {
            arena.reload(image).unwrap();
        }
        let mask = detect_lowered_batch(&lowered, &mut arena).unwrap();
        assert_eq!(mask & !arena.active_mask(), 0, "a lane beyond the batch");
        for (lane, &fault) in faults.iter().enumerate() {
            assert_eq!(
                mask >> lane & 1 == 1,
                scalar_detected(&lowered, config, fault, image),
                "lane {lane} ({fault:?}) under {} at width {}, round {round}, image={}",
                test.name(),
                config.width(),
                image.is_some(),
            );
        }
        masks.push(mask);
    }
    masks
}

#[test]
fn dense_batches_of_one_word_match_the_scalar_sweep() {
    let mut rng = SplitMix64::new(0xDE5E);
    for width in WIDTHS {
        let config = MemoryConfig::new(6, width).unwrap();
        let random = random_image(config, &mut rng);
        // Every SAF and TF of word 3, class-major: at width <= 32 the first
        // batch holds both stuck-at faults of every bit.
        let cells = || (0..width).map(|bit| BitAddress::new(3, bit));
        let faults: Vec<Fault> = cells()
            .map(|cell| Fault::stuck_at(cell, false))
            .chain(cells().map(|cell| Fault::stuck_at(cell, true)))
            .chain(cells().map(|cell| Fault::transition(cell, Transition::Rising)))
            .chain(cells().map(|cell| Fault::transition(cell, Transition::Falling)))
            .collect();
        assert_eq!(faults.len(), 4 * width);
        for (batch_index, batch) in faults.chunks(64).enumerate() {
            let mut arena = PackedArena::<Packed64>::new(config);
            arena.arm(batch, None).unwrap();
            assert_eq!(arena.addresses(), &[3]);
            let mut bits: Vec<usize> = batch.iter().map(|fault| fault.victim().bit).collect();
            bits.sort_unstable();
            bits.dedup();
            assert_eq!(arena.live_planes(), bits.len());
            if batch_index == 0 && width <= 32 {
                assert_eq!(arena.live_planes(), width, "every bit live");
            }
            for test in tests(width) {
                assert_lanes_match(&test, config, batch, &[None, Some(&random)]);
            }
        }
    }
}

#[test]
fn sparse_and_partial_batches_match_the_scalar_sweep() {
    let mut rng = SplitMix64::new(0x5BA4);
    for width in WIDTHS {
        let config = MemoryConfig::new(40, width).unwrap();
        for lanes in [1, 2, 63, 64, 1 + rng.next_below(64)] {
            let faults: Vec<Fault> = (0..lanes).map(|_| random_fault(config, &mut rng)).collect();
            let random = random_image(config, &mut rng);
            for test in tests(width) {
                assert_lanes_match(&test, config, &faults, &[None, Some(&random)]);
                assert_lanes_match(&test, config, &faults, &[Some(&random), None]);
            }
        }
    }
}

#[test]
fn reload_replays_a_batch_under_every_image() {
    let mut rng = SplitMix64::new(0x4E10);
    for width in WIDTHS {
        let config = MemoryConfig::new(24, width).unwrap();
        let images: Vec<BitStorage> = (0..3).map(|_| random_image(config, &mut rng)).collect();
        // A batch mixing shared and lone words, so reloads rebuild both
        // live planes and shared bits.
        let mut faults: Vec<Fault> = (0..48).map(|_| random_fault(config, &mut rng)).collect();
        faults
            .extend((0..16).map(|bit| {
                Fault::transition(BitAddress::new(5, bit % width), Transition::Falling)
            }));
        for test in tests(width) {
            assert_lanes_match(
                &test,
                config,
                &faults,
                &[Some(&images[0]), Some(&images[1])],
            );
            assert_lanes_match(
                &test,
                config,
                &faults,
                &[Some(&images[2]), None, Some(&images[0])],
            );
        }
    }
}

#[test]
fn literal_reads_of_unwritten_patterns_flag_every_owner_lane() {
    let mut rng = SplitMix64::new(0x11AB);
    let test = literal_read_first();
    for width in WIDTHS.into_iter().filter(|&width| width >= 2) {
        let config = MemoryConfig::new(16, width).unwrap();
        // Reading 1 from all-zero content mismatches on every fault-free
        // bit: a fault on one bit cannot hide the others, so every lane
        // detects, whatever its own cell does.
        let faults: Vec<Fault> = (0..64).map(|_| random_fault(config, &mut rng)).collect();
        let masks = assert_lanes_match(&test, config, &faults, &[None]);
        assert_eq!(masks[0], u64::MAX);

        // A fault-free bit of word 0 mismatches while the faulty bit of
        // word 1 holds the expected value: only word 0's lanes detect.
        let mut image = BitStorage::new(16, width).unwrap();
        let ones = if width == 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        image.set_word_bits(0, ones & !1);
        image.set_word_bits(1, ones);
        let faults = [
            Fault::stuck_at(BitAddress::new(0, width - 1), true),
            Fault::transition(BitAddress::new(0, 1 % width), Transition::Rising),
            Fault::stuck_at(BitAddress::new(1, width - 1), true),
        ];
        let lowered = LoweredTest::new(&test, width).unwrap();
        let mut arena = PackedArena::<Packed64>::new(config);
        arena.arm(&faults, Some(&image)).unwrap();
        // The first op reads 1 from both words: word 0's bit 0 is a
        // fault-free 0, word 1 reads all ones.
        assert_eq!(arena.read_mismatch(0, ones, false), 0b011);
        assert_eq!(arena.read_mismatch(1, ones, false), 0);
        assert_eq!(
            detect_lowered_batch(&lowered, &mut arena).unwrap() & 0b011,
            0b011
        );
        assert_lanes_match(&test, config, &faults, &[Some(&image)]);
    }
}
