//! The single-cell trail table against the sessions: a stuck-at or
//! transition fault's table trail must be the trail
//! [`run_scheme_session_staged`] produces on a memory built with the fault
//! and the reference content — on 1–9-word memories at every width from 1
//! to 128, under every scheme the width admits (only Nicolaidis at width
//! one) and under all-zero and random content. Every fault of every
//! memory is checked against the fault-local sweep
//! ([`run_scheme_session_local`], itself property-tested against the
//! naive session in `tests/fault_local_session.rs`); the naive session is
//! slow in a debug build, so it checks all of a memory's faults when it
//! has few and a drawn sample of them otherwise, asked for in one batch.

use twm_bist::{
    run_scheme_session_local, run_scheme_session_staged, CellTrailTable, Misr, SessionReference,
};
use twm_core::scheme::{NicolaidisScheme, SchemeRegistry, SchemeTransform, TransparentScheme};
use twm_march::algorithms::{march_c_minus, march_u};
use twm_march::MarchTest;
use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, SplitMix64, Transition, Word};

/// Every scheme's transform of `source` at `width`.
fn transforms(width: usize, source: &MarchTest) -> Vec<SchemeTransform> {
    if width == 1 {
        vec![NicolaidisScheme::new(1).unwrap().transform(source).unwrap()]
    } else {
        SchemeRegistry::all(width)
            .unwrap()
            .transform_all(source)
            .unwrap()
    }
}

/// Every stuck-at and transition fault of the memory, kinds interleaved
/// per cell and words descending, so the table's grouping has work to do.
fn universe(config: MemoryConfig) -> Vec<Fault> {
    let mut faults = Vec::new();
    for word in (0..config.words()).rev() {
        for bit in 0..config.width() {
            let cell = BitAddress::new(word, bit);
            faults.extend([
                Fault::transition(cell, Transition::Falling),
                Fault::stuck_at(cell, true),
                Fault::transition(cell, Transition::Rising),
                Fault::stuck_at(cell, false),
            ]);
        }
    }
    faults
}

/// The table's packed trails of `faults` unpacked, `None` where it
/// leaves a fault unanswered.
fn table_trails(table: &CellTrailTable, width: usize, faults: &[Fault]) -> Vec<Option<Vec<Word>>> {
    let stride = table.trail_bytes();
    let mut out = vec![0u8; faults.len() * stride];
    let unanswered = table.trails(faults, &mut out);
    (0..faults.len())
        .map(|at| {
            (!unanswered.contains(&at)).then(|| {
                out[at * stride..][..stride]
                    .chunks_exact(Word::packed_len(width))
                    .map(|packed| Word::from_packed(packed, width).unwrap())
                    .collect()
            })
        })
        .collect()
}

fn memory(config: MemoryConfig, seed: Option<u64>, faults: &[Fault]) -> FaultyMemory {
    let mut memory = FaultyMemory::with_faults(config, faults.to_vec()).unwrap();
    if let Some(seed) = seed {
        memory.fill_random(seed);
    }
    memory
}

/// Asserts that the table answers every SAF/TF fault of `config` with
/// the fault-local sweep's trail, all of them in one batch, and with the
/// naive session's trail: all of them if there are at most `checked`,
/// else `checked` drawn ones, asked for in one batch.
fn assert_table_matches(
    transform: &SchemeTransform,
    config: MemoryConfig,
    seed: Option<u64>,
    checked: usize,
) {
    let misr = Misr::standard(config.width());
    let reference = SessionReference::new(
        transform,
        memory(config, seed, &[]).snapshot(),
        misr.clone(),
    )
    .unwrap();
    let table = CellTrailTable::new(&reference);
    let name = transform.transparent_test().name();
    let universe = universe(config);
    let trails = table_trails(&table, config.width(), &universe);
    assert_eq!(trails.len(), universe.len());
    for (fault, trail) in universe.iter().zip(&trails) {
        let mut faulty = memory(config, seed, &[*fault]);
        let local =
            run_scheme_session_local(&reference, &mut faulty, &[fault.victim().word]).unwrap();
        assert_eq!(
            trail.as_deref(),
            Some(local.trail.as_slice()),
            "{name} {config:?} seed {seed:?}: {fault:?} against the sweep"
        );
    }

    let mut faults = universe;
    if faults.len() > checked {
        let mut rng = SplitMix64::new(faults.len() as u64);
        faults = (0..checked)
            .map(|_| faults[rng.next_below(faults.len())])
            .collect();
    }
    let trails = table_trails(&table, config.width(), &faults);
    assert_eq!(trails.len(), faults.len());
    for (fault, trail) in faults.iter().zip(trails) {
        let mut faulty = memory(config, seed, &[*fault]);
        let naive = run_scheme_session_staged(transform, &mut faulty, misr.clone())
            .unwrap()
            .signature_trail();
        assert_eq!(
            trail.as_deref(),
            Some(naive.as_slice()),
            "{name} {config:?} seed {seed:?}: {fault:?}"
        );
    }
}

/// Every width from 1 to 128, its word count, scheme and content rotating
/// with the width.
#[test]
fn table_trails_equal_the_naive_session_at_every_width() {
    let source = march_c_minus();
    for width in 1..=128 {
        let config = MemoryConfig::new(1 + width % 9, width).unwrap();
        let transforms = transforms(width, &source);
        let transform = &transforms[width % transforms.len()];
        let seed = (width % 2 == 1).then_some(width as u64);
        assert_table_matches(transform, config, seed, 40);
    }
}

/// Every word count from 1 to 9 under every scheme and both contents, at
/// narrow and wide words and for two source tests.
#[test]
fn table_trails_equal_the_naive_session_for_every_scheme() {
    for source in [march_c_minus(), march_u()] {
        for width in [1, 2, 3, 8, 16, 33] {
            for transform in transforms(width, &source) {
                for words in 1..=9 {
                    let config = MemoryConfig::new(words, width).unwrap();
                    for seed in [None, Some(0x5EED)] {
                        assert_table_matches(&transform, config, seed, 12);
                    }
                }
            }
        }
    }
}

/// Coupling faults and cells outside the memory are left unanswered, their
/// slots untouched, and answers come back in input order.
#[test]
fn unanswered_faults_are_none_and_order_is_kept() {
    let config = MemoryConfig::new(5, 8).unwrap();
    let transform = &transforms(8, &march_c_minus())[3];
    let reference = SessionReference::new(
        transform,
        memory(config, Some(3), &[]).snapshot(),
        Misr::standard(8),
    )
    .unwrap();
    let table = CellTrailTable::new(&reference);
    let a = BitAddress::new(1, 2);
    let b = BitAddress::new(4, 7);
    let faults = [
        Fault::stuck_at(b, true),
        Fault::coupling_inversion(a, b, Transition::Rising),
        Fault::stuck_at(BitAddress::new(5, 0), false),
        Fault::stuck_at(BitAddress::new(0, 8), false),
        Fault::transition(a, Transition::Falling),
        Fault::stuck_at(b, true),
    ];
    let stride = table.trail_bytes();
    let mut out = vec![0xA5; faults.len() * stride];
    assert_eq!(table.trails(&faults, &mut out), [1, 2, 3]);
    assert!(out[stride..4 * stride].iter().all(|&byte| byte == 0xA5));
    let trails = table_trails(&table, 8, &faults);
    assert!(trails[1].is_none() && trails[2].is_none() && trails[3].is_none());
    assert_eq!(trails[0], trails[5]);
    let single = |fault: Fault| table_trails(&table, 8, &[fault]).pop().unwrap();
    assert_eq!(trails[0], single(faults[0]));
    assert_eq!(trails[4], single(faults[4]));
    assert_ne!(trails[0], trails[4]);
    assert!(table.trails(&[], &mut []).is_empty());
}
