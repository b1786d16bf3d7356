//! Seeded fault generators. The benchmark draws coupling faults itself:
//! enumerating every same-word and adjacent-word pair of a 64K×32
//! memory, as `UniverseBuilder` does before sampling, takes ~200M
//! candidates.

use twm_mem::{BitAddress, Fault, MemoryConfig, SplitMix64, Transition};

fn transition(rng: &mut SplitMix64) -> Transition {
    if rng.next_bool() {
        Transition::Rising
    } else {
        Transition::Falling
    }
}

/// A stuck-at or transition fault on a random cell.
pub fn single_cell(config: MemoryConfig, rng: &mut SplitMix64) -> Fault {
    let cell = BitAddress::new(
        rng.next_below(config.words()),
        rng.next_below(config.width()),
    );
    if rng.next_bool() {
        Fault::stuck_at(cell, rng.next_bool())
    } else {
        Fault::transition(cell, transition(rng))
    }
}

/// A CFst, CFid or CFin fault on a random same-word or adjacent-word
/// cell pair.
pub fn coupling(config: MemoryConfig, rng: &mut SplitMix64) -> Fault {
    let width = config.width();
    let word = rng.next_below(config.words() - 1);
    let aggressor = BitAddress::new(word, rng.next_below(width));
    let victim = if rng.next_bool() {
        BitAddress::new(
            word,
            (aggressor.bit + 1 + rng.next_below(width - 1)) % width,
        )
    } else {
        BitAddress::new(word + 1, rng.next_below(width))
    };
    match rng.next_below(3) {
        0 => Fault::coupling_state(aggressor, victim, rng.next_bool(), rng.next_bool()),
        1 => Fault::coupling_idempotent(aggressor, victim, transition(rng), rng.next_bool()),
        _ => Fault::coupling_inversion(aggressor, victim, transition(rng)),
    }
}
