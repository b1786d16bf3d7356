//! Property-based tests for the memory substrate.

use proptest::prelude::*;

use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryBuilder, MemoryConfig, Transition, Word};

fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(4),
        Just(8),
        Just(16),
        Just(32),
        Just(64),
        Just(128)
    ]
}

proptest! {
    /// XOR-ing a word with another twice always returns the original word
    /// (the algebraic property the transparent transformation relies on).
    #[test]
    fn word_xor_involution(width in arb_width(), a in any::<u128>(), b in any::<u128>()) {
        let a = Word::from_bits(a, width).unwrap();
        let b = Word::from_bits(b, width).unwrap();
        prop_assert_eq!(a ^ b ^ b, a);
    }

    /// Complement is an involution and flips every bit.
    #[test]
    fn word_complement_involution(width in arb_width(), bits in any::<u128>()) {
        let w = Word::from_bits(bits, width).unwrap();
        prop_assert_eq!(!(!w), w);
        prop_assert_eq!(w.count_ones() + (!w).count_ones(), width);
    }

    /// A fault-free memory always reads back exactly what was written, in
    /// any order of writes.
    #[test]
    fn fault_free_memory_is_transparent(
        width in arb_width(),
        words in 1usize..32,
        ops in prop::collection::vec((any::<usize>(), any::<u128>()), 1..64),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let mut mem = FaultyMemory::fault_free(config);
        let mut model = vec![Word::zeros(width); words];
        for (addr, bits) in ops {
            let addr = addr % words;
            let value = Word::from_bits(bits, width).unwrap();
            mem.write_word(addr, value).unwrap();
            model[addr] = value;
        }
        prop_assert_eq!(mem.content(), model);
    }

    /// A stuck-at cell holds its stuck value after arbitrary write sequences.
    #[test]
    fn stuck_at_cell_never_changes(
        width in arb_width(),
        words in 1usize..16,
        stuck_word in any::<usize>(),
        stuck_bit in any::<usize>(),
        stuck_value in any::<bool>(),
        ops in prop::collection::vec((any::<usize>(), any::<u128>()), 1..48),
    ) {
        let stuck_cell = BitAddress::new(stuck_word % words, stuck_bit % width);
        let mem = MemoryBuilder::new(words, width)
            .fault(Fault::stuck_at(stuck_cell, stuck_value))
            .build();
        let mut mem = mem.unwrap();
        for (addr, bits) in ops {
            mem.write_word(addr % words, Word::from_bits(bits, width).unwrap()).unwrap();
            prop_assert_eq!(mem.peek_bit(stuck_cell).unwrap(), stuck_value);
        }
    }

    /// A transition-faulty cell can never be observed in the state that the
    /// blocked transition leads to, once it starts from the opposite state
    /// and only word writes are applied.
    #[test]
    fn transition_fault_blocks_direction(
        words in 1usize..8,
        width in prop_oneof![Just(4usize), Just(8)],
        cell_word in any::<usize>(),
        cell_bit in any::<usize>(),
        rising in any::<bool>(),
        ops in prop::collection::vec((any::<usize>(), any::<u128>()), 1..32),
    ) {
        let cell = BitAddress::new(cell_word % words, cell_bit % width);
        let direction = if rising { Transition::Rising } else { Transition::Falling };
        let mut mem = MemoryBuilder::new(words, width)
            .fault(Fault::transition(cell, direction))
            .build()
            .unwrap();
        // Start from the state the blocked transition departs from: a cell
        // that cannot rise starts at 0, a cell that cannot fall starts at 1.
        let initial = matches!(direction, Transition::Falling);
        let fill = if initial { Word::ones(width) } else { Word::zeros(width) };
        mem.fill(fill).unwrap();
        for (addr, bits) in ops {
            mem.write_word(addr % words, Word::from_bits(bits, width).unwrap()).unwrap();
            // The only way to leave the initial state is the blocked
            // transition, so the cell must still hold its initial value.
            prop_assert_eq!(mem.peek_bit(cell).unwrap(), initial);
        }
    }

    /// Reads never modify memory content, with or without faults.
    #[test]
    fn reads_are_non_destructive(
        words in 1usize..16,
        width in prop_oneof![Just(1usize), Just(8), Just(16)],
        seed in any::<u64>(),
        addrs in prop::collection::vec(any::<usize>(), 1..64),
    ) {
        let mut mem = MemoryBuilder::new(words, width)
            .random_content(seed)
            .fault(Fault::stuck_at(BitAddress::new(0, 0), true))
            .build()
            .unwrap();
        let before = mem.content();
        for addr in addrs {
            mem.read_word(addr % words).unwrap();
        }
        prop_assert_eq!(mem.content(), before);
    }

    /// A memory re-armed through `rearm_local` over every word behaves
    /// bit-for-bit like a freshly constructed one for any dirtying history
    /// and any subsequent operation sequence — the contract arena reuse in
    /// the coverage engine relies on.
    #[test]
    fn rearmed_memory_matches_fresh_memory(
        words in 2usize..8,
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
        dirty_seed in any::<u64>(),
        dirty_ops in prop::collection::vec((any::<usize>(), any::<u128>()), 0..24),
        ops in prop::collection::vec((any::<usize>(), any::<u128>()), 1..24),
        fault_bit in any::<usize>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let fault = Fault::transition(
            BitAddress::new(fault_bit % words, fault_bit % width),
            Transition::Rising,
        );

        // Dirty an arena memory with a different fault and random traffic.
        let mut arena = FaultyMemory::with_faults(
            config,
            vec![Fault::stuck_at(BitAddress::new(0, 0), true)],
        ).unwrap();
        arena.fill_random(dirty_seed);
        for &(addr, bits) in &dirty_ops {
            let value = Word::from_bits(bits, width).unwrap();
            arena.write_word(addr % words, value).unwrap();
            arena.read_word(addr % words).unwrap();
        }

        let every_word: Vec<usize> = (0..words).collect();
        arena.rearm_local(&[fault], None, &every_word).unwrap();
        let mut fresh = FaultyMemory::with_faults(config, vec![fault]).unwrap();
        prop_assert_eq!(arena.content(), fresh.content());

        for &(addr, bits) in &ops {
            let value = Word::from_bits(bits, width).unwrap();
            arena.write_word(addr % words, value).unwrap();
            fresh.write_word(addr % words, value).unwrap();
            prop_assert_eq!(
                arena.read_word(addr % words).unwrap(),
                fresh.read_word(addr % words).unwrap()
            );
        }
        prop_assert_eq!(arena.content(), fresh.content());
        prop_assert_eq!(arena.stats(), fresh.stats());
    }

    /// Access statistics count every read and write exactly once.
    #[test]
    fn stats_count_accesses(
        words in 1usize..8,
        reads in 0usize..32,
        writes in 0usize..32,
    ) {
        let config = MemoryConfig::new(words, 8).unwrap();
        let mut mem = FaultyMemory::fault_free(config);
        for i in 0..writes {
            mem.write_word(i % words, Word::zeros(8)).unwrap();
        }
        for i in 0..reads {
            mem.read_word(i % words).unwrap();
        }
        prop_assert_eq!(mem.stats().writes, writes as u64);
        prop_assert_eq!(mem.stats().reads, reads as u64);
        prop_assert_eq!(mem.stats().total(), (reads + writes) as u64);
    }
}
