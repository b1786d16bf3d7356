//! # twm-mem — word-oriented memory functional simulator with fault injection
//!
//! This crate is the substrate of the TWM (transparent word-oriented march
//! test) reproduction: a functional model of an embedded word-oriented RAM
//! together with the classical functional fault models used by the paper
//! (Li, Tseng, Wey, *"An Efficient Transparent Test Scheme for Embedded
//! Word-Oriented Memories"*, DATE 2005):
//!
//! * stuck-at faults (SAF),
//! * transition faults (TF),
//! * state, idempotent and inversion coupling faults (CFst, CFid, CFin),
//!   both *intra-word* (aggressor and victim in the same word) and
//!   *inter-word*.
//!
//! The central type is [`FaultyMemory`]: a bit-accurate storage array plus a
//! [`FaultSet`] whose effects are applied on every write. A memory with an
//! empty fault set behaves as a fault-free golden model.
//!
//! ## Simulation kernel
//!
//! Writes are simulated word-at-a-time, not bit-at-a-time. The [`FaultSet`]
//! lazily maintains a [`FaultIndex`] — per-word stuck-at / transition-fault
//! bit masks plus an aggressor → victim coupling adjacency map — so a write
//! resolves every fault effect on its word with a handful of `u128` bitwise
//! operations instead of scanning the fault list per bit. Words that no
//! fault touches take a pure block-masked `u64` store through
//! [`BitStorage::set_word_bits`], making the fault-free path O(1) in both
//! the fault count and the word width. This is what lets the coverage
//! evaluator in `twm-coverage` sweep fault universes of thousands of
//! faults over memories of tens of thousands of words.
//!
//! ```
//! use twm_mem::{FaultyMemory, MemoryConfig, Fault, BitAddress, Word};
//!
//! # fn main() -> Result<(), twm_mem::MemError> {
//! let config = MemoryConfig::new(16, 8)?;            // 16 words of 8 bits
//! let saf = Fault::stuck_at(BitAddress::new(3, 0), true);
//! let mut mem = FaultyMemory::with_faults(config, vec![saf])?;
//!
//! mem.write_word(3, Word::zeros(8))?;                // write all-0
//! let read = mem.read_word(3)?;
//! assert_eq!(read.bit(0), true);                     // bit 0 is stuck at 1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod access;
mod address;
mod builder;
mod error;
mod fault;
mod fault_set;
mod index;
mod prng;
mod repairable;
mod sim;
mod storage;
mod trace;
mod word;

pub use access::MemoryAccess;
pub use address::{AddressOrder, AddressSequence, BitAddress, CellIndex};
pub use builder::MemoryBuilder;
pub use error::MemError;
pub use fault::{Fault, FaultClass, Transition};
pub use fault_set::FaultSet;
pub use index::{FaultIndex, WordFaultMasks};
pub use prng::SplitMix64;
pub use repairable::{RemapEntry, RepairableMemory};
pub use sim::{AccessStats, FaultyMemory, MemoryConfig};
pub use storage::BitStorage;
pub use trace::{Trace, TraceEntry, TraceOp};
pub use word::{Word, MAX_WORD_WIDTH};
