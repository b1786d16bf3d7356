//! Lane-packed fault simulation arena: up to [`Lanes::COUNT`] single-bit
//! faults evaluated by one march execution.
//!
//! [`PackedArena`] is the bit-sliced sibling of
//! [`FaultyMemory`](crate::FaultyMemory) + [`BitStorage`](crate::BitStorage).
//! Where the scalar pair stores one memory image and injects one fault set,
//! the arena keeps, per footprint word ("slot"), one *bit-plane* per **live
//! bit** — a bit position that hosts a fault in some lane: a
//! [`Lanes::Word`] whose lane `i` holds the value that bit has in fault
//! `i`'s divergent memory image. One pass of bitwise operations over the
//! live planes then advances every lane's simulation at once.
//!
//! A slot's other bits host no fault in any lane, so every lane holds the
//! same value there: they evolve as one plain word per slot. A read
//! mismatch on them (possible only when a test reads a literal pattern it
//! has not written) flags all of the slot's owner lanes at once, exactly
//! as a full set of per-bit planes would.
//!
//! Three properties of this workspace make the packing cheap:
//!
//! * fault behaviour is already reduced to per-word masks (the same
//!   stuck/transition mask algebra as
//!   [`FaultIndex`](crate::FaultIndex)), so injecting a fault into a lane
//!   is one `OR` into a static mask plane;
//! * detection sweeps are already confined to fault footprints
//!   (`detect_lowered_at`), so the arena only materialises slots for the
//!   union of the batch's victim words — a handful of words instead of the
//!   whole memory;
//! * a batch of up to 64 faults makes at most 64 live bits, so arming and
//!   reloading cost O(faults + slots) and a write or read touches one
//!   plain word plus the slot's live planes, not one plane per bit of the
//!   word.
//!
//! Only single-cell faults (SAF, TF) are packable: coupling faults read
//! aggressor state across cells, which would entangle lanes. Callers route
//! coupling faults through the scalar path.

use crate::error::MemError;
use crate::fault::{Fault, FaultClass, Transition};
use crate::fault_set::FaultSet;
use crate::lanes::Lanes;
use crate::sim::MemoryConfig;
use crate::storage::BitStorage;

/// One footprint word of the armed batch.
#[derive(Debug, Clone, Copy)]
struct Slot<W> {
    /// Initial content of the bits every lane shares (the image word).
    initial: u128,
    /// Current content of the shared bits. Positions in `live` are stale:
    /// the live planes hold those bits.
    current: u128,
    /// Bit positions that have a live plane.
    live: u128,
    /// The slot's live planes: `planes[start..end]`, ascending by bit.
    start: usize,
    end: usize,
    /// Lane-ownership mask: lane `i` set iff fault `i`'s victim cell lives
    /// in this word. Read mismatches outside a lane's own word are masked
    /// off — the scalar reference (`detect_lowered_at`) only sweeps the
    /// fault's own word, and a test mixing transparent writes with literal
    /// reads can mismatch on fault-free words too.
    owners: W,
}

/// Per-lane state of one live bit.
#[derive(Debug, Clone, Copy)]
struct LivePlane<W> {
    /// Bit position within the word.
    bit: usize,
    /// Initial content (statically enforced).
    initial: W,
    /// Current content.
    current: W,
    /// Stuck-at-0 mask: lane `i` set iff fault `i` pins this bit to 0.
    stuck0: W,
    /// Stuck-at-1 mask.
    stuck1: W,
    /// Blocked 0→1 transition mask.
    rising: W,
    /// Blocked 1→0 transition mask.
    falling: W,
}

/// A lane-packed simulation arena for up to `L::COUNT` single-bit faults.
///
/// Lifecycle: [`arm`](Self::arm) a batch of faults (optionally with an
/// initial content image), run the lowered op stream against the arena
/// (`twm-bist`'s `detect_lowered_batch`), read the detection mask. To
/// re-evaluate the same batch under another content image, call
/// [`reload`](Self::reload) — the fault masks stay armed, only the content
/// is rebuilt.
///
/// All storage is retained across batches, so a long run over thousands of
/// faults performs no per-batch allocation once the footprint size
/// stabilises.
#[derive(Debug)]
pub struct PackedArena<L: Lanes> {
    config: MemoryConfig,
    /// The distinct victim word addresses of the armed batch, in the order
    /// the batch first names them; the arena's "slot" space.
    addresses: Vec<usize>,
    /// One entry per address.
    slots: Vec<Slot<L::Word>>,
    /// Every slot's live planes, slot by slot.
    planes: Vec<LivePlane<L::Word>>,
    /// Scratch for [`arm`](Self::arm): each armed fault's slot.
    fault_slots: Vec<usize>,
    /// Scratch for [`arm`](Self::arm): an open-addressing table from word
    /// to slot, twice as many buckets as lanes (`usize::MAX` = empty).
    slot_table: Vec<usize>,
    /// Mask of armed lanes.
    active: L::Word,
    lanes_used: usize,
}

impl<L: Lanes> PackedArena<L> {
    /// Creates an empty arena for memories of the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            config,
            addresses: Vec::new(),
            slots: Vec::new(),
            planes: Vec::new(),
            fault_slots: Vec::new(),
            slot_table: vec![usize::MAX; (2 * L::COUNT).next_power_of_two()],
            active: L::ZERO,
            lanes_used: 0,
        }
    }

    /// The memory geometry the arena simulates.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.config.width()
    }

    /// Number of footprint word slots in the armed batch.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.addresses.len()
    }

    /// The victim word address of each slot: the batch's distinct victim
    /// words, in the order the batch first names them. Lanes never read
    /// another slot, so the order of slots does not affect any verdict.
    #[must_use]
    pub fn addresses(&self) -> &[usize] {
        &self.addresses
    }

    /// Number of faults armed into lanes.
    #[must_use]
    pub fn lanes_used(&self) -> usize {
        self.lanes_used
    }

    /// Number of live bit-planes of the armed batch: the distinct victim
    /// cells, at most one per armed fault.
    #[must_use]
    pub fn live_planes(&self) -> usize {
        self.planes.len()
    }

    /// `u64` mask of the lanes whose victim cell lives in `slot`'s word:
    /// the only lanes `read_mismatch` can report for that slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the armed batch.
    #[inline]
    #[must_use]
    pub fn owner_mask(&self, slot: usize) -> u64 {
        L::to_mask(self.slots[slot].owners)
    }

    /// `u64` mask with one bit per armed lane (bit `i` = lane `i`).
    #[must_use]
    pub fn active_mask(&self) -> u64 {
        L::to_mask(self.active)
    }

    /// Arms a batch of faults into distinct lanes and (re)builds the
    /// content from `image` (`None` = all-zero content, matching
    /// [`FaultyMemory::reset_with_fault`](crate::FaultyMemory::reset_with_fault)).
    ///
    /// # Errors
    ///
    /// * [`MemError::LaneOverflow`] if the batch exceeds `L::COUNT` faults;
    /// * [`MemError::UnpackableFault`] for any coupling fault — only SAF
    ///   and TF are single-cell and therefore lane-independent;
    /// * cell-range / image-geometry errors as the scalar path reports
    ///   them.
    pub fn arm(&mut self, faults: &[Fault], image: Option<&BitStorage>) -> Result<(), MemError> {
        if faults.len() > L::COUNT {
            return Err(MemError::LaneOverflow {
                faults: faults.len(),
                lanes: L::COUNT,
            });
        }
        self.check_image(image)?;
        for fault in faults {
            match fault.class() {
                FaultClass::Saf | FaultClass::Tf => {
                    let cell = fault.victim();
                    if cell.word >= self.config.words() || cell.bit >= self.config.width() {
                        return Err(MemError::FaultCellOutOfRange { cell });
                    }
                }
                class => {
                    FaultSet::validate_fault(fault, self.config.words(), self.config.width())?;
                    return Err(MemError::UnpackableFault { class });
                }
            }
        }

        // Pass 1: a slot per distinct victim word, in the order the batch
        // first names it (found through an open-addressing table from word
        // to slot), and the live bits of every slot.
        self.addresses.clear();
        self.slots.clear();
        self.fault_slots.clear();
        self.slot_table.fill(usize::MAX);
        let buckets = self.slot_table.len() - 1;
        for fault in faults {
            let victim = fault.victim();
            let hash = (victim.word as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            let mut at = hash as usize & buckets;
            let slot = loop {
                match self.slot_table[at] {
                    usize::MAX => {
                        let slot = self.addresses.len();
                        self.slot_table[at] = slot;
                        self.addresses.push(victim.word);
                        self.slots.push(Slot {
                            initial: 0,
                            current: 0,
                            live: 0,
                            start: 0,
                            end: 0,
                            owners: L::ZERO,
                        });
                        break slot;
                    }
                    slot if self.addresses[slot] == victim.word => break slot,
                    _ => at = (at + 1) & buckets,
                }
            };
            self.slots[slot].live |= 1 << victim.bit;
            self.fault_slots.push(slot);
        }
        // Lay the planes out slot by slot, ascending by bit.
        self.planes.clear();
        for slot in &mut self.slots {
            slot.start = self.planes.len();
            let mut live = slot.live;
            while live != 0 {
                self.planes.push(LivePlane {
                    bit: live.trailing_zeros() as usize,
                    initial: L::ZERO,
                    current: L::ZERO,
                    stuck0: L::ZERO,
                    stuck1: L::ZERO,
                    rising: L::ZERO,
                    falling: L::ZERO,
                });
                live &= live - 1;
            }
            slot.end = self.planes.len();
        }
        // Pass 2: each fault's lane into its plane, found by bit among the
        // slot's planes.
        for (lane, (fault, &slot)) in faults.iter().zip(&self.fault_slots).enumerate() {
            let slot = &mut self.slots[slot];
            let bit = fault.victim().bit;
            let planes = &mut self.planes[slot.start..slot.end];
            let at = planes
                .binary_search_by_key(&bit, |plane| plane.bit)
                .expect("every victim bit has a live plane");
            let plane = &mut planes[at];
            let mask = L::lane_mask(lane);
            match *fault {
                Fault::StuckAt { value: true, .. } => plane.stuck1 = plane.stuck1 | mask,
                Fault::StuckAt { value: false, .. } => plane.stuck0 = plane.stuck0 | mask,
                Fault::TransitionFault {
                    direction: Transition::Rising,
                    ..
                } => plane.rising = plane.rising | mask,
                Fault::TransitionFault {
                    direction: Transition::Falling,
                    ..
                } => plane.falling = plane.falling | mask,
                _ => unreachable!("coupling faults rejected above"),
            }
            slot.owners = slot.owners | mask;
        }
        self.active = L::first_lanes(faults.len());
        self.lanes_used = faults.len();

        self.load_planes(image);
        Ok(())
    }

    /// Rebuilds the content from another image without re-arming the fault
    /// masks — the cheap path for `contents_per_fault > 1`, where one batch
    /// is re-run under several images.
    ///
    /// # Errors
    ///
    /// Returns the same image-geometry errors as
    /// [`BitStorage::copy_from`](crate::BitStorage::copy_from).
    pub fn reload(&mut self, image: Option<&BitStorage>) -> Result<(), MemError> {
        self.check_image(image)?;
        self.load_planes(image);
        Ok(())
    }

    /// Applies a write of `pattern` to the footprint word at `slot`,
    /// advancing every lane at once.
    ///
    /// The shared bits take the intended value outright. Each live plane
    /// applies the transposed form of
    /// [`WordFaultMasks::effective_write`](crate::WordFaultMasks::effective_write):
    /// the same rising/falling blocking and stuck-bit pinning, evaluated
    /// per bit position across all lanes instead of per lane across all
    /// bit positions. `transparent` selects `initial ^ pattern` as the
    /// intended value (a transparent write) versus the literal `pattern`.
    #[inline]
    pub fn write_word(&mut self, slot: usize, pattern: u128, transparent: bool) {
        let slot = &mut self.slots[slot];
        slot.current = if transparent {
            slot.initial ^ pattern
        } else {
            pattern
        };
        for plane in &mut self.planes[slot.start..slot.end] {
            let pat = L::splat((pattern >> plane.bit) & 1 == 1);
            let intended = if transparent {
                plane.initial ^ pat
            } else {
                pat
            };
            let old = plane.current;
            let rising = !old & intended;
            let falling = old & !intended;
            let blocked = (rising & plane.rising) | (falling & plane.falling);
            let unblocked = (intended & !blocked) | (old & blocked);
            plane.current = (unblocked | plane.stuck1) & !plane.stuck0;
        }
    }

    /// Reads the footprint word at `slot` in every lane and compares it
    /// against the expected value (`initial ^ pattern` when `transparent`,
    /// else the literal `pattern`), returning the lanes that mismatch.
    ///
    /// A mismatch on a shared bit is a mismatch in every lane. Mismatches
    /// are masked to the slot's *owner* lanes: the scalar reference sweep
    /// only reads the fault's own word, and stray mismatches on other
    /// footprint words (possible when a test mixes transparent writes with
    /// literal-pattern reads) must not count as detections.
    #[inline]
    #[must_use]
    pub fn read_mismatch(&self, slot: usize, pattern: u128, transparent: bool) -> L::Word {
        let slot = &self.slots[slot];
        let expected = if transparent {
            slot.initial ^ pattern
        } else {
            pattern
        };
        let mut acc = L::splat((slot.current ^ expected) & !slot.live != 0);
        for plane in &self.planes[slot.start..slot.end] {
            let pat = L::splat((pattern >> plane.bit) & 1 == 1);
            let expected = if transparent {
                plane.initial ^ pat
            } else {
                pat
            };
            acc = acc | (plane.current ^ expected);
        }
        acc & slot.owners
    }

    /// One lane's view of the current content at `slot`, re-assembled into
    /// a plain word value from the shared bits and the live planes (for
    /// tests and scalar cross-checks).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the armed batch.
    #[must_use]
    pub fn lane_word_bits(&self, slot: usize, lane: usize) -> u128 {
        let slot = &self.slots[slot];
        let mask = L::lane_mask(lane);
        let mut value = slot.current & !slot.live;
        for plane in &self.planes[slot.start..slot.end] {
            if plane.current & mask != L::ZERO {
                value |= 1 << plane.bit;
            }
        }
        value
    }

    fn check_image(&self, image: Option<&BitStorage>) -> Result<(), MemError> {
        let Some(image) = image else { return Ok(()) };
        if image.words() != self.config.words() {
            return Err(MemError::LoadLengthMismatch {
                found: image.words(),
                expected: self.config.words(),
            });
        }
        if image.width() != self.config.width() {
            return Err(MemError::WidthMismatch {
                found: image.width(),
                expected: self.config.width(),
            });
        }
        Ok(())
    }

    /// Rebuilds the initial and current content from the image, enforcing
    /// static stuck-at faults exactly like
    /// [`FaultyMemory`](crate::FaultyMemory) does after `reset_with_fault`
    /// / `load_image`: the lane's initial value already has its stuck bit
    /// pinned before the march starts. O(slots + live planes).
    fn load_planes(&mut self, image: Option<&BitStorage>) {
        for (slot, &address) in self.slots.iter_mut().zip(&self.addresses) {
            let bits = image.map_or(0u128, |image| image.word_bits(address));
            slot.initial = bits;
            slot.current = bits;
            for plane in &mut self.planes[slot.start..slot.end] {
                let value = (L::splat((bits >> plane.bit) & 1 == 1) | plane.stuck1) & !plane.stuck0;
                plane.initial = value;
                plane.current = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{Packed64, Scalar};
    use crate::BitAddress;

    fn config(words: usize, width: usize) -> MemoryConfig {
        MemoryConfig::new(words, width).unwrap()
    }

    #[test]
    fn arm_rejects_oversized_batches() {
        let mut arena = PackedArena::<Scalar>::new(config(4, 8));
        let faults = vec![
            Fault::stuck_at(BitAddress::new(0, 0), true),
            Fault::stuck_at(BitAddress::new(1, 0), true),
        ];
        assert!(matches!(
            arena.arm(&faults, None),
            Err(MemError::LaneOverflow {
                faults: 2,
                lanes: 1
            })
        ));
    }

    #[test]
    fn arm_rejects_coupling_faults() {
        let mut arena = PackedArena::<Packed64>::new(config(4, 8));
        let fault = Fault::coupling_inversion(
            BitAddress::new(0, 0),
            BitAddress::new(1, 0),
            Transition::Rising,
        );
        assert!(matches!(
            arena.arm(&[fault], None),
            Err(MemError::UnpackableFault {
                class: FaultClass::Cfin
            })
        ));
    }

    #[test]
    fn arm_rejects_out_of_range_cells() {
        let mut arena = PackedArena::<Packed64>::new(config(4, 8));
        let fault = Fault::stuck_at(BitAddress::new(4, 0), true);
        assert!(arena.arm(&[fault], None).is_err());
    }

    #[test]
    fn arm_rejects_mismatched_images() {
        let mut arena = PackedArena::<Packed64>::new(config(4, 8));
        let fault = Fault::stuck_at(BitAddress::new(0, 0), true);
        let image = BitStorage::new(3, 8).unwrap();
        assert!(matches!(
            arena.arm(&[fault], Some(&image)),
            Err(MemError::LoadLengthMismatch {
                found: 3,
                expected: 4
            })
        ));
        let image = BitStorage::new(4, 16).unwrap();
        assert!(matches!(
            arena.arm(&[fault], Some(&image)),
            Err(MemError::WidthMismatch {
                found: 16,
                expected: 8
            })
        ));
    }

    #[test]
    fn initial_planes_enforce_static_stuck_bits() {
        let mut arena = PackedArena::<Packed64>::new(config(4, 8));
        let faults = vec![
            Fault::stuck_at(BitAddress::new(2, 3), true),
            Fault::stuck_at(BitAddress::new(2, 3), false),
        ];
        arena.arm(&faults, None).unwrap();
        // All-zero content: lane 0's stuck-at-1 bit reads 1, lane 1's
        // stuck-at-0 bit reads 0.
        assert_eq!(arena.lane_word_bits(0, 0), 0b1000);
        assert_eq!(arena.lane_word_bits(0, 1), 0);

        let mut image = BitStorage::new(4, 8).unwrap();
        image.set_word_bits(2, 0xFF);
        arena.reload(Some(&image)).unwrap();
        assert_eq!(arena.lane_word_bits(0, 0), 0xFF);
        assert_eq!(arena.lane_word_bits(0, 1), 0xFF & !0b1000);
    }

    #[test]
    fn transition_faults_block_only_their_direction() {
        let mut arena = PackedArena::<Packed64>::new(config(2, 4));
        let faults = vec![
            Fault::transition(BitAddress::new(0, 1), Transition::Rising),
            Fault::transition(BitAddress::new(0, 1), Transition::Falling),
        ];
        arena.arm(&faults, None).unwrap();
        // From 0: writing 0b0010 rises bit 1 — blocked in lane 0 only.
        arena.write_word(0, 0b0010, false);
        assert_eq!(arena.lane_word_bits(0, 0), 0b0000);
        assert_eq!(arena.lane_word_bits(0, 1), 0b0010);
        // Writing 0b0000 falls bit 1 — blocked in lane 1 only (lane 0
        // never rose, so nothing falls there).
        arena.write_word(0, 0b0000, false);
        assert_eq!(arena.lane_word_bits(0, 0), 0b0000);
        assert_eq!(arena.lane_word_bits(0, 1), 0b0010);
    }

    #[test]
    fn read_mismatch_masks_to_owner_lanes() {
        // Two faults in different words; a mismatch on word 0 must only
        // ever be charged to word 0's lane.
        let mut arena = PackedArena::<Packed64>::new(config(4, 4));
        let faults = vec![
            Fault::stuck_at(BitAddress::new(0, 0), true),
            Fault::stuck_at(BitAddress::new(3, 0), true),
        ];
        arena.arm(&faults, None).unwrap();
        // Expected all-zero; lane 0 has bit 0 stuck at 1 in word 0.
        let slot0 = arena.read_mismatch(0, 0, false);
        let slot1 = arena.read_mismatch(1, 0, false);
        assert_eq!(slot0, 0b01);
        assert_eq!(slot1, 0b10);
    }

    #[test]
    fn packed_matches_scalar_lane_for_each_fault() {
        // The same fault armed alone in a Scalar arena and packed with 63
        // siblings in a Packed64 arena must evolve identically.
        let cfg = config(8, 8);
        let mut faults = Vec::new();
        for word in 0..8 {
            for bit in (0..8).step_by(2) {
                faults.push(Fault::stuck_at(BitAddress::new(word, bit), bit % 4 == 0));
                faults.push(Fault::transition(
                    BitAddress::new(word, bit + 1),
                    if bit % 4 == 0 {
                        Transition::Rising
                    } else {
                        Transition::Falling
                    },
                ));
            }
        }
        assert_eq!(faults.len(), 64);

        let mut image = BitStorage::new(8, 8).unwrap();
        for word in 0..8 {
            image.set_word_bits(word, (word as u128 * 37) & 0xFF);
        }

        let mut packed = PackedArena::<Packed64>::new(cfg);
        packed.arm(&faults, Some(&image)).unwrap();
        // A short march fragment: transparent complement write, literal
        // write, transparent restore.
        for slot in 0..packed.slots() {
            packed.write_word(slot, 0xFF, true);
        }
        for slot in 0..packed.slots() {
            packed.write_word(slot, 0b1010_0101, false);
        }
        for slot in 0..packed.slots() {
            packed.write_word(slot, 0, true);
        }

        for (lane, fault) in faults.iter().enumerate() {
            let mut scalar = PackedArena::<Scalar>::new(cfg);
            scalar
                .arm(std::slice::from_ref(fault), Some(&image))
                .unwrap();
            for slot in 0..scalar.slots() {
                scalar.write_word(slot, 0xFF, true);
                scalar.write_word(slot, 0b1010_0101, false);
                scalar.write_word(slot, 0, true);
            }
            let word = fault.victim().word;
            let packed_slot = packed.addresses().iter().position(|&a| a == word).unwrap();
            assert_eq!(
                packed.lane_word_bits(packed_slot, lane),
                scalar.lane_word_bits(0, 0),
                "lane {lane} diverged from its scalar twin for {fault:?}"
            );
        }
    }

    #[test]
    fn only_victim_bits_get_live_planes() {
        // Three faults on two cells of word 5 and one of word 9: two slots,
        // three live planes, whatever the width.
        let mut arena = PackedArena::<Packed64>::new(config(16, 64));
        let faults = vec![
            Fault::stuck_at(BitAddress::new(9, 63), false),
            Fault::stuck_at(BitAddress::new(5, 7), true),
            Fault::transition(BitAddress::new(5, 7), Transition::Rising),
            Fault::transition(BitAddress::new(5, 40), Transition::Falling),
        ];
        arena.arm(&faults, None).unwrap();
        assert_eq!(arena.addresses(), &[9, 5]);
        assert_eq!(arena.live_planes(), 3);
        assert_eq!(arena.lanes_used(), 4);
        assert_eq!(arena.active_mask(), 0b1111);
    }

    #[test]
    fn shared_bit_mismatch_flags_every_owner_lane() {
        // A literal read of a pattern the test never wrote mismatches on a
        // fault-free bit: every lane owning the word detects, no other lane.
        let mut arena = PackedArena::<Packed64>::new(config(4, 8));
        let faults = vec![
            Fault::stuck_at(BitAddress::new(1, 0), false),
            Fault::transition(BitAddress::new(1, 2), Transition::Rising),
            Fault::stuck_at(BitAddress::new(3, 0), false),
        ];
        let mut image = BitStorage::new(4, 8).unwrap();
        image.set_word_bits(1, 0b1000_0000);
        arena.arm(&faults, Some(&image)).unwrap();
        assert_eq!(arena.read_mismatch(0, 0, false), 0b011);
        assert_eq!(arena.read_mismatch(1, 0, false), 0);
        // Transparent reads of the shared bits never mismatch.
        assert_eq!(arena.read_mismatch(0, 0, true), 0);
    }

    #[test]
    fn rearming_drops_the_previous_batch() {
        let mut arena = PackedArena::<Packed64>::new(config(8, 8));
        let first: Vec<Fault> = (0..8)
            .map(|word| Fault::stuck_at(BitAddress::new(word, word), true))
            .collect();
        arena.arm(&first, None).unwrap();
        assert_eq!(arena.slots(), 8);
        let second = [Fault::stuck_at(BitAddress::new(2, 1), true)];
        arena.arm(&second, None).unwrap();
        assert_eq!(arena.addresses(), &[2]);
        assert_eq!(arena.live_planes(), 1);
        assert_eq!(arena.lane_word_bits(0, 0), 0b10);
        assert_eq!(arena.read_mismatch(0, 0, false), 1);
    }
}
