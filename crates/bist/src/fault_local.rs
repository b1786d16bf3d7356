//! [`FaultLocalSession`]: one scheme session prepared under one content
//! image, answering faulty-memory queries by sweeping only the words each
//! query can make diverge.

use std::sync::{Mutex, OnceLock, PoisonError};

use twm_core::scheme::SchemeTransform;
use twm_mem::{
    BitStorage, Fault, FaultSet, FaultyMemory, MemoryConfig, RemapEntry, RepairableMemory, Word,
};

use crate::flow::{run_scheme_session_local, LocalSessionOutcome, SessionReference};
use crate::{BistError, CellTrailTable, Misr};

/// A scheme session prepared once under a content image: the fault-free
/// reference ([`SessionReference`]), the single-cell trail table
/// ([`CellTrailTable`], built by the first query that needs it) and a
/// pool of arena memories. Each query equals the naive full session
/// ([`crate::run_scheme_session_staged`], [`crate::run_scheme_session`])
/// on a memory built with [`FaultyMemory::with_faults`] and loaded with
/// the image (property-tested in `crates/repair/tests/fault_local_verify.rs`).
///
/// Preparing one derives the fault-free session in closed form and builds
/// no memory model: with the scheme transform, ~40 µs at 1K×32 and
/// ~1.4 ms at 64K×32 for TWM_TA × March C− (2-vCPU Xeon). A query sweeps
/// its footprint words ([`run_scheme_session_local`]), ~2 µs for a
/// repaired stuck-at fault; a single-cell trail costs a few table
/// multiplications.
///
/// **Re-arm rule.** An arena is a zeroed [`FaultyMemory::fault_free`]
/// memory, created by a pool's first query and never loaded in full, so
/// its content is defined only on the words the current query restored. A
/// query restores exactly the words it will sweep — the injection's
/// footprint, plus for a repaired run every remapped word — from the image
/// ([`FaultyMemory::rearm_local`]), before it applies any remap: a remap
/// copies the main word into its spare ([`RepairableMemory::map_word`]).
/// No query reads or writes any other word.
#[derive(Debug)]
pub struct FaultLocalSession {
    reference: SessionReference,
    cells: OnceLock<CellTrailTable>,
    arenas: Mutex<Vec<FaultyMemory>>,
}

impl FaultLocalSession {
    /// Prepares `transform`'s session over the content `image`, compacted
    /// with `misr`.
    ///
    /// # Errors
    ///
    /// Those of [`SessionReference::new`].
    pub fn new(
        transform: &SchemeTransform,
        image: BitStorage,
        misr: Misr,
    ) -> Result<Self, BistError> {
        Ok(Self {
            reference: SessionReference::new(transform, image, misr)?,
            cells: OnceLock::new(),
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// The fault-free session the queries are answered against.
    #[must_use]
    pub fn reference(&self) -> &SessionReference {
        &self.reference
    }

    /// The session of a memory carrying `injection`.
    ///
    /// # Errors
    ///
    /// [`BistError::Mem`] if a fault does not fit the memory.
    pub fn run(&self, injection: &[Fault]) -> Result<LocalSessionOutcome, BistError> {
        let footprint = FaultSet::from_faults(injection.iter().copied()).word_footprint();
        let mut memory = self.arena(injection, &footprint)?;
        let outcome = run_scheme_session_local(&self.reference, &mut memory, &footprint);
        self.release(memory);
        outcome
    }

    /// Bytes of one packed trail ([`CellTrailTable::trail_bytes`]).
    #[must_use]
    pub fn trail_bytes(&self) -> usize {
        self.reference.trail().len() * Word::packed_len(self.reference.image().width())
    }

    /// Writes the trail of each fault as a single-fault injection into
    /// its slot of `out`, in order — slot `i` is the
    /// [`FaultLocalSession::trail_bytes`] bytes at `i · trail_bytes`,
    /// each signature [`Word::write_packed`]: stuck-at and transition
    /// faults from the single-cell table, every other fault through
    /// [`FaultLocalSession::run`].
    ///
    /// # Errors
    ///
    /// [`BistError::Mem`] if a fault does not fit the memory.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `faults.len() · trail_bytes` bytes long.
    pub fn single_fault_trails(&self, faults: &[Fault], out: &mut [u8]) -> Result<(), BistError> {
        let stride = self.trail_bytes();
        assert_eq!(out.len(), faults.len() * stride, "one trail slot per fault");
        let single_cell =
            |fault: &Fault| matches!(fault, Fault::StuckAt { .. } | Fault::TransitionFault { .. });
        let unanswered = if faults.iter().any(single_cell) {
            self.cells
                .get_or_init(|| CellTrailTable::new(&self.reference))
                .trails(faults, out)
        } else {
            (0..faults.len()).collect()
        };
        let bytes = Word::packed_len(self.reference.image().width());
        for at in unanswered {
            let trail = self.run(std::slice::from_ref(&faults[at]))?.trail;
            let slot = &mut out[at * stride..][..stride];
            for (signature, packed) in trail.iter().zip(slot.chunks_exact_mut(bytes)) {
                signature.write_packed(packed);
            }
        }
        Ok(())
    }

    /// The session of a memory carrying `injection`, with `spares` fresh
    /// spare words and `remaps` programmed into its remap table in order.
    ///
    /// # Errors
    ///
    /// [`BistError::Mem`] if a fault or a remap does not fit the memory: a
    /// word outside it, a spare beyond `spares`, a word or spare mapped
    /// twice.
    pub fn run_repaired(
        &self,
        injection: &[Fault],
        spares: usize,
        remaps: &[RemapEntry],
    ) -> Result<LocalSessionOutcome, BistError> {
        let mut words = FaultSet::from_faults(injection.iter().copied()).word_footprint();
        words.extend(remaps.iter().map(|entry| entry.word));
        words.sort_unstable();
        words.dedup();
        let mut memory = RepairableMemory::new(self.arena(injection, &words)?, spares)?;
        let outcome = remaps
            .iter()
            .try_for_each(|entry| memory.map_word(entry.word, entry.spare))
            .map_err(BistError::from)
            .and_then(|()| run_scheme_session_local(&self.reference, &mut memory, &words));
        self.release(memory.into_main());
        outcome
    }

    /// An arena armed with `faults`, `words` restored from the image: an
    /// idle one, or a new one when every arena is in use. One that fails
    /// to re-arm is dropped.
    fn arena(&self, faults: &[Fault], words: &[usize]) -> Result<FaultyMemory, BistError> {
        let idle = self
            .arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let image = self.reference.image();
        let mut memory = idle.unwrap_or_else(|| {
            let config = MemoryConfig::new(image.words(), image.width());
            FaultyMemory::fault_free(config.expect("an image has a memory shape"))
        });
        memory.rearm_local(faults, Some(image), words)?;
        Ok(memory)
    }

    /// Returns an arena to the pool.
    fn release(&self, memory: FaultyMemory) {
        self.arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(memory);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::{TransparentScheme, TwmTa};
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{BitAddress, MemError};

    fn session(words: usize, width: usize) -> FaultLocalSession {
        let transform = TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        let mut image = BitStorage::new(words, width).unwrap();
        image.fill_random(3);
        FaultLocalSession::new(&transform, image, Misr::standard(width)).unwrap()
    }

    /// Preparing a session creates no arena; the first query creates one,
    /// and later serial queries reuse it.
    #[test]
    fn arenas_are_created_by_the_first_query() {
        let session = session(8, 4);
        assert!(session.arenas.lock().unwrap().is_empty());
        let fault = Fault::stuck_at(BitAddress::new(2, 1), true);
        assert!(!session.run(&[fault]).unwrap().clean());
        assert!(session.run(&[]).unwrap().clean());
        let remap = RemapEntry { word: 2, spare: 0 };
        assert!(session.run_repaired(&[fault], 1, &[remap]).unwrap().clean());
        assert_eq!(session.arenas.lock().unwrap().len(), 1);
    }

    /// Faults and remaps that do not fit the memory are memory errors,
    /// and a failed query leaves the session usable.
    #[test]
    fn bad_faults_and_remaps_are_memory_errors() {
        let session = session(4, 4);
        let outside = BitAddress::new(4, 0);
        let inside = Fault::stuck_at(BitAddress::new(1, 1), true);
        let remap = |word, spare| RemapEntry { word, spare };
        assert!(matches!(
            session.run(&[Fault::stuck_at(outside, true)]),
            Err(BistError::Mem(MemError::FaultCellOutOfRange { cell })) if cell == outside
        ));
        let mut out = vec![0; session.trail_bytes()];
        assert!(matches!(
            session.single_fault_trails(
                &[Fault::transition(outside, twm_mem::Transition::Rising)],
                &mut out
            ),
            Err(BistError::Mem(MemError::FaultCellOutOfRange { .. }))
        ));
        for (spares, remaps, expected) in [
            (
                1,
                vec![remap(1, 0), remap(2, 1)],
                MemError::AddressOutOfRange {
                    address: 1,
                    words: 1,
                },
            ),
            (
                2,
                vec![remap(1, 0), remap(2, 0)],
                MemError::SpareInUse { spare: 0 },
            ),
            (
                2,
                vec![remap(1, 0), remap(1, 1)],
                MemError::AlreadyRemapped { word: 1 },
            ),
            (
                1,
                vec![remap(4, 0)],
                MemError::AddressOutOfRange {
                    address: 4,
                    words: 4,
                },
            ),
        ] {
            assert_eq!(
                session.run_repaired(&[inside], spares, &remaps),
                Err(BistError::Mem(expected))
            );
        }
        assert!(session
            .run_repaired(&[inside], 1, &[remap(1, 0)])
            .unwrap()
            .clean());
    }

    #[test]
    fn a_misr_of_another_width_is_rejected() {
        let transform = TwmTa::new(4).unwrap().transform(&march_c_minus()).unwrap();
        let image = BitStorage::new(4, 4).unwrap();
        assert!(matches!(
            FaultLocalSession::new(&transform, image, Misr::standard(8)),
            Err(BistError::WidthMismatch { misr: 8, memory: 4 })
        ));
    }
}
