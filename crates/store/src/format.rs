//! The paged file format, version 2.
//!
//! A store file is a sequence of **fixed-size pages** (the size is chosen
//! at write time and recorded in the header). Every page ends with an
//! 8-byte [`page_checksum`] over its preceding bytes, so the usable
//! capacity of a page is `page_size - 8`. The regions, in file order:
//!
//! | pages | content |
//! |---|---|
//! | `0` | header — magic, version, geometry, ambiguity statistics |
//! | `1 ..= meta_pages` | wire-encoded store metadata (`StoreMeta`), chunked |
//! | next `index_pages` | sorted, prefix-compressed trail-index entries |
//! | next `payload_pages` | length-prefixed positional injection records |
//!
//! ## Index entries
//!
//! Trails are stored as little-endian signature words of
//! [`trail_word_bytes`]`(width)` = ⌈width/8⌉ bytes each (the shared word
//! width lives in the header): a `SignatureTrail`'s packed words, whose
//! bytes run most significant first, with each word's bytes reversed. Consecutive trails in one dictionary
//! differ late — per-stage trails share long runs — so each entry stores
//! the length of the prefix it shares with the **previous entry of the
//! same page** plus its suffix:
//!
//! ```text
//! u16 prefix_words | u16 suffix_words | u32 injections
//! | u32 payload_page | u32 payload_offset | suffix_words × ⌈width/8⌉ bytes LE
//! ```
//!
//! `prefix_words + suffix_words` always equals the dictionary's trail
//! length, and the first entry of every page is written with a zero
//! prefix, so pages are self-contained: the lookup binary-searches pages
//! by their first trail, then scans one page. A `0xFFFF` prefix marks
//! end-of-page early. Payload handles are `(page, offset)` into the
//! payload region's linear byte stream (records may span pages).
//!
//! ## Payload records
//!
//! The payload stream opens with the undetected record (position 0),
//! followed by one record per index entry. Each record is a LEB128
//! varint byte length followed by the positional encoding of
//! [`crate::record`]: injection count, per injection a fault count, per
//! fault a variant index, a flag byte and varint cells.
//!
//! ## Version history
//!
//! Version 1 sealed pages with byte-serial FNV-1a 64, stored trail words
//! as fixed 16-byte `u128`s and payload records as self-describing
//! [`crate::wire`] trees. It is not read: a version-1 file opens as
//! [`StoreError::UnsupportedVersion`] and must be rebuilt.

use crate::{StoreError, FORMAT_VERSION};

/// The file magic: identifies a paged dictionary store.
pub const MAGIC: [u8; 8] = *b"TWMSTORE";

/// Bytes of every page reserved for its checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Smallest accepted page size. Tests use small pages to force many-page
/// files; production defaults to 4096.
pub const MIN_PAGE_SIZE: usize = 128;

/// Largest accepted page size (a sanity bound when reading headers, so a
/// corrupt size cannot drive a giant allocation).
pub const MAX_PAGE_SIZE: usize = 1 << 24;

/// Fixed byte size of an index entry before its suffix words.
pub const ENTRY_FIXED: usize = 16;

/// Bytes per trail signature word on disk for `width`-bit words: those
/// of a packed word ([`twm_mem::Word::packed_len`]).
#[must_use]
pub fn trail_word_bytes(width: usize) -> usize {
    twm_mem::Word::packed_len(width)
}

/// The `prefix_words` sentinel marking end-of-entries within a page.
pub const END_OF_PAGE: u16 = 0xFFFF;

/// FNV-1a 64 over a byte slice — test fingerprints (the value
/// `twm-fleet`'s `TestFingerprint` takes).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Independent 8-byte lanes of [`page_checksum`].
const LANES: usize = 4;

/// Odd multiplier of the lane step (the 64-bit golden ratio).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step: bijective in the lane state for a fixed word and in the
/// word for a fixed state, so a changed word always changes the lane.
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(LANE_MUL).rotate_left(31)
}

/// The murmur3 64-bit finaliser: a bijection spreading every input bit.
fn avalanche(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The page checksum: a word-wise multiply–xor hash.
///
/// Little-endian 8-byte words are dealt round-robin to four independent
/// lanes (so the lanes' multiply chains overlap), the final 0–7 bytes
/// form a zero-padded tail word, and the lanes, the tail and the length
/// are folded into one avalanched value. Every step is a bijection of the
/// running state, so changing any one word — in particular any byte —
/// always changes the checksum. Reordered words are caught by the lanes'
/// sequential chains with overwhelming probability, not by construction
/// (the tests check every swap of two words in 128 B and 4 KiB pages).
#[must_use]
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_word(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = lane_step(*lane, le_word(word));
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);

    let mut hash = lane_step(0x4528_21e6_38d0_1377, bytes.len() as u64);
    for lane in lanes {
        hash = lane_step(hash, avalanche(lane));
    }
    avalanche(lane_step(hash, u64::from_le_bytes(tail)))
}

/// Writes `page`'s checksum over its own contents into its last 8 bytes.
pub fn seal_page(page: &mut [u8]) {
    let body = page.len() - CHECKSUM_LEN;
    let checksum = page_checksum(&page[..body]);
    page[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// Verifies `page`'s trailing checksum.
///
/// # Errors
///
/// [`StoreError::ChecksumMismatch`] naming `index` when it does not match.
pub fn verify_page(page: &[u8], index: u32) -> Result<(), StoreError> {
    let body = page.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(page[body..].try_into().expect("8 checksum bytes"));
    if page_checksum(&page[..body]) != stored {
        return Err(StoreError::ChecksumMismatch { page: index });
    }
    Ok(())
}

/// Number of pages needed to hold `bytes` at `capacity` usable bytes per
/// page.
#[must_use]
pub fn pages_for(bytes: u64, capacity: usize) -> u32 {
    u32::try_from(bytes.div_ceil(capacity as u64)).expect("page count fits u32")
}

/// The decoded header page — the file geometry plus the precomputed
/// ambiguity statistics (fixed-width, so the header can be rewritten in
/// place once the class stream has been drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Page size in bytes, checksum included.
    pub page_size: u32,
    /// Byte length of the wire-encoded metadata region.
    pub meta_bytes: u64,
    /// Pages holding the metadata region.
    pub meta_pages: u32,
    /// Pages holding the sorted trail index.
    pub index_pages: u32,
    /// Pages holding the payload region.
    pub payload_pages: u32,
    /// Ambiguity classes indexed (index entries).
    pub entries: u64,
    /// Signature-detectable injections indexed.
    pub indexed: u64,
    /// Injections undetected under the reference content.
    pub undetected: u64,
    /// Size of the largest ambiguity class.
    pub max_class_size: u64,
    /// Classes holding exactly one injection.
    pub distinguishable: u64,
    /// Signatures per trail.
    pub trail_words: u32,
    /// Bit width of every signature word.
    pub width: u32,
    /// Byte length of the payload region's linear stream.
    pub payload_bytes: u64,
}

impl Header {
    /// Encodes the header into a zeroed page buffer and seals it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is shorter than the fixed header layout — the
    /// writer validates the page size first.
    pub fn encode(&self, page: &mut [u8]) {
        page.fill(0);
        page[0..8].copy_from_slice(&MAGIC);
        page[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        page[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        page[16..24].copy_from_slice(&self.meta_bytes.to_le_bytes());
        page[24..28].copy_from_slice(&self.meta_pages.to_le_bytes());
        page[28..32].copy_from_slice(&self.index_pages.to_le_bytes());
        page[32..36].copy_from_slice(&self.payload_pages.to_le_bytes());
        page[36..44].copy_from_slice(&self.entries.to_le_bytes());
        page[44..52].copy_from_slice(&self.indexed.to_le_bytes());
        page[52..60].copy_from_slice(&self.undetected.to_le_bytes());
        page[60..68].copy_from_slice(&self.max_class_size.to_le_bytes());
        page[68..76].copy_from_slice(&self.distinguishable.to_le_bytes());
        page[76..80].copy_from_slice(&self.trail_words.to_le_bytes());
        page[80..84].copy_from_slice(&self.width.to_le_bytes());
        page[84..92].copy_from_slice(&self.payload_bytes.to_le_bytes());
        seal_page(page);
    }

    /// Decodes a verified header page.
    ///
    /// The caller has already checked magic, version and checksum (they
    /// need the page size before the page can be fetched whole); this
    /// only lifts the remaining fields.
    #[must_use]
    pub fn decode(page: &[u8]) -> Self {
        let u32_at = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
        Self {
            page_size: u32_at(12),
            meta_bytes: u64_at(16),
            meta_pages: u32_at(24),
            index_pages: u32_at(28),
            payload_pages: u32_at(32),
            entries: u64_at(36),
            indexed: u64_at(44),
            undetected: u64_at(52),
            max_class_size: u64_at(60),
            distinguishable: u64_at(68),
            trail_words: u32_at(76),
            width: u32_at(80),
            payload_bytes: u64_at(84),
        }
    }

    /// Usable bytes per page (page size minus the checksum).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.page_size as usize - CHECKSUM_LEN
    }

    /// Total pages in the file.
    #[must_use]
    pub fn total_pages(&self) -> u32 {
        1 + self.meta_pages + self.index_pages + self.payload_pages
    }

    /// First page of the index region.
    #[must_use]
    pub fn index_start(&self) -> u32 {
        1 + self.meta_pages
    }

    /// First page of the payload region.
    #[must_use]
    pub fn payload_start(&self) -> u32 {
        self.index_start() + self.index_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_a_page() {
        let header = Header {
            page_size: 256,
            meta_bytes: 321,
            meta_pages: 2,
            index_pages: 9,
            payload_pages: 4,
            entries: 100,
            indexed: 140,
            undetected: 3,
            max_class_size: 7,
            distinguishable: 80,
            trail_words: 11,
            width: 8,
            payload_bytes: 999,
        };
        let mut page = vec![0u8; 256];
        header.encode(&mut page);
        assert_eq!(&page[0..8], &MAGIC);
        verify_page(&page, 0).unwrap();
        assert_eq!(Header::decode(&page), header);
        assert_eq!(header.capacity(), 248);
        assert_eq!(header.total_pages(), 16);
        assert_eq!(header.index_start(), 3);
        assert_eq!(header.payload_start(), 12);
    }

    /// A page body of distinct pseudo-random 8-byte words (so every swap
    /// of two words changes the bytes), sealed.
    fn sealed_page(page_size: usize) -> Vec<u8> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut page: Vec<u8> = (0..page_size)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        seal_page(&mut page);
        page
    }

    #[test]
    fn checksums_catch_a_flipped_byte() {
        for page_size in [128usize, 4096] {
            let page = sealed_page(page_size);
            verify_page(&page, 5).unwrap();
            let mut mutated = page.clone();
            for at in 0..page_size {
                for mask in [0x01u8, 0x40, 0xff] {
                    mutated[at] ^= mask;
                    assert!(
                        matches!(
                            verify_page(&mutated, 5),
                            Err(StoreError::ChecksumMismatch { page: 5 })
                        ),
                        "{page_size}-byte page: flip {mask:#04x} at {at} went undetected"
                    );
                    mutated[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn checksums_catch_every_swap_of_two_words() {
        for page_size in [128usize, 4096] {
            let mut page = sealed_page(page_size);
            let body = page_size - CHECKSUM_LEN;
            let sealed = page_checksum(&page[..body]);
            let words = body / 8;
            for first in 0..words {
                for second in first + 1..words {
                    let (a, b) = (first * 8, second * 8);
                    assert_ne!(page[a..a + 8], page[b..b + 8], "test words must differ");
                    for at in 0..8 {
                        page.swap(a + at, b + at);
                    }
                    assert_ne!(
                        page_checksum(&page[..body]),
                        sealed,
                        "{page_size}-byte page: swap of words {first} and {second} went undetected"
                    );
                    for at in 0..8 {
                        page.swap(a + at, b + at);
                    }
                }
            }
        }
    }

    #[test]
    fn checksums_cover_the_tail_and_the_length() {
        // Body lengths off the 8-byte grid hash their last bytes as a
        // tail word; a zero tail still differs from a shorter body.
        let bytes = [7u8; 45];
        for at in 0..bytes.len() {
            let mut mutated = bytes;
            mutated[at] ^= 1;
            assert_ne!(page_checksum(&mutated), page_checksum(&bytes), "byte {at}");
        }
        assert_ne!(page_checksum(&[0; 12]), page_checksum(&[0; 13]));
        assert_ne!(page_checksum(&[]), page_checksum(&[0]));
    }

    #[test]
    fn trail_words_take_whole_bytes() {
        assert_eq!(trail_word_bytes(1), 1);
        assert_eq!(trail_word_bytes(8), 1);
        assert_eq!(trail_word_bytes(9), 2);
        assert_eq!(trail_word_bytes(32), 4);
        assert_eq!(trail_word_bytes(33), 5);
        assert_eq!(trail_word_bytes(128), 16);
    }

    #[test]
    fn page_math() {
        assert_eq!(pages_for(0, 120), 0);
        assert_eq!(pages_for(1, 120), 1);
        assert_eq!(pages_for(120, 120), 1);
        assert_eq!(pages_for(121, 120), 2);
    }
}
