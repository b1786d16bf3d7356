//! Positional payload records: the compact byte layout of one ambiguity
//! class's injection lists (and of the undetected record).
//!
//! A record carries no names and no self-description — the reader knows
//! its shape:
//!
//! ```text
//! varint injections
//! per injection: varint faults
//!   per fault:   u8 variant | u8 flags | varint word, varint bit (per cell)
//! ```
//!
//! Varints are unsigned LEB128 (7 bits per byte, low group first). The
//! variant index and its flag bits:
//!
//! | variant | fault | cells | flag bit 0 | flag bit 1 |
//! |--:|---|--:|---|---|
//! | `0` | stuck-at | 1 | stuck value | — |
//! | `1` | transition | 1 | falling | — |
//! | `2` | state coupling | 2 | aggressor value | victim value |
//! | `3` | idempotent coupling | 2 | falling aggressor | victim value |
//! | `4` | inversion coupling | 2 | falling aggressor | — |
//!
//! Coupling cells are written aggressor first. Decoding is strict: an
//! unknown variant, a flag bit the variant does not define, a record
//! that ends mid-value, bytes left after the last fault and a varint
//! that does not fit the target integer are each a typed
//! [`RecordError`] — no value is ever truncated or guessed.

use std::fmt;

use twm_mem::{BitAddress, Fault, Transition};

/// Longest LEB128 encoding of a `u64`.
pub const MAX_VARINT_LEN: usize = 10;

/// Errors of the positional record decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordError {
    /// A fault's variant index names no fault model.
    UnknownVariant {
        /// The stored variant index.
        variant: u8,
    },
    /// A fault's flag byte sets bits its variant does not define.
    BadFlags {
        /// The fault's variant index.
        variant: u8,
        /// The stored flag byte.
        flags: u8,
    },
    /// The record ends mid-value.
    Truncated,
    /// Bytes remain after the record's last value.
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// A varint overflows 64 bits or the integer it decodes into.
    Overflow,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::UnknownVariant { variant } => {
                write!(f, "unknown fault variant {variant}")
            }
            RecordError::BadFlags { variant, flags } => {
                write!(
                    f,
                    "flags {flags:#04x} undefined for fault variant {variant}"
                )
            }
            RecordError::Truncated => write!(f, "record truncated mid-value"),
            RecordError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the record")
            }
            RecordError::Overflow => write!(f, "varint overflows its integer"),
        }
    }
}

impl std::error::Error for RecordError {}

const STUCK_AT: u8 = 0;
const TRANSITION: u8 = 1;
const COUPLING_STATE: u8 = 2;
const COUPLING_IDEMPOTENT: u8 = 3;
const COUPLING_INVERSION: u8 = 4;

/// Flag bits each variant defines, indexed by variant.
const FLAG_MASKS: [u8; 5] = [0b01, 0b01, 0b11, 0b11, 0b01];

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Decodes the varint at the start of `bytes`, returning it and the
/// number of bytes it took.
///
/// # Errors
///
/// [`RecordError::Truncated`] when `bytes` ends inside the varint,
/// [`RecordError::Overflow`] when it carries more than 64 bits.
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), RecordError> {
    let mut value = 0u64;
    for (at, &byte) in bytes.iter().enumerate().take(MAX_VARINT_LEN) {
        let group = u64::from(byte & 0x7f);
        // The tenth byte holds bit 63 alone.
        if at == MAX_VARINT_LEN - 1 && group > 1 {
            return Err(RecordError::Overflow);
        }
        value |= group << (7 * at);
        if byte & 0x80 == 0 {
            return Ok((value, at + 1));
        }
    }
    if bytes.len() >= MAX_VARINT_LEN {
        Err(RecordError::Overflow)
    } else {
        Err(RecordError::Truncated)
    }
}

fn write_cell(out: &mut Vec<u8>, cell: BitAddress) {
    write_varint(out, cell.word as u64);
    write_varint(out, cell.bit as u64);
}

fn falling(transition: Transition) -> u8 {
    u8::from(transition == Transition::Falling)
}

/// Appends the positional record of `injections` to `out`.
pub fn encode_injections(injections: &[Vec<Fault>], out: &mut Vec<u8>) {
    write_varint(out, injections.len() as u64);
    for faults in injections {
        write_varint(out, faults.len() as u64);
        for &fault in faults {
            match fault {
                Fault::StuckAt { cell, value } => {
                    out.extend([STUCK_AT, u8::from(value)]);
                    write_cell(out, cell);
                }
                Fault::TransitionFault { cell, direction } => {
                    out.extend([TRANSITION, falling(direction)]);
                    write_cell(out, cell);
                }
                Fault::CouplingState {
                    aggressor,
                    victim,
                    aggressor_value,
                    victim_value,
                } => {
                    let flags = u8::from(aggressor_value) | u8::from(victim_value) << 1;
                    out.extend([COUPLING_STATE, flags]);
                    write_cell(out, aggressor);
                    write_cell(out, victim);
                }
                Fault::CouplingIdempotent {
                    aggressor,
                    victim,
                    transition,
                    victim_value,
                } => {
                    let flags = falling(transition) | u8::from(victim_value) << 1;
                    out.extend([COUPLING_IDEMPOTENT, flags]);
                    write_cell(out, aggressor);
                    write_cell(out, victim);
                }
                Fault::CouplingInversion {
                    aggressor,
                    victim,
                    transition,
                } => {
                    out.extend([COUPLING_INVERSION, falling(transition)]);
                    write_cell(out, aggressor);
                    write_cell(out, victim);
                }
            }
        }
    }
}

/// A bounds-checked cursor over one record.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<u8, RecordError> {
        let (&byte, rest) = self.bytes.split_first().ok_or(RecordError::Truncated)?;
        self.bytes = rest;
        Ok(byte)
    }

    fn usize(&mut self) -> Result<usize, RecordError> {
        let (value, used) = read_varint(self.bytes)?;
        self.bytes = &self.bytes[used..];
        usize::try_from(value).map_err(|_| RecordError::Overflow)
    }

    fn cell(&mut self) -> Result<BitAddress, RecordError> {
        let word = self.usize()?;
        let bit = self.usize()?;
        Ok(BitAddress::new(word, bit))
    }

    /// A count of items each at least `min_bytes` long, capped for
    /// preallocation by the bytes left — a corrupt count cannot drive a
    /// giant allocation.
    fn count(&mut self, min_bytes: usize) -> Result<(usize, usize), RecordError> {
        let count = self.usize()?;
        Ok((count, count.min(self.bytes.len() / min_bytes)))
    }

    fn fault(&mut self) -> Result<Fault, RecordError> {
        let variant = self.byte()?;
        let flags = self.byte()?;
        let mask = *FLAG_MASKS
            .get(usize::from(variant))
            .ok_or(RecordError::UnknownVariant { variant })?;
        if flags & !mask != 0 {
            return Err(RecordError::BadFlags { variant, flags });
        }
        let bit0 = flags & 1 != 0;
        let bit1 = flags & 2 != 0;
        let transition = if bit0 {
            Transition::Falling
        } else {
            Transition::Rising
        };
        let first = self.cell()?;
        Ok(match variant {
            STUCK_AT => Fault::StuckAt {
                cell: first,
                value: bit0,
            },
            TRANSITION => Fault::TransitionFault {
                cell: first,
                direction: transition,
            },
            COUPLING_STATE => Fault::CouplingState {
                aggressor: first,
                victim: self.cell()?,
                aggressor_value: bit0,
                victim_value: bit1,
            },
            COUPLING_IDEMPOTENT => Fault::CouplingIdempotent {
                aggressor: first,
                victim: self.cell()?,
                transition,
                victim_value: bit1,
            },
            _ => Fault::CouplingInversion {
                aggressor: first,
                victim: self.cell()?,
                transition,
            },
        })
    }
}

/// Decodes one whole record (see the [module docs](self)).
///
/// # Errors
///
/// A [`RecordError`] for any malformed or partial record, and for bytes
/// left over after it.
pub fn decode_injections(bytes: &[u8]) -> Result<Vec<Vec<Fault>>, RecordError> {
    // Smallest encodings: an injection is one count byte, a fault four
    // bytes (variant, flags, one-byte word and bit).
    const MIN_INJECTION: usize = 1;
    const MIN_FAULT: usize = 4;
    let mut cursor = Cursor { bytes };
    let (injections, reserve) = cursor.count(MIN_INJECTION)?;
    let mut out = Vec::with_capacity(reserve);
    for _ in 0..injections {
        let (faults, reserve) = cursor.count(MIN_FAULT)?;
        let mut injection = Vec::with_capacity(reserve);
        for _ in 0..faults {
            injection.push(cursor.fault()?);
        }
        out.push(injection);
    }
    if !cursor.bytes.is_empty() {
        return Err(RecordError::TrailingBytes {
            count: cursor.bytes.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant(word: usize, bit: usize, other: usize) -> Vec<Fault> {
        let cell = BitAddress::new(word, bit);
        let peer = BitAddress::new(word.saturating_sub(1), other);
        let mut faults = Vec::new();
        for flag in [false, true] {
            let transition = if flag {
                Transition::Falling
            } else {
                Transition::Rising
            };
            faults.push(Fault::stuck_at(cell, flag));
            faults.push(Fault::transition(cell, transition));
            for victim_value in [false, true] {
                faults.push(Fault::coupling_state(cell, peer, flag, victim_value));
                faults.push(Fault::CouplingIdempotent {
                    aggressor: peer,
                    victim: cell,
                    transition,
                    victim_value,
                });
            }
            faults.push(Fault::CouplingInversion {
                aggressor: cell,
                victim: peer,
                transition,
            });
        }
        faults
    }

    fn round_trip(injections: &[Vec<Fault>]) {
        let mut bytes = Vec::new();
        encode_injections(injections, &mut bytes);
        assert_eq!(decode_injections(&bytes).unwrap(), injections);
    }

    #[test]
    fn every_variant_round_trips_at_every_width() {
        for width in [1usize, 8, 32, 33, 128] {
            for word in [0usize, 1, 127, 128, 1 << 20, (1 << 20) + 3, 1 << 40] {
                let top = width - 1;
                let faults = every_variant(word, top, top / 2);
                // One fault per injection, every fault in one injection,
                // and the empty injection list and empty injections.
                let singles: Vec<Vec<Fault>> = faults.iter().map(|&f| vec![f]).collect();
                round_trip(&singles);
                round_trip(std::slice::from_ref(&faults));
                round_trip(&[]);
                round_trip(&[vec![], faults.clone(), vec![]]);
            }
        }
        round_trip(&[vec![Fault::stuck_at(
            BitAddress::new(usize::MAX, usize::MAX),
            true,
        )]]);
    }

    #[test]
    fn varints_are_strict() {
        for value in [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, value);
            assert_eq!(read_varint(&bytes), Ok((value, bytes.len())));
            assert_eq!(
                read_varint(&bytes[..bytes.len() - 1]),
                Err(RecordError::Truncated)
            );
        }
        // Eleven continuation groups, and a tenth byte carrying more than
        // bit 63, both overflow.
        assert_eq!(read_varint(&[0xff; 11]), Err(RecordError::Overflow));
        let mut too_big = vec![0xff; 9];
        too_big.push(0x02);
        assert_eq!(read_varint(&too_big), Err(RecordError::Overflow));
    }

    #[test]
    fn malformed_records_are_typed() {
        let mut bytes = Vec::new();
        encode_injections(
            &[vec![Fault::stuck_at(BitAddress::new(3, 1), true)]],
            &mut bytes,
        );
        assert_eq!(bytes, [1, 1, STUCK_AT, 1, 3, 1]);

        let mut variant = bytes.clone();
        variant[2] = 5;
        assert_eq!(
            decode_injections(&variant),
            Err(RecordError::UnknownVariant { variant: 5 })
        );
        let mut flags = bytes.clone();
        flags[3] = 0b10;
        assert_eq!(
            decode_injections(&flags),
            Err(RecordError::BadFlags {
                variant: STUCK_AT,
                flags: 0b10
            })
        );
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_injections(&bytes[..cut]),
                Err(RecordError::Truncated),
                "cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_injections(&trailing),
            Err(RecordError::TrailingBytes { count: 1 })
        );
        // A huge injection count fails on the bytes that are really
        // there instead of reserving for it.
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX >> 1);
        assert_eq!(decode_injections(&huge), Err(RecordError::Truncated));
    }
}
