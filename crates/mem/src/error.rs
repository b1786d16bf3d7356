use std::error::Error;
use std::fmt;

/// Errors produced by the memory simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// A word address was outside the configured address space.
    AddressOutOfRange {
        /// The offending word address.
        address: usize,
        /// Number of words in the memory.
        words: usize,
    },
    /// A bit position was outside the configured word width.
    BitOutOfRange {
        /// The offending bit position.
        bit: usize,
        /// Configured word width.
        width: usize,
    },
    /// A word value was built for a different width than the memory uses.
    WidthMismatch {
        /// Width of the supplied word.
        found: usize,
        /// Width expected by the memory.
        expected: usize,
    },
    /// The requested word width is zero or larger than [`crate::MAX_WORD_WIDTH`].
    InvalidWidth {
        /// The requested width.
        width: usize,
    },
    /// The requested memory has zero words.
    EmptyMemory,
    /// A coupling fault names the same cell as aggressor and victim.
    SelfCoupling {
        /// The cell used for both roles.
        cell: super::BitAddress,
    },
    /// A fault references a cell outside the memory.
    FaultCellOutOfRange {
        /// The offending cell.
        cell: super::BitAddress,
    },
    /// A data load supplied the wrong number of words.
    LoadLengthMismatch {
        /// Number of words supplied.
        found: usize,
        /// Number of words expected.
        expected: usize,
    },
    /// A repair tried to use a spare slot that already serves another word.
    SpareInUse {
        /// The occupied spare slot.
        spare: usize,
    },
    /// A repair targeted a word that is already served by a spare.
    AlreadyRemapped {
        /// The already-repaired logical word.
        word: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::AddressOutOfRange { address, words } => {
                write!(
                    f,
                    "word address {address} out of range for {words}-word memory"
                )
            }
            MemError::BitOutOfRange { bit, width } => {
                write!(f, "bit position {bit} out of range for {width}-bit words")
            }
            MemError::WidthMismatch { found, expected } => {
                write!(f, "word width mismatch: found {found}, expected {expected}")
            }
            MemError::InvalidWidth { width } => {
                write!(
                    f,
                    "invalid word width {width}: must be between 1 and {}",
                    crate::MAX_WORD_WIDTH
                )
            }
            MemError::EmptyMemory => write!(f, "memory must contain at least one word"),
            MemError::SelfCoupling { cell } => {
                write!(
                    f,
                    "coupling fault uses cell {cell} as both aggressor and victim"
                )
            }
            MemError::FaultCellOutOfRange { cell } => {
                write!(f, "fault references cell {cell} outside the memory")
            }
            MemError::LoadLengthMismatch { found, expected } => {
                write!(
                    f,
                    "load length mismatch: found {found} words, expected {expected}"
                )
            }
            MemError::SpareInUse { spare } => {
                write!(f, "spare slot {spare} already serves a remapped word")
            }
            MemError::AlreadyRemapped { word } => {
                write!(f, "word {word} is already served by a spare")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitAddress;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let samples: Vec<MemError> = vec![
            MemError::AddressOutOfRange {
                address: 9,
                words: 4,
            },
            MemError::BitOutOfRange { bit: 8, width: 8 },
            MemError::WidthMismatch {
                found: 4,
                expected: 8,
            },
            MemError::InvalidWidth { width: 0 },
            MemError::EmptyMemory,
            MemError::SelfCoupling {
                cell: BitAddress::new(1, 2),
            },
            MemError::FaultCellOutOfRange {
                cell: BitAddress::new(7, 0),
            },
            MemError::LoadLengthMismatch {
                found: 3,
                expected: 4,
            },
        ];
        for err in samples {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<MemError>();
    }
}
