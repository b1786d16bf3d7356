use std::error::Error;
use std::fmt;

use twm_march::MarchError;
use twm_mem::MemError;

/// Errors produced by the BIST engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BistError {
    /// The march test references data that cannot be resolved for the
    /// memory's word width.
    March(MarchError),
    /// The memory rejected an access.
    Mem(MemError),
    /// The MISR width does not match the memory's word width.
    WidthMismatch {
        /// MISR width in bits.
        misr: usize,
        /// Memory word width in bits.
        memory: usize,
    },
    /// A pre-lowered test was executed on a memory of a different word
    /// width than it was lowered for.
    LoweredWidthMismatch {
        /// Width the test was lowered for.
        lowered: usize,
        /// Memory word width in bits.
        memory: usize,
    },
    /// An invalid MISR configuration (zero width or zero polynomial).
    InvalidMisr {
        /// Description of the problem.
        detail: String,
    },
    /// The idle-window model contains no windows.
    EmptyWindowModel,
    /// A fault-local sweep was given addresses that are not strictly
    /// ascending.
    UnsortedAddresses,
}

impl fmt::Display for BistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BistError::March(err) => write!(f, "march error: {err}"),
            BistError::Mem(err) => write!(f, "memory error: {err}"),
            BistError::WidthMismatch { misr, memory } => {
                write!(
                    f,
                    "misr width {misr} does not match memory word width {memory}"
                )
            }
            BistError::LoweredWidthMismatch { lowered, memory } => {
                write!(
                    f,
                    "test lowered for width {lowered} executed on memory of word width {memory}"
                )
            }
            BistError::InvalidMisr { detail } => write!(f, "invalid misr configuration: {detail}"),
            BistError::EmptyWindowModel => write!(f, "idle-window model contains no windows"),
            BistError::UnsortedAddresses => {
                write!(f, "sweep addresses must be strictly ascending")
            }
        }
    }
}

impl Error for BistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BistError::March(err) => Some(err),
            BistError::Mem(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MarchError> for BistError {
    fn from(err: MarchError) -> Self {
        BistError::March(err)
    }
}

impl From<MemError> for BistError {
    fn from(err: MemError) -> Self {
        BistError::Mem(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let err: BistError = MarchError::EmptyTest.into();
        assert!(err.source().is_some());
        let err: BistError = MemError::EmptyMemory.into();
        assert!(err.source().is_some());
        let err = BistError::WidthMismatch {
            misr: 8,
            memory: 16,
        };
        assert!(err.source().is_none());
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<BistError>();
    }
}
