//! Fleet service error type.

use std::fmt;

use twm_core::CoreError;
use twm_coverage::CoverageError;
use twm_mem::MemError;
use twm_repair::RepairError;

use crate::shard::ShardKey;

/// Errors of the fleet service layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A dictionary is already registered under the shard key.
    DuplicateShard(ShardKey),
    /// No dictionary is registered under the shard key.
    UnknownShard(ShardKey),
    /// The registered source test does not reproduce the dictionary's
    /// transparent test under its scheme.
    SourceMismatch {
        /// The dictionary's transparent-test name.
        expected: String,
        /// The transparent-test name the source produces.
        produced: String,
    },
    /// A wire payload failed to decode.
    Wire(String),
    /// The runtime cache was configured with zero capacity.
    ZeroCapacity,
    /// A transport or spill-file I/O failure.
    Io(std::io::Error),
    /// A paged dictionary store failure (spill or rehydration).
    Store(twm_store::StoreError),
    /// An underlying core (scheme registry / transform) error.
    Core(CoreError),
    /// An underlying coverage-engine error.
    Coverage(CoverageError),
    /// An underlying diagnosis-to-repair error.
    Repair(RepairError),
    /// An underlying memory-model error.
    Mem(MemError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateShard(shard) => {
                write!(f, "a dictionary is already registered for shard {shard}")
            }
            Self::UnknownShard(shard) => {
                write!(f, "no dictionary registered for shard {shard}")
            }
            Self::SourceMismatch { expected, produced } => write!(
                f,
                "source test produces transparent test {produced:?}, \
                 dictionary was built from {expected:?}"
            ),
            Self::Wire(message) => write!(f, "wire decode failed: {message}"),
            Self::ZeroCapacity => write!(f, "runtime cache capacity must be non-zero"),
            Self::Io(error) => write!(f, "i/o error: {error}"),
            Self::Store(error) => write!(f, "dictionary store error: {error}"),
            Self::Core(error) => write!(f, "core error: {error}"),
            Self::Coverage(error) => write!(f, "coverage error: {error}"),
            Self::Repair(error) => write!(f, "repair error: {error}"),
            Self::Mem(error) => write!(f, "memory error: {error}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(error) => Some(error),
            Self::Store(error) => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(error: std::io::Error) -> Self {
        Self::Io(error)
    }
}

impl From<twm_store::StoreError> for FleetError {
    fn from(error: twm_store::StoreError) -> Self {
        Self::Store(error)
    }
}

impl From<CoreError> for FleetError {
    fn from(error: CoreError) -> Self {
        Self::Core(error)
    }
}

impl From<CoverageError> for FleetError {
    fn from(error: CoverageError) -> Self {
        Self::Coverage(error)
    }
}

impl From<RepairError> for FleetError {
    fn from(error: RepairError) -> Self {
        Self::Repair(error)
    }
}

impl From<MemError> for FleetError {
    fn from(error: MemError) -> Self {
        Self::Mem(error)
    }
}

impl From<serde::Error> for FleetError {
    fn from(error: serde::Error) -> Self {
        Self::Wire(error.to_string())
    }
}
