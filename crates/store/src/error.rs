use std::fmt;
use std::io;

use twm_repair::RepairError;

use crate::record::RecordError;
use crate::wire::WireError;
use crate::FORMAT_VERSION;

/// Errors of the paged dictionary store.
///
/// Corruption is always a **typed** error — a truncated file, a flipped
/// byte or a foreign file can never panic the reader or hand back garbage
/// classes, a contract pinned by the corruption tests in
/// `tests/paged_corruption.rs`.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the store magic — not a paged
    /// dictionary at all.
    NotAStore,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A page's checksum does not match its contents — the file is
    /// corrupt at that page.
    ChecksumMismatch {
        /// Index of the failing page.
        page: u32,
    },
    /// The file ends before a page the header promises.
    Truncated {
        /// Index of the missing page.
        page: u32,
    },
    /// The file's structure is internally inconsistent (bad entry shapes,
    /// out-of-range handles, unsorted trails).
    Corrupt(String),
    /// The wire-encoded metadata region failed to decode.
    Wire(WireError),
    /// A positional payload record failed to decode (unknown variant,
    /// undefined flags, truncation, trailing bytes, overflow).
    Record(RecordError),
    /// The store options are unusable (page too small for an index entry,
    /// zero-size pages).
    InvalidOptions(String),
    /// The class stream handed to the writer is not strictly sorted by
    /// trail — the on-disk binary search would be meaningless.
    UnsortedClasses,
    /// An error from the repair layer (dictionary build or reassembly).
    Repair(RepairError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::NotAStore => write!(f, "not a paged dictionary store (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store format version {found} (this build reads version {supported})"
            ),
            StoreError::ChecksumMismatch { page } => {
                write!(f, "checksum mismatch on page {page}")
            }
            StoreError::Truncated { page } => {
                write!(f, "file truncated: page {page} is missing")
            }
            StoreError::Corrupt(message) => write!(f, "corrupt store: {message}"),
            StoreError::Wire(e) => write!(f, "store wire region: {e}"),
            StoreError::Record(e) => write!(f, "store payload record: {e}"),
            StoreError::InvalidOptions(message) => write!(f, "invalid store options: {message}"),
            StoreError::UnsortedClasses => {
                write!(f, "class stream is not strictly sorted by trail")
            }
            StoreError::Repair(e) => write!(f, "repair error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Wire(e) => Some(e),
            StoreError::Record(e) => Some(e),
            StoreError::Repair(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

impl From<RecordError> for StoreError {
    fn from(e: RecordError) -> Self {
        StoreError::Record(e)
    }
}

impl From<RepairError> for StoreError {
    fn from(e: RepairError) -> Self {
        StoreError::Repair(e)
    }
}

impl StoreError {
    /// Renders the error for the [`twm_repair::RepairError::Lookup`]
    /// channel — how paged lookups surface through the [`crate::TrailLookup`]
    /// trait.
    #[must_use]
    pub fn into_lookup_error(self) -> RepairError {
        match self {
            StoreError::Repair(e) => e,
            other => RepairError::Lookup(other.to_string()),
        }
    }
}

/// Keep the doc link on `UnsupportedVersion` honest.
const _: () = assert!(FORMAT_VERSION >= 1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let samples: Vec<StoreError> = vec![
            StoreError::Io(io::Error::other("disk gone")),
            StoreError::NotAStore,
            StoreError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            StoreError::ChecksumMismatch { page: 3 },
            StoreError::Truncated { page: 7 },
            StoreError::Corrupt("entry prefix exceeds trail length".into()),
            StoreError::Wire(WireError::Malformed("bad tag".into())),
            StoreError::Record(RecordError::UnknownVariant { variant: 9 }),
            StoreError::InvalidOptions("page size 8 below minimum".into()),
            StoreError::UnsortedClasses,
            StoreError::Repair(RepairError::EmptyUniverse),
        ];
        for err in samples {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn lookup_conversion_preserves_repair_errors() {
        let wrapped = StoreError::Repair(RepairError::EmptyUniverse).into_lookup_error();
        assert_eq!(wrapped, RepairError::EmptyUniverse);
        assert!(matches!(
            StoreError::ChecksumMismatch { page: 2 }.into_lookup_error(),
            RepairError::Lookup(_)
        ));
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<StoreError>();
    }
}
