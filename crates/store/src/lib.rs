//! # twm-store — paged, disk-backed signature dictionaries
//!
//! Word-oriented transparent-test dictionaries (trail → ambiguity class,
//! per the DATE 2005 diagnosis flow) grow with the fault universe and the
//! sampled multi-fault pairs — far past RAM for fleet-scale universes.
//! This crate serves them **out of core**:
//!
//! * [`mod@format`] — the paged file format, version [`FORMAT_VERSION`]:
//!   fixed-size checksummed pages; a header page carrying geometry and
//!   ambiguity statistics; a wire-encoded metadata region (scheme, test
//!   fingerprint, MISR template, content policy, fault-free trail);
//!   sorted **prefix-compressed** trail-index pages; and variable-length
//!   payload pages reached by `(page, offset)` handles.
//! * [`record`] — the positional payload-record codec (varint counts and
//!   cells, fault variants by index, strict decoding).
//! * [`Pager`] — checksum-verified page reads behind a bounded LRU cache
//!   ([`PageCacheMetrics`] mirrors the fleet runtime-cache counters), so
//!   serving memory is the **cache budget**, not the dictionary size.
//! * [`PagedDictionary`] — implements `twm_repair`'s [`TrailLookup`]
//!   alongside the in-RAM `SignatureDictionary`: lookups binary-search
//!   index pages streamed from disk and decode one class. Built
//!   either by [`PagedDictionary::build_to_disk`] (streams classes during
//!   construction) or persisted from RAM with [`PagedDictionary::write`].
//! * [`wire`] — the self-describing codec, streaming over
//!   [`std::io::Read`]/[`std::io::Write`]; `twm-fleet`'s codec wraps it
//!   and the store's metadata region uses it.
//!
//! ```
//! use twm_core::scheme::{SchemeId, SchemeRegistry};
//! use twm_coverage::{CoverageEngine, UniverseBuilder};
//! use twm_march::algorithms::mats_plus;
//! use twm_mem::MemoryConfig;
//! use twm_repair::{DictionaryOptions, TrailLookup};
//! use twm_store::{PagedDictionary, StoreOptions};
//!
//! let config = MemoryConfig::new(8, 4).unwrap();
//! let registry = SchemeRegistry::all(4).unwrap();
//! let engine = CoverageEngine::for_scheme(
//!     registry.get(SchemeId::TwmTa).unwrap(),
//!     &mats_plus(),
//!     config,
//! )
//! .unwrap()
//! .build()
//! .unwrap();
//! let universe = UniverseBuilder::new(config).stuck_at().transition().build();
//!
//! let dir = std::env::temp_dir().join(format!("twm-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("mats_plus.twmstore");
//!
//! // Build straight to disk; serve lookups under a bounded page cache.
//! let store = PagedDictionary::build_to_disk(
//!     &engine,
//!     &universe,
//!     &DictionaryOptions::default(),
//!     &path,
//!     &StoreOptions::default(),
//! )
//! .unwrap();
//! let diagnosis = twm_repair::localise_trail(&store, store.reference_trail()).unwrap();
//! assert!(diagnosis.clean);
//! std::fs::remove_file(&path).unwrap();
//! ```

pub mod error;
pub mod format;
pub mod paged;
pub mod pager;
pub mod record;
pub mod wire;
pub(crate) mod writer;

/// On-disk format version this build reads and writes. Version 2 seals
/// pages with the word-wise [`format::page_checksum`], stores trail
/// words at ⌈width/8⌉ bytes and payloads as positional
/// [`record`]s; a version-1 file is rejected as
/// [`StoreError::UnsupportedVersion`] and must be rebuilt.
pub const FORMAT_VERSION: u32 = 2;

pub use error::StoreError;
pub use paged::{ClassIter, PagedDictionary, StoreOptions};
pub use pager::{PageCacheMetrics, Pager};
pub use record::RecordError;
// The lookup trait the paged backend implements, re-exported so store
// users need not name `twm_repair` for the common path.
pub use twm_repair::TrailLookup;
