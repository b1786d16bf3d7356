//! The corruption contract: a damaged store file — truncated, flipped,
//! re-versioned or outright foreign — always surfaces as a **typed**
//! [`StoreError`], never a panic and never a wrong answer.

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::MemoryConfig;
use twm_repair::{DictionaryOptions, SignatureDictionary};
use twm_store::format::{seal_page, Header};
use twm_store::record::read_varint;
use twm_store::{PagedDictionary, RecordError, StoreError, StoreOptions};

const PAGE_SIZE: usize = 256;

fn options() -> StoreOptions {
    StoreOptions {
        page_size: PAGE_SIZE,
        cache_budget: 8 * PAGE_SIZE,
    }
}

fn dictionary() -> SignatureDictionary {
    let config = MemoryConfig::new(6, 4).unwrap();
    let registry = SchemeRegistry::all(4).unwrap();
    let engine = CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: 3 })
    .build()
    .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap()
}

fn store_bytes(dictionary: &SignatureDictionary, tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "twm-corruption-{}-{tag}.twmstore",
        std::process::id()
    ));
    PagedDictionary::write(dictionary, &path, &options()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Opens the file and, if that succeeds, exercises every read path:
/// point lookups for every class, the undetected record and a full
/// streaming scan. Every failure must arrive as a typed `StoreError`.
fn exercise(path: &std::path::Path, reference: &SignatureDictionary) -> Result<(), StoreError> {
    let paged = PagedDictionary::open(path, &options())?;
    for class in reference.classes() {
        if let Some(found) = paged.lookup(&class.trail)? {
            // Corruption may surface as an error, but a *successful*
            // lookup must never hand back a different class.
            assert_eq!(&found, class, "corrupt store returned a wrong class");
        }
    }
    paged.undetected()?;
    for class in paged.iter() {
        class?;
    }
    Ok(())
}

#[test]
fn truncated_files_are_typed_errors() {
    let dictionary = dictionary();
    let (path, bytes) = store_bytes(&dictionary, "truncate");
    // Cut at every page boundary and a handful of odd offsets.
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(PAGE_SIZE).collect();
    cuts.extend([1, 7, 15, PAGE_SIZE / 2, bytes.len() - 1]);
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let error = exercise(&path, &dictionary).expect_err("truncated file must fail");
        assert!(
            matches!(
                error,
                StoreError::Truncated { .. } | StoreError::NotAStore | StoreError::Corrupt(_)
            ),
            "cut at {cut}: unexpected error {error:?}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_flipped_byte_is_caught_or_harmless() {
    let dictionary = dictionary();
    let (path, bytes) = store_bytes(&dictionary, "flip");
    // Sweep a byte flip across the whole file (stride keeps the test
    // fast; the offset varies which byte of each page gets hit).
    for at in (0..bytes.len()).step_by(13) {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x40;
        std::fs::write(&path, &mutated).unwrap();
        match exercise(&path, &dictionary) {
            // Checksums catch the flip (or structure checks, for flips
            // the page survives): typed, never a panic.
            Err(
                StoreError::ChecksumMismatch { .. }
                | StoreError::Corrupt(_)
                | StoreError::Wire(_)
                | StoreError::NotAStore
                | StoreError::UnsupportedVersion { .. }
                | StoreError::Truncated { .. },
            ) => {}
            Err(other) => panic!("flip at {at}: unexpected error {other:?}"),
            // `exercise` itself asserts any successful lookup returned
            // the right class, so a clean pass here would mean the flip
            // landed in dead padding — with checksummed pages it cannot.
            Ok(()) => panic!("flip at {at} went undetected"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn foreign_versions_and_magics_are_typed() {
    let dictionary = dictionary();
    let (path, bytes) = store_bytes(&dictionary, "version");

    // Bump the format version (leaving the checksum stale is exactly
    // what a future-format file looks like to this build's probe).
    let mut versioned = bytes.clone();
    versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &versioned).unwrap();
    assert!(matches!(
        PagedDictionary::open(&path, &options()),
        Err(StoreError::UnsupportedVersion {
            found: 99,
            supported: twm_store::FORMAT_VERSION,
        })
    ));

    // A version-1 file (FNV-sealed pages, wide trail words, wire
    // payloads) is refused outright, never read as version 2.
    assert_eq!(twm_store::FORMAT_VERSION, 2);
    let mut legacy = bytes.clone();
    legacy[8..12].copy_from_slice(&1u32.to_le_bytes());
    seal_page(&mut legacy[..PAGE_SIZE]);
    std::fs::write(&path, &legacy).unwrap();
    assert!(matches!(
        PagedDictionary::open(&path, &options()),
        Err(StoreError::UnsupportedVersion {
            found: 1,
            supported: 2,
        })
    ));

    // Break the magic.
    let mut foreign = bytes.clone();
    foreign[0] = b'X';
    std::fs::write(&path, &foreign).unwrap();
    assert!(matches!(
        PagedDictionary::open(&path, &options()),
        Err(StoreError::NotAStore)
    ));

    // An empty file and a tiny file are "not a store", not a crash.
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        PagedDictionary::open(&path, &options()),
        Err(StoreError::NotAStore)
    ));
    std::fs::remove_file(&path).unwrap();
}

/// The first class's payload record, located through index entry 0:
/// `(payload page start in the file, record offset within the page)`.
fn first_record(bytes: &[u8]) -> (usize, usize) {
    let header = Header::decode(&bytes[..PAGE_SIZE]);
    let entry = header.index_start() as usize * PAGE_SIZE;
    let field = |at: usize| {
        u32::from_le_bytes(bytes[entry + at..entry + at + 4].try_into().unwrap()) as usize
    };
    let (handle_page, handle_offset) = (field(8), field(12));
    let page = (header.payload_start() as usize + handle_page) * PAGE_SIZE;
    (page, handle_offset)
}

/// Rewrites the first class's payload record with `mutate` (given the
/// record's bytes from its length prefix on, within its page), reseals
/// the page so the checksum passes, and returns the reader's error.
fn mutated_record_error(mutate: impl Fn(&mut [u8])) -> StoreError {
    let dictionary = dictionary();
    let (path, mut bytes) = store_bytes(&dictionary, "record");
    let (page, offset) = first_record(&bytes);
    mutate(&mut bytes[page + offset..page + PAGE_SIZE - 8]);
    seal_page(&mut bytes[page..page + PAGE_SIZE]);
    std::fs::write(&path, &bytes).unwrap();
    let error = exercise(&path, &dictionary).expect_err("a malformed record must fail");
    std::fs::remove_file(&path).unwrap();
    error
}

/// Byte offsets within a one-injection, one-fault record: the length
/// prefix's value and size, then the variant and flag bytes.
fn record_layout(record: &[u8]) -> (u64, usize, usize) {
    let (len, used) = read_varint(record).unwrap();
    let body = &record[used..];
    assert_eq!(&body[..2], &[1, 1], "first class must be one single fault");
    (len, used, used + 2)
}

#[test]
fn malformed_payload_records_are_typed() {
    // Unknown fault variant.
    let error = mutated_record_error(|record| {
        let (_, _, variant) = record_layout(record);
        record[variant] = 7;
    });
    assert!(
        matches!(
            error,
            StoreError::Record(RecordError::UnknownVariant { variant: 7 })
        ),
        "{error:?}"
    );

    // A flag bit the variant does not define.
    let error = mutated_record_error(|record| {
        let (_, _, variant) = record_layout(record);
        record[variant + 1] = 0x80;
    });
    assert!(
        matches!(
            error,
            StoreError::Record(RecordError::BadFlags { flags: 0x80, .. })
        ),
        "{error:?}"
    );

    // A length prefix one short: the record ends mid-value.
    let error = mutated_record_error(|record| {
        let (len, used, _) = record_layout(record);
        assert_eq!(used, 1);
        record[0] = u8::try_from(len - 1).unwrap();
    });
    assert!(
        matches!(error, StoreError::Record(RecordError::Truncated)),
        "{error:?}"
    );

    // A length prefix one long: the next record's first byte trails.
    let error = mutated_record_error(|record| {
        let (len, used, _) = record_layout(record);
        assert_eq!(used, 1);
        record[0] = u8::try_from(len + 1).unwrap();
    });
    assert!(
        matches!(
            error,
            StoreError::Record(RecordError::TrailingBytes { count: 1 })
        ),
        "{error:?}"
    );

    // A length prefix that never ends overflows instead of wrapping.
    let error = mutated_record_error(|record| record[..11].fill(0xff));
    assert!(
        matches!(error, StoreError::Record(RecordError::Overflow)),
        "{error:?}"
    );
}
