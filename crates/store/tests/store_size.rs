//! Deterministic gates on the paged format, over the 32×32 TWM_TA ×
//! March C− SAF+TF dictionary (content seed 7) at default options:
//!
//! * its file must take at most half its version-1 size (1,142,784 B:
//!   FNV-sealed pages, 16-byte trail words and self-describing wire
//!   payloads) — run with `--nocapture` for the bytes/entry figure;
//! * its bytes are golden: an FNV-1a digest of the file pins the format,
//!   the trail encoding and the class order.

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::MemoryConfig;
use twm_repair::{DictionaryOptions, SignatureDictionary};
use twm_store::{PagedDictionary, StoreOptions};

/// The version-1 file of this dictionary, in bytes.
const V1_FILE_BYTES: u64 = 1_142_784;

/// The FNV-1a digest of this dictionary's file.
const GOLDEN_DIGEST: u64 = 0x7697_9865_530c_7fda;

fn dictionary() -> SignatureDictionary {
    let config = MemoryConfig::new(32, 32).unwrap();
    let registry = SchemeRegistry::all(32).unwrap();
    let engine = CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: 7 })
    .build()
    .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_32x32_store_file_is_at_most_half_its_v1_size() {
    let dictionary = dictionary();
    let path = std::env::temp_dir().join(format!("twm-size-{}.twmstore", std::process::id()));
    let options = StoreOptions::default();
    assert_eq!(options.page_size, 4096);
    PagedDictionary::write(&dictionary, &path, &options).unwrap();
    let paged = PagedDictionary::open(&path, &options).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert_eq!(file_bytes, paged.file_bytes());
    let entries = paged.classes();
    assert_eq!(entries, dictionary.classes().len());
    println!(
        "32x32 TWM_TA x March C- SAF+TF store: {file_bytes} B for {entries} entries \
         ({:.1} B/entry; version 1: {V1_FILE_BYTES} B, {:.1} B/entry)",
        file_bytes as f64 / entries as f64,
        V1_FILE_BYTES as f64 / entries as f64,
    );
    assert!(
        file_bytes * 2 <= V1_FILE_BYTES,
        "store file {file_bytes} B exceeds half the version-1 size ({} B)",
        V1_FILE_BYTES / 2
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_32x32_store_file_keeps_its_golden_bytes() {
    let path = std::env::temp_dir().join(format!("twm-golden-{}.twmstore", std::process::id()));
    PagedDictionary::write(&dictionary(), &path, &StoreOptions::default()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let digest = fnv1a(&bytes);
    println!("32x32 store file: {} B, FNV-1a {digest:#018x}", bytes.len());
    assert_eq!(digest, GOLDEN_DIGEST, "the store file's bytes changed");
}
