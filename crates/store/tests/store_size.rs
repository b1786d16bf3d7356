//! A deterministic size gate on the paged format: the 32×32 TWM_TA ×
//! March C− SAF+TF dictionary at 4 KiB pages must take at most half its
//! version-1 file (1,142,784 B: FNV-sealed pages, 16-byte trail words and
//! self-describing wire payloads). Run with `--nocapture` for the
//! bytes/entry figure.

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::MemoryConfig;
use twm_repair::{DictionaryOptions, SignatureDictionary};
use twm_store::{PagedDictionary, StoreOptions};

/// The version-1 file of this dictionary, in bytes.
const V1_FILE_BYTES: u64 = 1_142_784;

#[test]
fn a_32x32_store_file_is_at_most_half_its_v1_size() {
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
    let dictionary =
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();

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
