//! Resident heap bytes per ambiguity class of a `SignatureDictionary`,
//! TWM_TA × March C− under random content, measured with a counting
//! global allocator: the bytes a build leaves allocated, divided by the
//! dictionary's classes. Two shapes are held to at most
//! [`MAX_BYTES_PER_CLASS`]: the full 32×32 SAF+TF universe, and 1K×32
//! with 128 stuck-at and 128 transition faults sampled. Run with
//! `--nocapture` for the figures:
//!
//! ```text
//! cargo test --release -p twm-repair --test dictionary_footprint -- --nocapture
//! ```
//!
//! The allocator counts the whole process, so this binary holds one test
//! and measures the shapes one after the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
use twm_march::algorithms::march_c_minus;
use twm_mem::{Fault, MemoryConfig};
use twm_repair::{DictionaryOptions, SignatureDictionary};

/// The ceiling on resident bytes per class.
const MAX_BYTES_PER_CLASS: f64 = 256.0;

/// Live heap bytes of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn engine(config: MemoryConfig) -> CoverageEngine {
    let registry = SchemeRegistry::all(config.width()).unwrap();
    CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: 7 })
    .build()
    .unwrap()
}

/// Builds the dictionary of `universe` and returns its class count and
/// the heap bytes (plus the value itself) it holds once built.
fn resident(engine: &CoverageEngine, universe: &[Fault]) -> (usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let dictionary =
        SignatureDictionary::build(engine, universe, &DictionaryOptions::default()).unwrap();
    let after = LIVE.load(Ordering::SeqCst);
    let bytes = after.saturating_sub(before) + std::mem::size_of::<SignatureDictionary>();
    (dictionary.classes().len(), bytes)
}

#[test]
fn resident_dictionaries_cost_at_most_256_bytes_per_class() {
    let full = MemoryConfig::new(32, 32).unwrap();
    let sampled = MemoryConfig::new(1024, 32).unwrap();
    let shapes = [
        (
            "32x32 SAF+TF",
            full,
            UniverseBuilder::new(full).stuck_at().transition().build(),
        ),
        (
            "1Kx32 128+128 sampled SAF+TF",
            sampled,
            UniverseBuilder::new(sampled)
                .stuck_at()
                .transition()
                .sample_per_class(128, 0x5A3)
                .build(),
        ),
    ];
    for (name, config, universe) in shapes {
        let engine = engine(config);
        let (classes, bytes) = resident(&engine, &universe);
        let per_class = bytes as f64 / classes as f64;
        println!(
            "{name}: {bytes} B resident for {classes} classes ({per_class:.1} B/class, \
             {} injections)",
            universe.len()
        );
        assert!(
            per_class <= MAX_BYTES_PER_CLASS,
            "{name}: {per_class:.1} B/class exceeds {MAX_BYTES_PER_CLASS} B/class"
        );
    }
}
