//! Reproduces the analysis behind the paper's Figure 1 with the
//! state-traversal analyses of `twm::coverage::states`.
//!
//! * Figure 1(a): a march test detects 100 % of the coupling faults between
//!   two arbitrary cells only if it drives the pair through all states and
//!   excites every aggressor-transition / victim-value condition. March C−
//!   covers all eight conditions; MATS+ does not.
//! * Figure 1(b): inside a word, the transparent TWMarch covers the four
//!   intra-word pair conditions (both-complemented, restored, mixed,
//!   restored-from-mixed) for every bit pair and any initial content, while
//!   TSMarch alone covers only the two solid ones — ATMarch closes the gap.
//!
//! Run with:
//!
//! ```text
//! cargo run --example state_coverage
//! ```

use twm::core::{SchemeId, SchemeRegistry, SchemeTransform};
use twm::coverage::states::{analyze_cell_pair, analyze_intra_word_pair};
use twm::march::algorithms::{march_c_minus, mats_plus};
use twm::mem::{MemoryConfig, Word};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Figure 1(a): two-cell excitation conditions (bit-oriented) ==");
    let cells = MemoryConfig::bit_oriented(16)?.cells();
    for test in [march_c_minus(), mats_plus()] {
        let coverage = analyze_cell_pair(&test, 2, 9, cells)?;
        println!(
            "{:<10} states visited: {}/4, coupling conditions covered: {}/8",
            test.name(),
            coverage.states_visited.len(),
            coverage.conditions_covered.len()
        );
        if !coverage.all_conditions_covered() {
            println!("           missing: {:?}", coverage.missing_conditions());
        }
    }

    println!("\n== Figure 1(b): intra-word pair conditions (word-oriented, W = 8) ==");
    let width = 8;
    let transformed = SchemeRegistry::all(width)?.transform(SchemeId::TwmTa, &march_c_minus())?;
    // The partial test (TSMarch only) against the full transparent TWMarch.
    let tsmarch = transformed.stage(SchemeTransform::STAGE_TSMARCH).unwrap();
    let twmarch = transformed.transparent_test();
    let initial = Word::from_bits(0b1011_0010, width)?;
    println!("initial word content: {initial}");
    println!(
        "{:>10} {:>22} {:>22}",
        "bit pair", "TSMarch conditions", "TWMarch conditions"
    );
    for (a, b) in [(0usize, 1usize), (1, 2), (0, 7), (3, 6)] {
        let partial = analyze_intra_word_pair(tsmarch, a, b, initial)?;
        let full = analyze_intra_word_pair(twmarch, a, b, initial)?;
        println!(
            "{:>10} {:>22} {:>22}",
            format!("({a},{b})"),
            format!("{}/4", partial.covered_count()),
            format!("{}/4", full.covered_count())
        );
        assert!(full.all_covered());
    }
    println!("\nATMarch closes the intra-word gap for every pair, as Section 5 argues.");
    Ok(())
}
