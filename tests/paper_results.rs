//! Integration tests pinning the paper's headline numbers: Table 2 closed
//! forms, Table 3 cells, the 56 % / 19 % comparison and the Section 4 worked
//! example — all pulled from the scheme registry.

use twm::core::complexity::{headline, proposed_exact, proposed_formula, table3_rows};
use twm::core::{SchemeId, SchemeRegistry, SchemeTransform};
use twm::march::algorithms::{march_c_minus, march_u};

#[test]
fn table2_closed_forms() {
    // March C-: M = 10, Q = 5. For W = 32 (L = 5):
    let length = march_c_minus().length();
    let registry = SchemeRegistry::comparison(32).unwrap();
    let form = |id: SchemeId| registry.get(id).unwrap().closed_form(length);
    assert_eq!(form(SchemeId::Scheme1).tcm, 60);
    assert_eq!(form(SchemeId::Scheme1).tcp, 30);
    assert_eq!(form(SchemeId::Tomt).tcm, 258);
    assert_eq!(form(SchemeId::Tomt).tcp, 0);
    assert_eq!(form(SchemeId::TwmTa).tcm, 35);
    assert_eq!(form(SchemeId::TwmTa).tcp, 15);
}

#[test]
fn table3_march_c_minus_and_march_u_across_word_sizes() {
    let tests = vec![march_c_minus(), march_u()];
    let widths = [16usize, 32, 64, 128];
    let rows = table3_rows(&tests, &widths).expect("table rows");
    assert_eq!(rows.len(), 8);

    // Expected totals (TCM + TCP per word) from the reconstructed closed
    // forms: March C- has M = 10, Q = 5; March U has M = 13, Q = 6.
    let expected_proposed: &[(&str, usize, usize)] = &[
        ("March C-", 16, 43),
        ("March C-", 32, 50),
        ("March C-", 64, 57),
        ("March C-", 128, 64),
        ("March U", 16, 47),
        ("March U", 32, 54),
        ("March U", 64, 61),
        ("March U", 128, 68),
    ];
    for (name, width, total) in expected_proposed {
        let row = rows
            .iter()
            .find(|r| r.test_name == *name && r.width == *width)
            .expect("row exists");
        let proposed = row.cell(SchemeId::TwmTa).unwrap();
        assert_eq!(proposed.closed_form.total(), *total, "{name} W={width}");
        // The proposed scheme wins against both baselines in every cell.
        assert!(
            proposed.closed_form.total() < row.cell(SchemeId::Scheme1).unwrap().closed_form.total()
        );
        assert!(
            proposed.closed_form.total() < row.cell(SchemeId::Tomt).unwrap().closed_form.total()
        );
        // Exact generated-test length differs from the closed form by at
        // most the one appended read (write-terminated tests).
        assert!(proposed.exact.tcm - proposed.closed_form.tcm <= 1);
    }

    // Spot-check the baselines for March C- at W = 16 and W = 128.
    let row = rows
        .iter()
        .find(|r| r.test_name == "March C-" && r.width == 16)
        .unwrap();
    assert_eq!(row.cell(SchemeId::Scheme1).unwrap().closed_form.total(), 75);
    assert_eq!(row.cell(SchemeId::Tomt).unwrap().closed_form.total(), 130);
    let row = rows
        .iter()
        .find(|r| r.test_name == "March C-" && r.width == 128)
        .unwrap();
    assert_eq!(
        row.cell(SchemeId::Scheme1).unwrap().closed_form.total(),
        120
    );
    assert_eq!(row.cell(SchemeId::Tomt).unwrap().closed_form.total(), 1026);
}

#[test]
fn headline_ratios_56_and_19_percent() {
    let registry = SchemeRegistry::comparison(32).unwrap();
    let comparison = headline(&registry, &march_c_minus()).unwrap();
    assert_eq!(comparison.proposed_total, 50);
    assert_eq!(comparison.scheme1_total, 90);
    assert_eq!(comparison.scheme2_total, 258);
    assert!((comparison.ratio_vs_scheme1 * 100.0 - 55.6).abs() < 0.5);
    assert!((comparison.ratio_vs_scheme2 * 100.0 - 19.4).abs() < 0.5);
}

#[test]
fn section4_worked_example_march_u_8_bits() {
    let registry = SchemeRegistry::all(8).expect("width 8");
    let transformed = registry
        .transform(SchemeId::TwmTa, &march_u())
        .expect("transform March U");
    assert_eq!(
        transformed
            .stage(SchemeTransform::STAGE_TSMARCH)
            .unwrap()
            .operations_per_word(),
        13
    );
    assert_eq!(
        transformed
            .stage(SchemeTransform::STAGE_ATMARCH)
            .unwrap()
            .operations_per_word(),
        16
    );
    assert_eq!(transformed.transparent_test().operations_per_word(), 29);

    let exact = proposed_exact(&march_u(), 8).expect("exact complexity");
    assert_eq!(exact.tcm, 29);

    // At W = 8 the generated transparent tests keep the proposed scheme
    // cheaper per word than Scheme 1: 29 against 56 operations for
    // March U, 25 against 44 for March C-.
    for (source, proposed, scheme1) in [(march_u(), 29, 56), (march_c_minus(), 25, 44)] {
        let ops = |scheme| {
            registry
                .transform(scheme, &source)
                .expect("transform")
                .transparent_test()
                .operations_per_word()
        };
        assert_eq!(ops(SchemeId::TwmTa), proposed, "{}", source.name());
        assert_eq!(ops(SchemeId::Scheme1), scheme1, "{}", source.name());
    }
}

#[test]
fn proposed_complexity_is_only_weakly_coupled_to_the_bit_oriented_test() {
    // The paper's closing observation: the proposed scheme's complexity is
    // only slightly related to the bit-oriented test, unlike Scheme 1.
    let c_minus = march_c_minus().length();
    let u = march_u().length();
    for width in [16usize, 32, 64, 128] {
        let registry = SchemeRegistry::comparison(width).unwrap();
        let proposed = registry.get(SchemeId::TwmTa).unwrap();
        let scheme1 = registry.get(SchemeId::Scheme1).unwrap();
        let gap_proposed = proposed.closed_form(u).total() as isize
            - proposed.closed_form(c_minus).total() as isize;
        let gap_scheme1 =
            scheme1.closed_form(u).total() as isize - scheme1.closed_form(c_minus).total() as isize;
        // The gap between the two tests stays constant (M and Q difference)
        // for the proposed scheme but grows with log2(W)+1 for Scheme 1.
        assert_eq!(gap_proposed, 4);
        assert!(gap_scheme1 > gap_proposed);
        // The registry's closed form is the same arithmetic as the free
        // formula primitive.
        assert_eq!(proposed.closed_form(u), proposed_formula(u, width));
    }
}
