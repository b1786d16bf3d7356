//! `SignatureTrail` stores its signatures packed, but it must order,
//! compare and serialise exactly as the plain `Vec<Word>` it replaced:
//! dictionaries are sorted and binary-searched by that order, and frames
//! and store metadata carry that `Value`. `Legacy` mirrors the old type;
//! over widths 1–128 and lengths 0–16, same-width and cross-width pairs
//! must agree with it, and `Value`s the new type cannot hold (mixed
//! widths, words a `Word` cannot be) decode to errors, not panics.

use serde::{Deserialize, Serialize, Value};
use twm_mem::{SplitMix64, Word};
use twm_repair::SignatureTrail;

/// The trail type before packing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct Legacy(Vec<Word>);

/// `len` random signatures of `width` bits; with `narrow`, their bits are
/// drawn from 0..4 so that equal signatures, and ties across widths, are
/// common.
fn signatures(rng: &mut SplitMix64, width: usize, len: usize, narrow: bool) -> Vec<Word> {
    (0..len)
        .map(|_| {
            let bits = if narrow {
                rng.next_u128() % 4
            } else {
                rng.next_u128()
            };
            Word::from_bits(bits, width).unwrap()
        })
        .collect()
}

/// Asserts that `a` and `b` compare, equal and serialise as their legacy
/// mirrors do.
fn assert_agree(a: &[Word], b: &[Word]) {
    let (la, lb) = (Legacy(a.to_vec()), Legacy(b.to_vec()));
    let (ta, tb) = (
        SignatureTrail::new(a.to_vec()),
        SignatureTrail::new(b.to_vec()),
    );
    assert_eq!(ta.cmp(&tb), la.cmp(&lb), "{a:?} against {b:?}");
    assert_eq!(ta == tb, la == lb, "{a:?} against {b:?}");
    for (trail, legacy) in [(&ta, &la), (&tb, &lb)] {
        let value = serde::to_value(trail);
        assert_eq!(value, serde::to_value(legacy));
        assert_eq!(&serde::from_value::<SignatureTrail>(&value).unwrap(), trail);
        assert_eq!(trail.len(), legacy.0.len());
        assert!(trail.iter().eq(legacy.0.iter().copied()));
        assert_eq!(
            format!("{trail:?}"),
            format!("{:?}", legacy).replace("Legacy", "SignatureTrail")
        );
    }
}

#[test]
fn packed_trails_order_compare_and_serialise_as_legacy_ones() {
    let mut rng = SplitMix64::new(0x7A11);
    for width in 1..=128 {
        for len in 0..=16 {
            for narrow in [false, true] {
                let a = signatures(&mut rng, width, len, narrow);
                // Same width: itself, a fresh draw, one signature changed,
                // a prefix and an extension.
                assert_agree(&a, &a);
                assert_agree(&a, &signatures(&mut rng, width, len, narrow));
                if len > 0 {
                    let mut changed = a.clone();
                    let at = rng.next_below(len);
                    changed[at] = signatures(&mut rng, width, 1, narrow)[0];
                    assert_agree(&a, &changed);
                    assert_agree(&a, &a[..rng.next_below(len)]);
                }
                let mut longer = a.clone();
                let extra = 1 + rng.next_below(3);
                longer.extend(signatures(&mut rng, width, extra, narrow));
                assert_agree(&a, &longer);
                // Another width, with the same bits where they fit.
                let other = 1 + rng.next_below(128);
                let rewidened: Vec<Word> = a
                    .iter()
                    .map(|word| Word::from_bits(word.to_bits(), other).unwrap())
                    .collect();
                assert_agree(&a, &rewidened);
                let len = rng.next_below(17);
                assert_agree(&a, &signatures(&mut rng, other, len, narrow));
            }
        }
    }
}

#[test]
fn the_empty_trail_has_no_width() {
    let empty = SignatureTrail::new(Vec::new());
    assert_eq!(empty, SignatureTrail::from_words(&[]).unwrap());
    assert_eq!(empty, SignatureTrail::from_packed(32, &[]).unwrap());
    assert_eq!((empty.len(), empty.width()), (0, 0));
    assert!(empty < SignatureTrail::new(vec![Word::zeros(1)]));
}

#[test]
fn packed_bytes_round_trip_and_are_masked() {
    let trail = SignatureTrail::new(vec![Word::from_bits(0x1_2345, 20).unwrap(), Word::ones(20)]);
    assert_eq!(trail.packed(), [0x01, 0x23, 0x45, 0x0F, 0xFF, 0xFF]);
    assert_eq!(trail.signature(1), Word::ones(20));
    assert_eq!(
        SignatureTrail::from_packed(20, &[0xF1, 0x23, 0x45, 0xFF, 0xFF, 0xFF]).unwrap(),
        trail
    );
    assert!(SignatureTrail::from_packed(0, &[]).is_err());
    assert!(SignatureTrail::from_packed(129, &[0; 17]).is_err());
}

#[test]
#[should_panic(expected = "share one width")]
fn new_panics_on_mixed_widths() {
    let _ = SignatureTrail::new(vec![Word::zeros(8), Word::zeros(9)]);
}

#[test]
fn mixed_width_and_malformed_values_are_decode_errors() {
    let mixed = vec![Word::zeros(8), Word::ones(9)];
    assert!(SignatureTrail::from_words(&mixed).is_err());
    assert!(serde::from_value::<SignatureTrail>(&serde::to_value(&Legacy(mixed))).is_err());

    let word = |bits: u128, width: u128| {
        Value::Record(vec![
            ("bits".into(), Value::UInt(bits)),
            ("width".into(), Value::UInt(width)),
        ])
    };
    let trail = |words: Vec<Value>| Value::Seq(vec![Value::Seq(words)]);
    for malformed in [
        trail(vec![word(0, 0)]),
        trail(vec![word(0, 129)]),
        trail(vec![word(0, 300)]),
        trail(vec![word(0x100, 8)]),
        trail(vec![word(1, 4), word(1, 5)]),
        Value::Seq(vec![]),
        Value::Seq(vec![Value::Seq(vec![]), Value::Seq(vec![])]),
        Value::Seq(vec![Value::Unit]),
        Value::Unit,
    ] {
        assert!(
            serde::from_value::<SignatureTrail>(&malformed).is_err(),
            "{malformed:?} decoded"
        );
    }
    assert_eq!(
        serde::from_value::<SignatureTrail>(&trail(vec![word(3, 4), word(0xF, 4)])).unwrap(),
        SignatureTrail::new(vec![
            Word::from_bits(3, 4).unwrap(),
            Word::from_bits(0xF, 4).unwrap()
        ])
    );
}
