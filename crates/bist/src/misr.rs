//! Multiple-input signature register (MISR).
//!
//! Transparent BIST compacts the data returned by read operations into a
//! signature instead of comparing each read against a stored expected value.
//! The signature produced by the transparent test phase is compared with the
//! signature predicted in a preceding read-only phase; a mismatch flags a
//! fault. Like every LFSR-based compactor a MISR is subject to *aliasing*
//! (an erroneous stream can map to the fault-free signature), which is why
//! the library also offers an exact-compare oracle for coverage analysis.

use serde::{Deserialize, Serialize};

use twm_mem::Word;

use crate::BistError;

/// An LFSR-based multiple-input signature register of configurable width.
///
/// ```
/// use twm_bist::Misr;
/// use twm_mem::Word;
///
/// # fn main() -> Result<(), twm_bist::BistError> {
/// let mut a = Misr::standard(8);
/// let mut b = Misr::standard(8);
/// for value in [0x12u128, 0x34, 0x56] {
///     a.absorb(Word::from_bits(value, 8).unwrap());
/// }
/// for value in [0x12u128, 0x34, 0x57] {       // one bit differs
///     b.absorb(Word::from_bits(value, 8).unwrap());
/// }
/// assert_ne!(a.signature(), b.signature());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Misr {
    state: u128,
    width: usize,
    polynomial: u128,
    absorbed: u64,
}

impl Misr {
    /// Creates a MISR with an explicit feedback polynomial (tap mask).
    ///
    /// # Errors
    ///
    /// Returns [`BistError::InvalidMisr`] if the width is zero or above the
    /// supported maximum, or if the polynomial is zero or has taps outside
    /// the register width.
    pub fn new(width: usize, polynomial: u128) -> Result<Self, BistError> {
        if width == 0 || width > twm_mem::MAX_WORD_WIDTH {
            return Err(BistError::InvalidMisr {
                detail: format!("unsupported register width {width}"),
            });
        }
        let mask = Word::ones(width).to_bits();
        if polynomial == 0 {
            return Err(BistError::InvalidMisr {
                detail: "feedback polynomial must be non-zero".into(),
            });
        }
        if polynomial & !mask != 0 {
            return Err(BistError::InvalidMisr {
                detail: format!(
                    "feedback polynomial 0x{polynomial:x} has taps outside width {width}"
                ),
            });
        }
        Ok(Self {
            state: 0,
            width,
            polynomial,
            absorbed: 0,
        })
    }

    /// Creates a MISR with a default feedback polynomial for the width.
    ///
    /// The register shifts left and adds the tap mask when bit `w − 1`
    /// leaves, so a mask `m` stands for `P(x) = x^w + Σ x^i` over the set
    /// bits `i` of `m`. Only widths 1–4 get an irreducible (and primitive)
    /// `P`. The masks for 8, 16, 32 and 64 follow right-shift tap tables,
    /// so in this convention they are **not** primitive: at 8 and 16 `P`
    /// has no constant term (the shift is not invertible, and an error
    /// equal to `P/x` vanishes at the next step), and at 32 and 64 it is
    /// reducible. The fallback mask `(1 << (w − 1)) | 3` gives
    /// `x^w + x^(w−1) + x + 1 = (x + 1)(x^(w−1) + 1)`, reducible at every
    /// width. Signatures, dictionaries and store files are computed under
    /// these masks, and every fast path is checked against the naive
    /// session under the same ones.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or above the supported maximum; use
    /// [`Misr::new`] for a fallible constructor.
    #[must_use]
    pub fn standard(width: usize) -> Self {
        let polynomial: u128 = match width {
            1 => 0x1,
            2 => 0x3,
            3 => 0x3,
            4 => 0x9,                    // x^4 + x^3 + 1
            8 => 0x8E,                   // x^8 + x^7 + x^3 + x^2 + x
            16 => 0xD008,                // x^16 + x^15 + x^14 + x^12 + x^3
            32 => 0x8020_0003,           // x^32 + x^31 + x^21 + x + 1
            64 => 0x8000_0000_0000_001B, // x^64 + x^63 + x^4 + x^3 + x + 1
            w => (1u128 << (w - 1)) | 0x3,
        };
        Self::new(width, polynomial).expect("standard polynomial is valid")
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of words absorbed since the last reset.
    #[must_use]
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Clears the register state.
    pub fn reset(&mut self) {
        self.state = 0;
        self.absorbed = 0;
    }

    /// Absorbs one data word.
    ///
    /// # Panics
    ///
    /// Panics if the word width differs from the register width.
    #[inline]
    pub fn absorb(&mut self, word: Word) {
        assert_eq!(
            word.width(),
            self.width,
            "misr width {} does not match data width {}",
            self.width,
            word.width()
        );
        self.state = self.times_x(self.state) ^ word.to_bits();
        self.absorbed += 1;
    }

    /// Advances the register by `k` all-zero words — exactly `k` calls of
    /// [`Misr::absorb`] with a zero word, in O(width² · log k) time.
    ///
    /// Absorbing is linear over GF(2): with the feedback polynomial
    /// `P(x) = x^width + taps`, the state after a stream `w₀ … w_{T−1}`
    /// is `Σ wₜ · x^(T−1−t) mod P`. A zero word only multiplies the state
    /// by `x`, so `k` of them multiply it by `x^k mod P`, which
    /// square-and-multiply computes in `log₂ k` squarings. This is what
    /// lets a signature be corrected for a handful of erroneous reads far
    /// apart in a long stream without replaying the stream
    /// ([`crate::run_scheme_session_local`]).
    pub fn jump(&mut self, k: u64) {
        self.absorbed += k;
        if self.state == 0 || k == 0 {
            return;
        }
        if k <= self.width as u64 {
            for _ in 0..k {
                self.state = self.times_x(self.state);
            }
            return;
        }
        let mut power = 1u128;
        for bit in (0..u64::BITS - k.leading_zeros()).rev() {
            power = self.mul_mod(power, power);
            if (k >> bit) & 1 == 1 {
                power = self.times_x(power);
            }
        }
        self.state = self.mul_mod(self.state, power);
    }

    /// `value · x mod P`: one shift with feedback, the absorb step for a
    /// zero word. Branch-free (the feedback bit of a signature stream is
    /// unpredictable), and with no variable shift on the state's
    /// dependency chain.
    #[inline]
    pub(crate) fn times_x(&self, value: u128) -> u128 {
        let top = 1u128 << (self.width - 1);
        let shifted = (value << 1) & (top | (top - 1));
        shifted ^ (self.polynomial & 0u128.wrapping_sub(u128::from(value & top != 0)))
    }

    /// `a · b mod P` by Horner's rule over the bits of `b`.
    pub(crate) fn mul_mod(&self, a: u128, b: u128) -> u128 {
        let mut product = 0u128;
        for bit in (0..self.width).rev() {
            product = self.times_x(product);
            if (b >> bit) & 1 == 1 {
                product ^= a;
            }
        }
        product
    }

    /// The current signature.
    #[must_use]
    pub fn signature(&self) -> Word {
        Word::from_bits(self.state, self.width).expect("state is masked to a valid width")
    }
}

/// The powers `x^(2^i) mod P`, `i < 64`, of one MISR's feedback
/// polynomial `P`, so that `x^k mod P` costs `popcount(k) − 1`
/// multiplications instead of `log₂ k` squarings. The single-cell trail
/// table ([`crate::CellTrailTable`]) places its terms with them; the
/// arithmetic is the register's own ([`Misr::jump`]'s shift and product).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PowerTable {
    /// A register of the polynomial; its state is not used.
    register: Misr,
    powers: [u128; 64],
}

impl PowerTable {
    /// The table of `misr`'s polynomial.
    pub(crate) fn new(misr: &Misr) -> Self {
        let mut register = misr.clone();
        register.reset();
        let mut powers = [register.times_x(1); 64];
        for i in 1..powers.len() {
            powers[i] = register.mul_mod(powers[i - 1], powers[i - 1]);
        }
        Self { register, powers }
    }

    /// The register width.
    pub(crate) fn width(&self) -> usize {
        self.register.width
    }

    /// `value · x mod P`.
    #[inline]
    pub(crate) fn times_x(&self, value: u128) -> u128 {
        self.register.times_x(value)
    }

    /// `a · b mod P`.
    pub(crate) fn mul(&self, a: u128, b: u128) -> u128 {
        self.register.mul_mod(a, b)
    }

    /// `x^k mod P` in `popcount(k) − 1` multiplications.
    pub(crate) fn power(&self, k: u64) -> u128 {
        let mut bits = k;
        let mut power = None;
        while bits != 0 {
            let factor = self.powers[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            power = Some(power.map_or(factor, |power| self.mul(power, factor)));
        }
        power.unwrap_or(1)
    }

    /// `value · x^k mod P`: `k` feedback shifts up to the width, above it
    /// a multiplication by [`PowerTable::power`].
    pub(crate) fn shift(&self, value: u128, k: u64) -> u128 {
        if k <= self.width() as u64 {
            (0..k).fold(value, |value, _| self.times_x(value))
        } else {
            self.mul(value, self.power(k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(bits: u128, width: usize) -> Word {
        Word::from_bits(bits, width).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(Misr::new(0, 1).is_err());
        assert!(Misr::new(8, 0).is_err());
        assert!(Misr::new(8, 0x1FF).is_err());
        assert!(Misr::new(8, 0x8E).is_ok());
        for width in [1usize, 2, 3, 4, 8, 16, 32, 64, 100, 128] {
            assert_eq!(Misr::standard(width).width(), width);
        }
    }

    #[test]
    fn identical_streams_produce_identical_signatures() {
        let stream: Vec<u128> = vec![0x01, 0xFF, 0x55, 0xAA, 0x13];
        let mut a = Misr::standard(8);
        let mut b = Misr::standard(8);
        for &value in &stream {
            a.absorb(word(value, 8));
            b.absorb(word(value, 8));
        }
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.absorbed(), stream.len() as u64);
    }

    #[test]
    fn single_bit_difference_changes_the_signature() {
        let mut a = Misr::standard(16);
        let mut b = Misr::standard(16);
        for i in 0..100u128 {
            a.absorb(word(i, 16));
            b.absorb(word(if i == 57 { i ^ 0x0400 } else { i }, 16));
        }
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn order_of_inputs_matters() {
        let mut a = Misr::standard(8);
        let mut b = Misr::standard(8);
        a.absorb(word(0x12, 8));
        a.absorb(word(0x34, 8));
        b.absorb(word(0x34, 8));
        b.absorb(word(0x12, 8));
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut misr = Misr::standard(8);
        misr.absorb(word(0xAB, 8));
        assert_ne!(misr.signature(), Word::zeros(8));
        misr.reset();
        assert_eq!(misr.signature(), Word::zeros(8));
        assert_eq!(misr.absorbed(), 0);
    }

    /// A register of `width` bits in a pseudo-random state.
    fn random_state(width: usize, rng: &mut twm_mem::SplitMix64) -> Misr {
        let mut misr = Misr::standard(width);
        misr.absorb(Word::from_bits(rng.next_u128(), width).unwrap());
        misr.absorb(Word::from_bits(rng.next_u128(), width).unwrap());
        misr
    }

    const JUMP_WIDTHS: [usize; 10] = [2, 3, 4, 8, 16, 31, 32, 64, 100, 128];

    #[test]
    fn jump_equals_absorbing_zero_words() {
        let mut rng = twm_mem::SplitMix64::new(0x5EED);
        for width in JUMP_WIDTHS {
            for _ in 0..3 {
                let start = random_state(width, &mut rng);
                let mut stepped = start.clone();
                for k in 0..=300u64 {
                    let mut jumped = start.clone();
                    jumped.jump(k);
                    assert_eq!(jumped, stepped, "width {width}, k {k}");
                    stepped.absorb(Word::zeros(width));
                }
            }
        }
    }

    #[test]
    fn long_jumps_match_a_stepping_loop() {
        let k = (1u64 << 20) + 7;
        let mut rng = twm_mem::SplitMix64::new(0xF00D);
        for width in JUMP_WIDTHS {
            let start = random_state(width, &mut rng);
            let mut stepped = start.clone();
            for _ in 0..k {
                stepped.absorb(Word::zeros(width));
            }
            let mut jumped = start.clone();
            jumped.jump(k);
            assert_eq!(jumped, stepped, "width {width}");
            // Jumps compose: k = 1000 + (k − 1000).
            let mut split = start;
            split.jump(1000);
            split.jump(k - 1000);
            assert_eq!(split, stepped, "width {width}");
        }
    }

    #[test]
    fn table_shifts_equal_squaring_jumps() {
        let mut rng = twm_mem::SplitMix64::new(0x7AB1E);
        for width in JUMP_WIDTHS.into_iter().chain([1, 5, 33, 127]) {
            let start = random_state(width, &mut rng);
            let table = PowerTable::new(&start);
            let mut ks: Vec<u64> = (0..=300).collect();
            ks.extend((0..63).map(|i| 1u64 << i));
            ks.extend((0..200).map(|_| rng.next_u64() >> (1 + rng.next_below(63))));
            ks.push(u64::MAX >> 1);
            for k in ks {
                let mut jumped = start.clone();
                jumped.jump(k);
                assert_eq!(
                    table.shift(start.state, k),
                    jumped.state,
                    "width {width}, k {k}"
                );
            }
        }
    }

    #[test]
    fn jumping_a_zero_state_keeps_it_zero() {
        for width in JUMP_WIDTHS {
            let mut misr = Misr::standard(width);
            misr.jump((1 << 40) + 3);
            assert_eq!(misr.signature(), Word::zeros(width));
            assert_eq!(misr.absorbed(), (1 << 40) + 3);
        }
    }

    #[test]
    #[should_panic(expected = "does not match data width")]
    fn absorbing_the_wrong_width_panics() {
        Misr::standard(8).absorb(word(0, 16));
    }

    #[test]
    fn aliasing_is_possible_but_rare() {
        // Exhaustively flip one word in a short stream: the signature must
        // differ from the reference for every single-word corruption (single
        // errors never alias in an LFSR-based MISR).
        let stream: Vec<u128> = (0..32).map(|i| (i * 37) % 256).collect();
        let mut reference = Misr::standard(8);
        for &v in &stream {
            reference.absorb(word(v, 8));
        }
        for position in 0..stream.len() {
            for bit in 0..8 {
                let mut corrupted = Misr::standard(8);
                for (i, &v) in stream.iter().enumerate() {
                    let value = if i == position { v ^ (1 << bit) } else { v };
                    corrupted.absorb(word(value, 8));
                }
                assert_ne!(
                    corrupted.signature(),
                    reference.signature(),
                    "single-bit corruption at word {position} bit {bit} aliased"
                );
            }
        }
    }
}
