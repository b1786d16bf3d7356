//! One transformation surface for every transparent test scheme.
//!
//! The DATE 2005 paper compares four ways of obtaining a transparent test
//! for a word-oriented memory: the classical Nicolaidis transformation
//! (ITC'92 / ToC'96), the multi-background *Scheme 1* of reference \[12\],
//! the *TOMT* walk of reference \[13\] and the paper's own TWM_TA. This
//! module gives all of them one API:
//!
//! * [`TransparentScheme`] — the trait every scheme implements: one
//!   `transform(&MarchTest)` entry point returning a common
//!   [`SchemeTransform`] artifact, plus the closed-form complexity model
//!   behind the paper's Table 2.
//! * [`SchemeTransform`] — the common artifact: the transparent
//!   word-oriented test, the signature-prediction test (when the scheme has
//!   one), named intermediate stages (SMarch/TSMarch/ATMarch, the
//!   word-oriented expansion), the background structure, restoration
//!   metadata and exact + closed-form complexity.
//! * [`SchemeRegistry`] — [`SchemeId`] → boxed scheme, with the
//!   [`SchemeRegistry::all`] / [`SchemeRegistry::comparison`] constructors,
//!   so cross-scheme workloads (the paper's tables, coverage grids, test
//!   generation searches) enumerate schemes data-driven instead of
//!   hand-wiring four incompatible concrete types.
//!
//! ```
//! use twm_core::scheme::{SchemeId, SchemeRegistry};
//! use twm_march::algorithms::march_c_minus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = SchemeRegistry::all(32)?;
//! for scheme in registry.iter() {
//!     let t = scheme.transform(&march_c_minus())?;
//!     assert!(t.transparent_test().is_transparent());
//! }
//! // The paper's worked number: TWM_TA needs 35 ops/word for March C-, W=32.
//! let twm = registry.get(SchemeId::TwmTa).unwrap();
//! let t = twm.transform(&march_c_minus())?;
//! assert_eq!(t.exact_complexity().tcm, 35);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use twm_march::{MarchTest, TestLength};

use crate::complexity::{
    nicolaidis_formula, proposed_formula, scheme1_formula, scheme2_formula, SchemeComplexity,
};
use crate::{require_bit_oriented, scheme1, tomt, twm_ta, CoreError};

/// Identifier of a transformation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SchemeId {
    /// The classical Nicolaidis transparent transformation (ITC'92 / ToC'96)
    /// applied to the bit-oriented test on solid backgrounds.
    Nicolaidis,
    /// Scheme 1 of the paper (reference \[12\]): the test repeated over the
    /// `⌈log₂W⌉ + 1` standard data backgrounds, then made transparent.
    Scheme1,
    /// Scheme 2 of the paper (reference \[13\]): the TOMT-like bit walk with
    /// concurrent (code-based) checking instead of a signature.
    Tomt,
    /// The paper's Algorithm 1 (TWM_TA): TSMarch + ATMarch.
    TwmTa,
}

impl SchemeId {
    /// Every identifier, in registry order.
    #[must_use]
    pub fn all() -> [SchemeId; 4] {
        [
            SchemeId::Nicolaidis,
            SchemeId::Scheme1,
            SchemeId::Tomt,
            SchemeId::TwmTa,
        ]
    }

    /// The identifiers of the paper's Tables 2/3 comparison, in table order.
    #[must_use]
    pub fn comparison() -> [SchemeId; 3] {
        [SchemeId::Scheme1, SchemeId::Tomt, SchemeId::TwmTa]
    }

    /// The scheme this id names, for `width`-bit words — one scheme
    /// without building a whole [`SchemeRegistry`].
    ///
    /// # Errors
    ///
    /// The scheme constructor's [`CoreError::InvalidWidth`].
    pub fn scheme(self, width: usize) -> Result<Box<dyn TransparentScheme>, CoreError> {
        Ok(match self {
            SchemeId::Nicolaidis => Box::new(NicolaidisScheme::new(width)?),
            SchemeId::Scheme1 => Box::new(Scheme1::new(width)?),
            SchemeId::Tomt => Box::new(TomtScheme::new(width)?),
            SchemeId::TwmTa => Box::new(TwmTa::new(width)?),
        })
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchemeId::Nicolaidis => "Nicolaidis",
            SchemeId::Scheme1 => "Scheme 1",
            SchemeId::Tomt => "TOMT",
            SchemeId::TwmTa => "TWM_TA",
        };
        f.write_str(name)
    }
}

/// Human-readable closed forms of a scheme's complexity (the paper's
/// Table 2 rendering; `N` words, `M` operations, `Q` reads,
/// `L = ⌈log₂W⌉`).
///
/// Serialize-only: the formulas are `&'static str` compile-time constants,
/// which can be written to a wire but not reconstructed from one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchemeFormulas {
    /// Closed form of the transparent test length (TCM).
    pub tcm: &'static str,
    /// Closed form of the signature-prediction length (TCP); `"-"` for
    /// schemes without a prediction phase.
    pub tcp: &'static str,
}

/// How a scheme's transparent test restores the memory content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Restoration {
    /// Whether operations were appended purely to restore the content (the
    /// Nicolaidis rule-3 restore element, or the write of ATMarch's
    /// inverted-branch closing element).
    pub appended_restore: bool,
    /// Whether the content was the complement of the initial content before
    /// the final restore/closing element executed.
    pub content_inverted: bool,
}

/// A named intermediate artifact of a transformation (for example TWM_TA's
/// SMarch/TSMarch/ATMarch stages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeStage {
    /// Stage name — see the `STAGE_*` constants on [`SchemeTransform`].
    pub name: &'static str,
    /// The stage's march test.
    pub test: MarchTest,
}

/// The common artifact every [`TransparentScheme`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeTransform {
    scheme: SchemeId,
    width: usize,
    source_name: String,
    transparent: MarchTest,
    prediction: Option<MarchTest>,
    stages: Vec<SchemeStage>,
    backgrounds: usize,
    restoration: Restoration,
    closed_form: SchemeComplexity,
}

impl SchemeTransform {
    /// Stage name of TWM_TA's solid-background SMarch.
    pub const STAGE_SMARCH: &'static str = "SMarch";
    /// Stage name of TWM_TA's transparent solid-background TSMarch.
    pub const STAGE_TSMARCH: &'static str = "TSMarch";
    /// Stage name of TWM_TA's added transparent ATMarch.
    pub const STAGE_ATMARCH: &'static str = "ATMarch";
    /// Stage name of Scheme 1's non-transparent multi-background expansion.
    pub const STAGE_WORD_ORIENTED: &'static str = "word-oriented";

    /// The scheme that produced this transform.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }

    /// The word width the transformation targets.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Name of the source bit-oriented march test.
    #[must_use]
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// The transparent word-oriented march test.
    #[must_use]
    pub fn transparent_test(&self) -> &MarchTest {
        &self.transparent
    }

    /// The signature-prediction test — the read-only projection of the
    /// transparent test. `None` for schemes with concurrent (code-based)
    /// checking, such as TOMT.
    #[must_use]
    pub fn signature_prediction(&self) -> Option<&MarchTest> {
        self.prediction.as_ref()
    }

    /// The named intermediate stages of the transformation, in construction
    /// order (empty for single-step schemes).
    #[must_use]
    pub fn stages(&self) -> &[SchemeStage] {
        &self.stages
    }

    /// Looks up an intermediate stage by name (see the `STAGE_*` constants).
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&MarchTest> {
        self.stages
            .iter()
            .find(|stage| stage.name == name)
            .map(|stage| &stage.test)
    }

    /// Number of distinct data backgrounds the transparent test exercises
    /// (Scheme 1: `⌈log₂W⌉ + 1` whole passes; TWM_TA: the solid background
    /// plus `⌈log₂W⌉` ATMarch backgrounds; TOMT: one walking mask per bit).
    #[must_use]
    pub fn backgrounds(&self) -> usize {
        self.backgrounds
    }

    /// How the transparent test restores the memory content.
    #[must_use]
    pub fn restoration(&self) -> Restoration {
        self.restoration
    }

    /// The scheme's closed-form per-word complexity for the source test
    /// (the paper's Table 2 model).
    #[must_use]
    pub fn closed_form(&self) -> SchemeComplexity {
        self.closed_form
    }

    /// Exact per-word complexity measured on the generated tests: TCM from
    /// the transparent test, TCP from the prediction test (0 when absent).
    #[must_use]
    pub fn exact_complexity(&self) -> SchemeComplexity {
        SchemeComplexity {
            tcm: self.transparent.operations_per_word(),
            tcp: self
                .prediction
                .as_ref()
                .map_or(0, MarchTest::operations_per_word),
        }
    }

    /// Total operations of a complete session (transparent test plus
    /// prediction phase) over a memory with `words` addresses.
    #[must_use]
    pub fn total_operations(&self, words: usize) -> usize {
        self.exact_complexity().total() * words
    }
}

/// A transparent-test transformation scheme for a fixed word width.
///
/// Implementations are registered in a [`SchemeRegistry`] and consumed
/// generically: `twm-coverage` builds engines and comparison grids from
/// `&dyn TransparentScheme`, `twm-bist` runs any [`SchemeTransform`]
/// session, and the conformance suite checks every registered scheme
/// against the paper-level invariants (transparency, content restoration,
/// read-only prediction projection).
pub trait TransparentScheme: fmt::Debug + Send + Sync {
    /// The scheme's identifier.
    fn id(&self) -> SchemeId;

    /// Human-readable scheme name.
    fn name(&self) -> &'static str;

    /// The word width this scheme instance targets.
    fn width(&self) -> usize;

    /// Closed-form per-word complexity for a source test of the given
    /// length (the paper's Table 2 model).
    fn closed_form(&self, length: TestLength) -> SchemeComplexity;

    /// The Table 2 closed forms as display strings.
    fn formulas(&self) -> SchemeFormulas;

    /// Transforms a bit-oriented march test into this scheme's transparent
    /// word-oriented artifact.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotBitOriented`] if the input is not bit-oriented.
    /// * [`CoreError::InconsistentMarch`] if the input's reads are
    ///   inconsistent with its own writes.
    /// * [`CoreError::March`] for structural errors.
    fn transform(&self, bmarch: &MarchTest) -> Result<SchemeTransform, CoreError>;
}

/// The classical Nicolaidis transparent transformation as a scheme: the
/// bit-oriented test's solid data survive at any word width, so the
/// transform is the rule set of [`crate::nicolaidis`] applied directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicolaidisScheme {
    width: usize,
}

impl NicolaidisScheme {
    /// Creates the scheme for `width`-bit words (any supported width,
    /// including 1 for bit-oriented memories).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for zero or oversized widths.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        if !(1..=twm_mem::MAX_WORD_WIDTH).contains(&width) {
            return Err(CoreError::InvalidWidth { width });
        }
        Ok(Self { width })
    }
}

impl TransparentScheme for NicolaidisScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Nicolaidis
    }

    fn name(&self) -> &'static str {
        "Nicolaidis transparent"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn closed_form(&self, length: TestLength) -> SchemeComplexity {
        nicolaidis_formula(length)
    }

    fn formulas(&self) -> SchemeFormulas {
        SchemeFormulas {
            tcm: "(M-1)*N",
            tcp: "Q*N",
        }
    }

    fn transform(&self, bmarch: &MarchTest) -> Result<SchemeTransform, CoreError> {
        require_bit_oriented(bmarch)?;
        let transform = crate::nicolaidis::to_transparent(bmarch)?;
        Ok(SchemeTransform {
            scheme: SchemeId::Nicolaidis,
            width: self.width,
            source_name: bmarch.name().to_string(),
            transparent: transform.transparent_test().clone(),
            prediction: Some(transform.signature_prediction().clone()),
            stages: Vec::new(),
            backgrounds: 1,
            restoration: Restoration {
                appended_restore: transform.appended_restore(),
                content_inverted: transform.appended_restore(),
            },
            closed_form: nicolaidis_formula(bmarch.length()),
        })
    }
}

/// Scheme 1 (reference \[12\]) as a [`TransparentScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme1 {
    width: usize,
}

impl Scheme1 {
    /// Creates the scheme for `width`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for widths below 2 or above the
    /// supported maximum.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        scheme1::check_width(width)?;
        Ok(Self { width })
    }
}

impl TransparentScheme for Scheme1 {
    fn id(&self) -> SchemeId {
        SchemeId::Scheme1
    }

    fn name(&self) -> &'static str {
        "Scheme 1 (multi-background Nicolaidis)"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn closed_form(&self, length: TestLength) -> SchemeComplexity {
        scheme1_formula(length, self.width)
    }

    fn formulas(&self) -> SchemeFormulas {
        SchemeFormulas {
            tcm: "M*(L+1)*N",
            tcp: "Q*(L+1)*N",
        }
    }

    fn transform(&self, bmarch: &MarchTest) -> Result<SchemeTransform, CoreError> {
        let parts = scheme1::transform_parts(self.width, bmarch)?;
        Ok(SchemeTransform {
            scheme: SchemeId::Scheme1,
            width: self.width,
            source_name: bmarch.name().to_string(),
            transparent: parts.transparent,
            prediction: Some(parts.prediction),
            stages: vec![SchemeStage {
                name: SchemeTransform::STAGE_WORD_ORIENTED,
                test: parts.word_test,
            }],
            backgrounds: parts.passes,
            restoration: Restoration {
                appended_restore: parts.appended_restore,
                content_inverted: false,
            },
            closed_form: scheme1_formula(bmarch.length(), self.width),
        })
    }
}

/// Scheme 2 — the TOMT-like walk (reference \[13\]) as a
/// [`TransparentScheme`]. The walk is independent of the source march test
/// (TOMT always exercises every bit of every word); the source only names
/// the comparison the transform belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TomtScheme {
    width: usize,
}

impl TomtScheme {
    /// Creates the scheme for `width`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for widths below 2 or above the
    /// supported maximum.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        scheme1::check_width(width)?;
        Ok(Self { width })
    }
}

impl TransparentScheme for TomtScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Tomt
    }

    fn name(&self) -> &'static str {
        "Scheme 2 (TOMT-like walk)"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn closed_form(&self, _length: TestLength) -> SchemeComplexity {
        scheme2_formula(self.width)
    }

    fn formulas(&self) -> SchemeFormulas {
        SchemeFormulas {
            tcm: "(8W+2)*N",
            tcp: "-",
        }
    }

    fn transform(&self, bmarch: &MarchTest) -> Result<SchemeTransform, CoreError> {
        require_bit_oriented(bmarch)?;
        let walk = tomt::walk_test(self.width)?;
        Ok(SchemeTransform {
            scheme: SchemeId::Tomt,
            width: self.width,
            source_name: bmarch.name().to_string(),
            transparent: walk,
            // TOMT relies on concurrent code checking, not on a signature:
            // there is no prediction phase.
            prediction: None,
            stages: Vec::new(),
            backgrounds: self.width,
            restoration: Restoration {
                appended_restore: false,
                content_inverted: false,
            },
            closed_form: scheme2_formula(self.width),
        })
    }
}

/// The paper's Algorithm 1 (TWM_TA) as a [`TransparentScheme`]. The
/// SMarch/TSMarch/ATMarch intermediates are published as transform stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwmTa {
    width: usize,
}

impl TwmTa {
    /// Creates the scheme for `width`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for widths below 2 or above the
    /// supported maximum.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        scheme1::check_width(width)?;
        Ok(Self { width })
    }
}

impl TransparentScheme for TwmTa {
    fn id(&self) -> SchemeId {
        SchemeId::TwmTa
    }

    fn name(&self) -> &'static str {
        "TWM_TA (this work)"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn closed_form(&self, length: TestLength) -> SchemeComplexity {
        proposed_formula(length, self.width)
    }

    fn formulas(&self) -> SchemeFormulas {
        SchemeFormulas {
            tcm: "(M+5L)*N",
            tcp: "(Q+2L)*N",
        }
    }

    fn transform(&self, bmarch: &MarchTest) -> Result<SchemeTransform, CoreError> {
        let parts = twm_ta::transform_parts(self.width, bmarch)?;
        Ok(SchemeTransform {
            scheme: SchemeId::TwmTa,
            width: self.width,
            source_name: bmarch.name().to_string(),
            transparent: parts.twmarch,
            prediction: Some(parts.prediction),
            stages: vec![
                SchemeStage {
                    name: SchemeTransform::STAGE_SMARCH,
                    test: parts.smarch,
                },
                SchemeStage {
                    name: SchemeTransform::STAGE_TSMARCH,
                    test: parts.tsmarch,
                },
                SchemeStage {
                    name: SchemeTransform::STAGE_ATMARCH,
                    test: parts.atmarch,
                },
            ],
            backgrounds: twm_march::background::standard_background_count(self.width),
            restoration: Restoration {
                appended_restore: parts.content_inverted,
                content_inverted: parts.content_inverted,
            },
            closed_form: proposed_formula(bmarch.length(), self.width),
        })
    }
}

/// A set of [`TransparentScheme`]s for one word width, addressable by
/// [`SchemeId`] and iterable in registration order.
#[derive(Debug)]
pub struct SchemeRegistry {
    width: usize,
    schemes: Vec<Box<dyn TransparentScheme>>,
}

impl SchemeRegistry {
    /// Creates an empty registry for `width`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for zero or oversized widths.
    pub fn empty(width: usize) -> Result<Self, CoreError> {
        if !(1..=twm_mem::MAX_WORD_WIDTH).contains(&width) {
            return Err(CoreError::InvalidWidth { width });
        }
        Ok(Self {
            width,
            schemes: Vec::new(),
        })
    }

    /// Every implemented scheme for `width`-bit words: Nicolaidis,
    /// Scheme 1, TOMT and TWM_TA, in that order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for widths below 2 or above the
    /// supported maximum (the word-oriented schemes need at least 2 bits).
    pub fn all(width: usize) -> Result<Self, CoreError> {
        Self::of(width, SchemeId::all())
    }

    /// The schemes of the paper's Tables 2/3 comparison: Scheme 1, TOMT
    /// (Scheme 2) and TWM_TA, in table order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWidth`] for widths below 2 or above the
    /// supported maximum.
    pub fn comparison(width: usize) -> Result<Self, CoreError> {
        Self::of(width, SchemeId::comparison())
    }

    /// A registry of the schemes `ids` name, in that order.
    fn of(width: usize, ids: impl IntoIterator<Item = SchemeId>) -> Result<Self, CoreError> {
        let mut registry = Self::empty(width)?;
        for id in ids {
            registry.register(id.scheme(width)?)?;
        }
        Ok(registry)
    }

    /// The word width every registered scheme targets.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of registered schemes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether the registry holds no schemes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// Registers a scheme.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SchemeWidthMismatch`] if the scheme targets a
    ///   different word width than the registry.
    /// * [`CoreError::DuplicateScheme`] if a scheme with the same id is
    ///   already registered.
    pub fn register(&mut self, scheme: Box<dyn TransparentScheme>) -> Result<(), CoreError> {
        if scheme.width() != self.width {
            return Err(CoreError::SchemeWidthMismatch {
                registry: self.width,
                scheme: scheme.width(),
            });
        }
        if self.get(scheme.id()).is_some() {
            return Err(CoreError::DuplicateScheme { id: scheme.id() });
        }
        self.schemes.push(scheme);
        Ok(())
    }

    /// Looks a scheme up by id.
    #[must_use]
    pub fn get(&self, id: SchemeId) -> Option<&dyn TransparentScheme> {
        self.schemes
            .iter()
            .find(|scheme| scheme.id() == id)
            .map(AsRef::as_ref)
    }

    /// Iterates over the registered schemes in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn TransparentScheme> {
        self.schemes.iter().map(AsRef::as_ref)
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = SchemeId> + '_ {
        self.schemes.iter().map(|scheme| scheme.id())
    }

    /// Transforms a source test with the scheme registered under `id`.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingScheme`] if `id` is not registered, otherwise
    /// the scheme's transformation errors.
    pub fn transform(
        &self,
        id: SchemeId,
        bmarch: &MarchTest,
    ) -> Result<SchemeTransform, CoreError> {
        self.get(id)
            .ok_or(CoreError::MissingScheme { id })?
            .transform(bmarch)
    }

    /// Transforms a source test with every registered scheme, in
    /// registration order.
    ///
    /// # Errors
    ///
    /// Returns the first scheme's transformation error.
    pub fn transform_all(&self, bmarch: &MarchTest) -> Result<Vec<SchemeTransform>, CoreError> {
        self.iter().map(|scheme| scheme.transform(bmarch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_march::algorithms::{march_c_minus, march_u};

    #[test]
    fn registry_constructors_register_the_expected_schemes() {
        let all = SchemeRegistry::all(8).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(
            all.ids().collect::<Vec<_>>(),
            SchemeId::all().to_vec(),
            "registry order"
        );
        let comparison = SchemeRegistry::comparison(8).unwrap();
        assert_eq!(
            comparison.ids().collect::<Vec<_>>(),
            SchemeId::comparison().to_vec()
        );
        assert!(SchemeRegistry::all(1).is_err());
        assert!(SchemeRegistry::comparison(999).is_err());
    }

    #[test]
    fn registry_rejects_width_mismatch_and_duplicates() {
        let mut registry = SchemeRegistry::empty(8).unwrap();
        assert!(registry.is_empty());
        assert!(matches!(
            registry.register(Box::new(TwmTa::new(16).unwrap())),
            Err(CoreError::SchemeWidthMismatch {
                registry: 8,
                scheme: 16
            })
        ));
        registry.register(Box::new(TwmTa::new(8).unwrap())).unwrap();
        assert!(matches!(
            registry.register(Box::new(TwmTa::new(8).unwrap())),
            Err(CoreError::DuplicateScheme {
                id: SchemeId::TwmTa
            })
        ));
        assert!(matches!(
            registry.transform(SchemeId::Tomt, &march_u()),
            Err(CoreError::MissingScheme { id: SchemeId::Tomt })
        ));
    }

    #[test]
    fn twm_ta_transform_carries_the_algorithm_stages() {
        let scheme = TwmTa::new(8).unwrap();
        let t = scheme.transform(&march_u()).unwrap();
        assert_eq!(t.scheme(), SchemeId::TwmTa);
        assert_eq!(t.width(), 8);
        assert_eq!(t.source_name(), "March U");
        assert_eq!(t.stages().len(), 3);
        assert!(t
            .stage(SchemeTransform::STAGE_SMARCH)
            .unwrap()
            .name()
            .starts_with("SMarch"));
        assert_eq!(
            t.stage(SchemeTransform::STAGE_TSMARCH)
                .unwrap()
                .operations_per_word(),
            13
        );
        assert_eq!(
            t.stage(SchemeTransform::STAGE_ATMARCH)
                .unwrap()
                .operations_per_word(),
            16
        );
        assert_eq!(t.exact_complexity().tcm, 29);
        assert_eq!(t.backgrounds(), 4); // solid + D1..D3
        assert!(!t.restoration().content_inverted);
    }

    #[test]
    fn scheme1_transform_exposes_the_word_oriented_stage() {
        let scheme = Scheme1::new(4).unwrap();
        let t = scheme.transform(&march_c_minus()).unwrap();
        assert_eq!(t.backgrounds(), 3);
        assert_eq!(
            t.stage(SchemeTransform::STAGE_WORD_ORIENTED)
                .unwrap()
                .length()
                .operations,
            30
        );
        assert!(t.restoration().appended_restore);
        assert_eq!(
            t.signature_prediction().unwrap().length().writes,
            0,
            "prediction is read-only"
        );
    }

    #[test]
    fn tomt_has_no_prediction_phase_and_ignores_the_source_structure() {
        let scheme = TomtScheme::new(8).unwrap();
        let from_c = scheme.transform(&march_c_minus()).unwrap();
        let from_u = scheme.transform(&march_u()).unwrap();
        assert!(from_c.signature_prediction().is_none());
        assert_eq!(from_c.transparent_test(), from_u.transparent_test());
        assert_eq!(from_c.exact_complexity().tcm, 8 * 8 + 2);
        assert_eq!(from_c.exact_complexity().tcp, 0);
        assert_eq!(from_c.total_operations(10), (8 * 8 + 2) * 10);
    }

    #[test]
    fn nicolaidis_scheme_matches_the_classical_transformation() {
        let scheme = NicolaidisScheme::new(1).unwrap();
        let t = scheme.transform(&march_c_minus()).unwrap();
        assert_eq!(
            t.transparent_test().to_string(),
            "⇑(rc,w~c); ⇑(r~c,wc); ⇓(rc,w~c); ⇓(r~c,wc); ⇕(rc)"
        );
        assert_eq!(t.closed_form().tcm, 9);
        assert_eq!(t.closed_form().tcp, 5);
        assert_eq!(t.exact_complexity(), t.closed_form());
        assert!(t.stages().is_empty());
        assert!(t.stage(SchemeTransform::STAGE_ATMARCH).is_none());
    }

    #[test]
    fn closed_forms_match_the_table2_model() {
        let registry = SchemeRegistry::comparison(32).unwrap();
        let length = march_c_minus().length();
        let s1 = registry.get(SchemeId::Scheme1).unwrap().closed_form(length);
        assert_eq!((s1.tcm, s1.tcp), (60, 30));
        let s2 = registry.get(SchemeId::Tomt).unwrap().closed_form(length);
        assert_eq!((s2.tcm, s2.tcp), (258, 0));
        let twm = registry.get(SchemeId::TwmTa).unwrap().closed_form(length);
        assert_eq!((twm.tcm, twm.tcp), (35, 15));
        for scheme in registry.iter() {
            assert!(!scheme.formulas().tcm.is_empty());
        }
    }

    #[test]
    fn non_bit_oriented_inputs_are_rejected_by_every_scheme() {
        let registry = SchemeRegistry::all(8).unwrap();
        let transparent = registry
            .transform(SchemeId::TwmTa, &march_c_minus())
            .unwrap()
            .transparent_test()
            .clone();
        for scheme in registry.iter() {
            assert!(
                matches!(
                    scheme.transform(&transparent),
                    Err(CoreError::NotBitOriented { .. })
                ),
                "{}",
                scheme.name()
            );
        }
    }
}
