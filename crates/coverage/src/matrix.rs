//! The cross-scheme comparison grid: every scheme of a
//! [`SchemeRegistry`], one source march test, one memory shape and one
//! fault universe — complexity, simulator-measured session cost and fault
//! coverage in a single call.
//!
//! [`scheme_matrix`] is the one-call form of the paper's evaluation: for
//! each registered scheme it transforms the source test, verifies the
//! transparent session on a fault-free memory (operation count and content
//! preservation), and evaluates coverage over the shared universe with a
//! [`CoverageEngine`] per scheme. Rows come back in registry order, so
//! adding a scheme to the registry adds a row to every comparison.

use twm_core::scheme::{SchemeId, SchemeRegistry, SchemeTransform};
use twm_core::SchemeComplexity;
use twm_march::MarchTest;
use twm_mem::{Fault, FaultyMemory, MemoryConfig};

use twm_bist::{execute_lowered, ExecutionOptions, LoweredTest};

use crate::engine::Strategy;
use crate::{ContentPolicy, CoverageEngine, CoverageError, CoverageReport, EvaluationOptions};

/// Options for [`scheme_matrix`]: the shared content policy and execution
/// strategy every scheme's engine evaluates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixOptions {
    /// Initial-content policy (shared by every scheme, so coverage numbers
    /// are comparable).
    pub content: ContentPolicy,
    /// Number of initial contents tried per fault.
    pub contents_per_fault: usize,
    /// Execution strategy of each scheme's engine.
    pub strategy: Strategy,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        let defaults = EvaluationOptions::default();
        Self {
            content: defaults.content,
            contents_per_fault: defaults.contents_per_fault,
            strategy: Strategy::default(),
        }
    }
}

/// One scheme's row of the comparison grid.
#[derive(Debug, Clone)]
pub struct SchemeMatrixRow {
    /// The scheme's identifier.
    pub scheme: SchemeId,
    /// The scheme's human-readable name.
    pub name: String,
    /// The full transform artifact (transparent test, prediction, stages).
    pub transform: SchemeTransform,
    /// Operations actually performed by a fault-free session on the matrix
    /// memory (transparent test plus prediction phase).
    pub session_operations: usize,
    /// Whether the fault-free session preserved the memory content (the
    /// transparency guarantee, verified dynamically).
    pub content_preserved: bool,
    /// Fault coverage of the scheme's transparent test over the shared
    /// universe.
    pub coverage: CoverageReport,
}

impl SchemeMatrixRow {
    /// Closed-form per-word complexity (the paper's Table 2 model).
    #[must_use]
    pub fn closed_form(&self) -> SchemeComplexity {
        self.transform.closed_form()
    }

    /// Exact per-word complexity of the generated tests.
    #[must_use]
    pub fn exact(&self) -> SchemeComplexity {
        self.transform.exact_complexity()
    }
}

/// The comparison grid produced by [`scheme_matrix`].
#[derive(Debug, Clone)]
pub struct SchemeMatrix {
    /// Name of the source bit-oriented march test.
    pub source: String,
    /// Word width of the compared schemes.
    pub width: usize,
    /// One row per registered scheme, in registry order.
    pub rows: Vec<SchemeMatrixRow>,
}

impl SchemeMatrix {
    /// The row of a particular scheme, if it is part of the comparison.
    #[must_use]
    pub fn row(&self, id: SchemeId) -> Option<&SchemeMatrixRow> {
        self.rows.iter().find(|row| row.scheme == id)
    }
}

/// Builds the paper's scheme-comparison grid in one call: for every scheme
/// of `registry`, transform `source`, run the fault-free session on a
/// `config`-shaped memory (initialised under `options.content`), and
/// evaluate coverage over `universe` with a per-scheme [`CoverageEngine`].
///
/// # Errors
///
/// * [`CoverageError::SchemeWidthMismatch`] if the registry's width differs
///   from the memory configuration's.
/// * [`CoverageError::EmptyUniverse`] if `universe` is empty.
/// * [`CoverageError::Core`] for transformation failures, and the engine's
///   errors otherwise.
pub fn scheme_matrix(
    registry: &SchemeRegistry,
    source: &MarchTest,
    config: MemoryConfig,
    universe: &[Fault],
    options: MatrixOptions,
) -> Result<SchemeMatrix, CoverageError> {
    if registry.width() != config.width() {
        return Err(CoverageError::SchemeWidthMismatch {
            scheme: registry.width(),
            memory: config.width(),
        });
    }
    if universe.is_empty() {
        return Err(CoverageError::EmptyUniverse);
    }
    let evaluation = EvaluationOptions {
        content: options.content,
        contents_per_fault: options.contents_per_fault,
    };
    // One shared fault-free memory image for the session checks, the
    // engines' first content round, so the dynamic transparency check runs
    // on representative data.
    let image = options.content.image(config, 0);

    let mut rows = Vec::with_capacity(registry.len());
    for scheme in registry.iter() {
        let engine = CoverageEngine::for_scheme(scheme, source, config)?
            .options(evaluation)
            .strategy(options.strategy)
            .build()?;
        let transform = engine
            .scheme_transform()
            .expect("engine built from a scheme carries its transform")
            .clone();

        // Fault-free session on the matrix memory: count the operations a
        // full session performs and verify content preservation.
        let mut memory = FaultyMemory::fault_free(config);
        memory.load_image(&image)?;
        let before = memory.content();
        let exec = ExecutionOptions {
            record_reads: false,
            stop_at_first_mismatch: false,
        };
        let mut session_operations = 0usize;
        if let Some(prediction) = transform.signature_prediction() {
            let lowered =
                LoweredTest::new(prediction, config.width()).map_err(twm_bist::BistError::from)?;
            session_operations += execute_lowered(&lowered, &mut memory, exec)?.operations();
        }
        let run = execute_lowered(engine.lowered(), &mut memory, exec)?;
        session_operations += run.operations();
        let content_preserved = !run.detected() && memory.content() == before;

        let coverage = engine.report(universe)?;
        rows.push(SchemeMatrixRow {
            scheme: scheme.id(),
            name: scheme.name().to_string(),
            transform,
            session_operations,
            content_preserved,
            coverage,
        });
    }
    Ok(SchemeMatrix {
        source: source.name().to_string(),
        width: registry.width(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseBuilder;
    use twm_march::algorithms::march_c_minus;

    fn universe(config: MemoryConfig) -> Vec<Fault> {
        UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(40, 11)
            .build()
    }

    #[test]
    fn matrix_covers_every_registered_scheme_in_order() {
        let config = MemoryConfig::new(8, 4).unwrap();
        let registry = SchemeRegistry::comparison(4).unwrap();
        let matrix = scheme_matrix(
            &registry,
            &march_c_minus(),
            config,
            &universe(config),
            MatrixOptions::default(),
        )
        .unwrap();
        assert_eq!(matrix.source, "March C-");
        assert_eq!(matrix.width, 4);
        assert_eq!(
            matrix.rows.iter().map(|r| r.scheme).collect::<Vec<_>>(),
            SchemeId::comparison().to_vec()
        );
        for row in &matrix.rows {
            assert!(row.content_preserved, "{}", row.name);
            assert!(row.coverage.total_coverage() > 0.5, "{}", row.name);
            assert_eq!(
                row.exact().tcm,
                row.transform.transparent_test().operations_per_word()
            );
            // A fault-free session executes every operation of both phases.
            assert_eq!(row.session_operations, row.transform.total_operations(8));
        }
        // The paper's ordering: the proposed scheme is the cheapest per word.
        let proposed = matrix.row(SchemeId::TwmTa).unwrap();
        let scheme1 = matrix.row(SchemeId::Scheme1).unwrap();
        assert!(proposed.exact().total() < scheme1.exact().total());
    }

    #[test]
    fn matrix_rejects_mismatched_width_and_empty_universe() {
        let config = MemoryConfig::new(8, 8).unwrap();
        let registry = SchemeRegistry::comparison(4).unwrap();
        assert!(matches!(
            scheme_matrix(
                &registry,
                &march_c_minus(),
                config,
                &universe(config),
                MatrixOptions::default(),
            ),
            Err(CoverageError::SchemeWidthMismatch {
                scheme: 4,
                memory: 8
            })
        ));
        let registry = SchemeRegistry::comparison(8).unwrap();
        assert!(matches!(
            scheme_matrix(
                &registry,
                &march_c_minus(),
                config,
                &[],
                MatrixOptions::default()
            ),
            Err(CoverageError::EmptyUniverse)
        ));
    }
}
