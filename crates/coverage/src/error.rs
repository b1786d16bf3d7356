use std::error::Error;
use std::fmt;

use twm_bist::BistError;
use twm_core::CoreError;
use twm_mem::MemError;

/// Errors produced by the coverage evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverageError {
    /// The fault list is empty, so no coverage can be computed.
    EmptyUniverse,
    /// An underlying BIST-engine error.
    Bist(BistError),
    /// An underlying memory error.
    Mem(MemError),
    /// The analysed test is not usable for the requested analysis.
    UnsupportedTest {
        /// Description of the problem.
        detail: String,
    },
    /// A [`crate::CoverageEngine`] builder was finalised without a test.
    MissingTest,
    /// An explicit worker-thread count of zero was requested
    /// ([`crate::Strategy::Parallel`] with `threads == 0`).
    ZeroThreads,
    /// Two engines over different memory shapes were asked to compare.
    ConfigMismatch,
    /// A transformation scheme failed to produce its transparent test.
    Core(CoreError),
    /// A scheme session was asked of an engine that carries no scheme
    /// transform (build the engine via `CoverageEngine::for_scheme`).
    MissingScheme,
    /// A scheme built for one word width was asked to evaluate against a
    /// memory of another width.
    SchemeWidthMismatch {
        /// Word width the scheme targets.
        scheme: usize,
        /// Word width of the memory configuration.
        memory: usize,
    },
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::EmptyUniverse => write!(f, "fault universe contains no faults"),
            CoverageError::Bist(err) => write!(f, "bist error: {err}"),
            CoverageError::Mem(err) => write!(f, "memory error: {err}"),
            CoverageError::UnsupportedTest { detail } => {
                write!(f, "unsupported test for this analysis: {detail}")
            }
            CoverageError::MissingTest => {
                write!(f, "coverage engine built without a march test")
            }
            CoverageError::ZeroThreads => {
                write!(f, "explicit worker-thread count must be non-zero")
            }
            CoverageError::ConfigMismatch => {
                write!(f, "engines evaluate against different memory shapes")
            }
            CoverageError::Core(err) => write!(f, "scheme transformation error: {err}"),
            CoverageError::MissingScheme => write!(
                f,
                "aliasing analysis requires a scheme-built engine (CoverageEngine::for_scheme)"
            ),
            CoverageError::SchemeWidthMismatch { scheme, memory } => write!(
                f,
                "scheme targets {scheme}-bit words but the memory has {memory}-bit words"
            ),
        }
    }
}

impl Error for CoverageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoverageError::Bist(err) => Some(err),
            CoverageError::Mem(err) => Some(err),
            CoverageError::Core(err) => Some(err),
            _ => None,
        }
    }
}

impl From<BistError> for CoverageError {
    fn from(err: BistError) -> Self {
        CoverageError::Bist(err)
    }
}

impl From<MemError> for CoverageError {
    fn from(err: MemError) -> Self {
        CoverageError::Mem(err)
    }
}

impl From<CoreError> for CoverageError {
    fn from(err: CoreError) -> Self {
        CoverageError::Core(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let err: CoverageError = MemError::EmptyMemory.into();
        assert!(err.source().is_some());
        let err: CoverageError = BistError::EmptyWindowModel.into();
        assert!(err.to_string().contains("bist error"));
        let err: CoverageError = CoreError::InvalidWidth { width: 1 }.into();
        assert!(err.to_string().contains("scheme transformation error"));
        assert!(err.source().is_some());
        assert!(!CoverageError::EmptyUniverse.to_string().is_empty());
        assert!(CoverageError::MissingScheme
            .to_string()
            .contains("for_scheme"));
        assert!(CoverageError::MissingScheme.source().is_none());
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoverageError>();
    }
}
