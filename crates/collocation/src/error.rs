//! Error type for the stochastic collocation driver.

use std::error::Error;
use std::fmt;

/// Errors produced by the collocation subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum CollocationError {
    /// An underlying sparse linear-algebra operation failed (e.g. the LU
    /// fallback of an outlying node's factorisation failed too).
    Sparse(opera_sparse::SparseError),
    /// A polynomial-chaos operation failed.
    Pce(opera_pce::PceError),
    /// A variation-model realisation failed.
    Variation(opera_variation::VariationError),
    /// The collocation options are inconsistent.
    InvalidOptions {
        /// Explanation of the problem.
        reason: String,
    },
}

impl fmt::Display for CollocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollocationError::Sparse(e) => write!(f, "sparse linear algebra error: {e}"),
            CollocationError::Pce(e) => write!(f, "polynomial chaos error: {e}"),
            CollocationError::Variation(e) => write!(f, "variation model error: {e}"),
            CollocationError::InvalidOptions { reason } => write!(f, "invalid options: {reason}"),
        }
    }
}

impl Error for CollocationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CollocationError::Sparse(e) => Some(e),
            CollocationError::Pce(e) => Some(e),
            CollocationError::Variation(e) => Some(e),
            CollocationError::InvalidOptions { .. } => None,
        }
    }
}

impl From<opera_sparse::SparseError> for CollocationError {
    fn from(e: opera_sparse::SparseError) -> Self {
        CollocationError::Sparse(e)
    }
}

impl From<opera_pce::PceError> for CollocationError {
    fn from(e: opera_pce::PceError) -> Self {
        CollocationError::Pce(e)
    }
}

impl From<opera_variation::VariationError> for CollocationError {
    fn from(e: opera_variation::VariationError) -> Self {
        CollocationError::Variation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources_and_messages() {
        let inner = opera_sparse::SparseError::Singular { column: 5 };
        let e: CollocationError = inner.clone().into();
        assert_eq!(e, CollocationError::Sparse(inner));
        assert!(e.to_string().contains("column 5"));
        assert!(e.source().is_some());
        let opts = CollocationError::InvalidOptions {
            reason: "level must be positive".to_string(),
        };
        assert!(opts.to_string().contains("level"));
        assert!(opts.source().is_none());
    }
}
