//! Error types for prototile and tiling operations.

use latsched_lattice::LatticeError;
use std::fmt;

/// Errors produced when constructing or validating prototiles and tilings.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TilingError {
    /// A prototile must contain the origin (paper, Section 2: `0 ∈ N`).
    MissingOrigin,
    /// A prototile must contain at least one point.
    EmptyPrototile,
    /// Points of differing dimensions were mixed.
    DimensionMismatch {
        /// Dimension expected by the receiver.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// The proposed translation set and prototile violate tiling condition T1
    /// (coverage): some lattice point is covered by no tile.
    CoverageGap {
        /// A canonical coset representative that is not covered.
        witness: String,
    },
    /// The proposed translation set and prototile violate tiling condition T2
    /// (disjointness): some lattice point is covered by two tiles.
    Overlap {
        /// A canonical coset representative covered more than once.
        witness: String,
    },
    /// The operation requires a two-dimensional prototile (e.g. boundary words).
    NotTwoDimensional(usize),
    /// The prototile's cells are not 4-connected, so it is not a polyomino.
    NotConnected,
    /// The prototile is not a polyomino homeomorphic to a disk (it has a hole or a
    /// pinch point), so boundary-word algorithms do not apply.
    NotSimplyConnected,
    /// A multi-prototile tiling listed no prototiles.
    NoPrototiles,
    /// The sublattice search for this prototile would enumerate more
    /// Hermite-normal-form entries than
    /// [`crate::sublattice_search::MAX_SEARCH_ENTRIES`].
    SearchTooLarge {
        /// The prototile's dimension.
        dim: usize,
        /// The prototile's point count (the index searched for).
        size: u64,
        /// The candidate sublattices of that index (`None` past `u64::MAX`).
        candidates: Option<u64>,
    },
    /// An underlying lattice computation failed.
    Lattice(LatticeError),
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::MissingOrigin => {
                write!(f, "prototile must contain the origin")
            }
            TilingError::EmptyPrototile => write!(f, "prototile must be non-empty"),
            TilingError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            TilingError::CoverageGap { witness } => {
                write!(
                    f,
                    "tiling does not cover the lattice (uncovered coset {witness})"
                )
            }
            TilingError::Overlap { witness } => {
                write!(f, "tiles overlap (coset {witness} covered more than once)")
            }
            TilingError::NotTwoDimensional(d) => {
                write!(
                    f,
                    "operation requires a two-dimensional prototile, got dimension {d}"
                )
            }
            TilingError::NotConnected => write!(f, "prototile cells are not 4-connected"),
            TilingError::NotSimplyConnected => {
                write!(f, "prototile is not simply connected (hole or pinch point)")
            }
            TilingError::NoPrototiles => write!(f, "at least one prototile is required"),
            TilingError::SearchTooLarge {
                dim,
                size,
                candidates,
            } => {
                let candidates = candidates.map_or("2^64 or more".into(), |n| n.to_string());
                write!(
                    f,
                    "shape of {size} points in {dim} dimensions is too large to search for a \
                     tiling: {candidates} candidate sublattices of {dim}x{dim} entries each \
                     exceed the search's ceiling of {} entries",
                    crate::sublattice_search::MAX_SEARCH_ENTRIES
                )
            }
            TilingError::Lattice(e) => write!(f, "lattice error: {e}"),
        }
    }
}

impl std::error::Error for TilingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TilingError::Lattice(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LatticeError> for TilingError {
    fn from(e: LatticeError) -> Self {
        TilingError::Lattice(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TilingError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            TilingError::MissingOrigin.to_string(),
            "prototile must contain the origin"
        );
        assert_eq!(
            TilingError::NotTwoDimensional(3).to_string(),
            "operation requires a two-dimensional prototile, got dimension 3"
        );
        assert!(TilingError::CoverageGap {
            witness: "(1, 0)".into()
        }
        .to_string()
        .contains("(1, 0)"));
    }

    #[test]
    fn lattice_errors_convert_and_chain() {
        let e: TilingError = LatticeError::SingularBasis.into();
        assert!(matches!(e, TilingError::Lattice(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&TilingError::MissingOrigin).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TilingError>();
    }
}
