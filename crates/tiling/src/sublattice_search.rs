//! Deciding exactness by searching for a tiling sublattice.
//!
//! A prototile `N` admits a *sublattice tiling* iff there is a full-rank sublattice
//! `Λ ⊆ Z^d` of index `|N|` such that the elements of `N` fall into pairwise distinct
//! cosets of `Λ` (then `N` is a transversal of `Λ`, which is exactly conditions T1 and
//! T2 with `T = Λ`). Enumerating the finitely many sublattices of index `|N|` (via
//! Hermite normal forms, see [`latsched_lattice::Sublattice::enumerate_with_index`])
//! therefore decides sublattice-tileability outright.
//!
//! How this relates to the paper's question Q1 ("when is a prototile exact?"):
//!
//! * For **polyominoes in `Z²`** the classical results cited in Section 3 (Beauquier–
//!   Nivat \[1\], Wijshoff–van Leeuwen \[13\]) show that a polyomino tiles the plane by
//!   translation iff it admits a *regular* (lattice) tiling, so this search is a
//!   complete decision procedure for polyomino exactness.
//! * For **prime-cardinality clusters** Szegedy's theorem \[11\] likewise reduces
//!   exactness to lattice tilings.
//! * For arbitrary disconnected prototiles a tile could conceivably admit only
//!   non-lattice tilings; the periodic backtracking search [`crate::tile_torus`] covers
//!   periodic tilings of any prescribed period in that case.

use crate::error::{Result, TilingError};
use crate::prototile::Prototile;
use crate::tiling::Tiling;
use latsched_lattice::Sublattice;

/// The most Hermite-normal-form entries — candidate sublattices × `dim²` —
/// that [`tiling_sublattices`] materializes: 2^25 (a quarter GiB of `i64`s).
///
/// The candidates of index `|N|` number the sum, over ordered factorizations
/// `d_1 ⋯ d_dim = |N|`, of `Π d_c^(c−1)` ([`Sublattice::count_with_index`]),
/// and each is a `dim × dim` matrix. The ceiling admits the 4-D Moore ball
/// (925,771 candidates, a few seconds) and a 2-point shape in 16 dimensions
/// (65,535), and rejects, before enumerating, the 5-D Moore ball (~6.2·10⁹
/// candidates, which exhausts a 4 GB address space) and a 2-point shape in 20
/// or more dimensions (2^dim − 1, whose enumeration also recurses past the
/// stack from a few hundred dimensions on).
pub const MAX_SEARCH_ENTRIES: u64 = 1 << 25;

/// Returns `true` if the prototile is a transversal of the sublattice (all elements
/// in pairwise distinct cosets and `|N| = [Z^d : Λ]`), i.e. if `T = Λ` tiles the
/// lattice with neighbourhoods of the form `N`.
///
/// # Errors
///
/// Returns a dimension-mismatch error if the dimensions differ.
pub fn is_transversal(prototile: &Prototile, sublattice: &Sublattice) -> Result<bool> {
    if prototile.len() as u64 != sublattice.index() {
        return Ok(false);
    }
    let mut seen = std::collections::BTreeSet::new();
    for n in prototile.iter() {
        let rep = sublattice.reduce(n)?;
        if !seen.insert(rep) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Enumerates *all* sublattices `Λ` of index `|N|` for which `T = Λ` tiles the lattice
/// with neighbourhoods of the form `N`, in a deterministic order.
///
/// # Errors
///
/// Returns [`TilingError::SearchTooLarge`] before enumerating anything when
/// the candidates would exceed [`MAX_SEARCH_ENTRIES`], and propagates
/// lattice-arithmetic errors (dimension mismatches, overflow).
///
/// # Examples
///
/// ```
/// use latsched_tiling::{shapes, sublattice_search};
///
/// // The 3×3 Chebyshev ball (Figure 2, left) tiles Z²; one witness is 3Z × 3Z.
/// let n = shapes::chebyshev_ball(2, 1)?;
/// let witnesses = sublattice_search::tiling_sublattices(&n)?;
/// assert!(!witnesses.is_empty());
/// assert!(witnesses.iter().all(|s| s.index() == 9));
/// # Ok::<(), latsched_tiling::TilingError>(())
/// ```
pub fn tiling_sublattices(prototile: &Prototile) -> Result<Vec<Sublattice>> {
    let (dim, size) = (prototile.dim(), prototile.len() as u64);
    let count = Sublattice::count_with_index(dim, size)?;
    let entries = count.and_then(|n| n.checked_mul((dim as u64).checked_mul(dim as u64)?));
    if entries.is_none_or(|e| e > MAX_SEARCH_ENTRIES) {
        return Err(TilingError::SearchTooLarge {
            dim,
            size,
            candidates: count,
        });
    }
    let candidates = Sublattice::enumerate_with_index(dim, size)?;
    let mut out = Vec::new();
    for lambda in candidates {
        if is_transversal(prototile, &lambda)? {
            out.push(lambda);
        }
    }
    Ok(out)
}

/// Finds one sublattice tiling of the lattice by the prototile, if any exists.
///
/// # Errors
///
/// Propagates lattice-arithmetic errors.
pub fn find_sublattice_tiling(prototile: &Prototile) -> Result<Option<Tiling>> {
    let witnesses = tiling_sublattices(prototile)?;
    match witnesses.into_iter().next() {
        Some(lambda) => Ok(Some(Tiling::from_sublattice(prototile.clone(), lambda)?)),
        None => Ok(None),
    }
}

/// Returns `true` if the prototile admits a sublattice tiling.
///
/// For polyominoes and prime-cardinality prototiles this coincides with exactness
/// (see the module documentation); in general it is a sufficient condition.
///
/// # Errors
///
/// Propagates lattice-arithmetic errors.
pub fn admits_sublattice_tiling(prototile: &Prototile) -> Result<bool> {
    Ok(!tiling_sublattices(prototile)?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;
    use crate::tetromino::{self, Tetromino};
    use latsched_lattice::Point;

    #[test]
    fn figure2_shapes_are_exact() {
        // The paper notes that each prototile of Figure 2 is exact.
        for tile in [
            shapes::chebyshev_ball(2, 1).unwrap(),
            shapes::euclidean_ball(2, 1).unwrap(),
            shapes::directional_antenna(),
        ] {
            assert!(
                admits_sublattice_tiling(&tile).unwrap(),
                "{tile} should tile Z²"
            );
        }
    }

    #[test]
    fn chebyshev_ball_tiles_with_3z_3z() {
        let n = shapes::chebyshev_ball(2, 1).unwrap();
        let expected = Sublattice::from_vectors(&[Point::xy(3, 0), Point::xy(0, 3)]).unwrap();
        let witnesses = tiling_sublattices(&n).unwrap();
        assert!(witnesses.contains(&expected));
    }

    #[test]
    fn euclidean_ball_tiles_with_the_diagonal_lattice() {
        // The 5-point plus shape tiles Z² with Λ = ⟨(1,2),(2,-1)⟩ (the classic
        // "diagonal" tiling of the plus pentomino).
        let n = shapes::euclidean_ball(2, 1).unwrap();
        let diag = Sublattice::from_vectors(&[Point::xy(1, 2), Point::xy(2, -1)]).unwrap();
        assert!(is_transversal(&n, &diag).unwrap());
        assert!(tiling_sublattices(&n).unwrap().contains(&diag));
    }

    #[test]
    fn all_tetrominoes_admit_sublattice_tilings() {
        for t in Tetromino::ALL {
            assert!(
                admits_sublattice_tiling(&t.prototile()).unwrap(),
                "{t} must tile the plane by translation"
            );
        }
    }

    #[test]
    fn u_pentomino_is_not_exact() {
        // The U pentomino cannot tile the plane by translations alone; since it is a
        // polyomino, the sublattice search is a complete decision procedure for it.
        assert!(!admits_sublattice_tiling(&tetromino::u_pentomino()).unwrap());
        assert!(find_sublattice_tiling(&tetromino::u_pentomino())
            .unwrap()
            .is_none());
    }

    #[test]
    fn find_tiling_returns_verified_tiling() {
        let d = shapes::directional_antenna();
        let tiling = find_sublattice_tiling(&d).unwrap().expect("exact");
        assert_eq!(tiling.slot_count(), 8);
        assert_eq!(tiling.period().index(), 8);
        // Every point is covered exactly once — already guaranteed by the Tiling
        // constructor, but spot-check the covering anyway.
        for x in -5..5 {
            for y in -5..5 {
                let p = Point::xy(x, y);
                let c = tiling.covering(&p).unwrap();
                assert_eq!(&c.translation + &c.element, p);
            }
        }
    }

    #[test]
    fn trivial_prototile_tiles_with_the_full_lattice() {
        let single = Prototile::new(vec![Point::zero(2)]).unwrap();
        let witnesses = tiling_sublattices(&single).unwrap();
        assert_eq!(witnesses.len(), 1);
        assert_eq!(witnesses[0].index(), 1);
    }

    #[test]
    fn searches_past_the_entry_ceiling_are_errors_before_enumerating() {
        // {0, e_1} in `dim` dimensions has 2^dim − 1 candidates of index 2.
        let pair = |dim: usize| {
            let mut e1 = vec![0; dim];
            e1[0] = 1;
            Prototile::new(vec![Point::zero(dim), Point::new(e1)]).unwrap()
        };
        let twelve = tiling_sublattices(&pair(12)).unwrap();
        assert!(!twelve.is_empty() && twelve.len() < 4095);
        for (shape, candidates) in [
            (shapes::chebyshev_ball(5, 1).unwrap(), Some(6_174_066_262)),
            (pair(20), Some((1 << 20) - 1)),
            (pair(256), None),
        ] {
            let err = tiling_sublattices(&shape).unwrap_err();
            assert_eq!(
                err,
                TilingError::SearchTooLarge {
                    dim: shape.dim(),
                    size: shape.len() as u64,
                    candidates,
                }
            );
            assert!(err.to_string().starts_with("shape of"), "{err}");
            assert!(find_sublattice_tiling(&shape).is_err());
        }
    }

    #[test]
    fn is_transversal_rejects_wrong_index() {
        let n = shapes::chebyshev_ball(2, 1).unwrap();
        let small = Sublattice::scaled(2, 2).unwrap(); // index 4 ≠ 9
        assert!(!is_transversal(&n, &small).unwrap());
    }

    #[test]
    fn disconnected_prototile_with_prime_size() {
        // {0, (2,0), (4,0)} has prime size 3, hits all residues mod 3 in x, and so
        // tiles Z² with ⟨(3,0),(0,1)⟩ …
        let n = Prototile::from_cells(&[(0, 0), (2, 0), (4, 0)]).unwrap();
        let lambda = Sublattice::from_vectors(&[Point::xy(3, 0), Point::xy(0, 1)]).unwrap();
        assert!(is_transversal(&n, &lambda).unwrap());
        assert!(admits_sublattice_tiling(&n).unwrap());
        // … whereas {0, (1,0), (3,0)} does not tile at all (size 3 is prime, so the
        // sublattice search is conclusive by Szegedy's theorem).
        let bad = Prototile::from_cells(&[(0, 0), (1, 0), (3, 0)]).unwrap();
        assert!(!admits_sublattice_tiling(&bad).unwrap());
    }

    #[test]
    fn three_dimensional_box_tiles() {
        let mut cells = Vec::new();
        for x in 0..2 {
            for y in 0..2 {
                for z in 0..2 {
                    cells.push(Point::xyz(x, y, z));
                }
            }
        }
        let cube = Prototile::new(cells).unwrap();
        assert!(admits_sublattice_tiling(&cube).unwrap());
        let tiling = find_sublattice_tiling(&cube).unwrap().unwrap();
        assert_eq!(tiling.slot_count(), 8);
    }
}
