//! Full-rank sublattices of `Z^d`, their indices, cosets and canonical representatives.
//!
//! In the paper, the translation set `T` of a tiling is very often a *sublattice*
//! `Λ ⊆ L ≅ Z^d` of index `m = |N|`: the prototile `N` is then a transversal (a
//! complete, repetition-free set of coset representatives) of `Λ`. This module
//! provides the coset arithmetic needed to (1) test whether a prototile is such a
//! transversal, (2) reduce an arbitrary lattice point to its canonical coset
//! representative — which is how schedules answer "which time slot does the sensor at
//! `p` get?" in `O(d²)` — and (3) enumerate all sublattices of a given index, the
//! search space of the tiling-existence decision procedure.

use crate::error::{LatticeError, Result};
use crate::hnf::{floor_div, hermite_normal_form};
use crate::matrix::IntMatrix;
use crate::point::Point;
use crate::snf::smith_invariant_factors;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A full-rank sublattice `Λ ⊆ Z^d`, represented by the Hermite normal form of a
/// generating basis.
///
/// Two [`Sublattice`] values compare equal iff they describe the same subgroup of
/// `Z^d`, regardless of which basis they were constructed from.
///
/// # Examples
///
/// ```
/// use latsched_lattice::{Point, Sublattice};
///
/// // The sublattice generated by (1, 2) and (2, -1) has index 5 in Z².
/// let lambda = Sublattice::from_vectors(&[Point::xy(1, 2), Point::xy(2, -1)]).unwrap();
/// assert_eq!(lambda.index(), 5);
/// assert!(lambda.contains(&Point::xy(3, 1)).unwrap());      // (1,2) + (2,-1)
/// assert!(!lambda.contains(&Point::xy(1, 0)).unwrap());
/// assert_eq!(lambda.coset_representatives().len(), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Sublattice {
    dim: usize,
    /// Hermite normal form of the basis: upper triangular, positive diagonal.
    hnf: IntMatrix,
    index: u64,
}

impl Sublattice {
    /// Constructs a sublattice from a square basis matrix whose *rows* generate it.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::SingularBasis`] if the rows are linearly dependent,
    /// [`LatticeError::ShapeMismatch`] if the matrix is not square, and
    /// [`LatticeError::Overflow`] on arithmetic overflow.
    pub fn from_basis(basis: &IntMatrix) -> Result<Self> {
        let hnf = hermite_normal_form(basis)?;
        let det = hnf.determinant()?;
        let index = u64::try_from(det).map_err(|_| LatticeError::Overflow)?;
        Ok(Sublattice {
            dim: hnf.rows(),
            hnf,
            index,
        })
    }

    /// Constructs a sublattice generated by the given vectors (which must form a
    /// square, nonsingular basis).
    ///
    /// # Errors
    ///
    /// Same as [`Sublattice::from_basis`], plus [`LatticeError::EmptyBasis`] if no
    /// vectors are given.
    pub fn from_vectors(vectors: &[Point]) -> Result<Self> {
        let matrix = IntMatrix::from_points(vectors)?;
        Sublattice::from_basis(&matrix)
    }

    /// The sublattice `k·Z^d` (every coordinate a multiple of `k`).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidIndex`] if `k == 0` or
    /// [`LatticeError::InvalidDimension`] if `dim == 0`.
    pub fn scaled(dim: usize, k: u64) -> Result<Self> {
        if dim == 0 {
            return Err(LatticeError::InvalidDimension(0));
        }
        if k == 0 {
            return Err(LatticeError::InvalidIndex(0));
        }
        let k = i64::try_from(k).map_err(|_| LatticeError::Overflow)?;
        Sublattice::from_basis(&IntMatrix::diagonal(&vec![k; dim]))
    }

    /// The trivial sublattice `Z^d` itself (index 1).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidDimension`] if `dim == 0`.
    pub fn full(dim: usize) -> Result<Self> {
        Sublattice::scaled(dim, 1)
    }

    /// Dimension `d` of the ambient lattice.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The index `[Z^d : Λ]`, i.e. the number of cosets.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The Hermite-normal-form basis matrix (rows generate the sublattice).
    pub fn hnf(&self) -> &IntMatrix {
        &self.hnf
    }

    /// The basis vectors in Hermite normal form.
    pub fn basis_vectors(&self) -> Vec<Point> {
        self.hnf.rows_as_points()
    }

    /// The invariant factors of the quotient group `Z^d / Λ`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::Overflow`] on arithmetic overflow (the basis itself is
    /// already known to be nonsingular).
    pub fn invariant_factors(&self) -> Result<Vec<i64>> {
        smith_invariant_factors(&self.hnf)
    }

    /// Reduces `p` to the canonical representative of its coset `p + Λ`.
    ///
    /// The canonical representative is the unique point congruent to `p` whose `i`-th
    /// coordinate lies in `[0, h_ii)`, where `h_ii` are the diagonal entries of the
    /// Hermite normal form. Two points are congruent modulo `Λ` iff they reduce to
    /// the same representative.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if `p.dim() != self.dim()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::{Point, Sublattice};
    /// let lambda = Sublattice::scaled(2, 3).unwrap();
    /// assert_eq!(lambda.reduce(&Point::xy(7, -1)).unwrap(), Point::xy(1, 2));
    /// ```
    pub fn reduce(&self, p: &Point) -> Result<Point> {
        let mut coords = p.coords().to_vec();
        self.reduce_into(&mut coords)?;
        Ok(Point::new(coords))
    }

    /// Reduces a coordinate vector in place to the canonical representative of its
    /// coset, without allocating.
    ///
    /// This is the allocation-free core of [`Sublattice::reduce`] (and of
    /// [`Sublattice::coset_rank`]), exposed for hot paths that reduce many points
    /// through a reusable buffer. The `latsched-engine` crate runs the same
    /// triangular reduction against a flattened copy of the HNF for cache
    /// locality; this method is the reference semantics both must satisfy.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if `coords.len() != self.dim()`.
    pub fn reduce_into(&self, coords: &mut [i64]) -> Result<()> {
        if coords.len() != self.dim {
            return Err(LatticeError::DimensionMismatch {
                expected: self.dim,
                found: coords.len(),
            });
        }
        for i in 0..self.dim {
            let pivot = self.hnf.get(i, i);
            let q = floor_div(coords[i], pivot);
            if q != 0 {
                for (j, c) in coords.iter_mut().enumerate().skip(i) {
                    *c -= q * self.hnf.get(i, j);
                }
            }
        }
        Ok(())
    }

    /// The dense index of the coset of `p` in `{0, …, index − 1}`.
    ///
    /// The canonical representatives live in the box `∏_i [0, h_ii)` spanned by the
    /// Hermite-normal-form diagonal, so the mixed-radix value of the representative
    /// (last coordinate fastest) is a bijection between cosets and
    /// `{0, …, index − 1}`; the index equals the product of the diagonal, which is
    /// also the product of the Smith invariant factors of the quotient group (see
    /// [`Sublattice::invariant_factors`]). The numbering matches the enumeration
    /// order of [`Sublattice::coset_representatives`]:
    /// `reps[lambda.coset_rank(&reps[k])?] == reps[k]` for every `k`.
    ///
    /// This is the indexing scheme the `latsched-engine` crate uses to flatten a
    /// periodic schedule into a contiguous slot table.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if `p.dim() != self.dim()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::{Point, Sublattice};
    /// let lambda = Sublattice::scaled(2, 3).unwrap();
    /// // Canonical representative of (7, -1) is (1, 2); rank = 1·3 + 2 = 5.
    /// assert_eq!(lambda.coset_rank(&Point::xy(7, -1)).unwrap(), 5);
    /// ```
    pub fn coset_rank(&self, p: &Point) -> Result<u64> {
        if p.dim() != self.dim {
            return Err(LatticeError::DimensionMismatch {
                expected: self.dim,
                found: p.dim(),
            });
        }
        let mut coords = p.coords().to_vec();
        self.reduce_into(&mut coords)?;
        let mut rank = 0u64;
        for (i, &c) in coords.iter().enumerate() {
            rank = rank * self.hnf.get(i, i) as u64 + c as u64;
        }
        Ok(rank)
    }

    /// The canonical coset representative with the given dense rank (the inverse of
    /// [`Sublattice::coset_rank`]).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidIndex`] if `rank >= self.index()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::{Point, Sublattice};
    /// let lambda = Sublattice::scaled(2, 3).unwrap();
    /// assert_eq!(lambda.coset_of_rank(5).unwrap(), Point::xy(1, 2));
    /// ```
    pub fn coset_of_rank(&self, rank: u64) -> Result<Point> {
        if rank >= self.index {
            return Err(LatticeError::InvalidIndex(rank));
        }
        let mut coords = vec![0i64; self.dim];
        let mut rest = rank;
        for i in (0..self.dim).rev() {
            let radix = self.hnf.get(i, i) as u64;
            coords[i] = (rest % radix) as i64;
            rest /= radix;
        }
        Ok(Point::new(coords))
    }

    /// Returns `true` if `p ∈ Λ`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if `p.dim() != self.dim()`.
    pub fn contains(&self, p: &Point) -> Result<bool> {
        Ok(self.reduce(p)?.is_zero())
    }

    /// Returns `true` if `a` and `b` lie in the same coset of `Λ`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if either dimension differs.
    pub fn congruent(&self, a: &Point, b: &Point) -> Result<bool> {
        Ok(self.reduce(a)? == self.reduce(b)?)
    }

    /// Expresses a sublattice member `p = Σ x_i · h_i` in terms of the HNF basis rows
    /// `h_i`, returning the integer coefficients, or `None` if `p ∉ Λ`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if `p.dim() != self.dim()`.
    pub fn coefficients(&self, p: &Point) -> Result<Option<Vec<i64>>> {
        if p.dim() != self.dim {
            return Err(LatticeError::DimensionMismatch {
                expected: self.dim,
                found: p.dim(),
            });
        }
        let mut coords = p.coords().to_vec();
        let mut coeffs = vec![0i64; self.dim];
        for i in 0..self.dim {
            let pivot = self.hnf.get(i, i);
            if coords[i] % pivot != 0 {
                return Ok(None);
            }
            let x = coords[i] / pivot;
            coeffs[i] = x;
            if x != 0 {
                for (j, c) in coords.iter_mut().enumerate().skip(i) {
                    *c -= x * self.hnf.get(i, j);
                }
            }
        }
        if coords.iter().all(|&c| c == 0) {
            Ok(Some(coeffs))
        } else {
            Ok(None)
        }
    }

    /// Enumerates the canonical coset representatives of `Z^d / Λ`, in lexicographic
    /// order. The result has exactly [`Sublattice::index`] elements.
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::{Point, Sublattice};
    /// let lambda = Sublattice::scaled(2, 2).unwrap();
    /// let reps = lambda.coset_representatives();
    /// assert_eq!(reps.len(), 4);
    /// assert!(reps.contains(&Point::xy(1, 1)));
    /// ```
    pub fn coset_representatives(&self) -> Vec<Point> {
        let mut reps = Vec::with_capacity(self.index as usize);
        let mut current = vec![0i64; self.dim];
        loop {
            reps.push(Point::new(current.clone()));
            // Odometer increment over the box ∏ [0, h_ii).
            let mut i = self.dim;
            loop {
                if i == 0 {
                    return reps;
                }
                i -= 1;
                current[i] += 1;
                if current[i] < self.hnf.get(i, i) {
                    break;
                }
                current[i] = 0;
            }
        }
    }

    /// Returns `true` if `other` is a subgroup of `self` (every basis vector of
    /// `other` belongs to `self`).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if the dimensions differ.
    pub fn contains_sublattice(&self, other: &Sublattice) -> Result<bool> {
        if other.dim != self.dim {
            return Err(LatticeError::DimensionMismatch {
                expected: self.dim,
                found: other.dim,
            });
        }
        for v in other.basis_vectors() {
            if !self.contains(&v)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Enumerates *all* sublattices of `Z^dim` of the given index, via Hermite normal
    /// forms (upper triangular matrices with positive diagonal whose product is
    /// `index`, and entries above each pivot reduced modulo the pivot).
    ///
    /// The number of such sublattices grows roughly like `index^{dim-1}`, so this is
    /// intended for the moderate indices that arise as prototile sizes (`|N|` is the
    /// number of sensors within interference range, typically well under 100).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidDimension`] if `dim == 0` or
    /// [`LatticeError::InvalidIndex`] if `index == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::Sublattice;
    /// // Z² has exactly 7 sublattices of index 4 (σ(4) = 1 + 2 + 4 = 7).
    /// assert_eq!(Sublattice::enumerate_with_index(2, 4).unwrap().len(), 7);
    /// ```
    pub fn enumerate_with_index(dim: usize, index: u64) -> Result<Vec<Sublattice>> {
        if dim == 0 {
            return Err(LatticeError::InvalidDimension(0));
        }
        if index == 0 {
            return Err(LatticeError::InvalidIndex(0));
        }
        let mut out = Vec::new();
        let mut diag = vec![1i64; dim];
        enumerate_diagonals(index as i64, 0, &mut diag, &mut |diag| {
            enumerate_upper_entries(diag, &mut |matrix| {
                let hnf = matrix.clone();
                let index = hnf.determinant().expect("triangular determinant") as u64;
                out.push(Sublattice { dim, hnf, index });
            });
        });
        Ok(out)
    }

    /// The number of sublattices of `Z^dim` of the given index — the length of
    /// [`Sublattice::enumerate_with_index`]'s result — computed without
    /// enumerating them, or `None` if it exceeds `u64::MAX`.
    ///
    /// A Hermite normal form with diagonal `d_1, …, d_dim` has `d_c^(c−1)`
    /// choices above the pivot of column `c`, so the count is the sum, over
    /// ordered factorizations `d_1 ⋯ d_dim = index`, of `Π d_c^(c−1)`. A
    /// dynamic program over the divisors of `index` sums it column by column
    /// in O(dim · divisors²) checked operations. Every partial sum it forms
    /// extends to at least one full factorization (the last column takes
    /// whatever remains), so it is at most the final count, and an overflow
    /// anywhere means the count overflows.
    ///
    /// # Errors
    ///
    /// As for [`Sublattice::enumerate_with_index`].
    ///
    /// # Examples
    ///
    /// ```
    /// use latsched_lattice::Sublattice;
    /// assert_eq!(Sublattice::count_with_index(2, 4).unwrap(), Some(7));
    /// // Z^256 has 2^256 − 1 sublattices of index 2.
    /// assert_eq!(Sublattice::count_with_index(256, 2).unwrap(), None);
    /// ```
    pub fn count_with_index(dim: usize, index: u64) -> Result<Option<u64>> {
        if dim == 0 {
            return Err(LatticeError::InvalidDimension(0));
        }
        if index == 0 {
            return Err(LatticeError::InvalidIndex(0));
        }
        let mut divisors: Vec<u64> = (1..=index.isqrt())
            .filter(|d| index.is_multiple_of(*d))
            .flat_map(|d| [d, index / d])
            .collect();
        divisors.sort_unstable();
        divisors.dedup();
        // ways[k]: the weighted count of the columns so far whose diagonal
        // product is divisors[k].
        let mut ways = vec![0u64; divisors.len()];
        ways[0] = 1;
        for column in 0..dim {
            let exponent = u32::try_from(column).unwrap_or(u32::MAX);
            // The last column completes the product to `index` exactly.
            let first_target = if column + 1 == dim {
                divisors.len() - 1
            } else {
                0
            };
            let mut next = vec![0u64; divisors.len()];
            for (k, &w) in ways.iter().enumerate().filter(|&(_, &w)| w > 0) {
                for (j, &target) in divisors.iter().enumerate().skip(k.max(first_target)) {
                    if !target.is_multiple_of(divisors[k]) {
                        continue;
                    }
                    let term = (target / divisors[k])
                        .checked_pow(exponent)
                        .and_then(|choices| choices.checked_mul(w));
                    match term.and_then(|t| next[j].checked_add(t)) {
                        Some(sum) => next[j] = sum,
                        None => return Ok(None),
                    }
                }
            }
            ways = next;
        }
        Ok(ways.last().copied())
    }
}

/// Recursively enumerates all ways to write `remaining` as an ordered product of
/// `diag.len() - pos` positive factors.
fn enumerate_diagonals(
    remaining: i64,
    pos: usize,
    diag: &mut Vec<i64>,
    emit: &mut impl FnMut(&[i64]),
) {
    if pos == diag.len() - 1 {
        diag[pos] = remaining;
        emit(diag);
        return;
    }
    let mut d = 1;
    while d <= remaining {
        if remaining % d == 0 {
            diag[pos] = d;
            enumerate_diagonals(remaining / d, pos + 1, diag, emit);
        }
        d += 1;
    }
}

/// Enumerates all Hermite normal forms with the given diagonal: every entry above the
/// pivot of column `c` ranges over `[0, diag[c])`. The free entries, in row-major
/// order, advance as an odometer whose last entry varies fastest, so the loop
/// holds no stack frame per entry (a `d`-dimensional form has `d(d−1)/2` of them).
fn enumerate_upper_entries(diag: &[i64], emit: &mut impl FnMut(&IntMatrix)) {
    let n = diag.len();
    let mut matrix = IntMatrix::diagonal(diag);
    // Only entries with more than one value ever move.
    let free: Vec<(usize, usize)> = (0..n)
        .flat_map(|r| (r + 1..n).map(move |c| (r, c)))
        .filter(|&(_, c)| diag[c] > 1)
        .collect();
    'emit: loop {
        emit(&matrix);
        // Advance: step the fastest entry that has a next value, resetting
        // the ones after it; when none has, every form was emitted.
        for &(r, c) in free.iter().rev() {
            let v = matrix.get(r, c) + 1;
            if v < diag[c] {
                matrix.set(r, c, v);
                continue 'emit;
            }
            matrix.set(r, c, 0);
        }
        return;
    }
}

impl fmt::Debug for Sublattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sublattice(dim={}, index={}, hnf rows={:?})",
            self.dim,
            self.index,
            self.basis_vectors()
        )
    }
}

impl fmt::Display for Sublattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Λ⟨")?;
        for (i, v) in self.basis_vectors().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩ of index {}", self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn index_and_basis() {
        let s = Sublattice::from_vectors(&[Point::xy(2, 0), Point::xy(0, 3)]).unwrap();
        assert_eq!(s.index(), 6);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.basis_vectors(), vec![Point::xy(2, 0), Point::xy(0, 3)]);
    }

    #[test]
    fn equal_sublattices_from_different_bases() {
        let a = Sublattice::from_vectors(&[Point::xy(2, 0), Point::xy(0, 2)]).unwrap();
        let b = Sublattice::from_vectors(&[Point::xy(2, 2), Point::xy(0, 2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_and_contains() {
        let s = Sublattice::from_vectors(&[Point::xy(1, 2), Point::xy(2, -1)]).unwrap();
        assert_eq!(s.index(), 5);
        // Every reduction is idempotent and congruent to the input.
        for x in -6..6 {
            for y in -6..6 {
                let p = Point::xy(x, y);
                let r = s.reduce(&p).unwrap();
                assert_eq!(s.reduce(&r).unwrap(), r, "reduce must be idempotent");
                assert!(
                    s.contains(&(&p - &r)).unwrap(),
                    "p - reduce(p) must be in Λ"
                );
            }
        }
        assert!(s.contains(&Point::xy(0, 0)).unwrap());
        assert!(s.contains(&Point::xy(1, 2)).unwrap());
        assert!(s.contains(&Point::xy(3, 1)).unwrap());
        assert!(!s.contains(&Point::xy(1, 0)).unwrap());
    }

    #[test]
    fn reduction_classes_partition_points() {
        // The number of distinct canonical representatives seen over a large window
        // equals the index.
        let s = Sublattice::from_vectors(&[Point::xy(3, 1), Point::xy(-1, 3)]).unwrap();
        assert_eq!(s.index(), 10);
        let mut reps = BTreeSet::new();
        for x in -10..10 {
            for y in -10..10 {
                reps.insert(s.reduce(&Point::xy(x, y)).unwrap());
            }
        }
        assert_eq!(reps.len(), 10);
    }

    #[test]
    fn coset_representatives_are_canonical_and_complete() {
        let s = Sublattice::from_vectors(&[Point::xy(2, 1), Point::xy(0, 4)]).unwrap();
        assert_eq!(s.index(), 8);
        let reps = s.coset_representatives();
        assert_eq!(reps.len(), 8);
        let set: BTreeSet<_> = reps.iter().cloned().collect();
        assert_eq!(set.len(), 8, "representatives must be distinct");
        for r in &reps {
            assert_eq!(&s.reduce(r).unwrap(), r, "each representative is canonical");
        }
    }

    #[test]
    fn congruence_is_translation_invariant() {
        let s = Sublattice::from_vectors(&[Point::xy(2, 1), Point::xy(-1, 2)]).unwrap();
        let t = Point::xy(3, -4);
        for x in -3..3 {
            for y in -3..3 {
                let p = Point::xy(x, y);
                let q = Point::xy(x + 1, y - 2);
                let c1 = s.congruent(&p, &q).unwrap();
                let c2 = s.congruent(&(&p + &t), &(&q + &t)).unwrap();
                assert_eq!(c1, c2);
            }
        }
    }

    #[test]
    fn coefficients_round_trip() {
        let s = Sublattice::from_vectors(&[Point::xy(2, 1), Point::xy(0, 3)]).unwrap();
        let basis = s.basis_vectors();
        for a in -3..3_i64 {
            for b in -3..3_i64 {
                let p = basis[0].scaled(a) + basis[1].scaled(b);
                let coeffs = s.coefficients(&p).unwrap().expect("member of sublattice");
                assert_eq!(coeffs, vec![a, b]);
            }
        }
        assert_eq!(s.coefficients(&Point::xy(1, 0)).unwrap(), None);
    }

    #[test]
    fn scaled_and_full() {
        let z2 = Sublattice::full(2).unwrap();
        assert_eq!(z2.index(), 1);
        assert!(z2.contains(&Point::xy(123, -456)).unwrap());
        let three = Sublattice::scaled(2, 3).unwrap();
        assert_eq!(three.index(), 9);
        assert!(three.contains(&Point::xy(3, -6)).unwrap());
        assert!(!three.contains(&Point::xy(3, 1)).unwrap());
        assert!(Sublattice::scaled(0, 3).is_err());
        assert!(Sublattice::scaled(2, 0).is_err());
    }

    #[test]
    fn contains_sublattice_checks_inclusion() {
        let coarse = Sublattice::scaled(2, 2).unwrap();
        let fine = Sublattice::scaled(2, 4).unwrap();
        assert!(coarse.contains_sublattice(&fine).unwrap());
        assert!(!fine.contains_sublattice(&coarse).unwrap());
    }

    #[test]
    fn enumerate_with_index_counts_match_theory() {
        // The number of sublattices of Z² of index m is σ(m) (sum of divisors).
        let sigma = |m: u64| -> usize {
            (1..=m)
                .filter(|d| m.is_multiple_of(*d))
                .map(|d| d as usize)
                .sum()
        };
        for m in 1..=12u64 {
            let subs = Sublattice::enumerate_with_index(2, m).unwrap();
            assert_eq!(subs.len(), sigma(m), "index {m}");
            let distinct: BTreeSet<_> = subs.iter().map(|s| s.hnf().clone()).collect();
            assert_eq!(distinct.len(), subs.len(), "no duplicates for index {m}");
            for s in &subs {
                assert_eq!(s.index(), m);
            }
        }
    }

    #[test]
    fn count_with_index_matches_enumeration_without_enumerating() {
        for dim in 1..=4 {
            for index in 1..=12u64 {
                let listed = Sublattice::enumerate_with_index(dim, index).unwrap().len();
                assert_eq!(
                    Sublattice::count_with_index(dim, index).unwrap(),
                    Some(listed as u64),
                    "dim {dim} index {index}"
                );
            }
        }
        // The 4-D and 5-D Moore balls, and a 2-point shape in 16, 64 and 65
        // dimensions: 2^dim − 1 sublattices of index 2.
        assert_eq!(Sublattice::count_with_index(4, 81).unwrap(), Some(925_771));
        assert_eq!(
            Sublattice::count_with_index(5, 243).unwrap(),
            Some(6_174_066_262)
        );
        assert_eq!(Sublattice::count_with_index(16, 2).unwrap(), Some(65_535));
        assert_eq!(Sublattice::count_with_index(64, 2).unwrap(), Some(u64::MAX));
        assert_eq!(Sublattice::count_with_index(65, 2).unwrap(), None);
        assert_eq!(Sublattice::count_with_index(1 << 20, 1).unwrap(), Some(1));
        assert!(Sublattice::count_with_index(0, 4).is_err());
        assert!(Sublattice::count_with_index(2, 0).is_err());
    }

    /// An FNV-1a fingerprint of an enumeration: every HNF entry, row-major,
    /// in emission order.
    fn order_fingerprint(subs: &[Sublattice]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for s in subs {
            for r in 0..s.dim() {
                for &entry in s.hnf().row(r) {
                    hash = (hash ^ entry as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn enumeration_order_is_pinned() {
        // Search rankings break ties by candidate order, so the emission
        // order is part of the contract: diagonals in lexicographic order of
        // their factorization, then entries above the pivots with the last
        // free entry (row-major) varying fastest.
        let rows = |s: &Sublattice| (0..2).map(|r| s.hnf().row(r).to_vec()).collect::<Vec<_>>();
        let four: Vec<Vec<Vec<i64>>> = Sublattice::enumerate_with_index(2, 4)
            .unwrap()
            .iter()
            .map(rows)
            .collect();
        assert_eq!(
            four,
            [
                [[1, 0], [0, 4]],
                [[1, 1], [0, 4]],
                [[1, 2], [0, 4]],
                [[1, 3], [0, 4]],
                [[2, 0], [0, 2]],
                [[2, 1], [0, 2]],
                [[4, 0], [0, 1]],
            ]
        );
        // Fingerprints of the full order for every dim 1..=4 and index 1..=8.
        const PINNED: [[u64; 8]; 4] = [
            [
                0xaf63bc4c8601b62c,
                0xaf63bf4c8601bb45,
                0xaf63be4c8601b992,
                0xaf63b94c8601b113,
                0xaf63b84c8601af60,
                0xaf63bb4c8601b479,
                0xaf63ba4c8601b2c6,
                0xaf63c54c8601c577,
            ],
            [
                0xad2acb7747985917,
                0xb90992b7f2c6eca7,
                0x1b5964ccc76a2e88,
                0xeecdf66d19e840e5,
                0x041254f605127a89,
                0xc930eb90a0992b0e,
                0xb1033eef83ba9030,
                0x71d70b0d1d20baed,
            ],
            [
                0x5f490f070d449c5c,
                0x5aa662e75f7298c0,
                0x0fe0a9c62759892b,
                0xb02ba1b8d243b8ac,
                0xf4a77e00306b2b56,
                0xe974a9cd407588b5,
                0xd3f25e3026ed80f7,
                0xa35b997dc4731cd8,
            ],
            [
                0x8d4508b68122c9a9,
                0x38751427ffa737f9,
                0x9e0ad124de40d069,
                0xad4ee2d7ec014a97,
                0x17eb8ad4ab30f18d,
                0x0e75880bf80152a7,
                0x3ae9824adcdfa5a1,
                0x306ca4331074d673,
            ],
        ];
        let mut got = [[0u64; 8]; 4];
        for dim in 1..=4 {
            for index in 1..=8u64 {
                let subs = Sublattice::enumerate_with_index(dim, index).unwrap();
                got[dim - 1][index as usize - 1] = order_fingerprint(&subs);
            }
        }
        assert_eq!(got, PINNED, "{got:#x?}");
    }

    #[test]
    fn enumerate_with_index_dimension_three() {
        // Number of sublattices of Z³ of index 2 is 1 + 2 + 4 = 7.
        let subs = Sublattice::enumerate_with_index(3, 2).unwrap();
        assert_eq!(subs.len(), 7);
    }

    #[test]
    fn enumerate_rejects_degenerate_inputs() {
        assert!(Sublattice::enumerate_with_index(0, 4).is_err());
        assert!(Sublattice::enumerate_with_index(2, 0).is_err());
    }

    #[test]
    fn dimension_mismatch_errors() {
        let s = Sublattice::scaled(2, 2).unwrap();
        assert!(s.reduce(&Point::xyz(1, 2, 3)).is_err());
        assert!(s.contains(&Point::xyz(1, 2, 3)).is_err());
        assert!(s.coefficients(&Point::xyz(1, 2, 3)).is_err());
        let s3 = Sublattice::scaled(3, 2).unwrap();
        assert!(s.contains_sublattice(&s3).is_err());
    }

    #[test]
    fn coset_rank_matches_representative_enumeration_order() {
        for basis in [
            [Point::xy(3, 0), Point::xy(0, 3)],
            [Point::xy(1, 2), Point::xy(2, -1)],
            [Point::xy(3, 1), Point::xy(-1, 3)],
            [Point::xy(2, 1), Point::xy(0, 4)],
        ] {
            let s = Sublattice::from_vectors(&basis).unwrap();
            let reps = s.coset_representatives();
            for (k, rep) in reps.iter().enumerate() {
                assert_eq!(s.coset_rank(rep).unwrap(), k as u64, "{s}");
                assert_eq!(&s.coset_of_rank(k as u64).unwrap(), rep, "{s}");
            }
        }
    }

    #[test]
    fn coset_rank_is_constant_exactly_on_cosets() {
        let s = Sublattice::from_vectors(&[Point::xy(3, 1), Point::xy(-1, 3)]).unwrap();
        for x in -7..7 {
            for y in -7..7 {
                let p = Point::xy(x, y);
                let rank = s.coset_rank(&p).unwrap();
                assert!(rank < s.index());
                assert_eq!(
                    rank,
                    s.coset_rank(&s.reduce(&p).unwrap()).unwrap(),
                    "rank must agree with the canonical representative's rank"
                );
                let rep = s.coset_of_rank(rank).unwrap();
                assert!(s.congruent(&p, &rep).unwrap());
            }
        }
    }

    #[test]
    fn reduce_into_matches_reduce() {
        let s = Sublattice::from_vectors(&[Point::xy(2, 1), Point::xy(0, 4)]).unwrap();
        for x in -5..5 {
            for y in -5..5 {
                let mut coords = [x, y];
                s.reduce_into(&mut coords).unwrap();
                assert_eq!(
                    Point::new(coords.to_vec()),
                    s.reduce(&Point::xy(x, y)).unwrap()
                );
            }
        }
        let mut wrong = [1i64, 2, 3];
        assert!(s.reduce_into(&mut wrong).is_err());
    }

    #[test]
    fn coset_rank_rejects_bad_inputs() {
        let s = Sublattice::scaled(2, 2).unwrap();
        assert!(s.coset_rank(&Point::xyz(1, 2, 3)).is_err());
        assert!(s.coset_of_rank(4).is_err());
        assert_eq!(s.coset_of_rank(3).unwrap(), Point::xy(1, 1));
    }

    #[test]
    fn invariant_factors_of_quotient() {
        let s = Sublattice::scaled(2, 2).unwrap();
        assert_eq!(s.invariant_factors().unwrap(), vec![2, 2]);
        let c = Sublattice::from_vectors(&[Point::xy(1, 2), Point::xy(-2, 0)]).unwrap();
        assert_eq!(c.invariant_factors().unwrap(), vec![1, 4]);
    }
}
