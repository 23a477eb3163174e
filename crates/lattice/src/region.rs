//! Finite regions of the lattice.
//!
//! The paper's schedules are defined for the infinite lattice; real deployments and
//! all verification, simulation and benchmarking code restrict attention to a finite
//! window `D ⊂ L` (see the paper's conclusions on restricting schedules to finite
//! subsets). [`BoxRegion`] is the axis-aligned box used everywhere for such windows,
//! and [`ball_points`] enumerates metric balls used to build neighbourhood prototiles.

use crate::error::{LatticeError, Result};
use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The metric used when constructing ball-shaped neighbourhoods (Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Metric {
    /// Chebyshev (`ℓ∞`) metric: `max_i |x_i|`.
    Chebyshev,
    /// Euclidean (`ℓ²`) metric; the ball of radius `r` contains points with
    /// `Σ x_i² ≤ r²`.
    Euclidean,
    /// Manhattan (`ℓ¹`) metric: `Σ |x_i|`.
    Manhattan,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Chebyshev => write!(f, "chebyshev"),
            Metric::Euclidean => write!(f, "euclidean"),
            Metric::Manhattan => write!(f, "manhattan"),
        }
    }
}

/// An axis-aligned box `{p : min_i ≤ p_i ≤ max_i}` of lattice points (inclusive on
/// both ends).
///
/// # Examples
///
/// ```
/// use latsched_lattice::{BoxRegion, Point};
///
/// let window = BoxRegion::square_window(2, 4).unwrap(); // [0,4)²
/// assert_eq!(window.len(), 16);
/// assert!(window.contains(&Point::xy(3, 0)));
/// assert!(!window.contains(&Point::xy(4, 0)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct BoxRegion {
    min: Point,
    max: Point,
}

impl BoxRegion {
    /// Creates a box from inclusive corner points.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::DimensionMismatch`] if the corners have different
    /// dimensions, [`LatticeError::OutOfRange`] if `min_i > max_i` for some `i`
    /// and [`LatticeError::Overflow`] if the box holds more points than a `u64`
    /// counts (so [`BoxRegion::len`] never wraps).
    pub fn new(min: Point, max: Point) -> Result<Self> {
        if min.dim() != max.dim() {
            return Err(LatticeError::DimensionMismatch {
                expected: min.dim(),
                found: max.dim(),
            });
        }
        if min.coords().iter().zip(max.coords()).any(|(a, b)| a > b) {
            return Err(LatticeError::OutOfRange);
        }
        let points = min
            .coords()
            .iter()
            .zip(max.coords())
            .try_fold(1u64, |n, (a, b)| {
                n.checked_mul(b.abs_diff(*a).checked_add(1)?)
            });
        if points.is_none() {
            return Err(LatticeError::Overflow);
        }
        Ok(BoxRegion { min, max })
    }

    /// The window `[0, side)^dim` containing `side^dim` points.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidDimension`] if `dim == 0` and
    /// [`LatticeError::OutOfRange`] if `side == 0`.
    pub fn square_window(dim: usize, side: i64) -> Result<Self> {
        if dim == 0 {
            return Err(LatticeError::InvalidDimension(0));
        }
        if side <= 0 {
            return Err(LatticeError::OutOfRange);
        }
        BoxRegion::new(Point::zero(dim), Point::new(vec![side - 1; dim]))
    }

    /// The box `[-radius, radius]^dim` centred at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidDimension`] if `dim == 0` or
    /// [`LatticeError::OutOfRange`] if `radius < 0`.
    pub fn centered(dim: usize, radius: i64) -> Result<Self> {
        if dim == 0 {
            return Err(LatticeError::InvalidDimension(0));
        }
        if radius < 0 {
            return Err(LatticeError::OutOfRange);
        }
        BoxRegion::new(
            Point::new(vec![-radius; dim]),
            Point::new(vec![radius; dim]),
        )
    }

    /// The smallest box containing all the given points, or an error if `points` is
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::EmptyBasis`] if `points` is empty.
    pub fn bounding(points: &[Point]) -> Result<Self> {
        let first = points.first().ok_or(LatticeError::EmptyBasis)?;
        let mut min = first.clone();
        let mut max = first.clone();
        for p in &points[1..] {
            min = min.componentwise_min(p);
            max = max.componentwise_max(p);
        }
        BoxRegion::new(min, max)
    }

    /// Dimension of the box.
    pub fn dim(&self) -> usize {
        self.min.dim()
    }

    /// Inclusive lower corner.
    pub fn min(&self) -> &Point {
        &self.min
    }

    /// Inclusive upper corner.
    pub fn max(&self) -> &Point {
        &self.max
    }

    /// Number of lattice points in the box.
    pub fn len(&self) -> u64 {
        self.min
            .coords()
            .iter()
            .zip(self.max.coords())
            .map(|(a, b)| b.abs_diff(*a) + 1)
            .product()
    }

    /// Returns `true` if the box contains no points (never true for a validly
    /// constructed box, but required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the point lies inside the box.
    pub fn contains(&self, p: &Point) -> bool {
        p.dim() == self.dim()
            && p.coords()
                .iter()
                .zip(self.min.coords().iter().zip(self.max.coords()))
                .all(|(x, (lo, hi))| lo <= x && x <= hi)
    }

    /// Returns the box grown by `margin` in every direction.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::OutOfRange`] if shrinking (`margin < 0`) would empty
    /// the box.
    pub fn grown(&self, margin: i64) -> Result<BoxRegion> {
        BoxRegion::new(
            Point::new(self.min.coords().iter().map(|c| c - margin).collect()),
            Point::new(self.max.coords().iter().map(|c| c + margin).collect()),
        )
    }

    /// Returns the box translated by `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t.dim() != self.dim()`.
    pub fn translated(&self, t: &Point) -> BoxRegion {
        BoxRegion {
            min: &self.min + t,
            max: &self.max + t,
        }
    }

    /// Iterates over all points of the box in lexicographic order.
    pub fn iter(&self) -> Iter {
        Iter {
            region: self.clone(),
            next: Some(self.min.clone()),
        }
    }

    /// Collects all points of the box in lexicographic order.
    pub fn points(&self) -> Vec<Point> {
        self.iter().collect()
    }
}

impl IntoIterator for &BoxRegion {
    type Item = Point;
    type IntoIter = Iter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the points of a [`BoxRegion`] in lexicographic order.
#[derive(Clone, Debug)]
pub struct Iter {
    region: BoxRegion,
    next: Option<Point>,
}

impl Iterator for Iter {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let current = self.next.take()?;
        // Compute the successor (odometer with per-coordinate bounds).
        let mut coords = current.coords().to_vec();
        let dim = coords.len();
        let mut i = dim;
        let advanced = loop {
            if i == 0 {
                break false;
            }
            i -= 1;
            if coords[i] < self.region.max.coord(i) {
                coords[i] += 1;
                for (j, c) in coords.iter_mut().enumerate().skip(i + 1) {
                    *c = self.region.min.coord(j);
                }
                break true;
            }
        };
        self.next = if advanced {
            Some(Point::new(coords))
        } else {
            None
        };
        Some(current)
    }
}

impl fmt::Display for BoxRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Enumerates the lattice points of the ball of the given radius around the origin in
/// the given metric, in lexicographic order. For the Euclidean metric the radius is
/// interpreted exactly (`Σ x_i² ≤ r²` with integer `r`).
///
/// # Errors
///
/// Returns [`LatticeError::InvalidDimension`] if `dim == 0` or
/// [`LatticeError::OutOfRange`] if `radius < 0`.
///
/// # Examples
///
/// ```
/// use latsched_lattice::{ball_points, Metric};
///
/// // Figure 2 (left): Chebyshev ball of radius 1 has 9 points.
/// assert_eq!(ball_points(2, 1, Metric::Chebyshev).unwrap().len(), 9);
/// // Figure 2 (middle): Euclidean ball of radius 1 has 5 points.
/// assert_eq!(ball_points(2, 1, Metric::Euclidean).unwrap().len(), 5);
/// ```
pub fn ball_points(dim: usize, radius: i64, metric: Metric) -> Result<Vec<Point>> {
    if dim == 0 {
        return Err(LatticeError::InvalidDimension(0));
    }
    if radius < 0 {
        return Err(LatticeError::OutOfRange);
    }
    let bbox = BoxRegion::centered(dim, radius)?;
    let r2 = (radius as i128) * (radius as i128);
    Ok(bbox
        .iter()
        .filter(|p| match metric {
            Metric::Chebyshev => p.norm_linf() <= radius,
            Metric::Manhattan => p.norm_l1() <= radius,
            Metric::Euclidean => p.norm_sq() <= r2,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_window_counts() {
        let w = BoxRegion::square_window(2, 4).unwrap();
        assert_eq!(w.len(), 16);
        assert_eq!(w.points().len(), 16);
        assert!(!w.is_empty());
        let w3 = BoxRegion::square_window(3, 3).unwrap();
        assert_eq!(w3.len(), 27);
        assert_eq!(w3.iter().count(), 27);
    }

    #[test]
    fn construction_errors() {
        assert!(BoxRegion::new(Point::xy(0, 0), Point::xyz(1, 1, 1)).is_err());
        assert!(BoxRegion::new(Point::xy(2, 0), Point::xy(1, 5)).is_err());
        assert!(BoxRegion::square_window(0, 4).is_err());
        assert!(BoxRegion::square_window(2, 0).is_err());
        assert!(BoxRegion::centered(2, -1).is_err());
        // 2^32 × 2^32 points would wrap a u64 count to zero.
        assert_eq!(
            BoxRegion::square_window(2, 1 << 32),
            Err(LatticeError::Overflow)
        );
        assert_eq!(
            BoxRegion::new(Point::new(vec![i64::MIN]), Point::new(vec![i64::MAX])),
            Err(LatticeError::Overflow)
        );
        let widest = BoxRegion::new(Point::new(vec![i64::MIN]), Point::new(vec![i64::MAX - 1]));
        assert_eq!(widest.unwrap().len(), u64::MAX);
        assert!(BoxRegion::bounding(&[]).is_err());
    }

    #[test]
    fn contains_and_bounds() {
        let b = BoxRegion::new(Point::xy(-1, -2), Point::xy(3, 1)).unwrap();
        assert!(b.contains(&Point::xy(0, 0)));
        assert!(b.contains(&Point::xy(-1, -2)));
        assert!(b.contains(&Point::xy(3, 1)));
        assert!(!b.contains(&Point::xy(4, 0)));
        assert!(!b.contains(&Point::xy(0, 2)));
        assert!(!b.contains(&Point::xyz(0, 0, 0)));
        assert_eq!(b.len(), 5 * 4);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.min(), &Point::xy(-1, -2));
        assert_eq!(b.max(), &Point::xy(3, 1));
    }

    #[test]
    fn iteration_is_lexicographic_and_complete() {
        let b = BoxRegion::new(Point::xy(0, 0), Point::xy(1, 2)).unwrap();
        let pts = b.points();
        assert_eq!(
            pts,
            vec![
                Point::xy(0, 0),
                Point::xy(0, 1),
                Point::xy(0, 2),
                Point::xy(1, 0),
                Point::xy(1, 1),
                Point::xy(1, 2),
            ]
        );
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
    }

    #[test]
    fn iteration_with_negative_min() {
        let b = BoxRegion::centered(2, 1).unwrap();
        let pts = b.points();
        assert_eq!(pts.len(), 9);
        assert!(pts.contains(&Point::xy(-1, -1)));
        assert!(pts.contains(&Point::xy(1, 1)));
        assert!(pts.contains(&Point::xy(0, 0)));
    }

    #[test]
    fn single_point_box() {
        let b = BoxRegion::new(Point::xy(5, 5), Point::xy(5, 5)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.points(), vec![Point::xy(5, 5)]);
    }

    #[test]
    fn grown_and_translated() {
        let b = BoxRegion::square_window(2, 2).unwrap();
        let g = b.grown(1).unwrap();
        assert_eq!(g.min(), &Point::xy(-1, -1));
        assert_eq!(g.max(), &Point::xy(2, 2));
        let t = b.translated(&Point::xy(10, -5));
        assert_eq!(t.min(), &Point::xy(10, -5));
        assert_eq!(t.max(), &Point::xy(11, -4));
        // Shrinking a 2×2 box by 2 would invert it.
        assert!(b.grown(-2).is_err());
    }

    #[test]
    fn bounding_box_of_points() {
        let b =
            BoxRegion::bounding(&[Point::xy(2, -1), Point::xy(-3, 4), Point::xy(0, 0)]).unwrap();
        assert_eq!(b.min(), &Point::xy(-3, -1));
        assert_eq!(b.max(), &Point::xy(2, 4));
    }

    #[test]
    fn ball_sizes_match_figure2() {
        assert_eq!(ball_points(2, 1, Metric::Chebyshev).unwrap().len(), 9);
        assert_eq!(ball_points(2, 1, Metric::Euclidean).unwrap().len(), 5);
        assert_eq!(ball_points(2, 1, Metric::Manhattan).unwrap().len(), 5);
        assert_eq!(ball_points(2, 2, Metric::Chebyshev).unwrap().len(), 25);
        assert_eq!(ball_points(2, 2, Metric::Euclidean).unwrap().len(), 13);
        assert_eq!(ball_points(2, 2, Metric::Manhattan).unwrap().len(), 13);
        assert_eq!(ball_points(3, 1, Metric::Manhattan).unwrap().len(), 7);
        assert_eq!(ball_points(2, 0, Metric::Euclidean).unwrap().len(), 1);
    }

    #[test]
    fn ball_points_contain_origin_and_are_symmetric() {
        for metric in [Metric::Chebyshev, Metric::Euclidean, Metric::Manhattan] {
            let pts = ball_points(2, 2, metric).unwrap();
            assert!(pts.contains(&Point::zero(2)));
            for p in &pts {
                assert!(
                    pts.contains(&p.negated()),
                    "{metric} ball must be symmetric"
                );
            }
        }
    }

    #[test]
    fn ball_errors() {
        assert!(ball_points(0, 1, Metric::Euclidean).is_err());
        assert!(ball_points(2, -1, Metric::Euclidean).is_err());
    }

    #[test]
    fn metric_display() {
        assert_eq!(Metric::Chebyshev.to_string(), "chebyshev");
        assert_eq!(Metric::Euclidean.to_string(), "euclidean");
        assert_eq!(Metric::Manhattan.to_string(), "manhattan");
    }
}
