//! The compiled schedule: a periodic schedule flattened into a dense slot table.
//!
//! [`PeriodicSchedule::slot_of`] reduces the query point with the Hermite normal
//! form of the period sublattice and then looks the canonical representative up in
//! a `BTreeMap`, allocating a `Point` per call. [`CompiledSchedule`] performs the
//! same coset reduction on a stack buffer and replaces the map by a contiguous
//! `Vec<u16>` indexed with the dense coset rank of
//! [`Sublattice::coset_rank`] — an `O(d²)` integer-only query with no allocation
//! and a single cache-friendly table read. Batch entry points evaluate whole
//! regions and point sets in one call on the calling thread.

use crate::error::{EngineError, Result};
use latsched_core::{Deployment, PeriodicSchedule, SlotSource, VerificationReport};
use latsched_lattice::{BoxRegion, DynReducer, FixedReducer, Point, Sublattice};
use std::fmt;

/// Queries of dimension at most this run entirely on the stack; the paper's
/// lattices are 2- or 3-dimensional, so the heap fallback is essentially never
/// taken.
const MAX_STACK_DIM: usize = 8;

/// The largest dense table the compiler will build (2²⁶ cosets ≈ 128 MiB of
/// `u16`s); periods beyond this indicate a misuse of the dense representation.
const MAX_TABLE_ENTRIES: u64 = 1 << 26;

/// A periodic schedule compiled into a dense, contiguous slot table for
/// serving-grade point queries.
///
/// # Examples
///
/// ```
/// use latsched_core::theorem1;
/// use latsched_engine::CompiledSchedule;
/// use latsched_lattice::Point;
/// use latsched_tiling::{find_tiling, shapes};
///
/// let tiling = find_tiling(&shapes::moore())?.unwrap();
/// let schedule = theorem1::schedule_from_tiling(&tiling);
/// let compiled = CompiledSchedule::compile(&schedule)?;
/// let p = Point::xy(1_000_003, -999_999);
/// assert_eq!(compiled.slot_of(&p)? as usize, schedule.slot_of(&p)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledSchedule {
    dim: usize,
    num_slots: usize,
    /// The period sublattice the table is indexed by (kept for interop with the
    /// exact verifier and for re-deriving coset representatives).
    period: Sublattice,
    /// Row-major copy of the period's HNF basis, for the in-place reduction.
    hnf: Vec<i64>,
    /// The HNF diagonal (the mixed-radix radices of the coset rank).
    diag: Vec<i64>,
    /// `table[rank]` is the slot of the coset with that dense rank.
    table: Vec<u16>,
    /// Dimension-specialized, division-free reduction for the paper's 2-D and
    /// 3-D lattices; other dimensions run the runtime-dimension
    /// [`DynReducer`], which is equally division-free but loop-bounded at
    /// runtime.
    fixed: FixedReduce,
}

/// The dimension dispatch of the per-query coset reduction: the hot dimensions
/// get a const-generic [`FixedReducer`] whose `div_euclid` chain is strength-
/// reduced to reciprocal multiplications, and every other dimension gets the
/// runtime-dimension [`DynReducer`] with the same reciprocal arithmetic — no
/// query path pays hardware divisions any more.
#[derive(Clone, PartialEq, Eq, Debug)]
enum FixedReduce {
    D2(FixedReducer<2>),
    D3(FixedReducer<3>),
    Dyn(DynReducer),
}

impl CompiledSchedule {
    /// Flattens a periodic schedule into a dense table.
    ///
    /// # Errors
    ///
    /// * [`EngineError::TooManySlots`] if the schedule has ≥ 2¹⁶ slots;
    /// * [`EngineError::TableTooLarge`] if the period has more than 2²⁶ cosets.
    pub fn compile(schedule: &PeriodicSchedule) -> Result<Self> {
        if schedule.num_slots() > u16::MAX as usize {
            return Err(EngineError::TooManySlots {
                slots: schedule.num_slots(),
            });
        }
        let period = schedule.period().clone();
        if period.index() > MAX_TABLE_ENTRIES {
            return Err(EngineError::TableTooLarge {
                cosets: period.index(),
            });
        }
        let dim = period.dim();
        let mut hnf = Vec::with_capacity(dim * dim);
        let mut diag = Vec::with_capacity(dim);
        for r in 0..dim {
            for c in 0..dim {
                hnf.push(period.hnf().get(r, c));
            }
            diag.push(period.hnf().get(r, r));
        }
        let fixed = match dim {
            2 => FixedReduce::D2(period.fixed_reducer::<2>()?),
            3 => FixedReduce::D3(period.fixed_reducer::<3>()?),
            _ => FixedReduce::Dyn(period.dyn_reducer()?),
        };
        let mut compiled = CompiledSchedule {
            dim,
            num_slots: schedule.num_slots(),
            period,
            hnf,
            diag,
            table: vec![0u16; 0],
            fixed,
        };
        let mut table = vec![0u16; compiled.period.index() as usize];
        for (rep, &slot) in schedule.slot_table() {
            let rank = compiled.rank_of_coords(rep.coords());
            table[rank] = slot as u16;
        }
        compiled.table = table;
        Ok(compiled)
    }

    /// The number of time slots `m`.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The period sublattice the table is indexed by.
    pub fn period(&self) -> &Sublattice {
        &self.period
    }

    /// The number of table entries (one per coset of the period).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// The dense coset rank of a point given by its coordinates: the 2-D and
    /// 3-D cases run the division-free const-generic [`FixedReducer`]; every
    /// other dimension takes the division-free runtime [`DynReducer`] on a
    /// scratch buffer.
    #[inline]
    fn rank_of_coords(&self, coords: &[i64]) -> usize {
        debug_assert_eq!(coords.len(), self.dim);
        match &self.fixed {
            FixedReduce::D2(r) => r.coset_rank_fixed(&mut [coords[0], coords[1]]) as usize,
            FixedReduce::D3(r) => {
                r.coset_rank_fixed(&mut [coords[0], coords[1], coords[2]]) as usize
            }
            FixedReduce::Dyn(r) => {
                if self.dim <= MAX_STACK_DIM {
                    let mut buf = [0i64; MAX_STACK_DIM];
                    buf[..self.dim].copy_from_slice(coords);
                    r.coset_rank_dyn(&mut buf[..self.dim]) as usize
                } else {
                    let mut buf = coords.to_vec();
                    r.coset_rank_dyn(&mut buf) as usize
                }
            }
        }
    }

    /// The slot of the sensor with the given coordinates, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] on a wrong-length slice.
    #[inline]
    pub fn slot_of_coords(&self, coords: &[i64]) -> Result<u16> {
        if coords.len() != self.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.dim,
                found: coords.len(),
            });
        }
        Ok(self.table[self.rank_of_coords(coords)])
    }

    /// The slot of the sensor at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] on a wrong-dimensional point.
    #[inline]
    pub fn slot_of(&self, p: &Point) -> Result<u16> {
        self.slot_of_coords(p.coords())
    }

    /// Returns `true` if the sensor at `p` may broadcast at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] on a wrong-dimensional point.
    pub fn may_transmit(&self, p: &Point, t: u64) -> Result<bool> {
        Ok(t % self.num_slots as u64 == self.slot_of(p)? as u64)
    }

    /// The slots of every point of a box window, in the window's lexicographic
    /// iteration order.
    ///
    /// The reduction is triangular: the quotients of rows `0..d-1` depend only on
    /// the first `d-1` coordinates, so along a window row (last axis varying) the
    /// slot sequence is the table segment of the row's coset prefix cycled with
    /// period `p = h_{d-1,d-1}`. Each row therefore costs one `O(d²)` prefix
    /// reduction plus a cyclic block copy — amortized memcpy speed per point
    /// instead of a full reduction per point.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] on a wrong-dimensional window.
    pub fn slots_of_region(&self, window: &BoxRegion) -> Result<Vec<u16>> {
        self.check_dim(window.dim())?;
        let total = usize::try_from(window.len()).map_err(|_| EngineError::WindowTooLarge {
            points: window.len(),
        })?;
        let mut out = vec![0u16; total];
        let d = self.dim;
        let min = window.min().coords();
        let max = window.max().coords();
        let period = self.diag[d - 1] as usize;
        let row_len = (max[d - 1] - min[d - 1] + 1) as usize;
        let mut cursor = min.to_vec();
        let mut scratch = vec![0i64; d];
        for row_out in out.chunks_exact_mut(row_len) {
            // Reduce the row prefix (rows 0..d-1 of the HNF): afterwards
            // `scratch[..d-1]` is canonical and `scratch[d-1] = y - c` carries the
            // row's phase shift along the last axis.
            scratch.copy_from_slice(&cursor);
            for i in 0..d - 1 {
                let q = scratch[i].div_euclid(self.diag[i]);
                if q != 0 {
                    let row = &self.hnf[i * d..(i + 1) * d];
                    for (c, h) in scratch[i..].iter_mut().zip(&row[i..]) {
                        *c -= q * h;
                    }
                }
            }
            let mut prefix_rank = 0usize;
            for (c, radix) in scratch[..d - 1].iter().zip(&self.diag[..d - 1]) {
                prefix_rank = prefix_rank * *radix as usize + *c as usize;
            }
            let pattern = &self.table[prefix_rank * period..(prefix_rank + 1) * period];
            let mut phase = scratch[d - 1].rem_euclid(period as i64) as usize;

            // Cyclically copy the pattern over the window row.
            let mut copied = 0usize;
            while copied < row_out.len() {
                let n = (period - phase).min(row_out.len() - copied);
                row_out[copied..copied + n].copy_from_slice(&pattern[phase..phase + n]);
                copied += n;
                phase += n;
                if phase == period {
                    phase = 0;
                }
            }

            // Advance the cursor to the start of the next window row.
            for i in (0..d - 1).rev() {
                if cursor[i] < max[i] {
                    cursor[i] += 1;
                    break;
                }
                cursor[i] = min[i];
            }
        }
        Ok(out)
    }

    /// The slots of an arbitrary list of points, in list order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] if any point has the wrong
    /// dimension.
    pub fn slots_of_points(&self, points: &[Point]) -> Result<Vec<u16>> {
        if let Some(bad) = points.iter().find(|p| p.dim() != self.dim) {
            return Err(EngineError::DimensionMismatch {
                expected: self.dim,
                found: bad.dim(),
            });
        }
        Ok(points
            .iter()
            .map(|p| self.table[self.rank_of_coords(p.coords())])
            .collect())
    }

    /// Counts, per slot, how many points of the window transmit in that slot —
    /// the batched counterpart of `latsched_core::verify::slot_histogram`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DimensionMismatch`] on a wrong-dimensional window.
    pub fn slot_histogram(&self, window: &BoxRegion) -> Result<Vec<usize>> {
        let slots = self.slots_of_region(window)?;
        let mut histogram = vec![0usize; self.num_slots];
        for slot in slots {
            histogram[slot as usize] += 1;
        }
        Ok(histogram)
    }

    /// Exactly verifies collision-freedom over the whole infinite lattice, using
    /// this compiled table as the slot backend of the generic checker in
    /// `latsched_core::verify`.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches and lattice-arithmetic errors.
    pub fn verify(&self, deployment: &Deployment) -> Result<VerificationReport> {
        latsched_core::verify::verify_schedule_with(self, deployment).map_err(EngineError::Schedule)
    }

    fn check_dim(&self, found: usize) -> Result<()> {
        if found != self.dim {
            return Err(EngineError::DimensionMismatch {
                expected: self.dim,
                found,
            });
        }
        Ok(())
    }
}

impl SlotSource for CompiledSchedule {
    fn num_slots(&self) -> usize {
        self.num_slots
    }

    fn period(&self) -> &Sublattice {
        &self.period
    }

    fn slot_at(&self, p: &Point) -> latsched_core::Result<usize> {
        match self.slot_of(p) {
            Ok(slot) => Ok(slot as usize),
            Err(_) => Err(latsched_core::ScheduleError::DimensionMismatch {
                expected: self.dim,
                found: p.dim(),
            }),
        }
    }

    fn slots_at(&self, points: &[Point]) -> latsched_core::Result<Vec<usize>> {
        match self.slots_of_points(points) {
            Ok(slots) => Ok(slots.into_iter().map(usize::from).collect()),
            Err(EngineError::DimensionMismatch { expected, found }) => {
                Err(latsched_core::ScheduleError::DimensionMismatch { expected, found })
            }
            Err(EngineError::Schedule(e)) => Err(e),
            // slots_of_points has no other failure mode today; if one appears,
            // surface it as an overflow-class lattice error rather than
            // disguising it as a dimension mismatch.
            Err(_) => Err(latsched_core::ScheduleError::Lattice(
                latsched_lattice::LatticeError::Overflow,
            )),
        }
    }
}

impl fmt::Display for CompiledSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled schedule: {} slots over a {}-entry coset table ({})",
            self.num_slots,
            self.table.len(),
            self.period
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_core::theorem1;
    use latsched_tiling::{find_tiling, shapes};

    fn moore_schedule() -> PeriodicSchedule {
        let tiling = find_tiling(&shapes::moore()).unwrap().unwrap();
        theorem1::schedule_from_tiling(&tiling)
    }

    #[test]
    fn compiled_agrees_with_reference_pointwise() {
        let schedule = moore_schedule();
        let compiled = CompiledSchedule::compile(&schedule).unwrap();
        assert_eq!(compiled.num_slots(), 9);
        assert_eq!(compiled.dim(), 2);
        assert_eq!(compiled.table_len(), 9);
        for x in -15..15 {
            for y in -15..15 {
                let p = Point::xy(x, y);
                assert_eq!(
                    compiled.slot_of(&p).unwrap() as usize,
                    schedule.slot_of(&p).unwrap(),
                    "disagreement at {p}"
                );
            }
        }
    }

    #[test]
    fn batch_apis_match_single_queries() {
        let schedule = moore_schedule();
        let compiled = CompiledSchedule::compile(&schedule).unwrap();
        let window = BoxRegion::new(Point::xy(-9, -5), Point::xy(12, 17)).unwrap();
        let batch = compiled.slots_of_region(&window).unwrap();
        let points = window.points();
        assert_eq!(batch.len(), points.len());
        for (p, &slot) in points.iter().zip(&batch) {
            assert_eq!(slot, compiled.slot_of(p).unwrap(), "at {p}");
        }
        let by_points = compiled.slots_of_points(&points).unwrap();
        assert_eq!(by_points, batch);
        assert_eq!(
            compiled.slot_histogram(&window).unwrap(),
            latsched_core::verify::slot_histogram(&schedule, &window).unwrap()
        );
    }

    #[test]
    fn verify_through_the_compiled_backend() {
        let tiling = find_tiling(&shapes::moore()).unwrap().unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);
        let deployment = theorem1::deployment_for(&tiling);
        let compiled = CompiledSchedule::compile(&schedule).unwrap();
        let report = compiled.verify(&deployment).unwrap();
        assert!(report.collision_free());
        // Same verdict and same work as the reference checker.
        let reference = latsched_core::verify::verify_schedule(&schedule, &deployment).unwrap();
        assert_eq!(report, reference);
    }

    #[test]
    fn four_dimensional_tables_run_the_dyn_reducer() {
        // d = 4 has no const-generic fast path; the table must route queries
        // through the division-free DynReducer and still agree with the
        // reference schedule pointwise.
        let period = Sublattice::scaled(4, 2).unwrap();
        let slots: Vec<(Point, usize)> = period
            .coset_representatives()
            .into_iter()
            .enumerate()
            .map(|(slot, rep)| (rep, slot))
            .collect();
        let num_slots = slots.len();
        let schedule = PeriodicSchedule::new(period, num_slots, slots).unwrap();
        let compiled = CompiledSchedule::compile(&schedule).unwrap();
        assert_eq!(compiled.dim(), 4);
        assert_eq!(compiled.table_len(), 16);
        for x in -3..3 {
            for y in -3..3 {
                for z in -3..3 {
                    for w in -3..3 {
                        let p = Point::new(vec![x, y, z, w]);
                        assert_eq!(
                            compiled.slot_of(&p).unwrap() as usize,
                            schedule.slot_of(&p).unwrap(),
                            "disagreement at {p}"
                        );
                    }
                }
            }
        }
        // The batched region path agrees too.
        let window = BoxRegion::square_window(4, 5).unwrap();
        let batch = compiled.slots_of_region(&window).unwrap();
        for (p, &slot) in window.points().iter().zip(&batch) {
            assert_eq!(slot as usize, schedule.slot_of(p).unwrap(), "at {p}");
        }
    }

    #[test]
    fn may_transmit_matches_slot() {
        let compiled = CompiledSchedule::compile(&moore_schedule()).unwrap();
        let p = Point::xy(4, -7);
        let slot = compiled.slot_of(&p).unwrap() as u64;
        assert!(compiled.may_transmit(&p, slot).unwrap());
        assert!(compiled.may_transmit(&p, slot + 9).unwrap());
        assert!(!compiled.may_transmit(&p, slot + 1).unwrap());
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let compiled = CompiledSchedule::compile(&moore_schedule()).unwrap();
        assert!(compiled.slot_of(&Point::xyz(1, 2, 3)).is_err());
        assert!(compiled.slot_of_coords(&[1, 2, 3]).is_err());
        let window3 = BoxRegion::square_window(3, 4).unwrap();
        assert!(compiled.slots_of_region(&window3).is_err());
        assert!(compiled
            .slots_of_points(&[Point::xy(0, 0), Point::xyz(0, 0, 0)])
            .is_err());
        use latsched_core::SlotSource;
        assert!(compiled.slot_at(&Point::xyz(1, 2, 3)).is_err());
    }

    #[test]
    fn display_names_the_table() {
        let compiled = CompiledSchedule::compile(&moore_schedule()).unwrap();
        let text = compiled.to_string();
        assert!(text.contains("9 slots"));
        assert!(text.contains("9-entry"));
    }
}
