//! Frame compilation: one period of a deterministic schedule, flattened into
//! CSR index lists the simulation kernel can replay without re-deriving it.
//!
//! The schedules of the paper are periodic in time with period `m`: the set of
//! sensors *allowed* to transmit in slot `t` depends only on `t mod m`. A
//! [`FrameSchedule`] therefore precomputes, once, the candidate-transmitter list
//! of every slot of the period ("one frame") as a CSR-style `offsets`/`members`
//! pair; the kernel in [`crate::simkernel`] then replays frames for as many
//! periods as the simulation lasts, touching only the candidates of the current
//! slot instead of scanning every node.
//!
//! The companion [`InterferenceCsr`] flattens the per-node neighbour lists of an
//! interference graph into one contiguous CSR adjacency, so the kernel's
//! interference passes stream over dense index arrays instead of chasing one
//! heap-allocated `Vec` per node. [`FramePlan`] fuses the two: it relabels nodes
//! slot-major so each slot's candidates — and their adjacency data — occupy one
//! contiguous block, which is the layout [`crate::run_frames`] executes.

use crate::error::{EngineError, Result};
use latsched_core::SlotSource;
use latsched_lattice::{mix64, Point};

/// Absorbs a stream of words into a 64-bit content fingerprint (a fast
/// multiply-rotate absorption finished by [`mix64`]); used to content-address
/// compiled artifacts in the engine caches.
pub(crate) fn fingerprint_words(tag: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = mix64(tag ^ 0xA076_1D64_78BD_642F);
    for w in words {
        h = (h.rotate_left(29) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    mix64(h)
}

/// Appends neighbour `id` to a word-grouped (word, bits) entry list: merged
/// into the last entry when that entry covers the same word and the bit is
/// still free, with `node_start` fencing merges to the current node's entries.
/// A duplicate neighbour id keeps its own entry, so per-entry accounting (the
/// kernel's saturation counting and per-entry popcounts) still sees every edge.
fn push_grouped(words: &mut Vec<u32>, bits: &mut Vec<u64>, node_start: usize, id: u32) {
    let word = id / 64;
    let bit = 1u64 << (id % 64);
    match words.last() {
        Some(&w) if words.len() > node_start && w == word && bits.last().unwrap() & bit == 0 => {
            *bits.last_mut().unwrap() |= bit;
        }
        _ => {
            words.push(word);
            bits.push(bit);
        }
    }
}

/// A CSR (compressed sparse row) adjacency of an interference graph: for each
/// node `v`, the ids of the nodes affected by `v`'s broadcasts.
///
/// # Examples
///
/// ```
/// use latsched_engine::InterferenceCsr;
/// let adjacency = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]])?;
/// assert_eq!(adjacency.num_nodes(), 3);
/// assert_eq!(adjacency.edge_count(), 4);
/// assert_eq!(adjacency.neighbours_of(1), &[0, 2]);
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterferenceCsr {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` with the neighbours of `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists.
    targets: Vec<u32>,
    /// Content fingerprint of the adjacency (nodes + edge lists), used by the
    /// engine's plan cache to content-address plans without cloning the CSR.
    fingerprint: u64,
}

impl InterferenceCsr {
    /// Flattens per-node neighbour lists into a CSR adjacency.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NodeOutOfRange`] if a neighbour id is not a valid
    /// node index, and [`EngineError::WindowTooLarge`] if the node or edge count
    /// exceeds the `u32` index space.
    pub fn from_lists<L: AsRef<[usize]>>(lists: &[L]) -> Result<Self> {
        let n = lists.len();
        let edges: usize = lists.iter().map(|l| l.as_ref().len()).sum();
        if n >= u32::MAX as usize || edges >= u32::MAX as usize {
            return Err(EngineError::WindowTooLarge {
                points: n.max(edges) as u64,
            });
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(edges);
        offsets.push(0u32);
        for list in lists {
            for &u in list.as_ref() {
                if u >= n {
                    return Err(EngineError::NodeOutOfRange { node: u, nodes: n });
                }
                targets.push(u as u32);
            }
            offsets.push(targets.len() as u32);
        }
        let fingerprint = fingerprint_words(
            n as u64,
            offsets
                .iter()
                .map(|&o| u64::from(o))
                .chain(targets.iter().map(|&t| u64::from(t))),
        );
        Ok(InterferenceCsr {
            offsets,
            targets,
            fingerprint,
        })
    }

    /// A 64-bit content fingerprint of the adjacency: equal adjacencies always
    /// fingerprint equal, and distinct ones collide with probability `~2^-64`.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed interference edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbours affected by node `v`'s broadcasts.
    #[inline]
    pub fn neighbours_of(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The out-degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }
}

/// One compiled period ("frame") of a deterministic slotted schedule: for every
/// slot of the period, the CSR list of nodes allowed to transmit in that slot.
///
/// Nodes whose assigned slot is outside `0..period` are never candidates —
/// matching the semantics of the per-slot decision `t ≡ slot (mod period)`,
/// which such an assignment can never satisfy.
///
/// # Examples
///
/// ```
/// use latsched_engine::FrameSchedule;
/// // Three nodes in a 2-slot schedule: nodes 0 and 2 share slot 0.
/// let frames = FrameSchedule::from_assignment(&[0, 1, 0], 2)?;
/// assert_eq!(frames.period(), 2);
/// assert_eq!(frames.candidates(0), &[0, 2]);
/// assert_eq!(frames.candidates(1), &[1]);
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrameSchedule {
    period: usize,
    num_nodes: usize,
    /// `offsets[s]..offsets[s + 1]` indexes `members` with slot `s`'s candidates.
    offsets: Vec<u32>,
    /// Candidate node ids grouped by slot, ascending within each slot.
    members: Vec<u32>,
}

impl FrameSchedule {
    /// Buckets a per-node slot assignment into per-slot candidate lists
    /// (a counting sort, so candidates stay sorted by node id).
    ///
    /// A `period` of zero is treated as one, mirroring the clamping of the
    /// simulator's deterministic MAC compilation.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::WindowTooLarge`] if the node count exceeds the
    /// `u32` index space.
    pub fn from_assignment(slots: &[usize], period: usize) -> Result<Self> {
        let period = period.max(1);
        let n = slots.len();
        if n >= u32::MAX as usize {
            return Err(EngineError::WindowTooLarge { points: n as u64 });
        }
        let mut counts = vec![0u32; period];
        for &s in slots {
            if s < period {
                counts[s] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(period + 1);
        let mut total = 0u32;
        offsets.push(0u32);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursors: Vec<u32> = offsets[..period].to_vec();
        let mut members = vec![0u32; total as usize];
        for (v, &s) in slots.iter().enumerate() {
            if s < period {
                members[cursors[s] as usize] = v as u32;
                cursors[s] += 1;
            }
        }
        Ok(FrameSchedule {
            period,
            num_nodes: n,
            offsets,
            members,
        })
    }

    /// Builds the frame of a [`SlotSource`] evaluated at the given sensor
    /// positions: slots are fetched through the batched
    /// [`SlotSource::slots_at`] entry point and bucketed by slot.
    ///
    /// # Errors
    ///
    /// Propagates slot-evaluation errors (wrapped in [`EngineError::Schedule`])
    /// and the size limits of [`FrameSchedule::from_assignment`].
    pub fn from_slot_source<S: SlotSource>(source: &S, positions: &[Point]) -> Result<Self> {
        let slots = source.slots_at(positions).map_err(EngineError::Schedule)?;
        FrameSchedule::from_assignment(&slots, source.num_slots())
    }

    /// The temporal period `m` (number of slots per frame).
    pub fn period(&self) -> usize {
        self.period
    }

    /// The number of nodes the assignment covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The nodes allowed to transmit in the given slot of the period, ascending
    /// by node id.
    #[inline]
    pub fn candidates(&self, slot: usize) -> &[u32] {
        &self.members[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// A [`FrameSchedule`] fused with an [`InterferenceCsr`] into the layout the
/// simulation kernel actually runs: nodes are relabelled slot-major (all of
/// slot 0's candidates first, then slot 1's, …, silent nodes last), so one
/// slot's transmitter ids form a contiguous range and their adjacency data is
/// one contiguous streamed block instead of a gather across the whole network.
/// The adjacency is stored word-grouped over the relabelled id space
/// (bitset-word index + neighbour bits per entry). Of its conflicts the plan
/// keeps one bit, [`FramePlan::conflict_free`], which decides whether a
/// scheduled run replays in closed form.
///
/// All simulation metrics are aggregates, so the relabelling is invisible to
/// callers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FramePlan {
    period: usize,
    num_nodes: usize,
    /// `slot_starts[s]..slot_starts[s + 1]` is the contiguous relabelled id
    /// range of slot `s`'s candidates; ids `≥ slot_starts[period]` are silent.
    slot_starts: Vec<u32>,
    /// `mask_offsets[v]..mask_offsets[v + 1]` indexes the word-grouped
    /// adjacency entries of relabelled node `v`.
    mask_offsets: Vec<u32>,
    /// Bitset word index of each entry (relabelled id space).
    mask_words: Vec<u32>,
    /// Neighbour bits within the word of each entry.
    mask_bits: Vec<u64>,
    /// Out-degree per relabelled node.
    degrees: Vec<u32>,
    /// `old_of_new[v]` is the pre-relabelling id of relabelled node `v`; the
    /// counter-based RNG draws of the simulation kernel are keyed by these
    /// original ids so relabelling never changes stochastic outcomes.
    old_of_new: Vec<u32>,
    /// Whether no slot conflicts: no candidate's neighbour is a candidate of
    /// the same slot, and no two same-slot candidates share a neighbour.
    conflict_free: bool,
    /// 64-bit content fingerprint of the plan, used to content-address derived
    /// artifacts (compiled traffic traces) without hashing the whole plan per
    /// lookup.
    fingerprint: u64,
}

impl FramePlan {
    /// Fuses a frame schedule with an interference adjacency.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NodeCountMismatch`] if the two were built for
    /// different node counts.
    pub fn new(frames: &FrameSchedule, adjacency: &InterferenceCsr) -> Result<Self> {
        let _span = crate::telemetry::span(crate::telemetry::Stage::PlanFuse);
        if frames.num_nodes() != adjacency.num_nodes() {
            return Err(EngineError::NodeCountMismatch {
                frames: frames.num_nodes(),
                adjacency: adjacency.num_nodes(),
            });
        }
        let n = frames.num_nodes();
        let period = frames.period();

        // Relabelling: candidates slot by slot, then the silent nodes.
        let mut old_of_new: Vec<u32> = Vec::with_capacity(n);
        let mut slot_starts = Vec::with_capacity(period + 1);
        slot_starts.push(0u32);
        for s in 0..period {
            old_of_new.extend_from_slice(frames.candidates(s));
            slot_starts.push(old_of_new.len() as u32);
        }
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        for (old, new) in new_of_old.iter_mut().enumerate() {
            if *new == u32::MAX {
                *new = old_of_new.len() as u32;
                old_of_new.push(old as u32);
            }
        }

        // Permuted, word-grouped adjacency over the relabelled id space.
        let mut mask_offsets = Vec::with_capacity(n + 1);
        let mut mask_words = Vec::with_capacity(adjacency.edge_count());
        let mut mask_bits = Vec::with_capacity(adjacency.edge_count());
        let mut degrees = Vec::with_capacity(n);
        mask_offsets.push(0u32);
        for &old_v in &old_of_new {
            let node_start = mask_words.len();
            for &old_u in adjacency.neighbours_of(old_v as usize) {
                push_grouped(
                    &mut mask_words,
                    &mut mask_bits,
                    node_start,
                    new_of_old[old_u as usize],
                );
            }
            degrees.push(adjacency.degree(old_v as usize) as u32);
            mask_offsets.push(mask_words.len() as u32);
        }
        let fingerprint = fingerprint_words(
            (n as u64) << 32 | period as u64,
            slot_starts
                .iter()
                .chain(mask_offsets.iter())
                .chain(mask_words.iter())
                .chain(old_of_new.iter())
                .map(|&w| u64::from(w))
                .chain(mask_bits.iter().copied()),
        );
        let mut plan = FramePlan {
            period,
            num_nodes: n,
            slot_starts,
            mask_offsets,
            mask_words,
            mask_bits,
            degrees,
            old_of_new,
            conflict_free: false,
            fingerprint,
        };
        plan.conflict_free = !plan.has_conflict();
        Ok(plan)
    }

    /// One O(edges) pass that stops at the first conflict. `seen[u]` stamps
    /// the last slot in which `u` was some candidate's neighbour; a repeat
    /// stamp within one slot (shared neighbour, or a duplicate edge) or a
    /// neighbour inside the slot's own candidate range is a conflict.
    fn has_conflict(&self) -> bool {
        let mut seen = vec![usize::MAX; self.num_nodes];
        for slot in 0..self.period {
            let candidates = self.slot_candidates(slot);
            for v in candidates.clone() {
                let (entry_words, entry_bits) = self.mask_entries(v);
                for (&w, &m) in entry_words.iter().zip(entry_bits) {
                    let mut bits = m;
                    while bits != 0 {
                        let u = w as usize * 64 + bits.trailing_zeros() as usize;
                        if candidates.contains(&u) || seen[u] == slot {
                            return true;
                        }
                        seen[u] = slot;
                        bits &= bits - 1;
                    }
                }
            }
        }
        false
    }

    /// The temporal period `m`.
    pub fn period(&self) -> usize {
        self.period
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The contiguous relabelled-id range of the given slot's candidates.
    #[inline]
    pub fn slot_candidates(&self, slot: usize) -> std::ops::Range<usize> {
        self.slot_starts[slot] as usize..self.slot_starts[slot + 1] as usize
    }

    /// The word-grouped adjacency entries of relabelled node `v`: parallel
    /// slices of bitset-word indices and neighbour bits.
    #[inline]
    pub fn mask_entries(&self, v: usize) -> (&[u32], &[u64]) {
        let range = self.mask_offsets[v] as usize..self.mask_offsets[v + 1] as usize;
        (&self.mask_words[range.clone()], &self.mask_bits[range])
    }

    /// The out-degree of relabelled node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> u32 {
        self.degrees[v]
    }

    /// All pre-relabelling ids (the ids the network and the reference
    /// simulator use), indexed by relabelled node id. Counter-based RNG draws
    /// are keyed by these ids, making the relabelling invisible to stochastic
    /// workloads.
    #[inline]
    pub fn original_ids(&self) -> &[u32] {
        &self.old_of_new
    }

    /// Whether every slot's candidates have pairwise disjoint, candidate-free
    /// neighbour sets. Then each receiver of a slot hears exactly one
    /// in-range transmitter, so under scheduled access every transmission
    /// delivers and the kernel replays the plan in closed form. The paper's
    /// tiling schedules (Theorem 1) and every proper distance-2 colouring
    /// are conflict-free; only an improper slot assignment is not.
    #[inline]
    pub fn conflict_free(&self) -> bool {
        self.conflict_free
    }

    /// A 64-bit content fingerprint of the plan: equal plans always
    /// fingerprint equal, and distinct ones collide with probability `~2^-64`.
    /// Derived artifacts (compiled traffic traces) are content-addressed by
    /// this value.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_core::theorem1;
    use latsched_lattice::BoxRegion;
    use latsched_tiling::{find_tiling, shapes};

    #[test]
    fn csr_roundtrips_neighbour_lists() {
        let lists = vec![vec![1, 2], vec![0], vec![], vec![2, 0, 1]];
        let csr = InterferenceCsr::from_lists(&lists).unwrap();
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.edge_count(), 6);
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(csr.degree(v), list.len());
            let got: Vec<usize> = csr.neighbours_of(v).iter().map(|&u| u as usize).collect();
            assert_eq!(&got, list);
        }
    }

    #[test]
    fn csr_rejects_out_of_range_targets() {
        assert!(matches!(
            InterferenceCsr::from_lists(&[vec![3usize]]),
            Err(EngineError::NodeOutOfRange { node: 3, nodes: 1 })
        ));
    }

    #[test]
    fn frames_bucket_by_slot_in_node_order() {
        let frames = FrameSchedule::from_assignment(&[2, 0, 2, 1, 0], 3).unwrap();
        assert_eq!(frames.period(), 3);
        assert_eq!(frames.num_nodes(), 5);
        assert_eq!(frames.candidates(0), &[1, 4]);
        assert_eq!(frames.candidates(1), &[3]);
        assert_eq!(frames.candidates(2), &[0, 2]);
    }

    #[test]
    fn out_of_period_slots_are_never_candidates() {
        let frames = FrameSchedule::from_assignment(&[0, 7, 1], 2).unwrap();
        assert_eq!(frames.candidates(0), &[0]);
        assert_eq!(frames.candidates(1), &[2]);
        assert_eq!(frames.num_nodes(), 3);
    }

    #[test]
    fn zero_period_is_clamped_to_one() {
        let frames = FrameSchedule::from_assignment(&[0, 0], 0).unwrap();
        assert_eq!(frames.period(), 1);
        assert_eq!(frames.candidates(0), &[0, 1]);
    }

    #[test]
    fn frame_plan_relabels_slot_major_and_preserves_degrees() {
        // Slots: node0→2, node1→0, node2→2, node3→1; new order is [1, 3, 0, 2].
        let frames = FrameSchedule::from_assignment(&[2, 0, 2, 1], 3).unwrap();
        let adjacency =
            InterferenceCsr::from_lists(&[vec![1, 2], vec![0], vec![3], vec![0, 1, 2]]).unwrap();
        let plan = FramePlan::new(&frames, &adjacency).unwrap();
        assert_eq!(plan.period(), 3);
        assert_eq!(plan.num_nodes(), 4);
        assert_eq!(plan.slot_candidates(0), 0..1); // node 1
        assert_eq!(plan.slot_candidates(1), 1..2); // node 3
        assert_eq!(plan.slot_candidates(2), 2..4); // nodes 0, 2
                                                   // Degrees follow the relabelling [1, 3, 0, 2].
        assert_eq!(
            (0..4).map(|v| plan.degree(v)).collect::<Vec<_>>(),
            vec![1, 3, 2, 1]
        );
        // Mask entries cover exactly the relabelled neighbours: e.g. old node 3
        // (new id 1) affects old {0, 1, 2} = new {2, 0, 3}.
        let (words, bits) = plan.mask_entries(1);
        let mut neighbour_bits = 0u64;
        for (&w, &mask) in words.iter().zip(bits) {
            assert_eq!(w, 0, "4 nodes fit one word");
            neighbour_bits |= mask;
        }
        assert_eq!(neighbour_bits, 0b1101);
        // Total bits across all nodes equal the edge count.
        let total: u32 = (0..4)
            .flat_map(|v| plan.mask_entries(v).1)
            .map(|m| m.count_ones())
            .sum();
        assert_eq!(total as usize, adjacency.edge_count());
    }

    #[test]
    fn frame_plan_rejects_mismatched_node_counts() {
        let frames = FrameSchedule::from_assignment(&[0, 1], 2).unwrap();
        let adjacency = InterferenceCsr::from_lists(&vec![vec![0usize]; 3]).unwrap();
        assert!(matches!(
            FramePlan::new(&frames, &adjacency),
            Err(EngineError::NodeCountMismatch {
                frames: 2,
                adjacency: 3
            })
        ));
    }

    #[test]
    fn shared_receivers_same_slot_neighbours_and_duplicate_edges_conflict() {
        // Line 0 — 1 — 2 — 3. Assignment [0, 1, 0, 2] over period 3: slot 0
        // = {0, 2} shares receiver 1, so the plan conflicts although slots 1
        // and 2 are clean.
        let adjacency =
            InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]).unwrap();
        let frames = FrameSchedule::from_assignment(&[0, 1, 0, 2], 3).unwrap();
        assert!(!FramePlan::new(&frames, &adjacency).unwrap().conflict_free());

        // A neighbour that is a same-slot candidate also conflicts: 0 and 1
        // share slot 0 and are adjacent.
        let frames = FrameSchedule::from_assignment(&[0, 0, 1, 2], 3).unwrap();
        assert!(!FramePlan::new(&frames, &adjacency).unwrap().conflict_free());

        // A distance-2-colouring-style assignment is clean on every slot.
        let frames = FrameSchedule::from_assignment(&[0, 1, 2, 0], 3).unwrap();
        assert!(FramePlan::new(&frames, &adjacency).unwrap().conflict_free());

        // A duplicate edge makes its receiver hear the sender twice, which
        // the kernel counts as a collision, even with one node per slot.
        let doubled =
            InterferenceCsr::from_lists(&[vec![1, 1], vec![0, 2], vec![1, 3], vec![2]]).unwrap();
        let frames = FrameSchedule::from_assignment(&[0, 1, 2, 3], 4).unwrap();
        assert!(FramePlan::new(&frames, &adjacency).unwrap().conflict_free());
        assert!(!FramePlan::new(&frames, &doubled).unwrap().conflict_free());
    }

    #[test]
    fn plan_fingerprints_are_content_addressed() {
        let adjacency = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap();
        let frames_a = FrameSchedule::from_assignment(&[0, 1, 2], 3).unwrap();
        let plan_a = FramePlan::new(&frames_a, &adjacency).unwrap();
        // Equal content, separate allocations: equal fingerprints.
        let frames_a2 = FrameSchedule::from_assignment(&[0, 1, 2], 3).unwrap();
        let plan_a2 = FramePlan::new(&frames_a2, &adjacency).unwrap();
        assert_eq!(plan_a.fingerprint(), plan_a2.fingerprint());
        // A different assignment or adjacency changes the fingerprint.
        let frames_b = FrameSchedule::from_assignment(&[2, 1, 0], 3).unwrap();
        let plan_b = FramePlan::new(&frames_b, &adjacency).unwrap();
        assert_ne!(plan_a.fingerprint(), plan_b.fingerprint());
        let ring = InterferenceCsr::from_lists(&[vec![1, 2], vec![0, 2], vec![0, 1]]).unwrap();
        let plan_c = FramePlan::new(&frames_a, &ring).unwrap();
        assert_ne!(plan_a.fingerprint(), plan_c.fingerprint());
    }

    #[test]
    fn slot_source_frames_match_per_point_queries() {
        let tiling = find_tiling(&shapes::moore()).unwrap().unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);
        let compiled = crate::CompiledSchedule::compile(&schedule).unwrap();
        let positions = BoxRegion::square_window(2, 12).unwrap().points();
        let via_compiled = FrameSchedule::from_slot_source(&compiled, &positions).unwrap();
        let via_reference = FrameSchedule::from_slot_source(&schedule, &positions).unwrap();
        assert_eq!(via_compiled, via_reference);
        // Every node appears exactly once across the frame.
        let total: usize = (0..via_compiled.period())
            .map(|s| via_compiled.candidates(s).len())
            .sum();
        assert_eq!(total, positions.len());
    }
}
