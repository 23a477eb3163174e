//! The frame-compiled simulation kernel.
//!
//! Replays a precompiled [`FramePlan`] (per-slot transmitter sets fused with a
//! CSR interference adjacency, relabelled slot-major) for a whole simulation
//! window, producing exactly the integer counters of the
//! reference slot-by-slot simulator (`latsched_sensornet::run_simulation`).
//! The reference simulator walks every node in every slot; this kernel
//! exploits the structure that simulator re-derives each slot:
//!
//! * **Candidates, not nodes.** Only the current slot's candidate range is
//!   scanned for backlog — `O(n/m)` per slot instead of `O(n)` — and the plan's
//!   slot-major relabelling makes that range (and its adjacency data) one
//!   contiguous streamed block. A network-wide queued-packet counter skips
//!   entirely empty slots in `O(1)`.
//! * **Implicit queues.** Under periodic traffic every node's queue is an
//!   arithmetic progression: the head packet of node `v` was generated at
//!   `phase(v) + popped[v] · period`, so queues shrink to two counters per
//!   node and packet objects are never allocated. (Stochastic traffic uses
//!   explicit per-node queues of generation times instead.)
//! * **Bitset interference.** The per-slot transmit set, "heard ≥ 1
//!   transmitter" and "heard ≥ 2 transmitters" predicates live in `u64` bitset
//!   words. Saturating the in-range count at two is enough to decide every
//!   collision, and per-slot radio-energy tallies are word `popcount`s over the
//!   touched words only. All per-slot passes are allocation-free; buffers are
//!   cleared via touched-word lists rather than `O(n)` sweeps.
//! * **Counter-based randomness.** Stochastic draws (Bernoulli traffic,
//!   slotted-ALOHA decisions) come from a stateless
//!   [`CounterRng`](latsched_lattice::CounterRng): `draw = hash(seed, node,
//!   slot)`. Because a draw depends only on its coordinates — never on the
//!   order draws are made — this kernel reproduces the reference simulator's
//!   stochastic runs bit for bit while touching only the nodes it needs to.
//!   Draws are keyed by *original* (pre-relabelling) node ids.
//! * **Compiled traffic traces.** A [`TrafficTrace`] bakes all Bernoulli
//!   generation draws of a `(seed, p)` pair into per-slot bitmaps once.
//!   Builds are block-wise batched: each node's draws come from
//!   [`CounterRng::bernoulli_block`] (one hoisted key and one integer
//!   threshold per 64 draws), fanned across worker threads node by node, and
//!   a 64×64 bit transpose turns the node-major draw matrix slot-major.
//!   Traces are shared through the engine's content-addressed
//!   [`TraceCache`](crate::TraceCache), so sweeps, the retry axis of a grid
//!   and repeated benchmark samples never rebuild one — and the general loop
//!   *auto-compiles* an internal trace for inline Bernoulli runs above a size
//!   threshold, so stochastic runs stop walking every node in every slot
//!   (staggered periodic runs get per-residue generation bitmaps for the same
//!   reason). Slotted-ALOHA MAC decisions compile the same way
//!   ([`TrafficTrace::aloha_decisions`], replayed via
//!   [`KernelMac::AlohaTrace`]), so the MAC draws of a `(seed, p)` pair are
//!   hashed once per sweep instead of once per run.
//! * **Partial-conflict narrowing.** The plan carries a per-slot conflict
//!   bitmask: clean slots (no same-slot neighbour candidates, no shared
//!   receivers) take a closed-form outcome path — `decoded = degree`,
//!   `rx = Σ degree` — and only conflicted slots pay bitset passes. Fully
//!   conflict-free plans (the paper's tiling schedules) never touch a bitset.
//! * **Parallel outcome pass.** Per-transmitter delivery outcomes are
//!   data-parallel once the bitsets are built; conflicted slots with ≥ 8k
//!   transmitters chunk their outcome pass across worker threads with the
//!   engine's scoped-thread executor. (Clean slots need no outcome pass at
//!   all — their accounting is one fused add-and-settle walk.)
//! * **Analytic replay.** On a conflict-free plan under scheduled access the
//!   clean-slot closed form extends from slots to whole runs: every
//!   transmission delivers, service opportunities of a node form an
//!   arithmetic progression (one per frame period), and the FIFO service
//!   recurrence `d = max(first_service ≥ arrival, previous + period)` settles
//!   each packet in O(1) — [`run_frames`] dispatches such runs to a
//!   no-slot-loop path costing `O(deliveries)` (periodic traffic) or one pass
//!   over the arrival bitmaps (traces), with [`run_frames_loop`] as the
//!   measured escape hatch.
//! * **Bit-sliced seed lanes.** [`run_frames_lanes`] packs up to 64 seeds of
//!   one configuration into `u64` lane words: one candidate scan, one
//!   adjacency walk and one batched counter-RNG lane draw per slot serve all
//!   seeds, interference saturating-counts resolve lane-parallel, and
//!   per-lane tallies fall out of 64×64 bit transposes — turning the seed
//!   axis of a sweep into near-free word width while staying bit-identical
//!   to scalar per-seed runs.
//!
//! Floating-point energy is deliberately *not* computed here: the kernel
//! reports integer slot counts (`tx_slots`/`rx_slots`/`idle_slots`) so callers
//! can apply any energy model exactly, with bit-identical results to a
//! counter-based reference.

use crate::error::{EngineError, Result};
use crate::frames::FramePlan;
use crate::parallel::{fill_chunks, fill_chunks_min};
use latsched_lattice::CounterRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// The traffic models the kernel can replay.
#[derive(Clone, PartialEq, Debug)]
pub enum KernelTraffic {
    /// Every node generates one packet every `period` slots, phase-aligned at
    /// slot 0.
    Periodic {
        /// Slots between consecutive packets of one node (must be positive).
        period: u64,
    },
    /// Every node generates one packet every `period` slots, staggered: node
    /// `v` (original id) generates at slots `t ≡ v (mod period)`.
    Staggered {
        /// Slots between consecutive packets of one node (must be positive).
        period: u64,
    },
    /// Every node independently generates a packet in each slot with
    /// probability `p`, drawn from the counter RNG's traffic stream of the
    /// run's seed.
    Bernoulli {
        /// Per-slot generation probability (must be in `[0, 1]`).
        p: f64,
    },
    /// A precompiled generation trace (see [`TrafficTrace`]); replays exactly
    /// like the [`KernelTraffic::Bernoulli`] model the trace was built from,
    /// amortizing the draws across the runs of a sweep.
    Trace(Arc<TrafficTrace>),
    /// No traffic is generated.
    None,
}

/// The per-slot transmit policy of backlogged candidates.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum KernelMac {
    /// Deterministic slotted access: every backlogged candidate of the current
    /// frame slot transmits.
    #[default]
    Scheduled,
    /// Slotted ALOHA: a backlogged candidate transmits with probability `p`,
    /// drawn from the counter RNG's MAC stream of the run's seed. (Use an
    /// all-candidates, period-1 plan to model classic unslotted-schedule
    /// ALOHA.)
    Aloha {
        /// Per-slot transmission probability (must be in `[0, 1]`).
        p: f64,
    },
    /// Slotted ALOHA replayed from a precompiled per-`(seed, p)` decision
    /// bitmap (see [`TrafficTrace::aloha_decisions`]): bit-identical to the
    /// [`KernelMac::Aloha`] model the trace was built from, amortizing the MAC
    /// hash draws across the runs of a sweep the way compiled traffic traces
    /// already amortize generation draws.
    AlohaTrace(Arc<TrafficTrace>),
}

/// Configuration of one kernel run.
#[derive(Clone, PartialEq, Debug)]
pub struct KernelConfig {
    /// Number of slots to simulate.
    pub slots: u64,
    /// The traffic model.
    pub traffic: KernelTraffic,
    /// The MAC decision applied to backlogged candidates.
    pub mac: KernelMac,
    /// How many times an undelivered packet is retransmitted before being
    /// dropped (`0` means each packet is transmitted exactly once).
    pub max_retries: u32,
    /// Seed of the counter-based RNG streams (ignored by fully deterministic
    /// configurations).
    pub seed: u64,
}

/// The integer counters of one kernel run; field meanings match
/// `latsched_sensornet::SimMetrics`, plus the radio-state slot counts from
/// which any energy model can be applied exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelCounts {
    /// Packets generated across all nodes.
    pub packets_generated: u64,
    /// Packets whose broadcast reached every intended neighbour.
    pub packets_delivered: u64,
    /// Packets dropped after exhausting their retransmission budget.
    pub packets_dropped: u64,
    /// Packets still queued when the simulation ended.
    pub packets_pending: u64,
    /// Individual transmissions performed.
    pub transmissions: u64,
    /// Successful link-level receptions.
    pub receptions: u64,
    /// Link-level losses (receiver transmitting, or ≥ 2 in-range transmitters).
    pub collisions: u64,
    /// Sum of per-packet delivery latencies in slots, over delivered packets.
    pub total_latency: u64,
    /// Node-slots spent transmitting.
    pub tx_slots: u64,
    /// Node-slots spent receiving (≥ 1 in-range transmitter, not transmitting).
    pub rx_slots: u64,
    /// Node-slots spent idle.
    pub idle_slots: u64,
}

impl KernelCounts {
    /// Adds another run's counters into this one (used by sweep aggregation).
    pub fn accumulate(&mut self, other: &KernelCounts) {
        self.packets_generated += other.packets_generated;
        self.packets_delivered += other.packets_delivered;
        self.packets_dropped += other.packets_dropped;
        self.packets_pending += other.packets_pending;
        self.transmissions += other.transmissions;
        self.receptions += other.receptions;
        self.collisions += other.collisions;
        self.total_latency += other.total_latency;
        self.tx_slots += other.tx_slots;
        self.rx_slots += other.rx_slots;
        self.idle_slots += other.idle_slots;
    }
}

/// Upper bound on `words × slots` of one compiled traffic trace: 2^28 words
/// = 2 GiB of bitmap; the cap keeps accidental huge specs from crashing the
/// process. `pub(crate)` so the sweep engine applies the same guard before
/// prefetching MAC decision bitmaps.
pub(crate) const TRACE_WORD_LIMIT: u64 = 1 << 28;

/// Draw-matrix words below which a trace build stays on the calling thread;
/// one word is 64 hoisted-key draws, so this is ~64k draws of work.
const TRACE_PARALLEL_MIN_WORDS: usize = 1 << 10;

/// Inline-Bernoulli runs with at least this many `node × slot` draws
/// auto-compile an internal [`TrafficTrace`] instead of drawing per node per
/// slot: the block build pays one `mix64` per draw (the inline path pays two
/// plus a float compare) and the replay touches only generating nodes.
const AUTO_TRACE_MIN_DRAWS: u64 = 1 << 12;

/// Upper bound on `period × words` of the per-residue generation bitmaps the
/// general loop compiles for staggered traffic (32 MiB); longer periods fall
/// back to the per-node walk.
const STAGGER_RESIDUE_WORD_LIMIT: u64 = 1 << 22;

/// Partial-conflict analytic dispatch threshold, as a denominator: plans with
/// at most `period / ANALYTIC_CONFLICT_DENOM` conflicted slots replay hybrid
/// (clean classes closed-form, conflicted classes on a narrowed slot loop).
/// Beyond that fraction the narrowed loop approaches the full loop's cost and
/// the closed-form side stops paying for its setup.
const ANALYTIC_CONFLICT_DENOM: usize = 4;

/// Byte budget of the deterministic loop's full-burst memo (1 MiB). The memo
/// used to hold one `Vec<u32>` slot for every slot of the frame period, so a
/// huge-period schedule (TDMA on a big window) pinned O(n) memory per run
/// even when only a few slots ever replayed; the budget bounds it regardless
/// of period.
const FULL_BURST_MEMO_BYTE_BUDGET: usize = 1 << 20;

/// Approximate bookkeeping bytes charged per memo entry (hash-map slot, key,
/// lengths) on top of the recorded outcome array.
const FULL_BURST_ENTRY_OVERHEAD: usize = 64;

/// The bounded memo of full-burst slot outcomes.
///
/// When *every* candidate of a slot transmits, the interference outcome is a
/// pure function of the slot's content, so the per-transmitter decode counts
/// and rx tally recorded on the first full burst replay later ones in
/// O(candidates) instead of O(edges). Entries are keyed by the slot's content
/// — its candidate range within the plan's relabelled id space, which
/// determines the transmit set and its adjacency — and the memo stops
/// admitting entries once a byte budget is reached: replay degrades
/// gracefully to full interference resolution, results are unchanged, and
/// huge-period schedules no longer pin O(period + n) memo memory.
struct FullBurstMemo {
    entries: std::collections::HashMap<u64, (Box<[u32]>, u64)>,
    bytes: usize,
    budget: usize,
}

impl FullBurstMemo {
    fn new(budget: usize) -> Self {
        FullBurstMemo {
            entries: std::collections::HashMap::new(),
            bytes: 0,
            budget,
        }
    }

    /// The content key of a slot: its packed candidate range in the plan's
    /// relabelled id space. Slot-major relabelling makes the range determine
    /// the candidate set (hence the full-burst outcome), ranges of distinct
    /// slots are disjoint, and node counts fit in 32 bits (enforced by the
    /// CSR size limits) — so the packing is injective and lookups are exact,
    /// no hashing involved.
    #[inline]
    fn key(plan: &FramePlan, slot: usize) -> u64 {
        let range = plan.slot_candidates(slot);
        (range.start as u64) << 32 | range.end as u64
    }

    /// The recorded outcome of a slot's full burst, if memoized.
    #[inline]
    fn get(&self, plan: &FramePlan, slot: usize) -> Option<&(Box<[u32]>, u64)> {
        self.entries.get(&Self::key(plan, slot))
    }

    /// Records a full-burst outcome unless it would exceed the byte budget
    /// (over-budget outcomes are simply recomputed on later bursts).
    fn insert(&mut self, plan: &FramePlan, slot: usize, outcomes: &[u32], rx: u64) {
        let cost = std::mem::size_of_val(outcomes) + FULL_BURST_ENTRY_OVERHEAD;
        if self.bytes + cost > self.budget {
            return;
        }
        if self
            .entries
            .insert(Self::key(plan, slot), (outcomes.into(), rx))
            .is_none()
        {
            self.bytes += cost;
        }
    }

    /// Bytes currently charged against the budget (regression-test hook).
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The closed-form outcome accounting of one clean (conflict-free) slot: every
/// transmitter delivers to all of its neighbours and same-slot receiver sets
/// are disjoint, so `rx` is the degree sum and no bitset pass runs. `settle`
/// applies one delivery (`decoded = degree`) to the caller's queue state —
/// the single shared implementation behind both kernel loops, so their
/// clean-slot accounting cannot drift. (Conflicted slots run
/// [`SlotBuffers::resolve`], whose per-transmitter outcome pass parallelizes
/// at ≥ 8k transmitters; here the whole outcome is one add per transmitter,
/// fused into the settle walk.)
#[inline]
fn settle_clean_slot(
    plan: &FramePlan,
    counts: &mut KernelCounts,
    tx_list: &[u32],
    n: usize,
    t: u64,
    mut settle: impl FnMut(&mut KernelCounts, usize, u32, u64),
) {
    let tx_count = tx_list.len() as u64;
    counts.transmissions += tx_count;
    let mut rx = 0u64;
    for &v in tx_list {
        let v = v as usize;
        let degree = plan.degree(v);
        rx += u64::from(degree);
        settle(counts, v, degree, t);
    }
    counts.tx_slots += tx_count;
    counts.rx_slots += rx;
    counts.idle_slots += n as u64 - tx_count - rx;
}

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` moves to bit
/// `i` of word `j`. The classic recursive block swap (Hacker's Delight §7-3)
/// adapted to the LSB-first column convention used by the trace bitmaps.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// All Bernoulli generation draws of one `(seed, p)` pair over a plan's node
/// set, compiled into per-slot bitmaps in the plan's relabelled id space.
///
/// Draws are keyed by original node ids (via [`FramePlan::original_ids`]), so
/// a trace replays exactly like the inline [`KernelTraffic::Bernoulli`] model
/// it was compiled from — the point is amortization: a sweep that varies retry
/// budgets or MAC parameters across runs of one `(seed, p)` pair pays the
/// `n × slots` hash draws once instead of once per run.
#[derive(Clone, PartialEq, Debug)]
pub struct TrafficTrace {
    nodes: usize,
    slots: u64,
    words: usize,
    /// Slot-major generation bitmaps: bit `v` of slot `t` lives in
    /// `bits[t * words + v / 64]`.
    bits: Vec<u64>,
    /// Per-slot generator counts (popcount of the slot's bitmap).
    counts: Vec<u32>,
}

impl TrafficTrace {
    /// Compiles the Bernoulli(`p`) generation draws of `seed`'s traffic stream
    /// over `slots` slots of the plan's node set.
    ///
    /// The build is block-wise batched: each node's draws along the slot axis
    /// come from [`CounterRng::bernoulli_block`] — one hoisted node key and
    /// one precomputed integer threshold per 64 draws — assembled as 64×64
    /// bit-transposed tiles streamed straight into the slot-major bitmap,
    /// with the slot bands fanned across worker threads above a size
    /// threshold. The result is bit-identical to per-`(node, slot)`
    /// [`CounterRng::bernoulli`] draws.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidKernelConfig`] for a probability outside
    /// `[0, 1]` or a trace exceeding the size cap.
    pub fn bernoulli(plan: &FramePlan, seed: u64, p: f64, slots: u64) -> Result<TrafficTrace> {
        TrafficTrace::build(plan, CounterRng::traffic(seed), p, slots)
    }

    /// Compiles the slotted-ALOHA transmission decisions of `seed`'s MAC
    /// stream over `slots` slots of the plan's node set: bit `v` of slot `t`
    /// is the Bernoulli(`p`) MAC draw of node `v` at `t`. Replayed through
    /// [`KernelMac::AlohaTrace`], the bitmap reproduces inline
    /// [`KernelMac::Aloha`] runs bit for bit — MAC draws are pure functions of
    /// `(seed, node, slot)`, so baking *all* of them (a superset of what a run
    /// consumes, since only backlogged candidates draw inline) changes
    /// nothing. Shares the batched block build of [`TrafficTrace::bernoulli`],
    /// on the MAC stream instead of the traffic stream.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidKernelConfig`] for a probability outside
    /// `[0, 1]` or a trace exceeding the size cap.
    pub fn aloha_decisions(
        plan: &FramePlan,
        seed: u64,
        p: f64,
        slots: u64,
    ) -> Result<TrafficTrace> {
        TrafficTrace::build(plan, CounterRng::mac(seed), p, slots)
    }

    /// The shared block build behind [`TrafficTrace::bernoulli`] and
    /// [`TrafficTrace::aloha_decisions`]: all Bernoulli(`p`) draws of `rng`
    /// over the plan's node set, compiled into slot-major bitmaps.
    fn build(plan: &FramePlan, rng: CounterRng, p: f64, slots: u64) -> Result<TrafficTrace> {
        let _span = crate::telemetry::span(crate::telemetry::Stage::TraceCompile);
        crate::telemetry::count(crate::telemetry::Counter::TraceCompilations, 1);
        if !(0.0..=1.0).contains(&p) {
            return Err(EngineError::InvalidKernelConfig(
                "bernoulli probability must be in [0, 1]".into(),
            ));
        }
        let n = plan.num_nodes();
        let words = n.div_ceil(64);
        if words as u64 * slots > TRACE_WORD_LIMIT {
            return Err(EngineError::InvalidKernelConfig(format!(
                "traffic trace of {n} nodes x {slots} slots exceeds the size cap"
            )));
        }
        if slots == 0 || n == 0 {
            return Ok(TrafficTrace {
                nodes: n,
                slots,
                words,
                bits: vec![0u64; words * slots as usize],
                counts: vec![0u32; slots as usize],
            });
        }
        let orig = plan.original_ids();

        // Streamed tile build, parallel over slot blocks: one slot block is
        // 64 consecutive slots — a contiguous row band of the slot-major
        // bitmap — so the bands chunk across worker threads directly. Within
        // a band, each 64-node tile is drawn node by node with
        // `bernoulli_block` (one hoisted key + one integer threshold per 64
        // draws) and bit-transposed into place; peak memory is the output
        // bitmap plus one 512-byte tile per thread.
        let col_words = (slots as usize).div_ceil(64);
        let block_words = 64 * words;
        let mut bits = vec![0u64; words * slots as usize];
        let mut bands: Vec<&mut [u64]> = bits.chunks_mut(block_words).collect();
        let min_parallel_bands = TRACE_PARALLEL_MIN_WORDS.div_ceil(block_words).max(2);
        fill_chunks_min(&mut bands, min_parallel_bands, |offset, chunk| {
            let mut tile = [0u64; 64];
            for (j, band) in chunk.iter_mut().enumerate() {
                let slot0 = (offset + j) as u64 * 64;
                let band_slots = (slots - slot0).min(64) as usize;
                for bi in 0..words {
                    for (i, cell) in tile.iter_mut().enumerate() {
                        let v = bi * 64 + i;
                        *cell = if v < n {
                            rng.bernoulli_block(p, u64::from(orig[v]), slot0, band_slots)
                        } else {
                            0
                        };
                    }
                    transpose64(&mut tile);
                    for (k, &cell) in tile.iter().enumerate().take(band_slots) {
                        band[k * words + bi] = cell;
                    }
                }
            }
        });
        debug_assert_eq!(bands.len(), col_words);
        drop(bands);
        let counts: Vec<u32> = (0..slots as usize)
            .map(|t| {
                bits[t * words..(t + 1) * words]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum()
            })
            .collect();
        Ok(TrafficTrace {
            nodes: n,
            slots,
            words,
            bits,
            counts,
        })
    }

    /// Number of nodes the trace covers.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of slots the trace covers.
    pub fn num_slots(&self) -> u64 {
        self.slots
    }

    /// Total packets generated across the whole trace.
    pub fn total_generated(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// How many nodes generate a packet at slot `t`.
    #[inline]
    fn count_at(&self, t: u64) -> u32 {
        self.counts[t as usize]
    }

    /// The bitmap words of slot `t`.
    #[inline]
    fn words_at(&self, t: u64) -> &[u64] {
        let base = t as usize * self.words;
        &self.bits[base..base + self.words]
    }

    /// The indicator of (relabelled) node `v` at slot `t`.
    #[inline]
    fn bit_at(&self, t: u64, v: usize) -> bool {
        self.bits[t as usize * self.words + v / 64] >> (v % 64) & 1 == 1
    }
}

/// The per-node implicit-queue state of a deterministic periodic run: a queue
/// is fully described by how many packets the node has removed (the head
/// packet of `v` was generated at `phase(v) + popped[v] · period`) plus the
/// current head packet's transmission attempts.
struct Queues<'a> {
    popped: Vec<u64>,
    attempts: Vec<u32>,
    /// Network-wide queued-packet count, for the O(1) empty-slot skip.
    queued_total: u64,
    traffic_period: u64,
    max_retries: u32,
    /// Original node ids (phase source) when the traffic is staggered; `None`
    /// for phase-aligned traffic (every phase is zero).
    staggered_ids: Option<&'a [u32]>,
}

impl Queues<'_> {
    /// The generation phase of relabelled node `v`.
    #[inline]
    fn phase(&self, v: usize) -> u64 {
        match self.staggered_ids {
            Some(orig) => u64::from(orig[v]) % self.traffic_period,
            None => 0,
        }
    }

    /// Packets generated for relabelled node `v` in slots `0..=t`.
    #[inline]
    fn generated(&self, v: usize, t: u64) -> u64 {
        let phase = self.phase(v);
        if t >= phase {
            (t - phase) / self.traffic_period + 1
        } else {
            0
        }
    }

    /// Applies one transmission outcome — delivery, retry or drop — to node
    /// `v`'s queue and the run counters. The single settlement implementation
    /// of the deterministic loop, shared by its resolve, memo-replay and
    /// conflict-free paths so they cannot drift ([`ExplicitQueues::settle`] is
    /// its counterpart for the general loop's explicit queues).
    #[inline]
    fn settle(&mut self, counts: &mut KernelCounts, v: usize, decoded: u32, degree: u32, t: u64) {
        counts.receptions += u64::from(decoded);
        counts.collisions += u64::from(degree - decoded);
        self.attempts[v] += 1;
        if decoded == degree {
            counts.packets_delivered += 1;
            counts.total_latency += t - (self.phase(v) + self.popped[v] * self.traffic_period);
            self.popped[v] += 1;
            self.attempts[v] = 0;
            self.queued_total -= 1;
        } else if self.attempts[v] > self.max_retries {
            counts.packets_dropped += 1;
            self.popped[v] += 1;
            self.attempts[v] = 0;
            self.queued_total -= 1;
        }
    }
}

/// The per-node state of the general loop: explicit queues of generation
/// times (any traffic pattern), head-packet attempt counters, the
/// network-wide backlog count, and a backlog bitmask over relabelled ids so
/// the per-slot candidate scan reads a handful of words instead of one queue
/// header per candidate.
struct ExplicitQueues {
    queues: Vec<VecDeque<u64>>,
    attempts: Vec<u32>,
    /// Bit `v` set iff `queues[v]` is nonempty. Slot candidates are a
    /// contiguous relabelled-id range, so the slot's backlogged candidates are
    /// the set bits of a word range of this mask.
    backlog: Vec<u64>,
    queued_total: u64,
    max_retries: u32,
}

impl ExplicitQueues {
    fn new(n: usize, max_retries: u32) -> Self {
        ExplicitQueues {
            queues: vec![VecDeque::new(); n],
            attempts: vec![0u32; n],
            backlog: vec![0u64; n.div_ceil(64)],
            queued_total: 0,
            max_retries,
        }
    }

    /// Enqueues one packet generated at `t` for node `v`, maintaining the
    /// backlog mask and count.
    #[inline]
    fn push(&mut self, v: usize, t: u64) {
        self.queues[v].push_back(t);
        self.backlog[v / 64] |= 1u64 << (v % 64);
        self.queued_total += 1;
    }

    /// Applies one transmission outcome — delivery, retry or drop — to node
    /// `v`'s queue and the run counters. The single settlement implementation
    /// of the general loop, shared by its resolve and conflict-free paths so
    /// they cannot drift (the counterpart of [`Queues::settle`] for implicit
    /// periodic queues).
    #[inline]
    fn settle(&mut self, counts: &mut KernelCounts, v: usize, decoded: u32, degree: u32, t: u64) {
        counts.receptions += u64::from(decoded);
        counts.collisions += u64::from(degree - decoded);
        self.attempts[v] += 1;
        let popped = if decoded == degree {
            let generated_at = self.queues[v]
                .pop_front()
                .expect("transmitters are backlogged");
            counts.packets_delivered += 1;
            counts.total_latency += t - generated_at;
            true
        } else if self.attempts[v] > self.max_retries {
            self.queues[v].pop_front();
            counts.packets_dropped += 1;
            true
        } else {
            false
        };
        if popped {
            self.attempts[v] = 0;
            self.queued_total -= 1;
            if self.queues[v].is_empty() {
                self.backlog[v / 64] &= !(1u64 << (v % 64));
            }
        }
    }
}

/// The reusable per-slot bitset state of the interference passes, shared by the
/// deterministic and the general (stochastic) kernel loops so the two cannot
/// drift on collision semantics.
struct SlotBuffers {
    tx_mask: Vec<u64>,
    /// ≥ 1 in-range transmitter.
    once: Vec<u64>,
    /// ≥ 2 in-range transmitters.
    twice: Vec<u64>,
    /// transmitting ∪ (≥ 2 in range).
    lost: Vec<u64>,
    /// Bitset words touched this slot (cleared without O(n) sweeps).
    touched: Vec<u32>,
    /// `outcomes[i]`: how many of transmitter `tx_list[i]`'s neighbours decoded
    /// it, filled by [`SlotBuffers::resolve`].
    outcomes: Vec<u32>,
}

impl SlotBuffers {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        SlotBuffers {
            tx_mask: vec![0u64; words],
            once: vec![0u64; words],
            twice: vec![0u64; words],
            lost: vec![0u64; words],
            touched: Vec::with_capacity(words),
            outcomes: vec![0u32; n],
        }
    }

    /// Resolves one slot's interference for the given transmitter list: fills
    /// `outcomes[..tx_list.len()]` with per-transmitter decode counts and
    /// returns the number of receiving nodes (≥ 1 in-range transmitter, not
    /// transmitting). All buffers are cleared again before returning.
    fn resolve(&mut self, plan: &FramePlan, tx_list: &[u32]) -> u64 {
        // Pass 1: build the transmit mask.
        for &v in tx_list {
            self.tx_mask[(v / 64) as usize] |= 1u64 << (v % 64);
        }

        // Pass 2: in-range-transmitter counting, saturated at two, one bitset
        // word per word-grouped neighbour entry. Bits of `mask` already in
        // `once` have now been heard twice; duplicate neighbour ids occupy
        // separate entries, so they saturate exactly like repeated unit
        // increments.
        for &v in tx_list {
            let (entry_words, entry_bits) = plan.mask_entries(v as usize);
            for (&w, &mask) in entry_words.iter().zip(entry_bits) {
                let w = w as usize;
                let cur = self.once[w];
                if cur == 0 {
                    self.touched.push(w as u32);
                }
                self.twice[w] |= cur & mask;
                self.once[w] = cur | mask;
            }
        }
        // A neighbour loses the message iff it is itself transmitting or hears
        // ≥ 2 transmitters; every word the outcome pass reads carries at least
        // one once-bit, so materializing the union over the touched words gives
        // that pass a single load per edge.
        for &w in &self.touched {
            let w = w as usize;
            self.lost[w] = self.tx_mask[w] | self.twice[w];
        }

        // Pass 3: per-transmitter outcomes (collision mask reads), in parallel
        // for large transmitter sets.
        let tx_count = tx_list.len();
        {
            let lost = &self.lost;
            fill_chunks(&mut self.outcomes[..tx_count], |offset, chunk| {
                for (i, out) in chunk.iter_mut().enumerate() {
                    let v = tx_list[offset + i] as usize;
                    let (entry_words, entry_bits) = plan.mask_entries(v);
                    let mut decoded = 0u32;
                    for (&w, &mask) in entry_words.iter().zip(entry_bits) {
                        decoded += (mask & !lost[w as usize]).count_ones();
                    }
                    *out = decoded;
                }
            });
        }

        // Radio-state tally: receivers as popcounts over the touched words.
        let mut rx = 0u64;
        for &w in &self.touched {
            let w = w as usize;
            rx += u64::from((self.once[w] & !self.tx_mask[w]).count_ones());
        }

        // Clear only what this slot touched.
        for &w in &self.touched {
            let w = w as usize;
            self.once[w] = 0;
            self.twice[w] = 0;
        }
        self.touched.clear();
        for &v in tx_list {
            // A transmit-mask word only ever holds this slot's transmitters, so
            // zeroing the whole word is safe.
            self.tx_mask[(v / 64) as usize] = 0;
        }
        rx
    }
}

/// Runs a full simulation by replaying the compiled frame plan.
///
/// Produces counters identical to the reference simulator's for the same
/// workload — including stochastic ones, thanks to the counter-based RNG —
/// (verified by the cross-crate `sim_parity` property suite).
///
/// # Errors
///
/// Returns [`EngineError::InvalidKernelConfig`] for a zero traffic period, a
/// probability outside `[0, 1]`, or a traffic trace whose node or slot counts
/// do not cover the run.
pub fn run_frames(plan: &FramePlan, config: &KernelConfig) -> Result<KernelCounts> {
    run_frames_impl(plan, config, true)
}

/// [`run_frames`] with the closed-form analytic replay disabled: clean
/// scheduled runs take the slot-loop paths they took before the analytic
/// dispatch existed. The escape hatch exists for measurement (the
/// `replay` baseline entry times analytic against loop execution) and for
/// the parity suites that pin the two bit-identical; results are always
/// identical to [`run_frames`].
///
/// # Errors
///
/// As for [`run_frames`].
pub fn run_frames_loop(plan: &FramePlan, config: &KernelConfig) -> Result<KernelCounts> {
    run_frames_impl(plan, config, false)
}

/// Bumps the dispatch-path counter of one kernel run — every
/// [`run_frames_impl`] call and every lane-kernel seed passes through exactly
/// one of these, so the six dispatch counters sum to the number of simulated
/// runs (a no-op outside any telemetry request).
#[inline]
fn note_dispatch(counter: crate::telemetry::Counter, runs: u64) {
    crate::telemetry::count(counter, runs);
}

fn run_frames_impl(
    plan: &FramePlan,
    config: &KernelConfig,
    allow_analytic: bool,
) -> Result<KernelCounts> {
    use crate::telemetry::Counter;
    let n = plan.num_nodes();
    match &config.traffic {
        KernelTraffic::Periodic { period: 0 } | KernelTraffic::Staggered { period: 0 } => {
            return Err(EngineError::InvalidKernelConfig(
                "periodic traffic period must be positive".into(),
            ));
        }
        KernelTraffic::Bernoulli { p } if !(0.0..=1.0).contains(p) => {
            return Err(EngineError::InvalidKernelConfig(
                "bernoulli probability must be in [0, 1]".into(),
            ));
        }
        KernelTraffic::Trace(trace)
            if trace.num_nodes() != n || trace.num_slots() < config.slots =>
        {
            return Err(EngineError::InvalidKernelConfig(format!(
                "traffic trace covers {} nodes x {} slots, run needs {} x {}",
                trace.num_nodes(),
                trace.num_slots(),
                n,
                config.slots
            )));
        }
        _ => {}
    }
    match &config.mac {
        KernelMac::Aloha { p } if !(0.0..=1.0).contains(p) => {
            return Err(EngineError::InvalidKernelConfig(
                "aloha probability must be in [0, 1]".into(),
            ));
        }
        KernelMac::AlohaTrace(trace)
            if trace.num_nodes() != n || trace.num_slots() < config.slots =>
        {
            return Err(EngineError::InvalidKernelConfig(format!(
                "MAC decision trace covers {} nodes x {} slots, run needs {} x {}",
                trace.num_nodes(),
                trace.num_slots(),
                n,
                config.slots
            )));
        }
        _ => {}
    }

    if matches!(config.traffic, KernelTraffic::None) {
        // Without traffic nothing ever transmits: every node idles every slot.
        // Closed-form, so it counts as an analytic dispatch.
        note_dispatch(Counter::DispatchAnalytic, 1);
        return Ok(KernelCounts {
            idle_slots: n as u64 * config.slots,
            ..KernelCounts::default()
        });
    }

    // Closed-form analytic replay: on a conflict-free plan under scheduled
    // access every transmission delivers, so the whole run is a per-node
    // arithmetic-progression service problem — no slot loop needed (see
    // `run_analytic_periodic` / `run_analytic_trace`). Partially conflicted
    // plans with a small enough conflicted minority replay hybrid: clean slot
    // classes keep the closed form, only the conflicted classes loop (see
    // `run_analytic_partial`).
    if allow_analytic && matches!(config.mac, KernelMac::Scheduled) {
        if plan.conflict_free() {
            match &config.traffic {
                KernelTraffic::Periodic { period } => {
                    note_dispatch(Counter::DispatchAnalytic, 1);
                    return run_analytic_periodic(plan, config, *period, false);
                }
                KernelTraffic::Staggered { period } => {
                    note_dispatch(Counter::DispatchAnalytic, 1);
                    return run_analytic_periodic(plan, config, *period, true);
                }
                KernelTraffic::Trace(trace) => {
                    note_dispatch(Counter::DispatchAnalytic, 1);
                    return run_analytic_trace(plan, config, trace);
                }
                KernelTraffic::Bernoulli { p }
                    if n as u64 * config.slots >= AUTO_TRACE_MIN_DRAWS
                        && n.div_ceil(64) as u64 * config.slots <= TRACE_WORD_LIMIT =>
                {
                    // The same auto-trace conversion the general loop applies:
                    // compile the draws once, then replay the trace analytically.
                    note_dispatch(Counter::DispatchAnalytic, 1);
                    let trace = TrafficTrace::bernoulli(plan, config.seed, *p, config.slots)?;
                    return run_analytic_trace(plan, config, &trace);
                }
                _ => {}
            }
        } else if plan.conflicted_slots() * ANALYTIC_CONFLICT_DENOM <= plan.period() {
            match &config.traffic {
                KernelTraffic::Periodic { period } => {
                    note_dispatch(Counter::DispatchPartialAnalytic, 1);
                    return run_analytic_partial(plan, config, *period, false);
                }
                KernelTraffic::Staggered { period } => {
                    note_dispatch(Counter::DispatchPartialAnalytic, 1);
                    return run_analytic_partial(plan, config, *period, true);
                }
                _ => {}
            }
        }
    }

    // Slot-loop dispatch: conflict-free plans never run interference passes
    // (the loop's clean shortcut), everything else pays the bitset loop.
    note_dispatch(
        if plan.conflict_free() {
            Counter::DispatchConflictFree
        } else {
            Counter::DispatchGeneralLoop
        },
        1,
    );
    match (&config.traffic, &config.mac) {
        (KernelTraffic::Periodic { period }, KernelMac::Scheduled) => {
            run_deterministic(plan, config, *period, false, FULL_BURST_MEMO_BYTE_BUDGET)
        }
        (KernelTraffic::Staggered { period }, KernelMac::Scheduled) => {
            run_deterministic(plan, config, *period, true, FULL_BURST_MEMO_BYTE_BUDGET)
        }
        _ => run_general(plan, config),
    }
}

/// The per-node slot class of every relabelled node: `slot_of[v]` is the frame
/// slot whose candidate range contains `v`, or `u32::MAX` for silent nodes
/// (out-of-period assignments that never transmit).
fn slot_classes(plan: &FramePlan) -> Vec<u32> {
    let mut slot_of = vec![u32::MAX; plan.num_nodes()];
    for slot in 0..plan.period() {
        for v in plan.slot_candidates(slot) {
            slot_of[v] = slot as u32;
        }
    }
    slot_of
}

/// The first service opportunity of slot class `s` at or after slot `t` in a
/// frame of period `m`: the smallest `t' ≥ t` with `t' ≡ s (mod m)`.
#[inline]
fn first_service_ge(t: u64, s: u64, m: u64) -> u64 {
    t + (s + m - t % m) % m
}

/// Closed-form per-node accounting of one clean-plan service chain: arrivals
/// `a_k` are served FIFO at `d_k = max(first_service_ge(a_k), d_{k-1} + m)`
/// (one service per frame period; generation precedes the MAC within a slot,
/// so an arrival can be served in its own slot). Every service delivers —
/// the plan is conflict-free — so iterating services instead of slots costs
/// `O(deliveries)`: the loop below walks arrivals lazily and stops at the
/// first service past the horizon. Returns `(delivered, total_latency)`.
#[inline]
fn settle_clean_chain(
    mut arrivals: impl Iterator<Item = u64>,
    s: u64,
    m: u64,
    slots: u64,
) -> (u64, u64) {
    let mut next_free = 0u64;
    let mut delivered = 0u64;
    let mut latency = 0u64;
    for a in arrivals.by_ref() {
        let d = first_service_ge(a, s, m).max(next_free);
        if d >= slots {
            break;
        }
        delivered += 1;
        latency += d - a;
        next_free = d + m;
    }
    (delivered, latency)
}

/// Analytic replay of periodic (aligned or staggered) traffic on a clean plan
/// under scheduled access: no slot loop, no queues, no bitsets. Aligned
/// traffic is computed once per *slot class* (every node of a class shares
/// phase 0, the same service chain and the same delivery schedule) and scaled
/// by the class size and degree sum; staggered traffic walks nodes, each an
/// `O(deliveries)` chain. Counter parity with the loop kernels is pinned by
/// the `sim_parity` suite and the in-measure assertion of the `replay`
/// baseline entry.
fn run_analytic_periodic(
    plan: &FramePlan,
    config: &KernelConfig,
    traffic_period: u64,
    staggered: bool,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let slots = config.slots;
    let mut counts = KernelCounts::default();
    if slots == 0 {
        return Ok(counts);
    }
    let m = plan.period() as u64;

    if staggered {
        let slot_of = slot_classes(plan);
        for (v, &ov) in plan.original_ids().iter().enumerate() {
            let phase = u64::from(ov) % traffic_period;
            if slots <= phase {
                continue;
            }
            let generated = (slots - 1 - phase) / traffic_period + 1;
            counts.packets_generated += generated;
            if slot_of[v] == u32::MAX {
                continue; // silent: arrivals only accumulate pending
            }
            let arrivals = (0..generated).map(|k| phase + k * traffic_period);
            let (delivered, latency) =
                settle_clean_chain(arrivals, u64::from(slot_of[v]), m, slots);
            let degree = u64::from(plan.degree(v));
            counts.packets_delivered += delivered;
            counts.total_latency += latency;
            counts.transmissions += delivered;
            counts.receptions += delivered * degree;
            counts.tx_slots += delivered;
            counts.rx_slots += delivered * degree;
        }
    } else {
        let generated = (slots - 1) / traffic_period + 1;
        counts.packets_generated = generated * n as u64;
        for slot in 0..plan.period() {
            let class = plan.slot_candidates(slot);
            if class.is_empty() {
                continue;
            }
            let degree_sum: u64 = class.clone().map(|v| u64::from(plan.degree(v))).sum();
            let arrivals = (0..generated).map(|k| k * traffic_period);
            let (delivered, latency) = settle_clean_chain(arrivals, slot as u64, m, slots);
            let size = class.len() as u64;
            counts.packets_delivered += delivered * size;
            counts.total_latency += latency * size;
            counts.transmissions += delivered * size;
            counts.receptions += delivered * degree_sum;
            counts.tx_slots += delivered * size;
            counts.rx_slots += delivered * degree_sum;
        }
    }

    counts.packets_pending = counts.packets_generated - counts.packets_delivered;
    counts.idle_slots = n as u64 * slots - counts.tx_slots - counts.rx_slots;
    Ok(counts)
}

/// Analytic replay of compiled-trace traffic on a clean plan under scheduled
/// access: one slot-major pass over the arrival bitmaps, with per-node
/// `next_free` service cursors instead of queues — each arrival settles in
/// O(1) via the same `d = max(first_service_ge(a), next_free)` recurrence as
/// [`run_analytic_periodic`], and slots with no arrivals cost one counter
/// read. (The trace may cover more slots than the run; extra slots are
/// ignored, exactly as in the general loop.)
fn run_analytic_trace(
    plan: &FramePlan,
    config: &KernelConfig,
    trace: &TrafficTrace,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let slots = config.slots;
    let mut counts = KernelCounts::default();
    if slots == 0 {
        return Ok(counts);
    }
    let m = plan.period() as u64;
    let slot_of = slot_classes(plan);
    let mut next_free = vec![0u64; n];
    for t in 0..slots {
        if trace.count_at(t) == 0 {
            continue;
        }
        counts.packets_generated += u64::from(trace.count_at(t));
        for (w, &word) in trace.words_at(t).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = slot_of[v];
                if s == u32::MAX {
                    continue; // silent node: the arrival only adds pending
                }
                let d = first_service_ge(t, u64::from(s), m).max(next_free[v]);
                if d >= slots {
                    continue; // served past the horizon: stays pending
                }
                let degree = u64::from(plan.degree(v));
                counts.packets_delivered += 1;
                counts.total_latency += d - t;
                counts.transmissions += 1;
                counts.receptions += degree;
                counts.tx_slots += 1;
                counts.rx_slots += degree;
                next_free[v] = d + m;
            }
        }
    }
    counts.packets_pending = counts.packets_generated - counts.packets_delivered;
    counts.idle_slots = n as u64 * slots - counts.tx_slots - counts.rx_slots;
    Ok(counts)
}

/// Hybrid analytic replay of periodic (aligned or staggered) traffic on a
/// *partially* conflicted plan under scheduled access.
///
/// Under scheduled access, slot classes are dynamically decoupled: class `s`
/// transmits only at slots `t ≡ s (mod m)`, its transmitters are exactly its
/// own backlogged candidates, and interference at those slots resolves among
/// them — no other class's queue state can influence an outcome. So the run
/// splits exactly: clean classes (their slots carry no conflicts, every
/// transmission delivers) keep the closed-form service chains of
/// [`run_analytic_periodic`], while each conflicted class replays a *narrowed*
/// slot loop visiting only its own service slots — `conflicted_slots / m` of
/// the run instead of all of it — with the same resolve/settle/memo machinery
/// as [`run_deterministic`]. Idle slots and pending packets close by
/// conservation, exactly as the loop computes them. Bit-exact parity with
/// [`run_frames_loop`] is pinned by the `sim_parity` suite and asserted inside
/// every timed sample of the `replay` baseline entry.
fn run_analytic_partial(
    plan: &FramePlan,
    config: &KernelConfig,
    traffic_period: u64,
    staggered: bool,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let slots = config.slots;
    let mut counts = KernelCounts::default();
    if slots == 0 {
        return Ok(counts);
    }
    let m = plan.period() as u64;

    // Clean classes: closed-form service chains, as in the fully-clean
    // analytic replay, restricted to classes whose slot is unconflicted.
    if staggered {
        let slot_of = slot_classes(plan);
        for (v, &ov) in plan.original_ids().iter().enumerate() {
            let s = slot_of[v];
            if s == u32::MAX || plan.slot_conflicted(s as usize) {
                continue; // silent (pending only) or handled by the narrowed loop
            }
            let phase = u64::from(ov) % traffic_period;
            if slots <= phase {
                continue;
            }
            let generated = (slots - 1 - phase) / traffic_period + 1;
            let arrivals = (0..generated).map(|k| phase + k * traffic_period);
            let (delivered, latency) = settle_clean_chain(arrivals, u64::from(s), m, slots);
            let degree = u64::from(plan.degree(v));
            counts.packets_delivered += delivered;
            counts.total_latency += latency;
            counts.transmissions += delivered;
            counts.receptions += delivered * degree;
            counts.tx_slots += delivered;
            counts.rx_slots += delivered * degree;
        }
    } else {
        let generated = (slots - 1) / traffic_period + 1;
        for slot in 0..plan.period() {
            if plan.slot_conflicted(slot) {
                continue;
            }
            let class = plan.slot_candidates(slot);
            if class.is_empty() {
                continue;
            }
            let degree_sum: u64 = class.clone().map(|v| u64::from(plan.degree(v))).sum();
            let arrivals = (0..generated).map(|k| k * traffic_period);
            let (delivered, latency) = settle_clean_chain(arrivals, slot as u64, m, slots);
            let size = class.len() as u64;
            counts.packets_delivered += delivered * size;
            counts.total_latency += latency * size;
            counts.transmissions += delivered * size;
            counts.receptions += delivered * degree_sum;
            counts.tx_slots += delivered * size;
            counts.rx_slots += delivered * degree_sum;
        }
    }

    // Conflicted classes: the narrowed slot loop. Queue state is indexed by
    // relabelled id but only conflicted-class entries are ever touched; the
    // full-burst memo and interference buffers are the loop kernel's own.
    let mut buffers = SlotBuffers::new(n);
    let mut tx_list: Vec<u32> = Vec::with_capacity(n);
    let mut queues = Queues {
        popped: vec![0u64; n],
        attempts: vec![0u32; n],
        queued_total: 0, // unused: the narrowed loop never skips on it
        traffic_period,
        max_retries: config.max_retries,
        staggered_ids: staggered.then(|| plan.original_ids()),
    };
    let mut full_burst_memo = FullBurstMemo::new(FULL_BURST_MEMO_BYTE_BUDGET);
    for slot in 0..plan.period() {
        if !plan.slot_conflicted(slot) {
            continue;
        }
        let class = plan.slot_candidates(slot);
        if class.is_empty() {
            continue;
        }
        let mut t = slot as u64;
        while t < slots {
            let aligned_generated = t / traffic_period + 1;
            tx_list.clear();
            for v in class.clone() {
                let generated = if staggered {
                    queues.generated(v, t)
                } else {
                    aligned_generated
                };
                if generated > queues.popped[v] {
                    tx_list.push(v as u32);
                }
            }
            if !tx_list.is_empty() {
                let tx_count = tx_list.len();
                // `settle` decrements the network backlog on every delivery
                // or drop; the narrowed loop never reads it (no empty-slot
                // skip), so top it up per burst to keep the counter unsigned.
                queues.queued_total += tx_count as u64;
                let full_burst = tx_count == class.len();
                if full_burst {
                    if let Some((decoded, rx)) = full_burst_memo.get(plan, slot) {
                        counts.transmissions += tx_count as u64;
                        for (&v, &decoded) in tx_list.iter().zip(decoded.iter()) {
                            let v = v as usize;
                            queues.settle(&mut counts, v, decoded, plan.degree(v), t);
                        }
                        counts.tx_slots += tx_count as u64;
                        counts.rx_slots += *rx;
                        t += m;
                        continue;
                    }
                }
                let rx = buffers.resolve(plan, &tx_list);
                counts.transmissions += tx_count as u64;
                for (&v, &decoded) in tx_list.iter().zip(&buffers.outcomes[..tx_count]) {
                    let v = v as usize;
                    queues.settle(&mut counts, v, decoded, plan.degree(v), t);
                }
                counts.tx_slots += tx_count as u64;
                counts.rx_slots += rx;
                if full_burst {
                    full_burst_memo.insert(plan, slot, &buffers.outcomes[..tx_count], rx);
                }
            }
            t += m;
        }
    }

    // Global generation closed form, then pending and idle by conservation —
    // the same identities the loop kernels close with.
    if staggered {
        for id in 0..n as u64 {
            let phase = id % traffic_period;
            if slots > phase {
                counts.packets_generated += (slots - 1 - phase) / traffic_period + 1;
            }
        }
    } else {
        counts.packets_generated = ((slots - 1) / traffic_period + 1) * n as u64;
    }
    counts.packets_pending =
        counts.packets_generated - counts.packets_delivered - counts.packets_dropped;
    counts.idle_slots = n as u64 * slots - counts.tx_slots - counts.rx_slots;
    Ok(counts)
}

/// The deterministic fast path: periodic (aligned or staggered) traffic under
/// scheduled access, with implicit arithmetic-progression queues, the O(1)
/// empty-slot skip and the full-burst memo.
fn run_deterministic(
    plan: &FramePlan,
    config: &KernelConfig,
    traffic_period: u64,
    staggered: bool,
    memo_budget: usize,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let mut counts = KernelCounts::default();
    let mut buffers = SlotBuffers::new(n);
    let mut tx_list: Vec<u32> = Vec::with_capacity(n);
    let mut queues = Queues {
        popped: vec![0u64; n],
        attempts: vec![0u32; n],
        queued_total: 0,
        traffic_period,
        max_retries: config.max_retries,
        staggered_ids: staggered.then(|| plan.original_ids()),
    };
    // Full-burst memo: when *every* candidate of a slot transmits, the
    // interference outcome is a pure function of the slot, so the first such
    // occurrence's per-transmitter decode counts and rx tally are recorded and
    // replayed on later full bursts in O(candidates) instead of O(edges). With
    // periodic traffic full bursts are the steady state, so this is the common
    // path; staggered phases only shift when each node reaches it. The memo is
    // content-hash keyed and byte-budgeted (see [`FullBurstMemo`]), so huge
    // frame periods no longer pin O(period + n) memory per run.
    let mut full_burst_memo = FullBurstMemo::new(memo_budget);

    let frame_period = plan.period() as u64;
    for t in 0..config.slots {
        // Number of nodes generating a packet in this slot (generation precedes
        // the MAC decision within a slot). Original ids are a permutation of
        // 0..n, so the staggered residue-class count has a closed form.
        let newly = if staggered {
            let r = t % traffic_period;
            if r < n as u64 {
                (n as u64 - 1 - r) / traffic_period + 1
            } else {
                0
            }
        } else if t.is_multiple_of(traffic_period) {
            n as u64
        } else {
            0
        };
        queues.queued_total += newly;
        // When the whole network's queues are empty the slot is skipped in
        // O(1) — with periodic traffic this covers the drained stretch of
        // every generation cycle.
        if queues.queued_total == 0 {
            counts.idle_slots += n as u64;
            continue;
        }
        let slot = (t % frame_period) as usize;

        // Backlogged candidates become transmitters. Candidates are a
        // contiguous relabelled-id range, so this is a sequential scan of
        // `popped`. Phase-aligned traffic shares one generation count across
        // the slot; staggered phases need the per-node count.
        let aligned_generated = t / traffic_period + 1;
        tx_list.clear();
        for v in plan.slot_candidates(slot) {
            let generated = if staggered {
                queues.generated(v, t)
            } else {
                aligned_generated
            };
            if generated > queues.popped[v] {
                tx_list.push(v as u32);
            }
        }
        if tx_list.is_empty() {
            counts.idle_slots += n as u64;
            continue;
        }
        let tx_count = tx_list.len();

        // Clean-slot shortcut: on a slot with no conflicts (per the plan's
        // conflict bitmask) outcomes are closed-form — no bitset passes.
        // Partially conflicting plans pay the passes only on their conflicted
        // slots.
        if !plan.slot_conflicted(slot) {
            settle_clean_slot(plan, &mut counts, &tx_list, n, t, |counts, v, degree, t| {
                queues.settle(counts, v, degree, degree, t)
            });
            continue;
        }
        let full_burst = tx_count == plan.slot_candidates(slot).len();

        if full_burst {
            if let Some((decoded, rx)) = full_burst_memo.get(plan, slot) {
                // Memoized fast path: bitsets untouched, queues updated from
                // the recorded outcomes.
                counts.transmissions += tx_count as u64;
                for (&v, &decoded) in tx_list.iter().zip(decoded.iter()) {
                    let v = v as usize;
                    queues.settle(&mut counts, v, decoded, plan.degree(v), t);
                }
                counts.tx_slots += tx_count as u64;
                counts.rx_slots += *rx;
                counts.idle_slots += n as u64 - tx_count as u64 - *rx;
                continue;
            }
        }

        // General path: full interference resolution.
        let rx = buffers.resolve(plan, &tx_list);
        counts.transmissions += tx_count as u64;
        for (&v, &decoded) in tx_list.iter().zip(&buffers.outcomes[..tx_count]) {
            let v = v as usize;
            queues.settle(&mut counts, v, decoded, plan.degree(v), t);
        }
        counts.tx_slots += tx_count as u64;
        counts.rx_slots += rx;
        counts.idle_slots += n as u64 - tx_count as u64 - rx;

        // Record the outcome of a full burst for replay on its next
        // occurrence (skipped silently once the byte budget is reached).
        if full_burst {
            full_burst_memo.insert(plan, slot, &buffers.outcomes[..tx_count], rx);
        }
    }

    if config.slots > 0 {
        // Per-node closed-form generation totals (phases are original ids,
        // a permutation of 0..n).
        if staggered {
            for id in 0..n as u64 {
                let phase = id % traffic_period;
                if config.slots > phase {
                    counts.packets_generated += (config.slots - 1 - phase) / traffic_period + 1;
                }
            }
        } else {
            counts.packets_generated = ((config.slots - 1) / traffic_period + 1) * n as u64;
        }
        counts.packets_pending =
            counts.packets_generated - counts.packets_delivered - counts.packets_dropped;
    }
    Ok(counts)
}

/// The per-residue generation bitmaps of staggered traffic: node `v` (original
/// id) generates at slots `t ≡ orig(v) (mod period)`, so one bitmap per
/// residue class lets the general loop enqueue exactly the generating nodes
/// instead of walking all of them every slot.
struct StaggerResidues {
    words: usize,
    /// Residue-major bitmaps over relabelled ids: bit `v` of residue `r` lives
    /// in `bits[r * words + v / 64]`.
    bits: Vec<u64>,
    /// Per-residue generator counts.
    counts: Vec<u32>,
}

impl StaggerResidues {
    /// Builds the residue bitmaps when the period is small enough to be worth
    /// materializing; longer periods return `None` (per-node walk instead).
    fn build(plan: &FramePlan, period: u64) -> Option<StaggerResidues> {
        let n = plan.num_nodes();
        let words = n.div_ceil(64);
        if period == 0 || period * words as u64 > STAGGER_RESIDUE_WORD_LIMIT {
            return None;
        }
        let mut bits = vec![0u64; period as usize * words];
        let mut counts = vec![0u32; period as usize];
        for (v, &ov) in plan.original_ids().iter().enumerate() {
            let r = (u64::from(ov) % period) as usize;
            bits[r * words + v / 64] |= 1u64 << (v % 64);
            counts[r] += 1;
        }
        Some(StaggerResidues {
            words,
            bits,
            counts,
        })
    }

    #[inline]
    fn words_at(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }
}

/// The general loop: explicit per-node queues of generation times, supporting
/// every traffic model (counter-drawn Bernoulli, compiled traces, periodic)
/// under scheduled or slotted-ALOHA access.
fn run_general(plan: &FramePlan, config: &KernelConfig) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let orig = plan.original_ids();
    let traffic_rng = CounterRng::traffic(config.seed);
    let mac_rng = CounterRng::mac(config.seed);
    let mut counts = KernelCounts::default();
    let mut buffers = SlotBuffers::new(n);
    let mut tx_list: Vec<u32> = Vec::with_capacity(n);
    let mut state = ExplicitQueues::new(n, config.max_retries);

    // Stop walking every node per slot where the traffic model allows it:
    // inline Bernoulli runs above the size threshold auto-compile an internal
    // block trace (bit-identical by construction, and the batched build is
    // cheaper than the per-slot draws it replaces); staggered runs compile
    // per-residue generation bitmaps.
    let traffic: KernelTraffic = match &config.traffic {
        KernelTraffic::Bernoulli { p }
            if n as u64 * config.slots >= AUTO_TRACE_MIN_DRAWS
                && n.div_ceil(64) as u64 * config.slots <= TRACE_WORD_LIMIT =>
        {
            KernelTraffic::Trace(Arc::new(TrafficTrace::bernoulli(
                plan,
                config.seed,
                *p,
                config.slots,
            )?))
        }
        other => other.clone(),
    };
    let residues = match &traffic {
        KernelTraffic::Staggered { period } => StaggerResidues::build(plan, *period),
        _ => None,
    };

    let frame_period = plan.period() as u64;
    for t in 0..config.slots {
        // Traffic generation.
        match &traffic {
            KernelTraffic::Bernoulli { p } => {
                for (v, &ov) in orig.iter().enumerate() {
                    if traffic_rng.bernoulli(*p, u64::from(ov), t) {
                        state.push(v, t);
                        counts.packets_generated += 1;
                    }
                }
            }
            KernelTraffic::Trace(trace) => {
                if trace.count_at(t) > 0 {
                    for (w, &word) in trace.words_at(t).iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let v = w * 64 + bits.trailing_zeros() as usize;
                            state.queues[v].push_back(t);
                            bits &= bits - 1;
                        }
                        state.backlog[w] |= word;
                    }
                    state.queued_total += u64::from(trace.count_at(t));
                    counts.packets_generated += u64::from(trace.count_at(t));
                }
            }
            KernelTraffic::Periodic { period } => {
                if t.is_multiple_of(*period) {
                    for v in 0..n {
                        state.push(v, t);
                    }
                    counts.packets_generated += n as u64;
                }
            }
            KernelTraffic::Staggered { period } => {
                let r = t % period;
                match &residues {
                    Some(res) if res.counts[r as usize] > 0 => {
                        for (w, &word) in res.words_at(r as usize).iter().enumerate() {
                            let mut bits = word;
                            while bits != 0 {
                                let v = w * 64 + bits.trailing_zeros() as usize;
                                state.queues[v].push_back(t);
                                bits &= bits - 1;
                            }
                            state.backlog[w] |= word;
                        }
                        state.queued_total += u64::from(res.counts[r as usize]);
                        counts.packets_generated += u64::from(res.counts[r as usize]);
                    }
                    Some(_) => {}
                    None => {
                        for (v, &ov) in orig.iter().enumerate() {
                            if u64::from(ov) % period == r {
                                state.push(v, t);
                                counts.packets_generated += 1;
                            }
                        }
                    }
                }
            }
            KernelTraffic::None => {}
        }
        if state.queued_total == 0 {
            counts.idle_slots += n as u64;
            continue;
        }

        // MAC decisions over the slot's backlogged candidates: the candidate
        // range's backlogged members are the set bits of a word range of the
        // backlog mask, so an empty-ish slot costs a few word reads instead of
        // one queue-header read per candidate.
        let slot = (t % frame_period) as usize;
        let range = plan.slot_candidates(slot);
        tx_list.clear();
        if !range.is_empty() {
            let first_word = range.start / 64;
            let last_word = (range.end - 1) / 64;
            for w in first_word..=last_word {
                let mut bits = state.backlog[w];
                if w == first_word {
                    bits &= !0u64 << (range.start % 64);
                }
                let valid = range.end - w * 64;
                if valid < 64 {
                    bits &= (1u64 << valid) - 1;
                }
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let transmit = match &config.mac {
                        KernelMac::Scheduled => true,
                        KernelMac::Aloha { p } => mac_rng.bernoulli(*p, u64::from(orig[v]), t),
                        KernelMac::AlohaTrace(trace) => trace.bit_at(t, v),
                    };
                    if transmit {
                        tx_list.push(v as u32);
                    }
                }
            }
        }
        if tx_list.is_empty() {
            counts.idle_slots += n as u64;
            continue;
        }
        let tx_count = tx_list.len();

        // Clean-slot shortcut (see `run_deterministic`): deliveries and the
        // rx tally are closed-form, no bitset passes needed; only conflicted
        // slots of the plan pay interference resolution.
        if !plan.slot_conflicted(slot) {
            settle_clean_slot(plan, &mut counts, &tx_list, n, t, |counts, v, degree, t| {
                state.settle(counts, v, degree, degree, t)
            });
            continue;
        }

        let rx = buffers.resolve(plan, &tx_list);
        counts.transmissions += tx_count as u64;
        for (&v, &decoded) in tx_list.iter().zip(&buffers.outcomes[..tx_count]) {
            let v = v as usize;
            state.settle(&mut counts, v, decoded, plan.degree(v), t);
        }
        counts.tx_slots += tx_count as u64;
        counts.rx_slots += rx;
        counts.idle_slots += n as u64 - tx_count as u64 - rx;
    }

    counts.packets_pending = state.queued_total;
    Ok(counts)
}

/// A per-lane event tally: callers push lane words (bit `l` set = one event
/// in lane `l`) and the tally accumulates per-lane counts. Words buffer into
/// a 64×64 tile that is bit-transposed and popcounted when full, so the
/// amortized cost per push is a store plus ~2 word operations instead of a
/// 64-iteration bit loop — the accounting backbone of the bit-sliced lane
/// kernel's per-edge reception/collision and per-receiver rx tallies.
struct LaneTally {
    buf: [u64; 64],
    fill: usize,
    totals: [u64; 64],
}

impl LaneTally {
    fn new() -> Self {
        LaneTally {
            buf: [0u64; 64],
            fill: 0,
            totals: [0u64; 64],
        }
    }

    #[inline]
    fn push(&mut self, word: u64) {
        self.buf[self.fill] = word;
        self.fill += 1;
        if self.fill == 64 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.fill == 0 {
            return;
        }
        for w in self.buf[self.fill..].iter_mut() {
            *w = 0;
        }
        transpose64(&mut self.buf);
        for (l, &w) in self.buf.iter().enumerate() {
            self.totals[l] += u64::from(w.count_ones());
        }
        self.fill = 0;
    }
}

/// Runs up to 64 seeds of one grid point through a single pass over the slot
/// structure, bit-sliced: lane `l` of every `u64` lane word tracks seed
/// `seeds[l]`, and the returned counters are bit-identical to running
/// [`run_frames`] once per seed (`config.seed` is ignored).
///
/// One slot loop serves all lanes: the candidate scan, interference adjacency
/// walk and generation schedule are shared, per-node backlog and transmit
/// sets widen to lane words, slotted-ALOHA decisions come from batched
/// counter-RNG lane draws ([`CounterRng::bernoulli_lanes`] over per-`(node,
/// lane)` hoisted keys), and interference resolves lane-parallel with the
/// same saturating once/twice masks as `SlotBuffers::resolve` — one `u64`
/// operation where the scalar kernel pays one per seed. Accounting is
/// bit-planed too: transmissions, deliveries, drops, receptions and rx
/// exposure accumulate through `LaneTally` transposed popcounts, retry
/// counters live as per-node bit planes incremented by a masked half-adder
/// chain (with the retry-budget comparison folded into the same pass), and
/// collisions follow by conservation (`deg·tx − receptions`) instead of a
/// second per-edge tally; per-event scalar work survives only for
/// lane-specific values (delivery latency, queue pops). Bit-exactness rests
/// on the counter RNG: draws are pure functions of `(seed, node, slot)`, so
/// masking a batched draw with the backlog is indistinguishable from the
/// scalar kernel's conditional draws.
///
/// Lanes support deterministic traffic (periodic or staggered — generation is
/// lane-uniform, so backlog refills are one mask store) *and* Bernoulli
/// traffic, under scheduled or slotted-ALOHA access, on clean and conflicted
/// plans. Bernoulli generation draws are batched exactly like the MAC's
/// ([`CounterRng::bernoulli_lanes`] over per-`(node, lane)` hoisted
/// traffic-stream keys), and the per-lane backlog counters it needs —
/// per-lane queue lengths are no longer uniform — are bit-planed like the
/// retry clock: plane `k` of a node holds bit `k` of every lane's queue
/// length, incremented by a masked half-adder chain on generation and
/// decremented by its borrow-chain mirror on pops, with the backlog word
/// recovered as the planes' OR. Only arrival timestamps (for delivery
/// latency) stay per-event scalar, touched on generation and pop events
/// alone.
///
/// # Errors
///
/// Returns [`EngineError::InvalidKernelConfig`] for an empty or over-64 seed
/// batch, a trace traffic model (per-seed traces have no lane batching — use
/// the Bernoulli model they were compiled from), a trace-replayed MAC, a zero
/// traffic period or an out-of-range probability.
pub fn run_frames_lanes(
    plan: &FramePlan,
    config: &KernelConfig,
    seeds: &[u64],
) -> Result<Vec<KernelCounts>> {
    let lanes = seeds.len();
    if lanes == 0 || lanes > 64 {
        return Err(EngineError::InvalidKernelConfig(format!(
            "lane batches take 1..=64 seeds, got {lanes}"
        )));
    }
    // Traffic mode: deterministic (lane-uniform generation) or Bernoulli
    // (lane-sliced generation draws with bit-planed backlog counters). The
    // deterministic arms keep `(traffic_period, staggered)`; the Bernoulli
    // arm never reads them.
    let bernoulli_p = match &config.traffic {
        KernelTraffic::Bernoulli { p } => {
            if !(0.0..=1.0).contains(p) {
                return Err(EngineError::InvalidKernelConfig(
                    "bernoulli probability must be in [0, 1]".into(),
                ));
            }
            Some(*p)
        }
        _ => None,
    };
    let (traffic_period, staggered) = match &config.traffic {
        KernelTraffic::Periodic { period } if *period > 0 => (*period, false),
        KernelTraffic::Staggered { period } if *period > 0 => (*period, true),
        KernelTraffic::Periodic { .. } | KernelTraffic::Staggered { .. } => {
            return Err(EngineError::InvalidKernelConfig(
                "periodic traffic period must be positive".into(),
            ));
        }
        // The period is meaningless under Bernoulli traffic; 1 keeps the
        // (unused) deterministic arithmetic well-defined.
        KernelTraffic::Bernoulli { .. } => (1, false),
        other => {
            return Err(EngineError::InvalidKernelConfig(format!(
                "lane batches need periodic, staggered or bernoulli traffic, got {other:?}"
            )));
        }
    };
    let aloha_p = match &config.mac {
        KernelMac::Scheduled => None,
        KernelMac::Aloha { p } => {
            if !(0.0..=1.0).contains(p) {
                return Err(EngineError::InvalidKernelConfig(
                    "aloha probability must be in [0, 1]".into(),
                ));
            }
            Some(*p)
        }
        KernelMac::AlohaTrace(_) => {
            return Err(EngineError::InvalidKernelConfig(
                "lane batches draw MAC decisions inline; trace-replayed MACs are per-run".into(),
            ));
        }
    };

    // Validation is done: one lane batch, and each seed is one simulated run
    // on its lane dispatch path.
    {
        use crate::telemetry::{count, Counter};
        count(Counter::LaneBatches, 1);
        count(Counter::LaneRuns, lanes as u64);
        note_dispatch(
            if bernoulli_p.is_some() {
                Counter::DispatchLaneBernoulli
            } else {
                Counter::DispatchLaneScalar
            },
            lanes as u64,
        );
    }

    let n = plan.num_nodes();
    let orig = plan.original_ids();
    let lane_mask = if lanes == 64 {
        !0u64
    } else {
        (1u64 << lanes) - 1
    };
    let mut counts = vec![KernelCounts::default(); lanes];

    // Per-(node, lane) hoisted MAC keys: one batched lane draw per
    // (candidate, slot) replaces one full hash per (candidate, slot, seed).
    let (mac_hoisted, mac_threshold) = match aloha_p {
        Some(p) => {
            let rngs: Vec<CounterRng> = seeds.iter().map(|&s| CounterRng::mac(s)).collect();
            let mut hoisted = vec![0u64; n * lanes];
            for (v, &ov) in orig.iter().enumerate() {
                for (l, rng) in rngs.iter().enumerate() {
                    hoisted[v * lanes + l] = rng.hoist_node(u64::from(ov));
                }
            }
            (hoisted, CounterRng::bernoulli_threshold(p))
        }
        None => (Vec::new(), 0),
    };
    let residues = staggered.then(|| StaggerResidues::build(plan, traffic_period));

    // Per-(node, lane) hoisted traffic keys for Bernoulli generation: the
    // same batching as the MAC draws, on the traffic stream.
    let (traffic_hoisted, traffic_threshold) = match bernoulli_p {
        Some(p) => {
            let rngs: Vec<CounterRng> = seeds.iter().map(|&s| CounterRng::traffic(s)).collect();
            let mut hoisted = vec![0u64; n * lanes];
            for (v, &ov) in orig.iter().enumerate() {
                for (l, rng) in rngs.iter().enumerate() {
                    hoisted[v * lanes + l] = rng.hoist_node(u64::from(ov));
                }
            }
            (hoisted, CounterRng::bernoulli_threshold(p))
        }
        None => (Vec::new(), 0),
    };

    // Lane-sliced queue state. Deterministic traffic keeps implicit
    // arithmetic-progression queues as in the scalar loop: one popped counter
    // per (node, lane) — touched only on pop events — with lane-uniform
    // generation refilling whole backlog words. Bernoulli traffic has
    // non-uniform per-lane queue lengths instead, so those become bit planes
    // mirroring the retry clock below: plane `k` of a node holds bit `k` of
    // every lane's queue length (a length never exceeds the slot count, so
    // the plane width is the slot count's bit length), incremented by a
    // masked half-adder chain on generation draws and decremented by the
    // borrow-chain mirror on pops; the backlog word is the planes' OR. Only
    // arrival timestamps stay per-event scalar (delivery latency needs the
    // head packet's generation slot), in per-(node, lane) FIFOs touched on
    // generation and pop events alone. Both modes share the per-node lane
    // backlog words and the all-lane queued total for the O(1) skip of slots
    // with nothing queued anywhere. The retry clock is bit-planed: plane `k`
    // of a node holds bit `k` of every lane's attempt count, so the
    // per-transmission increment and the retry-budget comparison are masked
    // half-adder chains over whole lane words instead of per-lane counter
    // updates.
    let target = u64::from(config.max_retries) + 1;
    let attempt_bits = (64 - target.leading_zeros()) as usize;
    let qlen_bits = match bernoulli_p {
        Some(_) => (64 - config.slots.leading_zeros()) as usize,
        None => 0,
    };
    let mut popped = vec![0u64; if bernoulli_p.is_some() { 0 } else { n * lanes }];
    let mut qlen_planes = vec![0u64; n * qlen_bits];
    let mut arrival_times: Vec<VecDeque<u64>> = if bernoulli_p.is_some() {
        vec![VecDeque::new(); n * lanes]
    } else {
        Vec::new()
    };
    let mut attempt_planes = vec![0u64; n * attempt_bits];
    let mut backlog = vec![0u64; n];
    let mut queued_total: u64 = 0;
    let mut gen_tally = LaneTally::new();

    // Per-slot interference state, lane-wide: tx/once/twice words per node,
    // cleared via touched lists rather than O(n) sweeps.
    let mut tx_lanes = vec![0u64; n];
    let mut once = vec![0u64; n];
    let mut twice = vec![0u64; n];
    let mut tx_list: Vec<u32> = Vec::with_capacity(n);
    let mut heard: Vec<u32> = Vec::with_capacity(n);
    let mut recv_tally = LaneTally::new();
    let mut rx_tally = LaneTally::new();
    let mut tx_tally = LaneTally::new();
    let mut deliver_tally = LaneTally::new();
    let mut drop_tally = LaneTally::new();
    // Degree-weighted tallies: one tally per degree bit turns a `degree ×
    // popcount(word)` contribution into plain bit counts scaled by 2^k at
    // flush. Clean slots push delivered lanes (every delivery is heard by
    // all `degree` neighbours); conflicted slots push transmitting lanes,
    // from which collisions follow by conservation (every (edge, lane)
    // attempt is either received or collided, so collisions = deg·tx −
    // receptions) without a second per-edge tally.
    let max_degree = (0..n).map(|v| u64::from(plan.degree(v))).max().unwrap_or(0);
    let degree_bits = (64 - max_degree.leading_zeros()) as usize;
    let mut degree_tallies: Vec<LaneTally> = (0..degree_bits).map(|_| LaneTally::new()).collect();
    let mut degree_tx_tallies: Vec<LaneTally> =
        (0..degree_bits).map(|_| LaneTally::new()).collect();

    let frame_period = plan.period() as u64;
    let phase_of = |v: usize| -> u64 {
        if staggered {
            u64::from(orig[v]) % traffic_period
        } else {
            0
        }
    };
    for t in 0..config.slots {
        // Traffic generation. Bernoulli: one batched lane draw per node
        // (pure functions of `(seed, node, slot)`, bit-identical to the
        // scalar kernel's draws), folded into the bit-planed queue-length
        // counters by a half-adder increment over the drawn lanes; the
        // per-lane generated tally and the arrival-time pushes ride the same
        // events. Deterministic traffic is lane-uniform: a generating node
        // becomes backlogged in every lane (its per-lane queue lengths
        // differ, but all grow by one).
        if bernoulli_p.is_some() {
            for v in 0..n {
                let gen = CounterRng::bernoulli_lanes(
                    &traffic_hoisted[v * lanes..(v + 1) * lanes],
                    traffic_threshold,
                    t,
                );
                if gen == 0 {
                    continue;
                }
                gen_tally.push(gen);
                queued_total += u64::from(gen.count_ones());
                backlog[v] |= gen;
                let planes = &mut qlen_planes[v * qlen_bits..(v + 1) * qlen_bits];
                let mut carry = gen;
                for plane in planes.iter_mut() {
                    let sum = *plane ^ carry;
                    carry &= *plane;
                    *plane = sum;
                }
                debug_assert_eq!(carry, 0, "queue length exceeded the plane width");
                let mut bits = gen;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    arrival_times[v * lanes + l].push_back(t);
                }
            }
        } else if staggered {
            let r = (t % traffic_period) as usize;
            match &residues {
                Some(Some(res)) => {
                    if res.counts[r] > 0 {
                        for (w, &word) in res.words_at(r).iter().enumerate() {
                            let mut bits = word;
                            while bits != 0 {
                                let v = w * 64 + bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                backlog[v] = lane_mask;
                            }
                        }
                        queued_total += u64::from(res.counts[r]) * lanes as u64;
                    }
                }
                _ => {
                    for (v, &ov) in orig.iter().enumerate() {
                        if u64::from(ov) % traffic_period == r as u64 {
                            backlog[v] = lane_mask;
                            queued_total += lanes as u64;
                        }
                    }
                }
            }
        } else if t.is_multiple_of(traffic_period) {
            backlog[..n].fill(lane_mask);
            queued_total += n as u64 * lanes as u64;
        }
        if queued_total == 0 {
            continue; // idle slots fall out of the end-of-run identity
        }

        // Shared candidate scan; per-candidate lane transmit words.
        let slot = (t % frame_period) as usize;
        let aligned_generated = t / traffic_period + 1;
        tx_list.clear();
        for v in plan.slot_candidates(slot) {
            let backlogged = backlog[v];
            if backlogged == 0 {
                continue;
            }
            let tx = match aloha_p {
                None => backlogged,
                Some(_) => {
                    // Draws are pure functions of (seed, node, slot), so
                    // masking the batched draw with the backlog reproduces
                    // the scalar kernel's backlogged-only draws exactly.
                    backlogged
                        & CounterRng::bernoulli_lanes(
                            &mac_hoisted[v * lanes..(v + 1) * lanes],
                            mac_threshold,
                            t,
                        )
                }
            };
            if tx != 0 {
                tx_lanes[v] = tx;
                tx_list.push(v as u32);
            }
        }
        if tx_list.is_empty() {
            continue;
        }

        let conflicted = plan.slot_conflicted(slot);
        if conflicted {
            // Lane-parallel saturating interference count: `once`/`twice`
            // mirror SlotBuffers::resolve word-wise, one word per lane set.
            for &v in &tx_list {
                let tw = tx_lanes[v as usize];
                let (entry_words, entry_bits) = plan.mask_entries(v as usize);
                for (&w, &mask) in entry_words.iter().zip(entry_bits) {
                    let mut bits = mask;
                    while bits != 0 {
                        let u = w as usize * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let cur = once[u];
                        if cur == 0 {
                            heard.push(u as u32);
                        }
                        twice[u] |= cur & tw;
                        once[u] = cur | tw;
                    }
                }
            }
        }

        // Settle transmitters word-parallel. On a clean slot every
        // transmitting lane delivers (same closed form as
        // `settle_clean_slot`); on a conflicted slot lane `l` of `v`
        // delivers iff no neighbour is lost in lane `l`. Per-lane scalar
        // work survives only where an event carries a lane-specific value
        // (delivery latency, queue pops); transmissions, deliveries, drops,
        // clean-slot receptions and the retry clock all run as bit-plane
        // arithmetic over whole lane words.
        for &v in &tx_list {
            let v = v as usize;
            let tx = tx_lanes[v];
            let delivered_lanes = if conflicted {
                let (entry_words, entry_bits) = plan.mask_entries(v);
                let mut lost_any = 0u64;
                for (&w, &mask) in entry_words.iter().zip(entry_bits) {
                    let mut bits = mask;
                    while bits != 0 {
                        let u = w as usize * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let lost = tx_lanes[u] | twice[u];
                        recv_tally.push(tx & !lost);
                        lost_any |= lost;
                    }
                }
                let mut degree = u64::from(plan.degree(v));
                let mut k = 0;
                while degree != 0 {
                    if degree & 1 == 1 {
                        degree_tx_tallies[k].push(tx);
                    }
                    degree >>= 1;
                    k += 1;
                }
                tx & !lost_any
            } else {
                tx
            };
            tx_tally.push(tx);
            // Retry clock: attempts += 1 on every transmitting lane via a
            // masked half-adder carry chain, with a simultaneous equality
            // compare against `target = max_retries + 1`. The final carry is
            // always zero — a lane that reaches `target` pops (and resets)
            // in this same slot, so the planes never hold a larger value.
            let planes = &mut attempt_planes[v * attempt_bits..(v + 1) * attempt_bits];
            let mut carry = tx;
            let mut at_limit = !0u64;
            for (k, plane) in planes.iter_mut().enumerate() {
                let sum = *plane ^ carry;
                carry &= *plane;
                *plane = sum;
                at_limit &= if target >> k & 1 == 1 { sum } else { !sum };
            }
            let drop_lanes = at_limit & tx & !delivered_lanes;
            deliver_tally.push(delivered_lanes);
            drop_tally.push(drop_lanes);
            if !conflicted && delivered_lanes != 0 {
                // Every delivered lane is heard by all `degree` neighbours;
                // count per degree bit, scaled by 2^k at flush.
                let mut degree = u64::from(plan.degree(v));
                let mut k = 0;
                while degree != 0 {
                    if degree & 1 == 1 {
                        degree_tallies[k].push(delivered_lanes);
                    }
                    degree >>= 1;
                    k += 1;
                }
            }
            let pop_lanes = delivered_lanes | drop_lanes;
            if pop_lanes != 0 {
                for plane in attempt_planes[v * attempt_bits..(v + 1) * attempt_bits].iter_mut() {
                    *plane &= !pop_lanes;
                }
                if bernoulli_p.is_some() {
                    // Half-adder decrement (borrow-chain mirror of the
                    // generation increment) of the popping lanes' queue
                    // lengths; the backlog word is the planes' OR. Latency
                    // needs the head arrival slot — the one per-event scalar
                    // read left in the Bernoulli path.
                    let planes = &mut qlen_planes[v * qlen_bits..(v + 1) * qlen_bits];
                    let mut borrow = pop_lanes;
                    let mut nonzero = 0u64;
                    for plane in planes.iter_mut() {
                        let sum = *plane ^ borrow;
                        borrow &= !*plane;
                        *plane = sum;
                        nonzero |= sum;
                    }
                    debug_assert_eq!(borrow, 0, "popped an empty lane queue");
                    backlog[v] = nonzero;
                    let mut bits = pop_lanes;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let generated_at = arrival_times[v * lanes + l]
                            .pop_front()
                            .expect("transmitters are backlogged");
                        if delivered_lanes >> l & 1 == 1 {
                            counts[l].total_latency += t - generated_at;
                        }
                        queued_total -= 1;
                    }
                } else {
                    let phase = phase_of(v);
                    let gen = if staggered {
                        if t >= phase {
                            (t - phase) / traffic_period + 1
                        } else {
                            0
                        }
                    } else {
                        aligned_generated
                    };
                    let mut bits = pop_lanes;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let idx = v * lanes + l;
                        if delivered_lanes >> l & 1 == 1 {
                            counts[l].total_latency += t - (phase + popped[idx] * traffic_period);
                        }
                        popped[idx] += 1;
                        queued_total -= 1;
                        if gen <= popped[idx] {
                            backlog[v] &= !(1u64 << l);
                        }
                    }
                }
            }
        }

        if conflicted {
            // Per-lane receiver tally (≥ 1 heard, not transmitting), then
            // clear only what this slot touched.
            for &u in &heard {
                let u = u as usize;
                rx_tally.push(once[u] & !tx_lanes[u]);
                once[u] = 0;
                twice[u] = 0;
            }
            heard.clear();
        }
        for &v in &tx_list {
            tx_lanes[v as usize] = 0;
        }
    }

    recv_tally.flush();
    rx_tally.flush();
    tx_tally.flush();
    deliver_tally.flush();
    drop_tally.flush();
    for tally in degree_tallies
        .iter_mut()
        .chain(degree_tx_tallies.iter_mut())
    {
        tally.flush();
    }
    for (l, lane) in counts.iter_mut().enumerate() {
        lane.transmissions += tx_tally.totals[l];
        lane.tx_slots += tx_tally.totals[l];
        lane.packets_delivered += deliver_tally.totals[l];
        lane.packets_dropped += drop_tally.totals[l];
        for (k, tally) in degree_tallies.iter().enumerate() {
            lane.receptions += tally.totals[l] << k;
            lane.rx_slots += tally.totals[l] << k;
        }
        let conflicted_attempts: u64 = degree_tx_tallies
            .iter()
            .enumerate()
            .map(|(k, tally)| tally.totals[l] << k)
            .sum();
        lane.receptions += recv_tally.totals[l];
        lane.collisions += conflicted_attempts - recv_tally.totals[l];
        lane.rx_slots += rx_tally.totals[l];
    }

    if config.slots > 0 {
        if bernoulli_p.is_some() {
            // Per-lane generated totals come off the generation tally (the
            // draws are lane-specific); pending and idle by conservation.
            gen_tally.flush();
            for (l, lane) in counts.iter_mut().enumerate() {
                lane.packets_generated = gen_tally.totals[l];
                lane.packets_pending =
                    gen_tally.totals[l] - lane.packets_delivered - lane.packets_dropped;
                lane.idle_slots = n as u64 * config.slots - lane.tx_slots - lane.rx_slots;
            }
        } else {
            // Lane-uniform closed-form generation totals (as in the scalar
            // deterministic loop), then pending and idle by conservation.
            let generated = if staggered {
                (0..n as u64)
                    .map(|id| {
                        let phase = id % traffic_period;
                        if config.slots > phase {
                            (config.slots - 1 - phase) / traffic_period + 1
                        } else {
                            0
                        }
                    })
                    .sum()
            } else {
                ((config.slots - 1) / traffic_period + 1) * n as u64
            };
            for lane in counts.iter_mut() {
                lane.packets_generated = generated;
                lane.packets_pending = generated - lane.packets_delivered - lane.packets_dropped;
                lane.idle_slots = n as u64 * config.slots - lane.tx_slots - lane.rx_slots;
            }
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{FrameSchedule, InterferenceCsr};

    /// 0 — 1 — 2 in a line, each affecting its immediate neighbours.
    fn line3() -> InterferenceCsr {
        InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap()
    }

    fn plan(slots: &[usize], period: usize) -> FramePlan {
        let frames = FrameSchedule::from_assignment(slots, period).unwrap();
        FramePlan::new(&frames, &line3()).unwrap()
    }

    fn config(slots: u64, traffic: KernelTraffic, max_retries: u32) -> KernelConfig {
        KernelConfig {
            slots,
            traffic,
            mac: KernelMac::Scheduled,
            max_retries,
            seed: 7,
        }
    }

    #[test]
    fn collision_free_frames_deliver_everything() {
        // 3 slots, one node each: no two in-range nodes share a slot.
        let counts = run_frames(
            &plan(&[0, 1, 2], 3),
            &config(30, KernelTraffic::Periodic { period: 10 }, 8),
        )
        .unwrap();
        assert_eq!(counts.packets_generated, 9);
        assert_eq!(counts.collisions, 0);
        assert_eq!(counts.packets_dropped, 0);
        assert_eq!(
            counts.packets_generated,
            counts.packets_delivered + counts.packets_pending
        );
        // One transmission per delivered packet.
        assert_eq!(counts.transmissions, counts.packets_delivered);
        assert_eq!(
            counts.tx_slots + counts.rx_slots + counts.idle_slots,
            3 * 30
        );
    }

    #[test]
    fn shared_slots_collide_and_drop_after_retries() {
        // Nodes 0 and 2 share slot 0 and both affect node 1: every transmission
        // collides at node 1, so every packet is eventually dropped.
        let counts = run_frames(
            &plan(&[0, 1, 0], 2),
            &config(40, KernelTraffic::Periodic { period: 40 }, 1),
        )
        .unwrap();
        assert!(counts.collisions > 0);
        // Node 1 transmits alone and delivers; 0 and 2 drop after 2 attempts.
        assert_eq!(counts.packets_delivered, 1);
        assert_eq!(counts.packets_dropped, 2);
        assert_eq!(counts.packets_pending, 0);
    }

    #[test]
    fn no_traffic_is_all_idle() {
        let counts = run_frames(&plan(&[0, 1, 2], 3), &config(17, KernelTraffic::None, 3)).unwrap();
        assert_eq!(
            counts,
            KernelCounts {
                idle_slots: 3 * 17,
                ..KernelCounts::default()
            }
        );
    }

    #[test]
    fn zero_slots_is_a_no_op() {
        let counts = run_frames(
            &plan(&[0, 1, 2], 3),
            &config(0, KernelTraffic::Periodic { period: 4 }, 0),
        )
        .unwrap();
        assert_eq!(counts, KernelCounts::default());
    }

    #[test]
    fn staggered_traffic_spreads_generation_phases() {
        // Collision-free plan: each node's generation phase is its original id
        // mod the traffic period, so packets are spread over time.
        let counts = run_frames(
            &plan(&[0, 1, 2], 3),
            &config(30, KernelTraffic::Staggered { period: 3 }, 8),
        )
        .unwrap();
        assert_eq!(counts.packets_generated, 30);
        assert_eq!(counts.collisions, 0);
        assert_eq!(
            counts.packets_generated,
            counts.packets_delivered + counts.packets_pending
        );
        // Node 0 generates at t=0,3,..., node 2 at t=2,5,...: totals match the
        // closed form (slots - 1 - phase) / period + 1.
        let by_hand: u64 = (0..3u64).map(|phase| (30 - 1 - phase) / 3 + 1).sum();
        assert_eq!(counts.packets_generated, by_hand);
    }

    #[test]
    fn bernoulli_traffic_conserves_packets_and_replays() {
        let plan = plan(&[0, 1, 2], 3);
        let cfg = config(200, KernelTraffic::Bernoulli { p: 0.2 }, 2);
        let a = run_frames(&plan, &cfg).unwrap();
        let b = run_frames(&plan, &cfg).unwrap();
        assert_eq!(a, b, "counter-based draws replay bit-identically");
        assert!(a.packets_generated > 0);
        assert_eq!(
            a.packets_generated,
            a.packets_delivered + a.packets_dropped + a.packets_pending
        );
        assert_eq!(a.tx_slots + a.rx_slots + a.idle_slots, 3 * 200);
    }

    #[test]
    fn transpose64_matches_the_naive_definition() {
        // Pseudo-random but deterministic 64x64 matrix.
        let rng = CounterRng::new(5, 5);
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = rng.draw(i as u64, 0);
        }
        let mut t = a;
        transpose64(&mut t);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in t.iter().enumerate() {
                assert_eq!(
                    col >> i & 1,
                    row >> j & 1,
                    "bit ({i}, {j}) must move to ({j}, {i})"
                );
            }
        }
        // Transposing twice is the identity.
        transpose64(&mut t);
        assert_eq!(t, a);
    }

    #[test]
    fn batched_trace_build_matches_per_draw_construction() {
        // The block-wise build (hoisted keys, integer thresholds, bit
        // transpose) must reproduce naive per-(node, slot) draws bit for bit,
        // including at ragged node/slot counts that exercise the padding.
        for (nodes, slots) in [(1usize, 1u64), (3, 70), (64, 64), (65, 130), (130, 65)] {
            let assignment: Vec<usize> = (0..nodes).map(|v| v % 3).collect();
            let lists: Vec<Vec<usize>> = (0..nodes)
                .map(|v| if v + 1 < nodes { vec![v + 1] } else { vec![] })
                .collect();
            let adjacency = InterferenceCsr::from_lists(&lists).unwrap();
            let frames = FrameSchedule::from_assignment(&assignment, 3).unwrap();
            let plan = FramePlan::new(&frames, &adjacency).unwrap();
            for p in [0.0, 0.037, 0.5, 1.0] {
                let trace = TrafficTrace::bernoulli(&plan, 99, p, slots).unwrap();
                let rng = CounterRng::traffic(99);
                let orig = plan.original_ids();
                let mut total = 0u64;
                for t in 0..slots {
                    let words = trace.words_at(t);
                    let mut count = 0u32;
                    for (v, &ov) in orig.iter().enumerate() {
                        let expected = rng.bernoulli(p, u64::from(ov), t);
                        let got = words[v / 64] >> (v % 64) & 1 == 1;
                        assert_eq!(got, expected, "n={nodes} slots={slots} p={p} v={v} t={t}");
                        count += u32::from(expected);
                    }
                    assert_eq!(trace.count_at(t), count);
                    // Padding bits beyond `nodes` stay clear.
                    let tail_bits: u32 = words.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(tail_bits, count, "padding bits leaked at t={t}");
                    total += u64::from(count);
                }
                assert_eq!(trace.total_generated(), total);
            }
        }
    }

    #[test]
    fn partially_conflicting_plans_narrow_to_clean_slots() {
        // Assignment [0, 1, 0] on the 3-line: slot 0 (nodes 0 and 2 sharing
        // neighbour 1) conflicts, slot 1 (node 1 alone) is clean.
        let partial = plan(&[0, 1, 0], 2);
        assert!(!partial.conflict_free());
        assert_eq!(partial.conflicted_slots(), 1);
        assert!(partial.slot_conflicted(0));
        assert!(!partial.slot_conflicted(1));

        // The bitmask-narrowed kernel must match the full-bitset oracle
        // (every slot forced conflicted) bit for bit, across deterministic
        // and stochastic workloads.
        let mut oracle = partial.clone();
        oracle.pessimize_conflicts();
        assert_eq!(oracle.conflicted_slots(), 2);
        for traffic in [
            KernelTraffic::Periodic { period: 3 },
            KernelTraffic::Staggered { period: 2 },
            KernelTraffic::Bernoulli { p: 0.3 },
        ] {
            for retries in [0u32, 2] {
                let cfg = config(200, traffic.clone(), retries);
                let narrowed = run_frames(&partial, &cfg).unwrap();
                let full = run_frames(&oracle, &cfg).unwrap();
                assert_eq!(narrowed, full, "traffic {traffic:?} retries {retries}");
                assert!(narrowed.packets_generated > 0);
            }
        }
    }

    #[test]
    fn auto_compiled_traces_match_explicit_traces_and_thresholds() {
        // Above the auto-trace threshold the inline Bernoulli path compiles an
        // internal trace; its counters must equal an explicit-trace run (and a
        // below-threshold inline run of the same seed/p agrees on the shared
        // prefix workload by construction of the counter RNG).
        let plan = plan(&[0, 1, 0], 2);
        let slots = 2_000; // 3 nodes x 2000 slots = 6000 >= AUTO_TRACE_MIN_DRAWS
        assert!(3 * slots >= AUTO_TRACE_MIN_DRAWS);
        let inline_cfg = config(slots, KernelTraffic::Bernoulli { p: 0.21 }, 1);
        let trace = TrafficTrace::bernoulli(&plan, inline_cfg.seed, 0.21, slots).unwrap();
        let traced_cfg = config(slots, KernelTraffic::Trace(Arc::new(trace)), 1);
        let a = run_frames(&plan, &inline_cfg).unwrap();
        let b = run_frames(&plan, &traced_cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.packets_generated > 0);
    }

    #[test]
    fn staggered_residue_bitmaps_match_the_per_node_walk() {
        // Force the stochastic (general) loop with an ALOHA MAC so staggered
        // generation runs through the residue bitmaps.
        let plan = plan(&[0, 1, 2], 3);
        let mut cfg = config(300, KernelTraffic::Staggered { period: 4 }, 2);
        cfg.mac = KernelMac::Aloha { p: 0.7 };
        let counts = run_frames(&plan, &cfg).unwrap();
        // Generation totals follow the closed form regardless of the MAC.
        let by_hand: u64 = (0..3u64).map(|id| (300 - 1 - id % 4) / 4 + 1).sum();
        assert_eq!(counts.packets_generated, by_hand);
        assert_eq!(
            counts.packets_generated,
            counts.packets_delivered + counts.packets_dropped + counts.packets_pending
        );
        // A period too long to materialize falls back to the per-node walk:
        // each node generates exactly once (at t = original id) within 300
        // slots, and totals stay conserved.
        let mut long_cfg = config(
            300,
            KernelTraffic::Staggered {
                period: STAGGER_RESIDUE_WORD_LIMIT + 1,
            },
            2,
        );
        long_cfg.mac = KernelMac::Aloha { p: 0.7 };
        let long_counts = run_frames(&plan, &long_cfg).unwrap();
        assert_eq!(long_counts.packets_generated, 3);
        assert_eq!(
            long_counts.packets_generated,
            long_counts.packets_delivered
                + long_counts.packets_dropped
                + long_counts.packets_pending
        );
    }

    #[test]
    fn traces_replay_identically_to_inline_bernoulli_draws() {
        let plan = plan(&[0, 1, 0], 2);
        let inline_cfg = config(300, KernelTraffic::Bernoulli { p: 0.15 }, 1);
        let trace = TrafficTrace::bernoulli(&plan, inline_cfg.seed, 0.15, 300).unwrap();
        assert_eq!(trace.num_nodes(), 3);
        assert_eq!(trace.num_slots(), 300);
        let traced_cfg = config(300, KernelTraffic::Trace(Arc::new(trace)), 1);
        let inline_counts = run_frames(&plan, &inline_cfg).unwrap();
        let traced_counts = run_frames(&plan, &traced_cfg).unwrap();
        assert_eq!(inline_counts, traced_counts);
        assert!(inline_counts.packets_generated > 0);
    }

    #[test]
    fn aloha_mac_thins_transmissions() {
        // All nodes candidates every slot (period-1 plan), ALOHA p = 0.5 under
        // saturating traffic: some backlogged nodes hold back each slot.
        let plan = plan(&[0, 0, 0], 1);
        let mut cfg = config(100, KernelTraffic::Periodic { period: 1 }, 0);
        cfg.mac = KernelMac::Aloha { p: 0.5 };
        let counts = run_frames(&plan, &cfg).unwrap();
        assert!(counts.transmissions > 0);
        assert!(
            counts.transmissions < 300,
            "p=0.5 must hold some transmissions back"
        );
        assert_eq!(
            counts.packets_generated,
            counts.packets_delivered + counts.packets_dropped + counts.packets_pending
        );
        // Degenerate probabilities are deterministic.
        cfg.mac = KernelMac::Aloha { p: 0.0 };
        let silent = run_frames(&plan, &cfg).unwrap();
        assert_eq!(silent.transmissions, 0);
    }

    /// A conflicted plan with `pairs` slots, two interfering nodes per slot:
    /// every slot's full burst collides, so every visited slot wants a memo
    /// entry.
    fn paired_plan(pairs: usize) -> FramePlan {
        let n = 2 * pairs;
        let assignment: Vec<usize> = (0..n).map(|v| v / 2).collect();
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|v| vec![if v % 2 == 0 { v + 1 } else { v - 1 }])
            .collect();
        let adjacency = InterferenceCsr::from_lists(&lists).unwrap();
        let frames = FrameSchedule::from_assignment(&assignment, pairs).unwrap();
        FramePlan::new(&frames, &adjacency).unwrap()
    }

    #[test]
    fn full_burst_memo_stays_under_its_byte_budget_on_large_periods() {
        // Direct accounting check: inserting one outcome per slot of a
        // large-period schedule must stop charging once the budget is hit,
        // never exceed it, and keep answering for the entries it kept.
        let plan = paired_plan(2048); // 2048-slot period, 4096 nodes
        let budget = 4096usize;
        let mut memo = FullBurstMemo::new(budget);
        let outcomes = [1u32, 1];
        for slot in 0..plan.period() {
            memo.insert(&plan, slot, &outcomes, 2);
            assert!(memo.bytes() <= budget, "budget exceeded at slot {slot}");
        }
        assert!(memo.bytes() > 0, "some entries fit");
        assert!(
            memo.entries.len() < plan.period(),
            "the budget must reject most of a large period"
        );
        // Kept entries replay; rejected ones report a miss.
        let kept = memo.entries.len();
        let hits = (0..plan.period())
            .filter(|&s| memo.get(&plan, s).is_some())
            .count();
        assert_eq!(hits, kept);
        // Re-inserting a kept slot charges nothing twice.
        let bytes = memo.bytes();
        memo.insert(&plan, 0, &outcomes, 2);
        assert_eq!(memo.bytes(), bytes);
    }

    #[test]
    fn capped_memo_never_changes_deterministic_results() {
        // The memo is a pure replay cache: running with a zero budget (every
        // burst recomputed), a tiny budget (some replayed) and an unbounded
        // one must produce identical counters on a conflicted large-period
        // schedule.
        let plan = paired_plan(64);
        for (traffic_period, staggered) in [(1u64, false), (3, false), (5, true)] {
            let cfg = config(
                400,
                if staggered {
                    KernelTraffic::Staggered {
                        period: traffic_period,
                    }
                } else {
                    KernelTraffic::Periodic {
                        period: traffic_period,
                    }
                },
                1,
            );
            let unbounded =
                run_deterministic(&plan, &cfg, traffic_period, staggered, usize::MAX).unwrap();
            let capped = run_deterministic(&plan, &cfg, traffic_period, staggered, 256).unwrap();
            let disabled = run_deterministic(&plan, &cfg, traffic_period, staggered, 0).unwrap();
            assert_eq!(unbounded, capped, "period {traffic_period}");
            assert_eq!(unbounded, disabled, "period {traffic_period}");
            assert!(unbounded.collisions > 0, "the paired plan must conflict");
        }
    }

    #[test]
    fn analytic_replay_matches_the_loop_kernels_bit_for_bit() {
        // Clean (conflict-free) scheduled runs dispatch to the closed-form
        // analytic replay; it must reproduce the slot-loop kernels exactly on
        // every traffic model, including the auto-traced Bernoulli path.
        let clean = plan(&[0, 1, 2], 3);
        assert!(clean.conflict_free());
        let big_slots = 2_000; // over the Bernoulli auto-trace threshold
        let trace = Arc::new(TrafficTrace::bernoulli(&clean, 7, 0.3, 500).unwrap());
        for traffic in [
            KernelTraffic::Periodic { period: 1 },
            KernelTraffic::Periodic { period: 7 },
            KernelTraffic::Staggered { period: 2 },
            KernelTraffic::Staggered { period: 13 },
            KernelTraffic::Trace(trace),
            KernelTraffic::Bernoulli { p: 0.25 },
        ] {
            for (slots, retries) in [(0u64, 0u32), (1, 0), (333, 2), (big_slots, 1)] {
                let slots = match &traffic {
                    KernelTraffic::Trace(tr) => slots.min(tr.num_slots()),
                    _ => slots,
                };
                let cfg = config(slots, traffic.clone(), retries);
                let analytic = run_frames(&clean, &cfg).unwrap();
                let looped = run_frames_loop(&clean, &cfg).unwrap();
                assert_eq!(analytic, looped, "traffic {traffic:?} slots {slots}");
                if slots > 100 {
                    assert!(analytic.packets_delivered > 0, "traffic {traffic:?}");
                }
            }
        }
        // Conflicted plans never take the analytic path; both entry points
        // agree trivially there too.
        let conflicted = plan(&[0, 1, 0], 2);
        let cfg = config(250, KernelTraffic::Periodic { period: 4 }, 1);
        assert_eq!(
            run_frames(&conflicted, &cfg).unwrap(),
            run_frames_loop(&conflicted, &cfg).unwrap()
        );
    }

    #[test]
    fn analytic_replay_accounts_for_silent_nodes() {
        // Node 2's slot is out of period: it never transmits, its arrivals
        // only accumulate pending — in the analytic path exactly as in the
        // loop.
        let silent = plan(&[0, 1, 9], 2);
        assert!(silent.conflict_free());
        for traffic in [
            KernelTraffic::Periodic { period: 5 },
            KernelTraffic::Staggered { period: 3 },
        ] {
            let cfg = config(120, traffic.clone(), 2);
            let analytic = run_frames(&silent, &cfg).unwrap();
            assert_eq!(
                analytic,
                run_frames_loop(&silent, &cfg).unwrap(),
                "traffic {traffic:?}"
            );
            assert!(analytic.packets_pending > 0, "silent node stays backlogged");
        }
    }

    #[test]
    fn partial_conflict_analytic_matches_the_loop_bit_for_bit() {
        // A conflicted minority (slot 0 of 8) below the dispatch threshold:
        // clean classes replay closed-form, only the conflicted class loops.
        // Both the direct hybrid kernel and the `run_frames` dispatch must be
        // bit-identical to the full slot loop, including with a silent node.
        for assignment in [&[0usize, 4, 0][..], &[0, 9, 0][..]] {
            let partial = plan(assignment, 8);
            assert!(!partial.conflict_free());
            assert!(partial.conflicted_slots() * ANALYTIC_CONFLICT_DENOM <= partial.period());
            for (traffic_period, staggered) in [(1u64, false), (3, false), (2, true), (5, true)] {
                for (slots, retries) in [(0u64, 0u32), (1, 0), (7, 2), (333, 1), (400, 0)] {
                    let traffic = if staggered {
                        KernelTraffic::Staggered {
                            period: traffic_period,
                        }
                    } else {
                        KernelTraffic::Periodic {
                            period: traffic_period,
                        }
                    };
                    let cfg = config(slots, traffic, retries);
                    let looped = run_frames_loop(&partial, &cfg).unwrap();
                    let hybrid =
                        run_analytic_partial(&partial, &cfg, traffic_period, staggered).unwrap();
                    assert_eq!(
                        hybrid, looped,
                        "assignment {assignment:?} period {traffic_period} staggered \
                         {staggered} slots {slots} retries {retries}"
                    );
                    assert_eq!(run_frames(&partial, &cfg).unwrap(), looped);
                    if slots > 100 {
                        assert!(looped.collisions > 0, "the shared slot must conflict");
                    }
                }
            }
        }
        // Above the threshold (half the period conflicted) the hybrid is not
        // dispatched, but parity still holds when called directly.
        let heavy = plan(&[0, 1, 0], 2);
        assert!(heavy.conflicted_slots() * ANALYTIC_CONFLICT_DENOM > heavy.period());
        let cfg = config(250, KernelTraffic::Periodic { period: 4 }, 1);
        assert_eq!(
            run_analytic_partial(&heavy, &cfg, 4, false).unwrap(),
            run_frames_loop(&heavy, &cfg).unwrap()
        );
    }

    #[test]
    fn aloha_decision_traces_replay_inline_aloha_bit_for_bit() {
        // Period-1 all-candidates plan (classic slotted ALOHA): replaying MAC
        // decisions from a compiled bitmap must equal inline MAC draws.
        let plan = plan(&[0, 0, 0], 1);
        for p in [0.0, 0.35, 1.0] {
            for traffic in [
                KernelTraffic::Periodic { period: 2 },
                KernelTraffic::Bernoulli { p: 0.3 },
            ] {
                let mut inline_cfg = config(300, traffic.clone(), 1);
                inline_cfg.mac = KernelMac::Aloha { p };
                let trace = TrafficTrace::aloha_decisions(&plan, inline_cfg.seed, p, 300).unwrap();
                let mut traced_cfg = inline_cfg.clone();
                traced_cfg.mac = KernelMac::AlohaTrace(Arc::new(trace));
                assert_eq!(
                    run_frames(&plan, &inline_cfg).unwrap(),
                    run_frames(&plan, &traced_cfg).unwrap(),
                    "p={p} traffic {traffic:?}"
                );
            }
        }
        // MAC traces live on the MAC stream: they must not equal the traffic
        // stream's generation bitmaps.
        let mac = TrafficTrace::aloha_decisions(&plan, 7, 0.35, 300).unwrap();
        let traffic = TrafficTrace::bernoulli(&plan, 7, 0.35, 300).unwrap();
        assert_ne!(mac, traffic, "streams must decorrelate");
    }

    #[test]
    fn lane_batches_match_scalar_runs_on_every_lane() {
        // Each lane of a bit-sliced batch must be bit-identical to the scalar
        // run of its seed, on clean and partially conflicted plans, under
        // scheduled and ALOHA access, including partial (<64) batches.
        let seeds: Vec<u64> = (0..64).map(|i| i * 17 + 3).collect();
        for plan in [plan(&[0, 1, 2], 3), plan(&[0, 1, 0], 2)] {
            for mac in [KernelMac::Scheduled, KernelMac::Aloha { p: 0.45 }] {
                for traffic in [
                    KernelTraffic::Periodic { period: 3 },
                    KernelTraffic::Staggered { period: 4 },
                    KernelTraffic::Bernoulli { p: 0.3 },
                ] {
                    for batch in [1usize, 5, 64] {
                        let mut cfg = config(150, traffic.clone(), 1);
                        cfg.mac = mac.clone();
                        let lanes = run_frames_lanes(&plan, &cfg, &seeds[..batch]).unwrap();
                        assert_eq!(lanes.len(), batch);
                        for (l, &seed) in seeds[..batch].iter().enumerate() {
                            let mut scalar_cfg = cfg.clone();
                            scalar_cfg.seed = seed;
                            let scalar = run_frames(&plan, &scalar_cfg).unwrap();
                            assert_eq!(
                                lanes[l], scalar,
                                "lane {l} seed {seed} mac {mac:?} traffic {traffic:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_batches_reject_ineligible_configurations() {
        let p = plan(&[0, 1, 2], 3);
        let cfg = config(10, KernelTraffic::Periodic { period: 2 }, 0);
        assert!(run_frames_lanes(&p, &cfg, &[]).is_err());
        assert!(run_frames_lanes(&p, &cfg, &vec![1u64; 65]).is_err());
        // Bernoulli traffic is lane-eligible now that backlog counters are
        // bit-planed; pre-compiled traces (both streams) still are not.
        let bernoulli_cfg = config(10, KernelTraffic::Bernoulli { p: 0.5 }, 0);
        assert_eq!(
            run_frames_lanes(&p, &bernoulli_cfg, &[1, 2]).unwrap().len(),
            2
        );
        let traffic_trace = TrafficTrace::bernoulli(&p, 1, 0.5, 10).unwrap();
        let traced_cfg = config(10, KernelTraffic::Trace(Arc::new(traffic_trace)), 0);
        assert!(run_frames_lanes(&p, &traced_cfg, &[1, 2]).is_err());
        let mut traced_mac_cfg = cfg.clone();
        let trace = TrafficTrace::aloha_decisions(&p, 1, 0.5, 10).unwrap();
        traced_mac_cfg.mac = KernelMac::AlohaTrace(Arc::new(trace));
        assert!(run_frames_lanes(&p, &traced_mac_cfg, &[1, 2]).is_err());
        let zero_period = config(10, KernelTraffic::Periodic { period: 0 }, 0);
        assert!(run_frames_lanes(&p, &zero_period, &[1]).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let frames = FrameSchedule::from_assignment(&[0, 1], 2).unwrap();
        assert!(matches!(
            FramePlan::new(&frames, &line3()),
            Err(EngineError::NodeCountMismatch { .. })
        ));
        let p = plan(&[0, 1, 2], 3);
        for bad in [
            KernelTraffic::Periodic { period: 0 },
            KernelTraffic::Staggered { period: 0 },
            KernelTraffic::Bernoulli { p: 1.5 },
        ] {
            assert!(matches!(
                run_frames(&p, &config(1, bad, 0)),
                Err(EngineError::InvalidKernelConfig(_))
            ));
        }
        let mut cfg = config(1, KernelTraffic::Periodic { period: 1 }, 0);
        cfg.mac = KernelMac::Aloha { p: -0.1 };
        assert!(matches!(
            run_frames(&p, &cfg),
            Err(EngineError::InvalidKernelConfig(_))
        ));
        // Undersized traces are rejected.
        let trace = TrafficTrace::bernoulli(&p, 1, 0.5, 10).unwrap();
        assert!(matches!(
            run_frames(&p, &config(20, KernelTraffic::Trace(Arc::new(trace)), 0)),
            Err(EngineError::InvalidKernelConfig(_))
        ));
        assert!(TrafficTrace::bernoulli(&p, 1, 7.0, 10).is_err());
        // Undersized MAC decision traces are rejected too.
        let mac_trace = TrafficTrace::aloha_decisions(&p, 1, 0.5, 10).unwrap();
        let mut cfg = config(20, KernelTraffic::Periodic { period: 1 }, 0);
        cfg.mac = KernelMac::AlohaTrace(Arc::new(mac_trace));
        assert!(matches!(
            run_frames(&p, &cfg),
            Err(EngineError::InvalidKernelConfig(_))
        ));
        assert!(TrafficTrace::aloha_decisions(&p, 1, 7.0, 10).is_err());
    }
}
