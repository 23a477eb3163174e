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
//! * **Queues only where a slot loop runs.** The analytic paths below keep no
//!   queues at all: a clean node's service opportunities are an arithmetic
//!   progression, so its arrivals settle in closed form. The general loop,
//!   which every other run takes, keeps explicit per-node queues of
//!   generation times plus a backlog bitmask over relabelled ids, so a
//!   slot's backlogged candidates are the set bits of a few words.
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
//!   A draw does not depend on the load, only the threshold it is compared
//!   with does, so one draw pass builds the traces of every load of a
//!   `(plan, seed, slots)` ([`TrafficTrace::bernoulli_loads`]). The pass
//!   hoists each node's counter-RNG key once, then draws every slot-major
//!   bitmap word directly as 64 node lanes
//!   ([`CounterRng::bernoulli_words`]: one `mix64` per draw and one integer
//!   compare per load, up to two loads a draw), in bands of 64 slots
//!   fanned across worker threads when the pass is large. The lane-word
//!   loop exists in two compiled copies, picked once per pass by CPU
//!   detection: on x86_64 with AVX-512F/DQ one copy draws eight lanes per
//!   instruction, and every other CPU runs the portable copy. Both are
//!   bit-identical to per-draw [`CounterRng::bernoulli`].
//!   Traces are shared through the engine's content-addressed
//!   [`TraceCache`](crate::TraceCache), which builds the loads it misses in
//!   one pass, so sweeps, the retry axis of a grid
//!   and repeated benchmark samples never rebuild one — and [`run_frames`]
//!   *auto-compiles* an internal trace for inline Bernoulli runs above a size
//!   threshold before it dispatches, so stochastic runs stop walking every
//!   node in every slot on whichever path they take. (Staggered traffic needs
//!   no trace: the generators of slot `t` are the original ids `t mod P`,
//!   `t mod P + P`, …, walked through the inverse relabelling.)
//!   Slotted-ALOHA MAC decisions compile the same way
//!   ([`TrafficTrace::aloha_decisions`], replayed via
//!   [`KernelMac::AlohaTrace`]), so the MAC draws of a `(seed, p)` pair are
//!   hashed once per sweep instead of once per run.
//! * **One resolver.** The general loop settles every slot through
//!   `Resolver::settle_slot`, which always runs the bitset resolve: a
//!   conflict-free slot is one where the passes find no collision.
//! * **Parallel outcome pass.** Per-transmitter delivery outcomes are
//!   data-parallel once the bitsets are built; slots with ≥ 8k transmitters
//!   chunk their outcome pass across worker threads with the engine's
//!   scoped-thread executor.
//! * **Analytic replay.** Under scheduled access on a conflict-free plan
//!   every transmission delivers, a node's service opportunities form an
//!   arithmetic progression (one per frame period), and the FIFO service
//!   recurrence `d = max(first_service ≥ arrival, previous + period)`
//!   settles each packet in O(1). [`run_frames`] replays periodic traffic
//!   class by class in `O(deliveries)` and trace traffic in one pass over
//!   its arrival bitmaps. Every engine schedule is a tiling (collision-free
//!   by Theorem 1) or a proper distance-2 colouring, so every scheduled plan
//!   a request builds qualifies; a conflicted plan, which only an improper
//!   explicit slot assignment builds, takes the general loop.
//!   [`run_frames_loop`], the measured escape hatch, runs clean plans
//!   through the general loop's bitset passes too, so it checks the closed
//!   form against real interference.
//! * **Bit-sliced seed lanes.** [`run_frames_lanes`] packs up to 64 seeds of
//!   one configuration into `u64` lane words: one candidate scan and one
//!   adjacency walk per slot serve all seeds, interference saturating-counts
//!   resolve lane-parallel, and per-lane tallies fall out of 64×64 bit
//!   transposes — turning the seed axis of a sweep into near-free word width
//!   while staying bit-identical to scalar per-seed runs. The batch's
//!   counter-RNG keys are hoisted once, packed densely across nodes and
//!   lanes, so each slot's traffic and MAC draws are rows of the trace
//!   build's lane-word loop, in its AVX-512 copy where the CPU has one.
//!   Bernoulli arrivals are one bitmap per `(node, lane)` over the run's
//!   slots plus a head slot, so generating or popping a packet is a bit
//!   operation, not a queue push or pop.
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
/// process. A Bernoulli lane batch's arrival bitmaps take the same cap, and
/// every check of it goes through [`capped_words`].
const TRACE_WORD_LIMIT: u64 = 1 << 28;

/// Bitmap words a draw pass writes, across all its loads, below which the
/// pass stays on the calling thread; one word is 64 Bernoulli draws, so this
/// is ~1M draws of work. On a 2-vCPU AVX-512F/DQ host, `engine-cli
/// --threads 2 search --profile` (56 traces of 4 words × 256 slots, built
/// as 28 two-load passes of 2,048 words) spent a median 3.4 ms in
/// `trace_compile` when every pass fanned out at 2^10 words and 1.8 ms at
/// 2^14, where none does (8 alternating runs): two scoped workers cost more
/// than ~60 µs of draws save. The builtin sweep's 65,536-word passes fan out
/// either way; there, fanned and single-threaded builds tie on two vCPUs
/// (medians 16.2 and 15.5 ms), so the fan-out is kept for hosts with more
/// cores, where it is unmeasured.
const TRACE_PARALLEL_MIN_WORDS: usize = 1 << 14;

/// Inline-Bernoulli runs with at least this many `node × slot` draws
/// auto-compile an internal [`TrafficTrace`] instead of drawing per node per
/// slot: the lane-word build pays one `mix64` per draw (the inline path pays
/// two plus a float compare) and the replay touches only generating nodes.
const AUTO_TRACE_MIN_DRAWS: u64 = 1 << 12;

/// The `rows × row_words` words of a bitmap, or `None` past
/// [`TRACE_WORD_LIMIT`]. The product is checked, so no slot count wraps it
/// under the cap. A compiled trace of `n` nodes over `slots` slots is
/// `capped_words(n.div_ceil(64), slots)`; the arrival bitmaps of a
/// Bernoulli lane batch, one per `(node, lane)` with one bit per slot, are
/// `capped_words(n × lanes, slots.div_ceil(64))`.
pub(crate) fn capped_words(rows: u64, row_words: u64) -> Option<usize> {
    rows.checked_mul(row_words)
        .filter(|&words| words <= TRACE_WORD_LIMIT)
        .map(|words| words as usize)
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

/// The trace build's lane-word loop and its two compiled copies. The module
/// keeps [`TraceCopy`]'s variant private, so the AVX-512 copy runs only
/// where [`TraceCopy::detect`] chose it.
mod trace_copy {
    use latsched_lattice::CounterRng;

    /// The widest threshold group one draw serves. Widths 1 and 2 are
    /// compiled, so a pass of `L` loads draws `⌈L / 2⌉` times and no group
    /// pays for a padding threshold. Measured on a 2-vCPU AVX-512F/DQ host
    /// (4096 nodes × 512 slots, best of 25, three runs): against one load,
    /// a group of 2 costs 1.2× in the AVX-512 copy and 1.3× in the portable
    /// copy. Groups of 3 and 4 (1.3–1.4× and 1.5–1.7× in the AVX-512 copy)
    /// would save draws only for passes of three or more loads, which no
    /// builtin or benchmarked request makes: their sweeps and searches fetch
    /// traces of one or two loads.
    const GROUP: usize = 2;

    /// Which compiled copy of [`draw_rows`] a trace build runs. Each build
    /// picks one with [`TraceCopy::detect`]; both write the same bits.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) struct TraceCopy(Kind);

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Kind {
        /// The loop as written, for every target.
        Portable,
        /// The same loop compiled for AVX-512F/DQ: eight 64-bit lanes per
        /// register, with DQ's `vpmullq` doing the multiplies.
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    impl TraceCopy {
        /// The portable copy, which every CPU runs.
        pub(crate) const PORTABLE: TraceCopy = TraceCopy(Kind::Portable);

        /// The fastest copy this CPU runs: AVX-512 on an x86_64 CPU that
        /// reports both `avx512f` and `avx512dq`, the portable copy otherwise.
        pub(crate) fn detect() -> TraceCopy {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                return TraceCopy(Kind::Avx512);
            }
            TraceCopy::PORTABLE
        }

        /// Runs this copy of [`draw_rows`] once per group of up to two
        /// thresholds: `rows[k]` receives the rows of `thresholds[k]`.
        pub(crate) fn draw_rows(
            self,
            keys: &[[u64; 64]],
            thresholds: &[u64],
            tail: u64,
            slot0: u64,
            rows: &mut [&mut [u64]],
        ) {
            debug_assert_eq!(thresholds.len(), rows.len());
            for (thresholds, rows) in thresholds.chunks(GROUP).zip(rows.chunks_mut(GROUP)) {
                match thresholds.len() {
                    1 => self.draw_group::<1>(keys, thresholds, tail, slot0, rows),
                    _ => self.draw_group::<GROUP>(keys, thresholds, tail, slot0, rows),
                }
            }
        }

        /// Runs this copy of [`draw_rows`] on one group of `K` thresholds.
        fn draw_group<const K: usize>(
            self,
            keys: &[[u64; 64]],
            thresholds: &[u64],
            tail: u64,
            slot0: u64,
            rows: &mut [&mut [u64]],
        ) {
            let thresholds: &[u64; K] = thresholds.try_into().expect("group width");
            let rows: &mut [&mut [u64]; K] = rows.try_into().expect("group width");
            match self.0 {
                Kind::Portable => draw_rows(keys, thresholds, tail, slot0, rows),
                // SAFETY: `Kind::Avx512` is private to this module and built
                // only by `TraceCopy::detect`, after `is_x86_feature_detected!`
                // reported both `avx512f` and `avx512dq`, the two features
                // `draw_rows_avx512` enables.
                #[cfg(target_arch = "x86_64")]
                Kind::Avx512 => unsafe { draw_rows_avx512(keys, thresholds, tail, slot0, rows) },
            }
        }
    }

    /// Writes the slot-major trace rows of consecutive slots from `slot0`,
    /// one set of rows per threshold: row `s` of `rows[k]` (`keys.len()`
    /// words) holds slot `slot0 + s` at `thresholds[k]`, and its word `w` is
    /// word `k` of [`CounterRng::bernoulli_words`] over the 64 hoisted node
    /// keys `keys[w]`, so each draw serves every threshold. The last word of
    /// each row is masked with `tail`, clearing the lanes of the zero keys
    /// that pad the node set to a multiple of 64. Always inlined, so each
    /// copy compiles its own body.
    #[inline(always)]
    fn draw_rows<const K: usize>(
        keys: &[[u64; 64]],
        thresholds: &[u64; K],
        tail: u64,
        slot0: u64,
        rows: &mut [&mut [u64]; K],
    ) {
        let words = keys.len();
        debug_assert!(rows.iter().all(|r| r.len() == rows[0].len()));
        for (s, slot) in (0..rows[0].len() / words).zip(slot0..) {
            // Rows of exactly `words` words, so indexing them by a key
            // block's position needs no bounds check.
            let mut slot_rows = rows.each_mut().map(|r| &mut r[s * words..][..words]);
            for (w, lanes) in keys.iter().enumerate() {
                let drawn = CounterRng::bernoulli_words(lanes, thresholds, slot);
                for (row, word) in slot_rows.iter_mut().zip(drawn) {
                    row[w] = word;
                }
            }
            for row in slot_rows.iter_mut() {
                row[words - 1] &= tail;
            }
        }
    }

    /// [`draw_rows`] compiled for AVX-512F/DQ.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn draw_rows_avx512<const K: usize>(
        keys: &[[u64; 64]],
        thresholds: &[u64; K],
        tail: u64,
        slot0: u64,
        rows: &mut [&mut [u64]; K],
    ) {
        draw_rows(keys, thresholds, tail, slot0, rows);
    }
}

use trace_copy::TraceCopy;

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
    /// over `slots` slots of the plan's node set: the one-load case of the
    /// draw pass the trace tier runs for every load of a `(plan, seed,
    /// slots)` at once, bit-identical to per-`(node, slot)`
    /// [`CounterRng::bernoulli`] draws.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidKernelConfig`] for a probability outside
    /// `[0, 1]` or a trace exceeding the size cap.
    pub fn bernoulli(plan: &FramePlan, seed: u64, p: f64, slots: u64) -> Result<TrafficTrace> {
        TrafficTrace::bernoulli_loads(plan, seed, &[p], slots).map(|mut t| t.remove(0))
    }

    /// Compiles the Bernoulli generation draws of `seed`'s traffic stream at
    /// each of `loads` over `slots` slots of the plan's node set, in one draw
    /// pass; the traces come back in load order.
    ///
    /// A draw `mix64(hoisted ^ slot·SLOT_C) >> 11` does not depend on the
    /// load, only the threshold it is compared with does. So the pass hoists
    /// each node's counter-RNG key once, then draws every slot-major bitmap
    /// word directly as 64 node lanes and compares each draw with the
    /// thresholds of up to two loads at once
    /// ([`CounterRng::bernoulli_words`]), writing one bitmap per load, with
    /// bands of 64 slots fanned across worker threads above a size
    /// threshold. On x86_64 CPUs that report AVX-512F and AVX-512DQ the
    /// lane-word loop runs a copy compiled for them, eight draws per
    /// instruction; elsewhere it runs the portable copy. Every bitmap is
    /// bit-identical to per-`(node, slot)` [`CounterRng::bernoulli`] draws
    /// at its load. The pass is one `trace_compile` stage and counts one
    /// trace compilation per load.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidKernelConfig`] for a probability outside
    /// `[0, 1]` or a trace exceeding the size cap.
    pub(crate) fn bernoulli_loads(
        plan: &FramePlan,
        seed: u64,
        loads: &[f64],
        slots: u64,
    ) -> Result<Vec<TrafficTrace>> {
        TrafficTrace::build(
            plan,
            CounterRng::traffic(seed),
            loads,
            slots,
            TraceCopy::detect(),
        )
    }

    /// Compiles the slotted-ALOHA transmission decisions of `seed`'s MAC
    /// stream over `slots` slots of the plan's node set: bit `v` of slot `t`
    /// is the Bernoulli(`p`) MAC draw of node `v` at `t`. Replayed through
    /// [`KernelMac::AlohaTrace`], the bitmap reproduces inline
    /// [`KernelMac::Aloha`] runs bit for bit — MAC draws are pure functions of
    /// `(seed, node, slot)`, so baking *all* of them (a superset of what a run
    /// consumes, since only backlogged candidates draw inline) changes
    /// nothing. Shares the lane-word build of [`TrafficTrace::bernoulli`], on
    /// the MAC stream instead of the traffic stream.
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
        let rng = CounterRng::mac(seed);
        TrafficTrace::build(plan, rng, &[p], slots, TraceCopy::detect()).map(|mut t| t.remove(0))
    }

    /// The one build behind [`TrafficTrace::bernoulli_loads`] and
    /// [`TrafficTrace::aloha_decisions`]: all Bernoulli draws of `rng` over
    /// the plan's node set, compiled into one set of slot-major bitmaps per
    /// load by the given copy of the lane-word loop, in one draw pass.
    pub(crate) fn build(
        plan: &FramePlan,
        rng: CounterRng,
        loads: &[f64],
        slots: u64,
        copy: TraceCopy,
    ) -> Result<Vec<TrafficTrace>> {
        let _span = crate::telemetry::span(crate::telemetry::Stage::TraceCompile);
        crate::telemetry::count(
            crate::telemetry::Counter::TraceCompilations,
            loads.len() as u64,
        );
        if !loads.iter().all(|p| (0.0..=1.0).contains(p)) {
            return Err(EngineError::InvalidKernelConfig(
                "bernoulli probability must be in [0, 1]".into(),
            ));
        }
        let n = plan.num_nodes();
        let words = n.div_ceil(64);
        let cells = capped_words(words as u64, slots).ok_or_else(|| {
            EngineError::InvalidKernelConfig(format!(
                "traffic trace of {n} nodes x {slots} slots exceeds the size cap"
            ))
        })?;
        let mut bitmaps: Vec<Vec<u64>> = loads.iter().map(|_| vec![0u64; cells]).collect();
        if n > 0 && !loads.is_empty() {
            // One hoisted key per node, 64 to a bitmap word, keyed by
            // original id; the zero keys past the last node draw too, and the
            // tail mask clears their lanes.
            let mut keys = vec![[0u64; 64]; words];
            for (v, &orig) in plan.original_ids().iter().enumerate() {
                keys[v / 64][v % 64] = rng.hoist_node(u64::from(orig));
            }
            let tail = u64::MAX >> ((64 - n % 64) % 64);
            let thresholds: Vec<u64> = loads
                .iter()
                .map(|&p| CounterRng::bernoulli_threshold(p))
                .collect();
            // Bands of 64 slots (contiguous row bands of the slot-major
            // bitmaps), band `b` of every load's bitmap together, chunk
            // across worker threads, sharing the keys.
            let band_words = 64 * words;
            let mut per_load: Vec<_> = bitmaps
                .iter_mut()
                .map(|b| b.chunks_mut(band_words))
                .collect();
            let mut bands: Vec<Vec<&mut [u64]>> = (0..cells.div_ceil(band_words))
                .map(|_| per_load.iter_mut().map_while(Iterator::next).collect())
                .collect();
            let min_parallel_bands = TRACE_PARALLEL_MIN_WORDS
                .div_ceil(band_words * loads.len())
                .max(2);
            fill_chunks_min(&mut bands, min_parallel_bands, |offset, chunk| {
                for (j, band) in chunk.iter_mut().enumerate() {
                    let slot0 = (offset + j) as u64 * 64;
                    copy.draw_rows(&keys, &thresholds, tail, slot0, band);
                }
            });
        }
        Ok(bitmaps
            .into_iter()
            .map(|bits| {
                let counts: Vec<u32> = (0..slots as usize)
                    .map(|t| {
                        bits[t * words..(t + 1) * words]
                            .iter()
                            .map(|w| w.count_ones())
                            .sum()
                    })
                    .collect();
                TrafficTrace {
                    nodes: n,
                    slots,
                    words,
                    bits,
                    counts,
                }
            })
            .collect())
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

    /// Enqueues one packet generated at `t` for every node set in a
    /// generation bitmap over relabelled ids with `count` set bits.
    #[inline]
    fn push_bitmap(&mut self, words: &[u64], count: u32, t: u64) {
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                self.queues[v].push_back(t);
                bits &= bits - 1;
            }
            self.backlog[w] |= word;
        }
        self.queued_total += u64::from(count);
    }

    /// Applies one transmission outcome — delivery, retry or drop — to node
    /// `v`'s queue and the run counters: `decoded` of its `degree`
    /// neighbours heard it in slot `t`, and only a full decode delivers.
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

/// The slot resolver of the general loop: the reusable per-slot bitset state
/// of the interference passes. [`Resolver::settle_slot`] is the one place a
/// scalar slot's transmissions turn into outcomes; the lane kernel mirrors
/// its saturating once/twice masks word-wise.
struct Resolver {
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
    /// it, filled by [`Resolver::resolve`].
    outcomes: Vec<u32>,
}

impl Resolver {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Resolver {
            tx_mask: vec![0u64; words],
            once: vec![0u64; words],
            twice: vec![0u64; words],
            lost: vec![0u64; words],
            touched: Vec::with_capacity(words),
            outcomes: vec![0u32; n],
        }
    }

    /// Settles one slot's transmitters at time `t`: resolves their
    /// interference ([`Resolver::resolve`]), tallies transmissions and radio
    /// slots, and applies each transmitter's outcome to its queue in
    /// `queues`.
    #[inline]
    fn settle_slot(
        &mut self,
        plan: &FramePlan,
        t: u64,
        tx_list: &[u32],
        queues: &mut ExplicitQueues,
        counts: &mut KernelCounts,
    ) {
        let tx_count = tx_list.len();
        counts.transmissions += tx_count as u64;
        counts.tx_slots += tx_count as u64;
        counts.rx_slots += self.resolve(plan, tx_list);
        for (&v, &decoded) in tx_list.iter().zip(&self.outcomes[..tx_count]) {
            let v = v as usize;
            queues.settle(counts, v, decoded, plan.degree(v), t);
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
/// scheduled runs take the general slot loop, like every other run with
/// traffic. The escape hatch exists for measurement (the `replay` baseline
/// entry times analytic against loop execution) and for the parity suites
/// that pin the two bit-identical; results are always identical to
/// [`run_frames`].
///
/// # Errors
///
/// As for [`run_frames`].
pub fn run_frames_loop(plan: &FramePlan, config: &KernelConfig) -> Result<KernelCounts> {
    run_frames_impl(plan, config, false)
}

/// Bumps the dispatch-path counter of one kernel run — every
/// [`run_frames_impl`] call and every lane-kernel seed passes through exactly
/// one of these, so the four kernel-path counters sum to the number of
/// simulated runs; the run grid counts the runs it copies instead of
/// simulating under the fifth, `dispatch_copy`, so over a grid the five sum
/// to its size (a no-op outside any telemetry request).
#[inline]
fn note_dispatch(counter: crate::telemetry::Counter, runs: u64) {
    crate::telemetry::count(counter, runs);
}

/// Rejects a zero traffic period, a probability outside `[0, 1]` and a
/// traffic or MAC decision trace that does not cover the run: the checks
/// [`run_frames`] and [`run_frames_lanes`] share.
fn validate(plan: &FramePlan, config: &KernelConfig) -> Result<()> {
    let invalid = |msg: &str| Err(EngineError::InvalidKernelConfig(msg.into()));
    let covers = |trace: &TrafficTrace, what: &str| {
        if trace.num_nodes() != plan.num_nodes() || trace.num_slots() < config.slots {
            return Err(EngineError::InvalidKernelConfig(format!(
                "{what} covers {} nodes x {} slots, run needs {} x {}",
                trace.num_nodes(),
                trace.num_slots(),
                plan.num_nodes(),
                config.slots
            )));
        }
        Ok(())
    };
    match &config.traffic {
        KernelTraffic::Periodic { period: 0 } | KernelTraffic::Staggered { period: 0 } => {
            invalid("periodic traffic period must be positive")
        }
        KernelTraffic::Bernoulli { p } if !(0.0..=1.0).contains(p) => {
            invalid("bernoulli probability must be in [0, 1]")
        }
        KernelTraffic::Trace(trace) => covers(trace, "traffic trace"),
        _ => Ok(()),
    }?;
    match &config.mac {
        KernelMac::Aloha { p } if !(0.0..=1.0).contains(p) => {
            invalid("aloha probability must be in [0, 1]")
        }
        KernelMac::AlohaTrace(trace) => covers(trace, "MAC decision trace"),
        _ => Ok(()),
    }
}

fn run_frames_impl(
    plan: &FramePlan,
    config: &KernelConfig,
    allow_analytic: bool,
) -> Result<KernelCounts> {
    use crate::telemetry::Counter;
    validate(plan, config)?;
    let n = plan.num_nodes();

    // Inline Bernoulli runs above the size threshold auto-compile an internal
    // block trace (bit-identical by construction, and the batched build is
    // cheaper than the per-slot draws it replaces), so no path below walks
    // every node in every slot.
    let traced;
    let config = match config.traffic {
        KernelTraffic::Bernoulli { p }
            if capped_words(n.div_ceil(64) as u64, config.slots).is_some()
                && n as u64 * config.slots >= AUTO_TRACE_MIN_DRAWS =>
        {
            let trace = TrafficTrace::bernoulli(plan, config.seed, p, config.slots)?;
            traced = KernelConfig {
                traffic: KernelTraffic::Trace(Arc::new(trace)),
                mac: config.mac.clone(),
                ..*config
            };
            &traced
        }
        _ => config,
    };

    // The one dispatch. Without traffic nothing transmits: every node idles
    // every slot, in closed form. A clean plan under scheduled access
    // replays periodic traffic slot class by slot class
    // (`run_analytic_classes`) and trace traffic over its arrival bitmaps
    // (`run_analytic_trace`). Everything else, conflicted scheduled runs
    // included, takes the general loop.
    let analytic =
        allow_analytic && plan.conflict_free() && matches!(config.mac, KernelMac::Scheduled);
    match &config.traffic {
        KernelTraffic::None => {
            note_dispatch(Counter::DispatchAnalytic, 1);
            Ok(close(KernelCounts::default(), n, config.slots))
        }
        &KernelTraffic::Periodic { period } if analytic => {
            note_dispatch(Counter::DispatchAnalytic, 1);
            run_analytic_classes(plan, config, period, false)
        }
        &KernelTraffic::Staggered { period } if analytic => {
            note_dispatch(Counter::DispatchAnalytic, 1);
            run_analytic_classes(plan, config, period, true)
        }
        KernelTraffic::Trace(trace) if analytic => {
            note_dispatch(Counter::DispatchAnalytic, 1);
            run_analytic_trace(plan, config, trace)
        }
        _ => {
            note_dispatch(Counter::DispatchGeneralLoop, 1);
            run_general(plan, config)
        }
    }
}

/// Packets one node of generation phase `phase` generates in slots `0..end`
/// under periodic traffic of period `period` (arrivals at `phase`, `phase +
/// period`, …): the one generation closed form behind the lane kernel's
/// backlog tests, per-node arrival counts and run totals.
#[inline]
fn arrivals_before(end: u64, phase: u64, period: u64) -> u64 {
    if end > phase {
        (end - 1 - phase) / period + 1
    } else {
        0
    }
}

/// Packets `n` nodes generate in a run of `slots` slots of periodic traffic.
/// Staggered phases are original ids mod the period, and original ids are a
/// permutation of `0..n`, so residue `r` holds `arrivals_before(n, r, period)`
/// nodes.
fn periodic_generated(n: usize, slots: u64, period: u64, staggered: bool) -> u64 {
    let n = n as u64;
    if !staggered {
        return n * arrivals_before(slots, 0, period);
    }
    (0..period.min(n))
        .map(|r| arrivals_before(n, r, period) * arrivals_before(slots, r, period))
        .sum()
}

/// Closes a run's counters by conservation: a generated packet that was
/// neither delivered nor dropped is pending, and a node-slot spent neither
/// transmitting nor receiving is idle. Every kernel path ends here.
fn close(mut counts: KernelCounts, n: usize, slots: u64) -> KernelCounts {
    counts.packets_pending =
        counts.packets_generated - counts.packets_delivered - counts.packets_dropped;
    counts.idle_slots = n as u64 * slots - counts.tx_slots - counts.rx_slots;
    counts
}

/// Tallies the clean services of `nodes` nodes sharing one service chain:
/// each node delivers `delivered` packets with total latency `latency`, and
/// every delivery is heard by all of its sender's neighbours (`degree_sum`
/// over the nodes).
#[inline]
fn add_clean_services(
    counts: &mut KernelCounts,
    nodes: u64,
    delivered: u64,
    latency: u64,
    degree_sum: u64,
) {
    counts.packets_delivered += delivered * nodes;
    counts.total_latency += latency * nodes;
    counts.transmissions += delivered * nodes;
    counts.tx_slots += delivered * nodes;
    counts.receptions += delivered * degree_sum;
    counts.rx_slots += delivered * degree_sum;
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

/// Analytic replay of compiled-trace traffic on a clean plan under scheduled
/// access: one slot-major pass over the arrival bitmaps, with per-node
/// `next_free` service cursors instead of queues — each arrival settles in
/// O(1) via the same `d = max(first_service_ge(a), next_free)` recurrence as
/// [`settle_clean_chain`], and slots with no arrivals cost one counter read.
/// The frame position `t mod m` is taken once per slot, so an arrival's wait
/// for its class `s` is one compare and one subtraction, not two divisions.
/// (The trace may cover more slots than the run; extra slots are ignored,
/// exactly as in the general loop.)
fn run_analytic_trace(
    plan: &FramePlan,
    config: &KernelConfig,
    trace: &TrafficTrace,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let slots = config.slots;
    let mut counts = KernelCounts::default();
    let m = plan.period() as u64;
    let slot_of = slot_classes(plan);
    let mut next_free = vec![0u64; n];
    for t in 0..slots {
        if trace.count_at(t) == 0 {
            continue;
        }
        counts.packets_generated += u64::from(trace.count_at(t));
        let t_mod = t % m;
        for (w, &word) in trace.words_at(t).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = slot_of[v];
                if s == u32::MAX {
                    continue; // silent node: the arrival only adds pending
                }
                // first_service_ge(t, s, m), with s < m.
                let s = u64::from(s);
                let wait = if s >= t_mod { s - t_mod } else { s + m - t_mod };
                let d = (t + wait).max(next_free[v]);
                if d >= slots {
                    continue; // served past the horizon: stays pending
                }
                add_clean_services(&mut counts, 1, 1, d - t, u64::from(plan.degree(v)));
                next_free[v] = d + m;
            }
        }
    }
    Ok(close(counts, n, slots))
}

/// Analytic replay of periodic (aligned or staggered) traffic on a clean plan
/// under scheduled access, one slot class at a time.
///
/// Under scheduled access, slot classes are dynamically decoupled: class `s`
/// transmits only at slots `t ≡ s (mod m)`, and on a conflict-free plan
/// every one of its transmissions delivers. So no class needs a slot loop,
/// queues or bitsets: its service chains settle in closed form via
/// [`settle_clean_chain`] — once per class for aligned traffic (every node
/// of a class shares phase 0, the same chain and the same delivery
/// schedule, scaled by the class size and degree sum), once per node for
/// staggered traffic. Generation totals are closed-form and pending and idle
/// close by conservation, exactly as the loop computes them. Bit-exact
/// parity with [`run_frames_loop`] is pinned by the `sim_parity` suite and
/// asserted inside every timed sample of the `replay` baseline entry.
fn run_analytic_classes(
    plan: &FramePlan,
    config: &KernelConfig,
    traffic_period: u64,
    staggered: bool,
) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let slots = config.slots;
    let mut counts = KernelCounts::default();
    let m = plan.period() as u64;

    if staggered {
        let slot_of = slot_classes(plan);
        for (v, &ov) in plan.original_ids().iter().enumerate() {
            let s = slot_of[v];
            if s == u32::MAX {
                continue; // silent node: its arrivals only add pending
            }
            let phase = u64::from(ov) % traffic_period;
            let arrivals = (0..arrivals_before(slots, phase, traffic_period))
                .map(|k| phase + k * traffic_period);
            let (delivered, latency) = settle_clean_chain(arrivals, u64::from(s), m, slots);
            add_clean_services(
                &mut counts,
                1,
                delivered,
                latency,
                u64::from(plan.degree(v)),
            );
        }
    } else {
        let generated = arrivals_before(slots, 0, traffic_period);
        for slot in 0..plan.period() {
            let class = plan.slot_candidates(slot);
            if class.is_empty() {
                continue;
            }
            let degree_sum: u64 = class.clone().map(|v| u64::from(plan.degree(v))).sum();
            let arrivals = (0..generated).map(|k| k * traffic_period);
            let (delivered, latency) = settle_clean_chain(arrivals, slot as u64, m, slots);
            add_clean_services(
                &mut counts,
                class.len() as u64,
                delivered,
                latency,
                degree_sum,
            );
        }
    }

    counts.packets_generated = periodic_generated(n, slots, traffic_period, staggered);
    Ok(close(counts, n, slots))
}

/// The relabelled id of every original id: the inverse of
/// [`FramePlan::original_ids`], for walking staggered generators.
fn relabelled_ids(plan: &FramePlan) -> Vec<u32> {
    let mut new_of_old = vec![0u32; plan.num_nodes()];
    for (v, &ov) in plan.original_ids().iter().enumerate() {
        new_of_old[ov as usize] = v as u32;
    }
    new_of_old
}

/// The relabelled ids of the nodes that generate at slot `t` under
/// staggered traffic of period `period`, given [`relabelled_ids`]: node `o`
/// (original id) generates at `t ≡ o (mod period)`, and original ids are a
/// permutation of `0..n`, so the generators are the original ids `t mod
/// period`, `t mod period + period`, … below `n`. A slot costs its
/// generators, whatever the period.
fn staggered_generators(
    relabelled: &[u32],
    t: u64,
    period: u64,
) -> impl Iterator<Item = usize> + '_ {
    let step = usize::try_from(period).unwrap_or(usize::MAX);
    relabelled
        .iter()
        .skip((t % period) as usize)
        .step_by(step)
        .map(|&v| v as usize)
}

/// The general loop: explicit per-node queues of generation times, supporting
/// every traffic model (counter-drawn Bernoulli, compiled traces, periodic)
/// under scheduled or slotted-ALOHA access, resolving every slot's
/// interference with the bitset passes.
fn run_general(plan: &FramePlan, config: &KernelConfig) -> Result<KernelCounts> {
    let n = plan.num_nodes();
    let orig = plan.original_ids();
    let traffic_rng = CounterRng::traffic(config.seed);
    let mac_rng = CounterRng::mac(config.seed);
    let mut counts = KernelCounts::default();
    let mut resolver = Resolver::new(n);
    let mut tx_list: Vec<u32> = Vec::with_capacity(n);
    let mut state = ExplicitQueues::new(n, config.max_retries);
    let relabelled = match config.traffic {
        KernelTraffic::Staggered { .. } => relabelled_ids(plan),
        _ => Vec::new(),
    };

    let frame_period = plan.period() as u64;
    for t in 0..config.slots {
        // Traffic generation.
        match &config.traffic {
            KernelTraffic::Bernoulli { p } => {
                for (v, &ov) in orig.iter().enumerate() {
                    if traffic_rng.bernoulli(*p, u64::from(ov), t) {
                        state.push(v, t);
                        counts.packets_generated += 1;
                    }
                }
            }
            KernelTraffic::Trace(trace) => {
                let count = trace.count_at(t);
                if count > 0 {
                    state.push_bitmap(trace.words_at(t), count, t);
                    counts.packets_generated += u64::from(count);
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
                for v in staggered_generators(&relabelled, t, *period) {
                    state.push(v, t);
                    counts.packets_generated += 1;
                }
            }
            KernelTraffic::None => {}
        }
        if state.queued_total == 0 {
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
            continue;
        }
        resolver.settle_slot(plan, t, &tx_list, &mut state, &mut counts);
    }

    Ok(close(counts, n, config.slots))
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

/// The `lanes`-bit lane word at bit offset `bit` of a row of densely packed
/// lane words. When `lanes` does not divide 64 it can span two row words.
#[inline]
fn lane_word(row: &[u64], bit: usize, lanes: usize) -> u64 {
    let (w, s) = (bit / 64, bit % 64);
    let mut word = row[w] >> s;
    if s + lanes > 64 {
        word |= row[w + 1] << (64 - s);
    }
    word & u64::MAX >> (64 - lanes)
}

/// The first set bit after `head` in an arrival bitmap: the generation slot
/// of the packet queued behind the head. The caller knows there is one.
#[inline]
fn next_arrival(bitmap: &[u64], head: u64) -> u64 {
    let from = head + 1;
    let mut w = (from / 64) as usize;
    let mut word = bitmap[w] & u64::MAX << (from % 64);
    while word == 0 {
        w += 1;
        word = bitmap[w];
    }
    w as u64 * 64 + u64::from(word.trailing_zeros())
}

/// Runs up to 64 seeds of one grid point through a single pass over the slot
/// structure, bit-sliced: lane `l` of every `u64` lane word tracks seed
/// `seeds[l]`, and the returned counters are bit-identical to running
/// [`run_frames`] once per seed (`config.seed` is ignored).
///
/// One slot loop serves all lanes: the candidate scan, interference adjacency
/// walk and generation schedule are shared, per-node backlog and transmit
/// sets widen to lane words, and interference resolves lane-parallel with
/// the same saturating once/twice masks as `Resolver::resolve` — one `u64`
/// operation where the scalar kernel pays one per seed. Accounting is
/// bit-planed too: transmissions, deliveries, drops, receptions and rx
/// exposure accumulate through `LaneTally` transposed popcounts, retry
/// counters live as per-node bit planes incremented by a masked half-adder
/// chain (with the retry-budget comparison folded into the same pass), and
/// collisions follow by conservation (`deg·tx − receptions`) instead of a
/// second per-edge tally; per-event scalar work survives only for
/// lane-specific values (delivery latency, queue pops).
///
/// Draws run the one-threshold case of the trace build's lane-word loop
/// ([`TrafficTrace::bernoulli`]): the batch hoists the counter-RNG key
/// of every `(node, lane)` once, packed densely (node `v`'s lanes at bits
/// `v·lanes..`), so one row of lane words holds every node's draws of one
/// slot, in the loop's AVX-512F/DQ copy where the CPU reports both features.
/// Bernoulli generation draws one row per slot; slotted-ALOHA decisions draw
/// the words covering the slot's candidates from its first backlogged one.
/// Bit-exactness rests on the counter RNG: draws are pure functions of
/// `(seed, node, slot)`, so any grouping gives the same bits, and masking a
/// candidate's drawn word with its backlog is indistinguishable from the
/// scalar kernel's conditional draws.
///
/// Lanes support deterministic traffic (periodic or staggered — generation is
/// lane-uniform, so backlog refills are one mask store) *and* Bernoulli
/// traffic, under scheduled or slotted-ALOHA access, on any plan; every slot
/// resolves its interference lane-parallel. Bernoulli per-lane queue lengths
/// are not uniform, so they are bit-planed like the retry clock: plane `k`
/// of a node holds bit `k` of every lane's queue length, incremented by a
/// masked half-adder chain on generation and decremented by its borrow-chain
/// mirror on pops, with the backlog word recovered as the planes' OR. Delivery latency needs each
/// head packet's generation slot: every `(node, lane)` keeps an arrival
/// bitmap over the run's slots (one OR per generated packet) and its head
/// slot, which a pop moves to the next set bit.
///
/// # Errors
///
/// Returns [`EngineError::InvalidKernelConfig`] for an empty or over-64 seed
/// batch, a trace traffic model (per-seed traces have no lane batching — use
/// the Bernoulli model they were compiled from), a trace-replayed MAC, a zero
/// traffic period, an out-of-range probability, or Bernoulli arrival bitmaps
/// (`nodes × lanes × ⌈slots / 64⌉` words) past the size cap of one traffic
/// trace.
pub fn run_frames_lanes(
    plan: &FramePlan,
    config: &KernelConfig,
    seeds: &[u64],
) -> Result<Vec<KernelCounts>> {
    run_lane_batch(plan, config, seeds, TraceCopy::detect())
}

/// [`run_frames_lanes`], drawing with the given copy of the trace build's
/// lane-word loop.
pub(crate) fn run_lane_batch(
    plan: &FramePlan,
    config: &KernelConfig,
    seeds: &[u64],
    copy: TraceCopy,
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
    let (traffic_period, staggered, bernoulli_p) = match config.traffic {
        KernelTraffic::Periodic { period } => (period, false, None),
        KernelTraffic::Staggered { period } => (period, true, None),
        // The period is meaningless under Bernoulli traffic; 1 keeps the
        // (unused) deterministic arithmetic well-defined.
        KernelTraffic::Bernoulli { p } => (1, false, Some(p)),
        ref other => {
            return Err(EngineError::InvalidKernelConfig(format!(
                "lane batches need periodic, staggered or bernoulli traffic, got {other:?}"
            )));
        }
    };
    let aloha_p = match config.mac {
        KernelMac::Scheduled => None,
        KernelMac::Aloha { p } => Some(p),
        KernelMac::AlohaTrace(_) => {
            return Err(EngineError::InvalidKernelConfig(
                "lane batches draw MAC decisions inline; trace-replayed MACs are per-run".into(),
            ));
        }
    };
    validate(plan, config)?;
    let n = plan.num_nodes();
    let arrival_rows = (n * lanes) as u64;
    let arrival_words = match bernoulli_p {
        Some(_) => capped_words(arrival_rows, config.slots.div_ceil(64)).ok_or_else(|| {
            EngineError::InvalidKernelConfig(format!(
                "arrival bitmaps of a bernoulli lane batch of {n} nodes x {lanes} lanes x {} \
                 slots exceed the size cap",
                config.slots
            ))
        })?,
        None => 0,
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

    let orig = plan.original_ids();
    let lane_mask = u64::MAX >> (64 - lanes);
    let mut counts = vec![KernelCounts::default(); lanes];

    // Per-(node, lane) hoisted keys of one RNG stream, for the MAC draws and
    // the Bernoulli generation draws alike, packed densely: the key of
    // (v, l) at flat index v·lanes + l, 64 to a block. A `draw_rows` row over
    // the blocks holds every node's lane word of one slot, node v's at bit
    // offset v·lanes, and a partial batch draws no padding lanes (the bits
    // past n·lanes in the last block are never read).
    let blocks = (n * lanes).div_ceil(64);
    let hoisted = |stream: fn(u64) -> CounterRng| {
        let rngs: Vec<CounterRng> = seeds.iter().map(|&s| stream(s)).collect();
        let mut keys = vec![[0u64; 64]; blocks];
        let flat = keys.as_flattened_mut();
        for (v, &ov) in orig.iter().enumerate() {
            for (key, rng) in flat[v * lanes..(v + 1) * lanes].iter_mut().zip(&rngs) {
                *key = rng.hoist_node(u64::from(ov));
            }
        }
        keys
    };
    let mac_keys = aloha_p.map_or_else(Vec::new, |_| hoisted(CounterRng::mac));
    let mac_threshold = aloha_p.map_or(0, CounterRng::bernoulli_threshold);
    let mut mac_row = vec![0u64; mac_keys.len()];
    let traffic_keys = bernoulli_p.map_or_else(Vec::new, |_| hoisted(CounterRng::traffic));
    let traffic_threshold = bernoulli_p.map_or(0, CounterRng::bernoulli_threshold);
    let mut traffic_row = vec![0u64; traffic_keys.len()];
    let relabelled = if staggered {
        relabelled_ids(plan)
    } else {
        Vec::new()
    };

    // Lane-sliced queue state. Deterministic traffic keeps implicit
    // arithmetic-progression queues (the head packet of node `v` in a lane
    // was generated at `phase(v) + popped · period`): one popped counter
    // per (node, lane) — touched only on pop events — with lane-uniform
    // generation refilling whole backlog words. Bernoulli traffic has
    // non-uniform per-lane queue lengths instead, so those become bit planes
    // mirroring the retry clock below: plane `k` of a node holds bit `k` of
    // every lane's queue length (a length never exceeds the slot count, so
    // the plane width is the slot count's bit length), incremented by a
    // masked half-adder chain on generation draws and decremented by the
    // borrow-chain mirror on pops; the backlog word is the planes' OR.
    // Delivery latency needs the head packet's generation slot: each
    // (node, lane) keeps an arrival bitmap over the run's slots (bit t set
    // when the lane generated at t) and its head slot. The packets a lane
    // holds are exactly the set bits from its head on, so a pop moves the
    // head to the next set bit. Both modes share the per-node lane
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
    let slot_words = config.slots.div_ceil(64) as usize;
    let mut arrivals = vec![0u64; arrival_words];
    let mut heads = vec![0u64; if bernoulli_p.is_some() { n * lanes } else { 0 }];
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
    // Degree-weighted transmit tallies: one tally per degree bit turns a
    // `degree × popcount(tx)` contribution into plain bit counts scaled by
    // 2^k at flush, from which collisions follow by conservation (every
    // (edge, lane) attempt is either received or collided, so collisions =
    // deg·tx − receptions) without a second per-edge tally.
    let max_degree = (0..n).map(|v| u64::from(plan.degree(v))).max().unwrap_or(0);
    let degree_bits = (64 - max_degree.leading_zeros()) as usize;
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
        // Traffic generation. Bernoulli: one drawn row of every node's lane
        // words (pure functions of `(seed, node, slot)`, bit-identical to the
        // scalar kernel's draws), folded into the bit-planed queue-length
        // counters by a half-adder increment over the drawn lanes; the
        // per-lane generated tally and the arrival bits ride the same
        // events. Deterministic traffic is lane-uniform: a generating node
        // becomes backlogged in every lane (its per-lane queue lengths
        // differ, but all grow by one).
        if bernoulli_p.is_some() {
            if n > 0 {
                let row = &mut [&mut traffic_row[..]];
                copy.draw_rows(&traffic_keys, &[traffic_threshold], !0, t, row);
            }
            let (arrival_word, arrival_bit) = ((t / 64) as usize, 1u64 << (t % 64));
            for v in 0..n {
                let gen = lane_word(&traffic_row, v * lanes, lanes);
                if gen == 0 {
                    continue;
                }
                gen_tally.push(gen);
                queued_total += u64::from(gen.count_ones());
                // Lanes that held nothing start their head at this packet.
                let mut fresh = gen & !backlog[v];
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
                    let i = v * lanes + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    arrivals[i * slot_words + arrival_word] |= arrival_bit;
                }
                while fresh != 0 {
                    heads[v * lanes + fresh.trailing_zeros() as usize] = t;
                    fresh &= fresh - 1;
                }
            }
        } else if staggered {
            for v in staggered_generators(&relabelled, t, traffic_period) {
                backlog[v] = lane_mask;
                queued_total += lanes as u64;
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
        let aligned_generated = arrivals_before(t + 1, 0, traffic_period);
        tx_list.clear();
        let candidates = plan.slot_candidates(slot);
        // Bit offset of `mac_row[0]` in the packed lane space, once drawn.
        let mut mac_base = None;
        for v in candidates.clone() {
            let backlogged = backlog[v];
            if backlogged == 0 {
                continue;
            }
            let tx = match aloha_p {
                None => backlogged,
                Some(_) => {
                    // The first backlogged candidate draws the words from
                    // its own to the slot's last candidate. Draws are pure
                    // functions of (seed, node, slot), so masking a drawn
                    // word with the backlog reproduces the scalar kernel's
                    // backlogged-only draws exactly.
                    let base = *mac_base.get_or_insert_with(|| {
                        let (first, last) = (v * lanes / 64, (candidates.end * lanes).div_ceil(64));
                        let row = &mut [&mut mac_row[..last - first]];
                        copy.draw_rows(&mac_keys[first..last], &[mac_threshold], !0, t, row);
                        first * 64
                    });
                    backlogged & lane_word(&mac_row, v * lanes - base, lanes)
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

        // Lane-parallel saturating interference count: `once`/`twice` mirror
        // Resolver::resolve word-wise, one word per lane set.
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

        // Settle transmitters word-parallel: lane `l` of `v` delivers iff no
        // neighbour is lost in lane `l`. Per-lane scalar work survives only
        // where an event carries a lane-specific value (delivery latency,
        // queue pops); transmissions, deliveries, drops and the retry clock
        // all run as bit-plane arithmetic over whole lane words.
        for &v in &tx_list {
            let v = v as usize;
            let tx = tx_lanes[v];
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
            let delivered_lanes = tx & !lost_any;
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
            let pop_lanes = delivered_lanes | drop_lanes;
            if pop_lanes != 0 {
                for plane in attempt_planes[v * attempt_bits..(v + 1) * attempt_bits].iter_mut() {
                    *plane &= !pop_lanes;
                }
                if bernoulli_p.is_some() {
                    // Half-adder decrement (borrow-chain mirror of the
                    // generation increment) of the popping lanes' queue
                    // lengths; the backlog word is the planes' OR. Latency
                    // is the wait of the lane's head packet; a lane that
                    // still holds packets moves its head to the next
                    // arrival, which is at most `t`.
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
                        let i = v * lanes + l;
                        if delivered_lanes >> l & 1 == 1 {
                            counts[l].total_latency += t - heads[i];
                        }
                        if nonzero >> l & 1 == 1 {
                            let bitmap = &arrivals[i * slot_words..(i + 1) * slot_words];
                            heads[i] = next_arrival(bitmap, heads[i]);
                            debug_assert!(heads[i] <= t, "a queued packet arrives after now");
                        }
                        queued_total -= 1;
                    }
                } else {
                    let phase = phase_of(v);
                    let gen = if staggered {
                        arrivals_before(t + 1, phase, traffic_period)
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

        // Per-lane receiver tally (≥ 1 heard, not transmitting), then clear
        // only what this slot touched.
        for &u in &heard {
            let u = u as usize;
            rx_tally.push(once[u] & !tx_lanes[u]);
            once[u] = 0;
            twice[u] = 0;
        }
        heard.clear();
        for &v in &tx_list {
            tx_lanes[v as usize] = 0;
        }
    }

    recv_tally.flush();
    rx_tally.flush();
    tx_tally.flush();
    deliver_tally.flush();
    drop_tally.flush();
    gen_tally.flush();
    for tally in &mut degree_tx_tallies {
        tally.flush();
    }
    let generated = periodic_generated(n, config.slots, traffic_period, staggered);
    for (l, lane) in counts.iter_mut().enumerate() {
        lane.transmissions += tx_tally.totals[l];
        lane.tx_slots += tx_tally.totals[l];
        lane.packets_delivered += deliver_tally.totals[l];
        lane.packets_dropped += drop_tally.totals[l];
        let attempts: u64 = degree_tx_tallies
            .iter()
            .enumerate()
            .map(|(k, tally)| tally.totals[l] << k)
            .sum();
        lane.receptions += recv_tally.totals[l];
        lane.collisions += attempts - recv_tally.totals[l];
        lane.rx_slots += rx_tally.totals[l];
        // Bernoulli generated totals come off the generation tally (the draws
        // are lane-specific); deterministic ones are lane-uniform closed form.
        lane.packets_generated = match bernoulli_p {
            Some(_) => gen_tally.totals[l],
            None => generated,
        };
        *lane = close(*lane, n, config.slots);
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
        // Both copies of the lane-word build — the portable one called
        // directly (so a CPU with AVX-512 still checks it) and the one each
        // build dispatches to — must reproduce per-(node, slot) draws bit for
        // bit on both streams, for every load of a draw pass, with the
        // padding lanes of the last word clear in every bitmap. The load
        // groups reach both threshold-group widths (five loads draw as two,
        // two and one), a repeated load, and each load alone, the
        // one-threshold case of `bernoulli`, `aloha_decisions`, the
        // auto-compiled trace and the lane kernel. Plans are relabelled
        // slot-major (three slot classes), at node counts around one word and
        // one above 4096 that is not a multiple of 64, where slot bands fan
        // out across workers.
        let dispatched = TraceCopy::detect();
        println!(
            "trace copies checked: {:?} (direct), {dispatched:?} (dispatched)",
            TraceCopy::PORTABLE
        );
        let five = [0.0, 1e-12, 0.02, 0.5, 1.0];
        let groups: Vec<&[f64]> = [&five[..], &[0.5, 0.02, 0.5], &[1.0, 0.02]]
            .into_iter()
            .chain(five.chunks(1))
            .collect();
        for nodes in [1usize, 63, 64, 65, 4161] {
            let assignment: Vec<usize> = (0..nodes).map(|v| v % 3).collect();
            let lists: Vec<Vec<usize>> = (0..nodes)
                .map(|v| if v + 1 < nodes { vec![v + 1] } else { vec![] })
                .collect();
            let adjacency = InterferenceCsr::from_lists(&lists).unwrap();
            let frames = FrameSchedule::from_assignment(&assignment, 3).unwrap();
            let plan = FramePlan::new(&frames, &adjacency).unwrap();
            let orig = plan.original_ids();
            for slots in [1u64, 63, 64, 65, 200] {
                for &loads in &groups {
                    for (stream, rng) in [
                        ("traffic", CounterRng::traffic(99)),
                        ("mac", CounterRng::mac(99)),
                    ] {
                        let build = |copy| TrafficTrace::build(&plan, rng, loads, slots, copy);
                        let portable = build(TraceCopy::PORTABLE).unwrap();
                        let built = build(dispatched).unwrap();
                        // The entry points run the dispatched copy.
                        if stream == "traffic" {
                            let entry = TrafficTrace::bernoulli_loads(&plan, 99, loads, slots);
                            assert_eq!(entry.unwrap(), built);
                        } else if let [p] = loads {
                            let entry = TrafficTrace::aloha_decisions(&plan, 99, *p, slots);
                            assert_eq!(entry.unwrap(), built[0]);
                        }
                        for (copy, traces) in
                            [(TraceCopy::PORTABLE, &portable), (dispatched, &built)]
                        {
                            assert_eq!(traces.len(), loads.len());
                            for (&p, trace) in loads.iter().zip(traces) {
                                let what =
                                    format!("{copy:?} {stream} n={nodes} slots={slots} p={p}");
                                let mut total = 0u64;
                                for t in 0..slots {
                                    let words = trace.words_at(t);
                                    let mut count = 0u32;
                                    for (v, &ov) in orig.iter().enumerate() {
                                        let expected = rng.bernoulli(p, u64::from(ov), t);
                                        let got = words[v / 64] >> (v % 64) & 1 == 1;
                                        assert_eq!(got, expected, "{what} v={v} t={t}");
                                        count += u32::from(expected);
                                    }
                                    assert_eq!(trace.count_at(t), count, "{what} t={t}");
                                    let set: u32 = words.iter().map(|w| w.count_ones()).sum();
                                    assert_eq!(set, count, "{what}: padding lanes set at t={t}");
                                    total += u64::from(count);
                                }
                                assert_eq!(trace.total_generated(), total, "{what}");
                            }
                            // One draw serves every load, so a node drawn
                            // below a smaller load's threshold is below every
                            // larger one's: each word at p1 < p2 is a subset
                            // of the word at p2.
                            for (i, low) in traces.iter().enumerate() {
                                for (j, high) in traces.iter().enumerate() {
                                    if loads[i] < loads[j] {
                                        let mut words = low.bits.iter().zip(&high.bits);
                                        assert!(
                                            words.all(|(l, h)| l & !h == 0),
                                            "{copy:?} {stream} n={nodes} slots={slots}: \
                                             p={} not within p={}",
                                            loads[i],
                                            loads[j]
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_size_cap_is_checked_without_wrapping() {
        // 129..=192 nodes take three words per slot, and 3 · ⌈2⁶⁴ / 3⌉ wraps
        // to 2, under the cap: the product must be checked, not wrapped.
        let nodes = 150;
        let lists: Vec<Vec<usize>> = (0..nodes).map(|_| Vec::new()).collect();
        let frames = FrameSchedule::from_assignment(&vec![0; nodes], 1).unwrap();
        let plan = FramePlan::new(&frames, &InterferenceCsr::from_lists(&lists).unwrap()).unwrap();
        let (words, slots) = (3, u64::MAX / 3 + 1);
        assert_eq!(capped_words(words, slots), None);
        for built in [
            TrafficTrace::bernoulli(&plan, 1, 0.1, slots),
            TrafficTrace::aloha_decisions(&plan, 1, 0.1, slots),
        ] {
            assert!(
                matches!(built, Err(EngineError::InvalidKernelConfig(m)) if m.contains("size cap")),
                "slots {slots}"
            );
        }
        // The cap itself still falls between two slot counts.
        assert!(capped_words(words, TRACE_WORD_LIMIT / 3).is_some());
        assert_eq!(capped_words(words, TRACE_WORD_LIMIT / 3 + 1), None);
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

    /// The Moore 9x9 window's all-candidate ALOHA plan (period 1) and its
    /// 9-slot tiling plan.
    fn moore_plans() -> [FramePlan; 2] {
        let shape = latsched_tiling::shapes::moore();
        let region = latsched_lattice::BoxRegion::square_window(2, 9).unwrap();
        let adjacency = crate::sweep::grid_adjacency(&region, &shape).unwrap();
        let compiled = crate::cache::compile_shape(&shape).unwrap();
        let tiling: Vec<usize> = compiled
            .slots_of_region(&region)
            .unwrap()
            .into_iter()
            .map(usize::from)
            .collect();
        [
            (vec![0; adjacency.num_nodes()], 1),
            (tiling, compiled.num_slots()),
        ]
        .map(|(assignment, period)| {
            let frames = FrameSchedule::from_assignment(&assignment, period).unwrap();
            FramePlan::new(&frames, &adjacency).unwrap()
        })
    }

    #[test]
    fn lane_batches_match_scalar_runs_on_every_lane() {
        // Each lane of a bit-sliced batch must be bit-identical to the scalar
        // run of its seed, on clean and conflicted plans, under scheduled and
        // ALOHA access, including partial (<64) batches, with the draws made
        // by the portable copy of the lane-word loop and by the copy each
        // batch dispatches to. On the 81-node Moore plans the packed keys
        // span several blocks, lane counts that do not divide 64 put lane
        // words across two row words, the tiling plan's candidate ranges
        // start mid-block, and the sparse load moves arrival heads across
        // zero words of 300-slot bitmaps. Staggered periods of 100 and 2^23
        // slots exceed every plan's node count, so most slots have no
        // generator; lane generation totals are closed-form, so they check
        // the scalar walk's generator count.
        let dispatched = TraceCopy::detect();
        let copies = if dispatched == TraceCopy::PORTABLE {
            vec![TraceCopy::PORTABLE]
        } else {
            vec![TraceCopy::PORTABLE, dispatched]
        };
        println!("lane copies checked: {copies:?}");
        let seeds: Vec<u64> = (0..64).map(|i| i * 17 + 3).collect();
        let bernoulli = [
            KernelTraffic::Bernoulli { p: 0.3 },
            KernelTraffic::Bernoulli { p: 0.003 },
        ];
        let long_periods = [
            KernelTraffic::Staggered { period: 100 },
            KernelTraffic::Staggered { period: 1 << 23 },
        ];
        let mut all = vec![
            KernelTraffic::Periodic { period: 3 },
            KernelTraffic::Staggered { period: 4 },
        ];
        all.extend(bernoulli.clone());
        all.extend(long_periods.clone());
        let mut moore = bernoulli.to_vec();
        moore.extend(long_periods);
        let [aloha, tiled] = moore_plans();
        for (plan, traffics) in [
            (plan(&[0, 1, 2], 3), &all[..]),
            (plan(&[0, 1, 0], 2), &all[..]),
            (aloha, &moore[..]),
            (tiled, &moore[..]),
        ] {
            for mac in [
                KernelMac::Scheduled,
                KernelMac::Aloha { p: 0.45 },
                KernelMac::Aloha { p: 0.05 },
            ] {
                for traffic in traffics {
                    for slots in [1u64, 63, 64, 65, 300] {
                        let mut cfg = config(slots, traffic.clone(), 1);
                        cfg.mac = mac.clone();
                        let scalar: Vec<KernelCounts> = seeds
                            .iter()
                            .map(|&seed| {
                                let cfg = KernelConfig {
                                    seed,
                                    ..cfg.clone()
                                };
                                run_frames(&plan, &cfg).unwrap()
                            })
                            .collect();
                        for batch in [1usize, 5, 40, 63, 64] {
                            for &copy in &copies {
                                let lanes = run_lane_batch(&plan, &cfg, &seeds[..batch], copy);
                                assert_eq!(
                                    lanes.unwrap(),
                                    scalar[..batch],
                                    "{copy:?} n={} lanes={batch} slots={slots} mac {mac:?} \
                                     traffic {traffic:?}",
                                    plan.num_nodes()
                                );
                            }
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
        // Bernoulli arrival bitmaps past the cap of one trace: 3 nodes x 64
        // lanes x ⌈slots / 64⌉ words is one block past 2^28 here, and the
        // word count overflows u64 at the largest slot count. Both are
        // refused before anything is allocated.
        let seeds: Vec<u64> = (0..64).collect();
        for slots in [(TRACE_WORD_LIMIT / 192 + 1) * 64, u64::MAX] {
            let over_cap = config(slots, KernelTraffic::Bernoulli { p: 0.5 }, 0);
            assert!(
                matches!(
                    run_frames_lanes(&p, &over_cap, &seeds),
                    Err(EngineError::InvalidKernelConfig(m)) if m.contains("arrival bitmaps")
                ),
                "slots {slots}"
            );
        }
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
