//! Counter-based (stateless) random number generation.
//!
//! The simulator's original stochastic configurations drew from a sequential
//! stream generator, which made the draw *order* part of the semantics: a
//! kernel that visits nodes in a different order — or skips nodes a slot never
//! touches — cannot reproduce the stream. A counter-based RNG removes the
//! order dependence entirely: every draw is a pure function
//!
//! ```text
//! draw = mix(key, node, slot)
//! ```
//!
//! of the run's seed, a stream tag (traffic vs MAC decisions), the node id and
//! the slot index, in the style of Philox/Threefry counter RNGs. Any two
//! engines that agree on `(seed, stream, node, slot)` agree on the draw, no
//! matter when or how often they evaluate it — which is what lets the
//! frame-compiled simulation kernel replay Bernoulli traffic and slotted-ALOHA
//! decisions bit-identically to the reference simulator.
//!
//! The mixing function is a keyed double application of the SplitMix64
//! finalizer (invertible xor-shift/multiply rounds with full avalanche), which
//! is statistically strong for simulation workloads while costing only a few
//! multiplications per draw.

/// First odd constant of the SplitMix64 finalizer.
const MIX_A: u64 = 0xBF58_476D_1CE4_E5B9;
/// Second odd constant of the SplitMix64 finalizer.
const MIX_B: u64 = 0x94D0_49BB_1331_11EB;
/// Golden-ratio increment, used to decorrelate the node counter.
const NODE_C: u64 = 0x9E37_79B9_7F4A_7C15;
/// Weyl-sequence constant, used to decorrelate the slot counter.
const SLOT_C: u64 = 0xD605_0956_3295_9DE9;

/// Stream tag of traffic-generation draws.
pub const TRAFFIC_STREAM: u64 = 0x7452_4146_4649_4331;
/// Stream tag of MAC-decision draws.
pub const MAC_STREAM: u64 = 0x4D41_4344_4543_4931;

/// The SplitMix64 finalizer: a fast invertible hash of one 64-bit word with
/// full avalanche, the building block of [`CounterRng`] and of the engine's
/// content fingerprints.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(MIX_A);
    z ^= z >> 27;
    z = z.wrapping_mul(MIX_B);
    z ^ (z >> 31)
}

/// A keyed counter-based random source: one immutable 64-bit key, pure draws
/// indexed by `(node, slot)`.
///
/// # Examples
///
/// ```
/// use latsched_lattice::CounterRng;
///
/// let rng = CounterRng::traffic(42);
/// // Draws are pure: the same coordinates always give the same value…
/// assert_eq!(rng.draw(3, 100), rng.draw(3, 100));
/// // …and the uniform view lands in [0, 1).
/// let u = rng.uniform(3, 100);
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// A counter RNG for the given seed on the given stream. Distinct streams
    /// of one seed produce independent draw families.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        CounterRng {
            key: mix64(seed ^ mix64(stream)),
        }
    }

    /// The traffic-generation stream of a simulation seed.
    #[must_use]
    pub fn traffic(seed: u64) -> Self {
        CounterRng::new(seed, TRAFFIC_STREAM)
    }

    /// The MAC-decision stream of a simulation seed.
    #[must_use]
    pub fn mac(seed: u64) -> Self {
        CounterRng::new(seed, MAC_STREAM)
    }

    /// The raw 64-bit draw at `(node, slot)`.
    #[inline]
    #[must_use]
    pub fn draw(&self, node: u64, slot: u64) -> u64 {
        mix64(mix64(self.key ^ node.wrapping_mul(NODE_C)) ^ slot.wrapping_mul(SLOT_C))
    }

    /// The draw at `(node, slot)` mapped to a uniform `f64` in `[0, 1)`, using
    /// the same 53-bit mapping as the workspace's `rand` stand-in.
    #[inline]
    #[must_use]
    pub fn uniform(&self, node: u64, slot: u64) -> f64 {
        (self.draw(node, slot) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli(`p`) indicator at `(node, slot)`.
    #[inline]
    #[must_use]
    pub fn bernoulli(&self, p: f64, node: u64, slot: u64) -> bool {
        self.uniform(node, slot) < p
    }

    /// The node-hoisted half of [`CounterRng::draw`]: `draw(node, slot)` equals
    /// `mix64(hoisted ^ slot·SLOT_C)` for `hoisted = hoist_node(node)`, so
    /// draws along the slot axis pay the node mixing once per node instead of
    /// once per draw.
    #[inline]
    #[must_use]
    pub fn hoist_node(&self, node: u64) -> u64 {
        mix64(self.key ^ node.wrapping_mul(NODE_C))
    }

    /// The integer acceptance threshold of Bernoulli(`p`) draws: the 53-bit
    /// view `draw >> 11` is below the threshold exactly when
    /// [`CounterRng::uniform`] is below `p`. `p · 2⁵³` is a power-of-two
    /// scaling of an `f64`, hence exact, so the integer comparison reproduces
    /// the floating-point one bit for bit — which is what lets lane draws
    /// replace one multiply-compare per draw with one integer compare.
    #[inline]
    #[must_use]
    pub fn bernoulli_threshold(p: f64) -> u64 {
        // u < p·2⁵³ for integer u  ⟺  u < ⌈p·2⁵³⌉; the product and its ceiling
        // are exact for p in [0, 1] (clamped outside).
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// Bernoulli indicators of exactly 64 hoisted keys at one slot, packed
    /// into a word: bit `l` of the result is
    /// `mix64(hoisted[l] ^ slot·SLOT_C) >> 11 < threshold`. For keys from
    /// [`CounterRng::hoist_node`] and a threshold from
    /// [`CounterRng::bernoulli_threshold`], that is [`CounterRng::bernoulli`]
    /// of each key's node at `slot`, bit for bit.
    ///
    /// This is the fixed-width body of one lane word: 64 node lanes of a
    /// slot-major trace word, or 64 packed `(node, seed)` lanes of a seed
    /// lane batch. It has no length to branch on, so it compiles to straight
    /// vector code: eight draws per 512-bit register where the caller
    /// enables AVX-512F/DQ, which is why it is always inlined. Keys past a
    /// caller's last lane draw too; the caller masks or ignores their bits.
    #[inline(always)]
    #[must_use]
    pub fn bernoulli_word(hoisted: &[u64; 64], threshold: u64, slot: u64) -> u64 {
        debug_assert!(threshold <= 1 << 53);
        let slot_mixed = slot.wrapping_mul(SLOT_C);
        let mut bits = 0u64;
        for (l, &h) in hoisted.iter().enumerate() {
            // `draw < threshold` as the sign of their difference: both are at
            // most 2⁵³, so the wrapped difference has its top bit set exactly
            // when the draw is below the threshold. A subtract and a shift
            // vectorize on every x86_64 level; SSE2 has no 64-bit compare.
            let below = (mix64(h ^ slot_mixed) >> 11).wrapping_sub(threshold) >> 63;
            bits |= below << l;
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_order_independent() {
        let rng = CounterRng::new(7, 1);
        let forward: Vec<u64> = (0..16).map(|s| rng.draw(2, s)).collect();
        let backward: Vec<u64> = (0..16).rev().map(|s| rng.draw(2, s)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "draw order must not matter"
        );
    }

    #[test]
    fn streams_and_seeds_decorrelate() {
        let a = CounterRng::traffic(1);
        let b = CounterRng::mac(1);
        let c = CounterRng::traffic(2);
        let draws = |r: &CounterRng| (0..64).map(|s| r.draw(0, s)).collect::<Vec<_>>();
        assert_ne!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c));
    }

    #[test]
    fn uniform_is_in_range_and_roughly_uniform() {
        let rng = CounterRng::new(99, 3);
        let mut sum = 0.0;
        for node in 0..100u64 {
            for slot in 0..100u64 {
                let u = rng.uniform(node, slot);
                assert!((0.0..1.0).contains(&u));
                sum += u;
            }
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 1/2");
    }

    #[test]
    fn bernoulli_rate_is_close_to_p() {
        let rng = CounterRng::traffic(1234);
        let hits = (0..10_000u64)
            .filter(|&s| rng.bernoulli(0.3, 17, s))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate} far from 0.3");
    }

    #[test]
    fn bernoulli_lanes_match_single_indicators_bit_for_bit() {
        // Each lane of a packed multi-seed draw must reproduce the scalar
        // Bernoulli indicator of its seed's RNG at the same (node, slot).
        // Fewer than 64 lanes draw the way lane batches do: zero keys pad
        // the word to 64, and the padding lanes are masked off.
        let seeds: Vec<u64> = (0..67).map(|i| i * 31 + 5).collect();
        for p in [0.0, 0.02, 0.3, 0.5, 0.999, 1.0] {
            let threshold = CounterRng::bernoulli_threshold(p);
            for node in [0u64, 9] {
                for lanes in [1usize, 7, 63, 64] {
                    let rngs: Vec<CounterRng> =
                        seeds[..lanes].iter().map(|&s| CounterRng::mac(s)).collect();
                    let mut hoisted = [0u64; 64];
                    for (key, rng) in hoisted.iter_mut().zip(&rngs) {
                        *key = rng.hoist_node(node);
                    }
                    let mask = u64::MAX >> (64 - lanes);
                    for slot in [0u64, 63, 64, 1_000_000] {
                        let bits = CounterRng::bernoulli_word(&hoisted, threshold, slot) & mask;
                        for (l, rng) in rngs.iter().enumerate() {
                            assert_eq!(
                                bits >> l & 1 == 1,
                                rng.bernoulli(p, node, slot),
                                "p={p} node={node} slot={slot} lane={l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bernoulli_threshold_brackets_the_uniform_comparison() {
        // The threshold must reproduce `uniform < p` for every 53-bit draw
        // value near the cut, including the degenerate endpoints.
        for p in [0.0, 0.25, 0.5, 1.0 / 3.0, 0.7654321, 1.0] {
            let t = CounterRng::bernoulli_threshold(p);
            for u in t.saturating_sub(2)..(t + 2).min(1 << 53) {
                let uniform = u as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u < t, uniform < p, "p={p} u={u}");
            }
        }
        assert_eq!(CounterRng::bernoulli_threshold(-0.5), 0);
        assert_eq!(CounterRng::bernoulli_threshold(2.0), 1 << 53);
    }

    #[test]
    fn mix64_avalanches_single_bit_flips() {
        // Flipping one input bit should flip roughly half the output bits.
        for bit in [0u32, 17, 43, 63] {
            let a = mix64(0xDEAD_BEEF);
            let b = mix64(0xDEAD_BEEF ^ (1u64 << bit));
            let flipped = (a ^ b).count_ones();
            assert!((16..=48).contains(&flipped), "weak avalanche on bit {bit}");
        }
    }
}
