//! Medium-access (MAC) policies.
//!
//! A MAC policy decides, for every node in every slot, whether the node transmits the
//! packet at the head of its queue. Four policies cover the comparison the paper
//! motivates:
//!
//! * [`MacPolicy::TilingSchedule`] / [`MacPolicy::SlotAssignment`] — deterministic
//!   slotted access from a per-node slot assignment (the tiling schedules of the
//!   paper, or any colouring-based schedule);
//! * [`MacPolicy::Tdma`] — plain round-robin TDMA over all nodes;
//! * [`MacPolicy::SlottedAloha`] — random access: transmit with probability `p` in
//!   every slot in which the queue is non-empty.

use crate::error::{Result, SimError};
use latsched_core::PeriodicSchedule;
use latsched_lattice::{CounterRng, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The medium-access policy used by every node of a simulation.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum MacPolicy {
    /// Deterministic slotted access from an explicit per-node slot assignment with
    /// the given temporal period.
    SlotAssignment {
        /// `slots[i]` is the slot of node `i`; must satisfy `slots[i] < period`.
        slots: Vec<usize>,
        /// Temporal period `m`.
        period: usize,
    },
    /// Deterministic slotted access from a periodic tiling schedule (evaluated at
    /// each node's lattice position).
    TilingSchedule(PeriodicSchedule),
    /// Round-robin TDMA: node `i` transmits in slots `t ≡ i (mod n)`.
    Tdma,
    /// Slotted ALOHA random access: a backlogged node transmits with probability `p`.
    SlottedAloha {
        /// Per-slot transmission probability.
        p: f64,
    },
}

impl MacPolicy {
    /// Validates the policy against a network of `n` nodes at the given positions and
    /// returns a ready-to-use per-node decision engine.
    ///
    /// # Errors
    ///
    /// * [`SimError::AssignmentLengthMismatch`] if an explicit assignment has the
    ///   wrong length;
    /// * [`SimError::InvalidProbability`] if an ALOHA probability is outside `[0,1]`;
    /// * schedule errors if a tiling schedule cannot be evaluated at some position.
    pub fn compile(&self, positions: &[Point]) -> Result<CompiledMac> {
        let n = positions.len();
        match self {
            MacPolicy::SlotAssignment { slots, period } => {
                if slots.len() != n {
                    return Err(SimError::AssignmentLengthMismatch {
                        expected: n,
                        found: slots.len(),
                    });
                }
                Ok(CompiledMac::Deterministic {
                    slots: slots.clone(),
                    period: (*period).max(1),
                })
            }
            MacPolicy::TilingSchedule(schedule) => {
                // Fast path: flatten the schedule into a dense coset-indexed table
                // and batch-evaluate every node position in one call through the
                // query engine. Schedules the engine cannot flatten (gigantic
                // periods or slot counts) fall back to per-point queries.
                if let Ok(compiled) = latsched_engine::CompiledSchedule::compile(schedule) {
                    if let Ok(batch) = compiled.slots_of_points(positions) {
                        return Ok(CompiledMac::Deterministic {
                            slots: batch.into_iter().map(usize::from).collect(),
                            period: schedule.num_slots(),
                        });
                    }
                }
                let slots: Result<Vec<usize>> = positions
                    .iter()
                    .map(|p| schedule.slot_of(p).map_err(SimError::from))
                    .collect();
                Ok(CompiledMac::Deterministic {
                    slots: slots?,
                    period: schedule.num_slots(),
                })
            }
            MacPolicy::Tdma => Ok(CompiledMac::Deterministic {
                slots: (0..n).collect(),
                period: n.max(1),
            }),
            MacPolicy::SlottedAloha { p } => {
                if !(0.0..=1.0).contains(p) {
                    return Err(SimError::InvalidProbability("slotted ALOHA".into()));
                }
                Ok(CompiledMac::Aloha { p: *p })
            }
        }
    }

    /// A short human-readable name for result tables.
    pub fn name(&self) -> String {
        match self {
            MacPolicy::SlotAssignment { period, .. } => format!("slot-assignment(m={period})"),
            MacPolicy::TilingSchedule(s) => format!("tiling(m={})", s.num_slots()),
            MacPolicy::Tdma => "tdma".to_string(),
            MacPolicy::SlottedAloha { p } => format!("aloha(p={p:.3})"),
        }
    }
}

impl fmt::Display for MacPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A MAC policy compiled for a concrete network, ready to make per-slot decisions.
#[derive(Clone, Debug)]
pub enum CompiledMac {
    /// Node `i` transmits exactly when `t ≡ slots[i] (mod period)` and has a packet.
    Deterministic {
        /// Per-node slots.
        slots: Vec<usize>,
        /// Temporal period.
        period: usize,
    },
    /// Backlogged nodes transmit with probability `p`.
    Aloha {
        /// Per-slot transmission probability.
        p: f64,
    },
}

impl CompiledMac {
    /// Whether the node transmits in this slot, given that it has a packet
    /// queued. `rng` is the seed's MAC stream ([`CounterRng::mac`]): an ALOHA
    /// decision is a pure function of `(seed, node, slot)`, so any backend that
    /// evaluates it — in any order, for any subset of nodes — agrees.
    pub fn transmits(&self, node: usize, time: u64, rng: &CounterRng) -> bool {
        match self {
            CompiledMac::Deterministic { slots, period } => {
                time % *period as u64 == slots[node] as u64
            }
            CompiledMac::Aloha { p } => rng.bernoulli(*p, node as u64, time),
        }
    }

    /// The temporal period, if the policy is deterministic.
    pub fn period(&self) -> Option<usize> {
        match self {
            CompiledMac::Deterministic { period, .. } => Some(*period),
            CompiledMac::Aloha { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_core::theorem1;
    use latsched_tiling::{find_tiling, shapes};

    fn positions(side: i64) -> Vec<Point> {
        latsched_lattice::BoxRegion::square_window(2, side)
            .unwrap()
            .points()
    }

    #[test]
    fn tdma_assigns_one_slot_per_node() {
        let pos = positions(3);
        let mac = MacPolicy::Tdma.compile(&pos).unwrap();
        assert_eq!(mac.period(), Some(9));
        let rng = CounterRng::mac(0);
        // In slot 4 only node 4 transmits.
        for node in 0..9 {
            assert_eq!(mac.transmits(node, 4, &rng), node == 4);
        }
    }

    #[test]
    fn tiling_schedule_policy_evaluates_positions() {
        let tiling = find_tiling(&shapes::moore()).unwrap().unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);
        let pos = positions(6);
        let mac = MacPolicy::TilingSchedule(schedule.clone())
            .compile(&pos)
            .unwrap();
        assert_eq!(mac.period(), Some(9));
        let rng = CounterRng::mac(0);
        for (i, p) in pos.iter().enumerate() {
            let slot = schedule.slot_of(p).unwrap() as u64;
            assert!(mac.transmits(i, slot, &rng));
            assert!(!mac.transmits(i, slot + 1, &rng));
        }
    }

    #[test]
    fn explicit_assignment_is_validated() {
        let pos = positions(2);
        let ok = MacPolicy::SlotAssignment {
            slots: vec![0, 1, 2, 3],
            period: 4,
        };
        assert!(ok.compile(&pos).is_ok());
        let bad = MacPolicy::SlotAssignment {
            slots: vec![0, 1],
            period: 4,
        };
        assert!(matches!(
            bad.compile(&pos),
            Err(SimError::AssignmentLengthMismatch { .. })
        ));
    }

    #[test]
    fn aloha_probability_is_validated_and_random() {
        let pos = positions(2);
        assert!(MacPolicy::SlottedAloha { p: 1.5 }.compile(&pos).is_err());
        let mac = MacPolicy::SlottedAloha { p: 0.5 }.compile(&pos).unwrap();
        assert_eq!(mac.period(), None);
        let rng = CounterRng::mac(1);
        let decisions: Vec<bool> = (0..100).map(|t| mac.transmits(0, t, &rng)).collect();
        let yes = decisions.iter().filter(|&&d| d).count();
        assert!(
            yes > 20 && yes < 80,
            "p=0.5 should transmit roughly half the time"
        );
        // Decisions are pure functions of (node, slot): re-evaluating replays.
        let replay: Vec<bool> = (0..100).map(|t| mac.transmits(0, t, &rng)).collect();
        assert_eq!(decisions, replay);
        // Degenerate probabilities are deterministic.
        let never = MacPolicy::SlottedAloha { p: 0.0 }.compile(&pos).unwrap();
        assert!(!never.transmits(0, 0, &rng));
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(MacPolicy::Tdma.name(), "tdma");
        assert!(MacPolicy::SlottedAloha { p: 0.25 }.name().contains("0.250"));
        assert!(MacPolicy::SlotAssignment {
            slots: vec![],
            period: 9
        }
        .to_string()
        .contains("m=9"));
    }
}
