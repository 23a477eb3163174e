//! The slot-synchronous network simulator.
//!
//! The simulator realizes exactly the interference model of the paper: the sensor at
//! `t` affects the sensors at `t + N_t`; a sensor cannot decode a message if it is
//! itself transmitting or if two or more in-range sensors transmit in the same slot.
//! Time advances in integer slots (the sensors are assumed to share the current time,
//! as in the paper), and in every slot the MAC policy decides who transmits, the
//! interference model resolves who receives, and the energy model charges every node
//! for what its radio did.
//!
//! A broadcast is *delivered* when every intended neighbour has decoded it; the
//! simulator optionally retransmits undelivered packets (idealized feedback), which
//! makes the energy cost of collisions — the paper's motivation — directly visible.
//!
//! Two interchangeable engines implement these semantics behind the
//! [`SimBackend`] trait:
//!
//! * [`ReferenceKernel`] — the slot-by-slot loop below, written for clarity and
//!   kept as the parity oracle for every configuration.
//! * [`crate::FrameKernel`] — the frame-compiled bitset kernel of
//!   `latsched_engine::run_frames`, an order of magnitude faster. Stochastic
//!   draws (Bernoulli traffic, slotted-ALOHA decisions) come from a
//!   counter-based RNG — a pure function of `(seed, node, slot)` — so the fast
//!   kernel replays even stochastic configurations bit-identically instead of
//!   falling back to this loop, and compiled frame plans are memoized across
//!   runs in a [`latsched_engine::PlanCache`].
//!
//! [`run_simulation`] dispatches to the frame kernel; the two backends produce
//! identical [`SimMetrics`] on every configuration (property-tested in
//! `tests/sim_parity.rs`).

use crate::energy::{EnergyAccount, EnergyModel};
use crate::error::{Result, SimError};
use crate::framesim::FrameKernel;
use crate::mac::{CompiledMac, MacPolicy};
use crate::metrics::SimMetrics;
use crate::packet::Packet;
use crate::traffic::TrafficModel;
use latsched_coloring::InterferenceGraph;
use latsched_core::{Deployment, FiniteDeployment};
use latsched_engine::InterferenceCsr;
use latsched_lattice::{BoxRegion, CounterRng, Point};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// A finite network: sensor positions plus the (directed) lists of neighbours
/// each node's broadcasts reach. Immutable once built — simulation runs borrow
/// it and keep their mutable state (queues, masks) separately, so repeated runs
/// never clone positions or neighbour lists.
#[derive(Clone, Debug)]
pub struct Network {
    positions: Vec<Point>,
    neighbours: Vec<Vec<usize>>,
    deployment: Deployment,
    /// CSR flattening of `neighbours`, built on first use by the frame kernel
    /// and reused by every subsequent run on this network.
    csr: OnceLock<InterferenceCsr>,
}

impl Network {
    /// Builds the network of all sensors inside a box window under the given
    /// interference model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyNetwork`] for an empty window and propagates
    /// lattice/colouring errors.
    pub fn from_window(window: &BoxRegion, deployment: Deployment) -> Result<Self> {
        let finite = FiniteDeployment::window(window, deployment.clone())?;
        Network::from_finite(&finite)
    }

    /// Builds the network from an explicit finite deployment.
    ///
    /// # Errors
    ///
    /// Propagates lattice/colouring errors.
    pub fn from_finite(finite: &FiniteDeployment) -> Result<Self> {
        let graph = InterferenceGraph::from_deployment(finite)?;
        let positions = graph.positions().to_vec();
        let neighbours = (0..positions.len())
            .map(|id| Ok(graph.affected_by(id)?.to_vec()))
            .collect::<Result<Vec<Vec<usize>>>>()?;
        if positions.is_empty() {
            return Err(SimError::EmptyNetwork);
        }
        Ok(Network {
            positions,
            neighbours,
            deployment: finite.deployment().clone(),
            csr: OnceLock::new(),
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the network has no nodes (never true for a validly constructed value).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The node positions, indexed by node id.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The interference model the network was built with.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// All per-node neighbour lists, indexed by node id.
    pub fn neighbour_lists(&self) -> &[Vec<usize>] {
        &self.neighbours
    }

    /// The CSR flattening of the neighbour lists, built once and cached for
    /// the lifetime of the network.
    ///
    /// # Errors
    ///
    /// Propagates CSR size-limit errors.
    pub fn interference_csr(&self) -> Result<&InterferenceCsr> {
        if let Some(csr) = self.csr.get() {
            return Ok(csr);
        }
        let built = InterferenceCsr::from_lists(&self.neighbours)?;
        Ok(self.csr.get_or_init(|| built))
    }

    /// The neighbours affected by a node's broadcasts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for an invalid id.
    pub fn neighbours(&self, node: usize) -> Result<&[usize]> {
        self.neighbours
            .get(node)
            .map(Vec::as_slice)
            .ok_or(SimError::NodeOutOfRange {
                node,
                nodes: self.positions.len(),
            })
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network of {} sensors", self.positions.len())
    }
}

/// Configuration of one simulation run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// The MAC policy every node runs.
    pub mac: MacPolicy,
    /// The traffic model every node follows.
    pub traffic: TrafficModel,
    /// The per-slot energy model.
    pub energy: EnergyModel,
    /// How many times an undelivered broadcast is retransmitted before being dropped
    /// (`0` means each packet is transmitted exactly once).
    pub max_retries: u32,
    /// Number of slots to simulate.
    pub slots: u64,
    /// RNG seed; all runs are deterministic given the seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mac: MacPolicy::Tdma,
            traffic: TrafficModel::Periodic { period: 32 },
            energy: EnergyModel::default(),
            max_retries: 8,
            slots: 1024,
            seed: 0xC0FFEE,
        }
    }
}

/// A simulation engine: anything that can run one configuration against a
/// network and report [`SimMetrics`].
///
/// All backends implement the same slot-synchronous semantics; where several
/// backends support a configuration they must produce identical metrics, so the
/// slow [`ReferenceKernel`] doubles as the parity oracle for the fast
/// [`crate::FrameKernel`].
pub trait SimBackend {
    /// A short name for logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs one simulation.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors; backends that do not support
    /// a configuration return [`SimError::UnsupportedConfig`].
    fn run(&self, network: &Network, config: &SimConfig) -> Result<SimMetrics>;
}

/// Runs one simulation of the given network under the given configuration on
/// the frame-compiled kernel, which runs every configuration.
///
/// # Errors
///
/// Propagates configuration validation errors (bad probabilities, mismatched slot
/// assignments) and lattice errors.
pub fn run_simulation(network: &Network, config: &SimConfig) -> Result<SimMetrics> {
    run_simulation_with(&FrameKernel::default(), network, config)
}

/// Runs one simulation on an explicitly chosen backend (see [`SimBackend`]).
///
/// # Errors
///
/// Propagates the backend's errors.
pub fn run_simulation_with(
    backend: &dyn SimBackend,
    network: &Network,
    config: &SimConfig,
) -> Result<SimMetrics> {
    backend.run(network, config)
}

/// The reference slot-by-slot simulator: clear, general, and the semantics
/// oracle every faster backend is tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceKernel;

impl SimBackend for ReferenceKernel {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn run(&self, network: &Network, config: &SimConfig) -> Result<SimMetrics> {
        config.traffic.validate()?;
        let mac: CompiledMac = config.mac.compile(network.positions())?;
        let n = network.len();
        // Counter-based streams: every stochastic draw is a pure function of
        // (seed, stream, node, slot), so faster backends that evaluate draws in
        // a different order (or skip nodes entirely) replay this kernel's runs
        // bit for bit.
        let traffic_rng = CounterRng::traffic(config.seed);
        let mac_rng = CounterRng::mac(config.seed);

        let mut metrics = SimMetrics {
            nodes: n,
            slots_simulated: config.slots,
            ..SimMetrics::default()
        };
        // Per-run mutable state, kept outside the immutable Network.
        let mut queues: Vec<VecDeque<Packet>> = vec![VecDeque::new(); n];
        let mut next_sequence = vec![0u64; n];
        let mut transmitting = vec![false; n];
        // in_range_transmitters[u] counts the transmitters this slot that affect u.
        let mut in_range_transmitters: Vec<u32> = vec![0; n];
        // Radio-state slot counts; converted to energy once at the end so energy
        // is exact (and bit-identical across backends).
        let (mut tx_slots, mut rx_slots, mut idle_slots) = (0u64, 0u64, 0u64);

        for t in 0..config.slots {
            // 1. Traffic generation.
            for (id, queue) in queues.iter_mut().enumerate() {
                if config.traffic.generates(id, t, &traffic_rng) {
                    queue.push_back(Packet {
                        sequence: next_sequence[id],
                        generated_at: t,
                        attempts: 0,
                    });
                    next_sequence[id] += 1;
                    metrics.packets_generated += 1;
                }
            }

            // 2. MAC decisions.
            for (id, flag) in transmitting.iter_mut().enumerate() {
                *flag = !queues[id].is_empty() && mac.transmits(id, t, &mac_rng);
            }

            // 3. Interference resolution.
            for c in in_range_transmitters.iter_mut() {
                *c = 0;
            }
            for (v, &tx) in transmitting.iter().enumerate() {
                if tx {
                    for &u in &network.neighbours[v] {
                        in_range_transmitters[u] += 1;
                    }
                }
            }

            // 4. Per-transmitter outcome.
            for v in 0..n {
                if !transmitting[v] {
                    continue;
                }
                metrics.transmissions += 1;
                let mut all_received = true;
                for &u in &network.neighbours[v] {
                    let lost = transmitting[u] || in_range_transmitters[u] > 1;
                    if lost {
                        metrics.collisions += 1;
                        all_received = false;
                    } else {
                        metrics.receptions += 1;
                    }
                }
                let packet = queues[v]
                    .front_mut()
                    .expect("transmitting nodes have a queued packet");
                packet.attempts += 1;
                if all_received {
                    metrics.packets_delivered += 1;
                    metrics.total_latency += t - packet.generated_at;
                    queues[v].pop_front();
                } else if packet.attempts > config.max_retries {
                    metrics.packets_dropped += 1;
                    queues[v].pop_front();
                }
            }

            // 5. Energy accounting.
            for v in 0..n {
                if transmitting[v] {
                    tx_slots += 1;
                } else if in_range_transmitters[v] > 0 {
                    rx_slots += 1;
                } else {
                    idle_slots += 1;
                }
            }
        }

        metrics.packets_pending = queues.iter().map(|queue| queue.len() as u64).sum();
        metrics.energy =
            EnergyAccount::from_slot_counts(&config.energy, tx_slots, rx_slots, idle_slots);
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_core::theorem1;
    use latsched_tiling::{find_tiling, shapes};

    fn moore_network(side: i64) -> Network {
        let window = BoxRegion::square_window(2, side).unwrap();
        Network::from_window(&window, Deployment::Homogeneous(shapes::moore())).unwrap()
    }

    fn tiling_mac() -> MacPolicy {
        let tiling = find_tiling(&shapes::moore()).unwrap().unwrap();
        MacPolicy::TilingSchedule(theorem1::schedule_from_tiling(&tiling))
    }

    #[test]
    fn network_construction() {
        let net = moore_network(4);
        assert_eq!(net.len(), 16);
        assert!(!net.is_empty());
        assert_eq!(net.positions().len(), 16);
        assert_eq!(net.neighbour_lists().len(), 16);
        // A corner node of a 4×4 grid has 3 in-window Moore neighbours.
        let corner = net
            .positions()
            .iter()
            .position(|p| p == &Point::xy(0, 0))
            .unwrap();
        assert_eq!(net.neighbours(corner).unwrap().len(), 3);
        assert!(net.neighbours(99).is_err());
        assert!(net.to_string().contains("16 sensors"));
    }

    #[test]
    fn tiling_schedule_delivers_everything_without_collisions() {
        let net = moore_network(6);
        let config = SimConfig {
            mac: tiling_mac(),
            traffic: TrafficModel::Periodic { period: 16 },
            slots: 512,
            ..SimConfig::default()
        };
        let metrics = run_simulation(&net, &config).unwrap();
        assert_eq!(metrics.collisions, 0, "tiling schedules are collision-free");
        assert!(metrics.packets_delivered > 0);
        assert_eq!(metrics.packets_dropped, 0);
        // Everything generated early enough is delivered; only the tail may be
        // pending.
        assert!(metrics.delivery_ratio() > 0.9);
        assert!((metrics.transmissions_per_delivered() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tdma_is_collision_free_but_slow() {
        let net = moore_network(6);
        let tdma = run_simulation(
            &net,
            &SimConfig {
                mac: MacPolicy::Tdma,
                traffic: TrafficModel::Periodic { period: 64 },
                slots: 1024,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let tiling = run_simulation(
            &net,
            &SimConfig {
                mac: tiling_mac(),
                traffic: TrafficModel::Periodic { period: 64 },
                slots: 1024,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(tdma.collisions, 0);
        assert_eq!(tiling.collisions, 0);
        // TDMA cycles over all 36 sensors, the tiling over 9 slots, so the tiling
        // delivers with much lower latency.
        assert!(tiling.mean_latency() < tdma.mean_latency());
    }

    #[test]
    fn saturated_aloha_collides_and_wastes_energy() {
        let net = moore_network(6);
        let aloha = run_simulation(
            &net,
            &SimConfig {
                mac: MacPolicy::SlottedAloha { p: 0.5 },
                traffic: TrafficModel::Bernoulli { p: 0.2 },
                slots: 512,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let tiling = run_simulation(
            &net,
            &SimConfig {
                mac: tiling_mac(),
                traffic: TrafficModel::Bernoulli { p: 0.2 },
                slots: 512,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(aloha.collisions > 0, "saturated random access must collide");
        assert_eq!(tiling.collisions, 0);
        assert!(aloha.delivery_ratio() < tiling.delivery_ratio());
        assert!(aloha.energy_per_delivered() > tiling.energy_per_delivered());
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed() {
        let net = moore_network(4);
        let config = SimConfig {
            mac: MacPolicy::SlottedAloha { p: 0.3 },
            traffic: TrafficModel::Bernoulli { p: 0.1 },
            slots: 256,
            seed: 42,
            ..SimConfig::default()
        };
        let a = run_simulation(&net, &config).unwrap();
        let b = run_simulation(&net, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn no_traffic_means_no_transmissions_and_only_idle_energy() {
        let net = moore_network(3);
        let metrics = run_simulation(
            &net,
            &SimConfig {
                mac: MacPolicy::Tdma,
                traffic: TrafficModel::None,
                slots: 100,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(metrics.packets_generated, 0);
        assert_eq!(metrics.transmissions, 0);
        assert_eq!(metrics.collisions, 0);
        assert_eq!(metrics.energy.tx, 0.0);
        assert_eq!(metrics.energy.rx, 0.0);
        assert!(metrics.energy.idle > 0.0);
        assert_eq!(metrics.delivery_ratio(), 1.0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let net = moore_network(3);
        assert!(run_simulation(
            &net,
            &SimConfig {
                traffic: TrafficModel::Bernoulli { p: 2.0 },
                ..SimConfig::default()
            },
        )
        .is_err());
        assert!(run_simulation(
            &net,
            &SimConfig {
                mac: MacPolicy::SlottedAloha { p: -0.5 },
                ..SimConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn explicit_backends_run_and_name_themselves() {
        let net = moore_network(4);
        let config = SimConfig {
            mac: tiling_mac(),
            traffic: TrafficModel::Periodic { period: 16 },
            slots: 128,
            ..SimConfig::default()
        };
        assert_eq!(ReferenceKernel.name(), "reference");
        let reference = run_simulation_with(&ReferenceKernel, &net, &config).unwrap();
        let frame = run_simulation_with(&FrameKernel::default(), &net, &config).unwrap();
        assert_eq!(reference, frame);
        assert_eq!(run_simulation(&net, &config).unwrap(), frame);
    }
}
