//! Simulation metrics, and memory-bounded online folds over many runs.

use crate::energy::EnergyAccount;
use latsched_engine::aggregate::{FieldFold, Log2Histogram, RatioHistogram};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregate results of one simulation run.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Number of slots simulated.
    pub slots_simulated: u64,
    /// Number of nodes in the network.
    pub nodes: usize,
    /// Packets generated across all nodes.
    pub packets_generated: u64,
    /// Packets whose broadcast eventually reached every intended neighbour.
    pub packets_delivered: u64,
    /// Packets dropped after exhausting their retransmission budget.
    pub packets_dropped: u64,
    /// Packets still queued when the simulation ended.
    pub packets_pending: u64,
    /// Individual transmissions performed.
    pub transmissions: u64,
    /// Successful link-level receptions (one per neighbour that decoded a packet).
    pub receptions: u64,
    /// Link-level losses due to interference (a neighbour heard two or more
    /// simultaneous in-range transmitters) or because the neighbour was itself
    /// transmitting.
    pub collisions: u64,
    /// Sum of per-packet delivery latencies in slots (generation → successful
    /// broadcast), over delivered packets.
    pub total_latency: u64,
    /// Energy spent by the whole network.
    pub energy: EnergyAccount,
}

impl SimMetrics {
    /// Fraction of generated packets that were fully delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_generated == 0 {
            return 1.0;
        }
        self.packets_delivered as f64 / self.packets_generated as f64
    }

    /// Mean latency (in slots) of delivered packets.
    pub fn mean_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.total_latency as f64 / self.packets_delivered as f64
    }

    /// Total energy divided by the number of delivered packets (infinite if nothing
    /// was delivered but energy was spent).
    pub fn energy_per_delivered(&self) -> f64 {
        if self.packets_delivered == 0 {
            return if self.energy.total() > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.energy.total() / self.packets_delivered as f64
    }

    /// Average number of transmissions needed per delivered packet (retransmission
    /// overhead; 1.0 is ideal).
    pub fn transmissions_per_delivered(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.transmissions as f64 / self.packets_delivered as f64
    }

    /// Delivered packets per node per slot.
    pub fn throughput(&self) -> f64 {
        if self.slots_simulated == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.packets_delivered as f64 / (self.slots_simulated as f64 * self.nodes as f64)
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivery {:.3}, latency {:.1} slots, {:.2} tx/delivered, {:.2} energy/delivered, {} collisions",
            self.delivery_ratio(),
            self.mean_latency(),
            self.transmissions_per_delivered(),
            self.energy_per_delivered(),
            self.collisions
        )
    }
}

/// The [`SimMetrics`] integer counter names a [`MetricsFold`] tracks, in
/// declaration order (the engine's kernel-side slot counters — `tx_slots`
/// etc. — have no `SimMetrics` equivalent; energy is folded separately).
pub const METRIC_FIELDS: [&str; 8] = [
    "packets_generated",
    "packets_delivered",
    "packets_dropped",
    "packets_pending",
    "transmissions",
    "receptions",
    "collisions",
    "total_latency",
];

/// A memory-bounded online fold over many simulation runs' [`SimMetrics`].
///
/// The sensornet counterpart of the engine's streaming sweep statistics
/// ([`latsched_engine::aggregate::OnlineFold`]), built on the same exact
/// integer monoids: per-field count/sum/sum²/min/max folds
/// ([`FieldFold`]), a per-run mean-delivery-latency histogram
/// ([`Log2Histogram`]) and a per-run delivery-ratio histogram
/// ([`RatioHistogram`]). Folding `n` reference-simulator runs therefore costs
/// O(1) memory instead of holding `n` metrics structs, and the integer parts
/// agree bit for bit with an engine streaming sweep folding the same runs —
/// which is exactly what the `aggregate` entry of `harness --bench`
/// cross-checks. Energy is accumulated as plain `f64` totals (it is derived
/// per run from integer slot counts, so it is reproducible in a fixed fold
/// order).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsFold {
    /// Number of runs folded in.
    pub runs: u64,
    /// One fold per counter, in [`METRIC_FIELDS`] order.
    pub fields: [FieldFold; 8],
    /// Histogram of per-run mean delivery latency (`total_latency /
    /// packets_delivered`, integer division; undelivered runs contribute no
    /// observation).
    pub latency: Log2Histogram,
    /// Histogram of per-run delivery ratios.
    pub delivery: RatioHistogram,
    /// Summed energy accounts across runs.
    pub energy: EnergyAccount,
}

impl MetricsFold {
    /// An empty fold.
    pub fn new() -> Self {
        MetricsFold::default()
    }

    /// The integer counters of one run, in [`METRIC_FIELDS`] order.
    fn values(metrics: &SimMetrics) -> [u64; 8] {
        [
            metrics.packets_generated,
            metrics.packets_delivered,
            metrics.packets_dropped,
            metrics.packets_pending,
            metrics.transmissions,
            metrics.receptions,
            metrics.collisions,
            metrics.total_latency,
        ]
    }

    /// Folds one run's metrics in.
    pub fn observe(&mut self, metrics: &SimMetrics) {
        self.runs += 1;
        for (fold, v) in self.fields.iter_mut().zip(Self::values(metrics)) {
            fold.observe(v);
        }
        if let Some(mean_latency) = metrics.total_latency.checked_div(metrics.packets_delivered) {
            self.latency.observe(mean_latency);
        }
        self.delivery
            .observe(metrics.packets_delivered, metrics.packets_generated);
        self.energy.tx += metrics.energy.tx;
        self.energy.rx += metrics.energy.rx;
        self.energy.idle += metrics.energy.idle;
    }

    /// Merges another fold in (the monoid operation; integer parts are
    /// order-independent bit for bit).
    pub fn merge(&mut self, other: &MetricsFold) {
        self.runs += other.runs;
        for (a, b) in self.fields.iter_mut().zip(&other.fields) {
            a.merge(b);
        }
        self.latency.merge(&other.latency);
        self.delivery.merge(&other.delivery);
        self.energy.tx += other.energy.tx;
        self.energy.rx += other.energy.rx;
        self.energy.idle += other.energy.idle;
    }

    /// The fold of one counter, by [`METRIC_FIELDS`] name.
    pub fn field(&self, name: &str) -> Option<&FieldFold> {
        METRIC_FIELDS
            .iter()
            .position(|&f| f == name)
            .map(|i| &self.fields[i])
    }

    /// Aggregate delivery ratio (sum of delivered / sum of generated; 1 when
    /// nothing was generated, matching [`SimMetrics::delivery_ratio`]).
    pub fn delivery_ratio(&self) -> f64 {
        let generated = self.fields[0].sum;
        if generated == 0 {
            1.0
        } else {
            self.fields[1].sum as f64 / generated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let metrics = SimMetrics {
            slots_simulated: 100,
            nodes: 10,
            packets_generated: 50,
            packets_delivered: 40,
            packets_dropped: 5,
            packets_pending: 5,
            transmissions: 60,
            receptions: 200,
            collisions: 30,
            total_latency: 120,
            energy: EnergyAccount {
                tx: 60.0,
                rx: 20.0,
                idle: 20.0,
            },
        };
        assert!((metrics.delivery_ratio() - 0.8).abs() < 1e-12);
        assert!((metrics.mean_latency() - 3.0).abs() < 1e-12);
        assert!((metrics.energy_per_delivered() - 2.5).abs() < 1e-12);
        assert!((metrics.transmissions_per_delivered() - 1.5).abs() < 1e-12);
        assert!((metrics.throughput() - 0.04).abs() < 1e-12);
        let s = metrics.to_string();
        assert!(s.contains("delivery 0.800"));
        assert!(s.contains("30 collisions"));
    }

    fn run(generated: u64, delivered: u64, latency: u64) -> SimMetrics {
        SimMetrics {
            packets_generated: generated,
            packets_delivered: delivered,
            total_latency: latency,
            energy: EnergyAccount {
                tx: delivered as f64,
                rx: 0.5,
                idle: 0.1,
            },
            ..SimMetrics::default()
        }
    }

    #[test]
    fn metrics_fold_merge_equals_sequential_fold() {
        let runs: Vec<SimMetrics> = (1..=9).map(|i| run(10 * i, 4 * i, 12 * i)).collect();
        let mut sequential = MetricsFold::new();
        for m in &runs {
            sequential.observe(m);
        }
        assert_eq!(sequential.runs, 9);
        assert_eq!(
            sequential.field("packets_generated").unwrap().sum,
            (1..=9u64).map(|i| 10 * i).sum::<u64>()
        );
        assert_eq!(sequential.field("packets_generated").unwrap().min, 10);
        assert!(sequential.field("tx_slots").is_none(), "kernel-only field");
        // Mean latency per run is 3 slots → bucket 2 every time.
        assert_eq!(sequential.latency.count(2), 9);
        assert!((sequential.delivery_ratio() - 0.4).abs() < 1e-12);
        assert!((sequential.energy.tx - (4..=36).step_by(4).sum::<u64>() as f64).abs() < 1e-9);

        // The integer parts merge associatively, bit for bit.
        for split in 0..=runs.len() {
            let (left, right) = runs.split_at(split);
            let mut a = MetricsFold::new();
            let mut b = MetricsFold::new();
            for m in left {
                a.observe(m);
            }
            for m in right {
                b.observe(m);
            }
            a.merge(&b);
            assert_eq!(a.fields, sequential.fields, "split at {split}");
            assert_eq!(a.latency, sequential.latency);
            assert_eq!(a.delivery, sequential.delivery);
            assert_eq!(a.runs, sequential.runs);
        }

        // The empty fold mirrors SimMetrics' degenerate delivery ratio.
        assert_eq!(MetricsFold::new().delivery_ratio(), 1.0);
        let mut empty_traffic = MetricsFold::new();
        empty_traffic.observe(&SimMetrics::default());
        assert_eq!(empty_traffic.delivery.undefined, 1);
        assert_eq!(empty_traffic.latency.total(), 0);
    }

    #[test]
    fn degenerate_cases() {
        let empty = SimMetrics::default();
        assert_eq!(empty.delivery_ratio(), 1.0);
        assert_eq!(empty.mean_latency(), 0.0);
        assert_eq!(empty.energy_per_delivered(), 0.0);
        assert_eq!(empty.transmissions_per_delivered(), 0.0);
        assert_eq!(empty.throughput(), 0.0);

        let wasted = SimMetrics {
            packets_generated: 10,
            energy: EnergyAccount {
                tx: 1.0,
                rx: 0.0,
                idle: 0.0,
            },
            ..SimMetrics::default()
        };
        assert_eq!(wasted.delivery_ratio(), 0.0);
        assert!(wasted.energy_per_delivered().is_infinite());
    }
}
