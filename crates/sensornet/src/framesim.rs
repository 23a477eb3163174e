//! The frame-compiled simulation backend.
//!
//! [`FrameKernel`] compiles the MAC once into per-slot candidate lists
//! ([`latsched_engine::FrameSchedule`]), flattens the interference graph into a
//! CSR adjacency ([`latsched_engine::InterferenceCsr`]), and hands the run to
//! the allocation-free bitset kernel [`latsched_engine::run_frames`], which is
//! an order of magnitude faster than the reference loop because it touches only
//! the current slot's candidates instead of every node in every slot.
//!
//! Three additions make it the default backend for *every* configuration:
//!
//! * **Plan caching.** The fused [`latsched_engine::FramePlan`] costs more to
//!   build than a typical run costs to execute, so plans are memoized in a
//!   content-addressed [`PlanCache`] — by default one shared process-wide
//!   cache, or an explicit one via [`FrameKernel::with_cache`]. Repeated runs
//!   of a (schedule, network) pair pay the build once.
//! * **Trace caching.** Bernoulli traffic routes through the engine's shared
//!   [`TraceCache`]: the per-`(plan, seed, p, slots)` generation draws are
//!   compiled once into a [`latsched_engine::TrafficTrace`] (block-wise
//!   batched, parallel build) and every later run of the same coordinates —
//!   across networks, retry budgets and MAC parameters — replays the bitmaps
//!   instead of re-drawing `n × slots` hashes. Larger runs compile an
//!   uncached trace (see [`FrameKernel`]).
//! * **Counter-based randomness.** Stochastic configurations (Bernoulli
//!   traffic, slotted ALOHA) draw from `CounterRng` streams — pure functions of
//!   `(seed, node, slot)` — so the kernel replays them bit-identically to the
//!   reference simulator instead of falling back to it.
//!
//! The kernel's integer counters map one-to-one onto [`SimMetrics`]; energy is
//! applied from slot counts via [`EnergyAccount::from_slot_counts`], exactly
//! like the reference kernel, so the two backends agree bit-for-bit
//! (property-tested in `tests/sim_parity.rs`).

use crate::energy::EnergyAccount;
use crate::error::Result;
use crate::mac::CompiledMac;
use crate::metrics::SimMetrics;
use crate::sim::{Network, SimBackend, SimConfig};
use crate::traffic::TrafficModel;
use latsched_engine::{run_frames, KernelConfig, KernelMac, KernelTraffic, PlanCache, TraceCache};
use std::sync::{Arc, OnceLock};

/// Upper bound on `words × slots` for routing a Bernoulli run through the
/// shared trace cache (4 MiB of bitmap per trace, so the cache's 64-entry
/// bound caps aggregate pinned memory at ~256 MiB); larger runs pass
/// Bernoulli traffic to the engine's kernel, which compiles an uncached
/// trace, or refuses the run past its size cap.
const TRACE_ROUTE_WORD_LIMIT: u64 = 1 << 19;

/// The process-wide default plan cache; keyed by content fingerprints, so it is
/// safe to share across unrelated networks and schedules.
fn global_plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new)
}

/// The process-wide default trace cache; keyed by plan content fingerprints
/// plus draw coordinates, so it is safe to share across unrelated networks.
fn global_trace_cache() -> &'static TraceCache {
    static CACHE: OnceLock<TraceCache> = OnceLock::new();
    CACHE.get_or_init(TraceCache::new)
}

/// The frame-compiled simulation backend (see the module docs).
///
/// Bernoulli runs of up to `TRACE_ROUTE_WORD_LIMIT` (2^19) bitmap words
/// replay a trace from the trace cache. Larger runs compile an uncached
/// trace in [`latsched_engine::run_frames`], and runs past the engine's
/// trace size cap are refused with its
/// [`InvalidKernelConfig`](latsched_engine::EngineError::InvalidKernelConfig)
/// error, wrapped in [`SimError::Engine`](crate::SimError::Engine).
#[derive(Clone, Debug, Default)]
pub struct FrameKernel {
    /// Explicit plan cache; `None` uses the shared process-wide cache.
    cache: Option<Arc<PlanCache>>,
    /// Explicit trace cache; `None` uses the shared process-wide cache.
    traces: Option<Arc<TraceCache>>,
}

impl FrameKernel {
    /// A kernel using the shared process-wide plan and trace caches.
    pub fn new() -> Self {
        FrameKernel::default()
    }

    /// A kernel memoizing plans in the given cache (and traces in the shared
    /// process-wide trace cache); useful for sweeps that want plans of their
    /// own lifetime. Hit and miss counts live in each run's telemetry
    /// request either way.
    pub fn with_cache(cache: Arc<PlanCache>) -> Self {
        FrameKernel {
            cache: Some(cache),
            traces: None,
        }
    }

    /// A kernel memoizing plans and traffic traces in the given caches.
    pub fn with_caches(plans: Arc<PlanCache>, traces: Arc<TraceCache>) -> Self {
        FrameKernel {
            cache: Some(plans),
            traces: Some(traces),
        }
    }

    /// The plan cache this kernel compiles through.
    pub fn plan_cache(&self) -> &PlanCache {
        self.cache.as_deref().unwrap_or_else(|| global_plan_cache())
    }

    /// The trace cache this kernel compiles Bernoulli generation draws
    /// through.
    pub fn trace_cache(&self) -> &TraceCache {
        self.traces
            .as_deref()
            .unwrap_or_else(|| global_trace_cache())
    }
}

impl SimBackend for FrameKernel {
    fn name(&self) -> &'static str {
        "frame-kernel"
    }

    fn run(&self, network: &Network, config: &SimConfig) -> Result<SimMetrics> {
        // Each run is one engine telemetry request: its span, dispatch path
        // and tier lookups count in the recorder the run is made in.
        latsched_engine::telemetry::request(|| self.simulate(network, config)).0
    }
}

impl FrameKernel {
    fn simulate(&self, network: &Network, config: &SimConfig) -> Result<SimMetrics> {
        let _span =
            latsched_engine::telemetry::span(latsched_engine::telemetry::Stage::FrameSimRun);
        config.traffic.validate()?;
        let mac = config.mac.compile(network.positions())?;
        let n = network.len();
        let (slots, period, kernel_mac) = match mac {
            CompiledMac::Deterministic { slots, period } => (slots, period, KernelMac::Scheduled),
            // ALOHA has no frame structure: every node is a candidate in a
            // 1-slot frame and the MAC thins candidates stochastically.
            CompiledMac::Aloha { p } => (vec![0usize; n], 1, KernelMac::Aloha { p }),
        };
        let plan = self
            .plan_cache()
            .get_or_build(&slots, period, network.interference_csr()?)?;
        let traffic = match config.traffic {
            TrafficModel::Periodic { period } => KernelTraffic::Periodic { period },
            TrafficModel::Staggered { period } => KernelTraffic::Staggered { period },
            // Bernoulli generation draws are content-addressed by
            // (plan, seed, p, slots): route them through the shared trace tier
            // so repeated stochastic runs replay compiled bitmaps. Runs past
            // the routing cap leave the kernel to compile an uncached trace.
            TrafficModel::Bernoulli { p } => {
                let words = (n as u64).div_ceil(64);
                if words * config.slots <= TRACE_ROUTE_WORD_LIMIT {
                    KernelTraffic::Trace(self.trace_cache().get_or_build(
                        &plan,
                        config.seed,
                        p,
                        config.slots,
                    )?)
                } else {
                    KernelTraffic::Bernoulli { p }
                }
            }
            TrafficModel::None => KernelTraffic::None,
        };
        let counts = run_frames(
            &plan,
            &KernelConfig {
                slots: config.slots,
                traffic,
                mac: kernel_mac,
                max_retries: config.max_retries,
                seed: config.seed,
            },
        )?;
        Ok(SimMetrics {
            slots_simulated: config.slots,
            nodes: network.len(),
            packets_generated: counts.packets_generated,
            packets_delivered: counts.packets_delivered,
            packets_dropped: counts.packets_dropped,
            packets_pending: counts.packets_pending,
            transmissions: counts.transmissions,
            receptions: counts.receptions,
            collisions: counts.collisions,
            total_latency: counts.total_latency,
            energy: EnergyAccount::from_slot_counts(
                &config.energy,
                counts.tx_slots,
                counts.rx_slots,
                counts.idle_slots,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacPolicy;
    use crate::scenario::{grid_network, tiling_mac};
    use crate::sim::{run_simulation, run_simulation_with, ReferenceKernel};
    use latsched_engine::telemetry::{request, CacheTier};
    use latsched_tiling::shapes;

    /// Runs `f` as one request: its result, and the (hits, misses) it
    /// recorded on `tier` (each kernel run inside is a request of its own,
    /// merged into this one).
    fn lookups<T>(tier: CacheTier, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let (out, recording, _) = request(f);
        let count = |hit| recording.counter(tier.counter(hit));
        (out, (count(true), count(false)))
    }

    fn deterministic_config() -> SimConfig {
        SimConfig {
            mac: tiling_mac(&shapes::moore()).unwrap(),
            traffic: TrafficModel::Periodic { period: 24 },
            slots: 400,
            max_retries: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn supports_every_configuration() {
        // `run_simulation` runs this kernel on every configuration: each run
        // records one kernel dispatch, which the reference kernel never does.
        let network = grid_network(5, &shapes::moore()).unwrap();
        let mut config = deterministic_config();
        let dispatches = |config: &SimConfig| {
            let (metrics, recording, _) = request(|| run_simulation(&network, config));
            assert!(metrics.is_ok());
            recording.dispatch_total()
        };
        assert_eq!(dispatches(&config), 1);
        config.traffic = TrafficModel::Bernoulli { p: 0.1 };
        assert_eq!(dispatches(&config), 1);
        config.mac = MacPolicy::SlottedAloha { p: 0.5 };
        assert_eq!(dispatches(&config), 1);
        assert_eq!(FrameKernel::new().name(), "frame-kernel");
    }

    #[test]
    fn matches_the_reference_kernel_exactly() {
        let network = grid_network(7, &shapes::moore()).unwrap();
        let config = deterministic_config();
        let frame = run_simulation_with(&FrameKernel::default(), &network, &config).unwrap();
        let reference = run_simulation_with(&ReferenceKernel, &network, &config).unwrap();
        assert_eq!(frame, reference);
        assert!(frame.packets_delivered > 0);
    }

    #[test]
    fn matches_the_reference_kernel_on_stochastic_configurations() {
        let network = grid_network(5, &shapes::moore()).unwrap();
        let mut config = deterministic_config();
        config.slots = 300;
        for (mac, traffic) in [
            (
                tiling_mac(&shapes::moore()).unwrap(),
                TrafficModel::Bernoulli { p: 0.15 },
            ),
            (
                MacPolicy::SlottedAloha { p: 0.4 },
                TrafficModel::Bernoulli { p: 0.1 },
            ),
            (
                MacPolicy::SlottedAloha { p: 0.3 },
                TrafficModel::Periodic { period: 8 },
            ),
            (
                tiling_mac(&shapes::moore()).unwrap(),
                TrafficModel::Staggered { period: 16 },
            ),
        ] {
            config.mac = mac;
            config.traffic = traffic;
            let frame = run_simulation_with(&FrameKernel::default(), &network, &config).unwrap();
            let reference = run_simulation_with(&ReferenceKernel, &network, &config).unwrap();
            assert_eq!(frame, reference, "mac {} traffic {}", config.mac, traffic);
            assert!(frame.packets_generated > 0);
        }
    }

    #[test]
    fn explicit_plan_cache_is_reused_across_runs() {
        let network = grid_network(6, &shapes::moore()).unwrap();
        let cache = Arc::new(PlanCache::new());
        let kernel = FrameKernel::with_cache(Arc::clone(&cache));
        let config = deterministic_config();
        let run = |config: &SimConfig| kernel.run(&network, config).unwrap();
        let (a, (hits, misses)) = lookups(CacheTier::Plans, || run(&config));
        assert_eq!((hits, misses), (0, 1), "plan built once");
        let (b, (hits, misses)) = lookups(CacheTier::Plans, || run(&config));
        assert_eq!((hits, misses), (1, 0), "second run replays the cached plan");
        assert_eq!(a, b);
        // A different MAC compiles a different plan under the same network.
        let mut aloha = config.clone();
        aloha.mac = MacPolicy::SlottedAloha { p: 0.2 };
        let (_, (_, misses)) = lookups(CacheTier::Plans, || run(&aloha));
        assert_eq!(misses, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bernoulli_runs_share_compiled_traces_across_configs() {
        let network = grid_network(6, &shapes::moore()).unwrap();
        let plans = Arc::new(PlanCache::new());
        let traces = Arc::new(TraceCache::new());
        let kernel = FrameKernel::with_caches(Arc::clone(&plans), Arc::clone(&traces));
        let mut config = deterministic_config();
        config.traffic = TrafficModel::Bernoulli { p: 0.2 };
        config.slots = 200;
        let ((a, b), (hits, misses)) = lookups(CacheTier::Traces, || {
            let a = kernel.run(&network, &config).unwrap();
            // A different retry budget reuses the same trace (generation
            // draws do not depend on MAC-side knobs).
            config.max_retries = 7;
            (a, kernel.run(&network, &config).unwrap())
        });
        assert_eq!(misses, 1, "one trace per (plan, seed, p, slots)");
        assert_eq!(hits, 1);
        assert_eq!(a.packets_generated, b.packets_generated);
        // A different seed compiles a different trace.
        config.seed = config.seed.wrapping_add(1);
        let (_, (_, misses)) = lookups(CacheTier::Traces, || kernel.run(&network, &config));
        assert_eq!(misses, 1);
        assert_eq!(traces.len(), 2);
        // And the traced path stays bit-identical to the reference simulator.
        let reference = run_simulation_with(&ReferenceKernel, &network, &config).unwrap();
        let frame = kernel.run(&network, &config).unwrap();
        assert_eq!(frame, reference);
    }

    #[test]
    fn invalid_configurations_are_still_rejected() {
        let network = grid_network(4, &shapes::moore()).unwrap();
        let mut config = deterministic_config();
        config.traffic = TrafficModel::Bernoulli { p: 1.5 };
        assert!(FrameKernel::default().run(&network, &config).is_err());
        config.traffic = TrafficModel::Periodic { period: 0 };
        assert!(FrameKernel::default().run(&network, &config).is_err());
    }
}
