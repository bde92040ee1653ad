//! The topology-aware cost model.
//!
//! The paper's RTS "must schedule and map tasks to different types of
//! devices using cost models that consider topology and access paths". The
//! [`CostModel`] estimates, for a declarative memory request, how expensive
//! it would be to serve that request from each candidate device *as seen
//! from the executing compute device* — the quantity the placement
//! optimizer minimizes. It blends:
//!
//! - the achieved per-access latency (device + interconnect path), weighted
//!   by how latency-bound the declared access hint is;
//! - the achieved bandwidth for the streaming share of the traffic;
//! - a contention estimate from the device's current utilization; and
//! - a small capacity-pressure and dollar-cost tiebreaker, so equal
//!   candidates prefer the cheaper, emptier device.

use disagg_hwsim::device::AccessPattern;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;

/// Tunable weights for the cost blend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the latency term.
    pub latency: f64,
    /// Weight of the bandwidth (transfer-time) term.
    pub bandwidth: f64,
    /// Multiplier applied per unit of current device utilization.
    pub contention: f64,
    /// Weight of the capacity-pressure tiebreaker.
    pub pressure: f64,
    /// Weight of the dollar-cost tiebreaker.
    pub dollars: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            latency: 1.0,
            bandwidth: 1.0,
            contention: 1.0,
            pressure: 0.05,
            dollars: 0.01,
        }
    }
}

/// Ablation switch: ignore the interconnect path entirely (treat every
/// device as if it were local). Used by experiment E13 to show what
/// topology awareness buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyAwareness {
    /// Full path costs (the real model).
    #[default]
    Aware,
    /// Pretend all devices are directly attached.
    Blind,
}

/// The utilization-independent terms of one [`CostModel::score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StaticTerms {
    /// Weighted latency plus transfer time, before contention.
    base: f64,
    /// Weighted dollar-cost tiebreaker.
    dollars: f64,
}

/// The cost model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostModel {
    /// Blend weights.
    pub weights: CostWeights,
    /// Topology awareness (ablation switch).
    pub awareness: TopologyAwareness,
}

impl CostModel {
    /// A model with default weights.
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Estimated cost (virtual nanoseconds, lower is better) of serving a
    /// region with `props` of `size` bytes from `dev`, accessed by a task
    /// on `compute`. Returns `None` when the device is unreachable or the
    /// hard properties are unsatisfiable there.
    ///
    /// `utilization` is the device's current memory-capacity utilization
    /// in `[0, 1]`, used as the contention proxy.
    pub fn score(
        &self,
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        props: &PropertySet,
        size: u64,
        utilization: f64,
    ) -> Option<f64> {
        self.static_terms(topo, compute, dev, props, size)
            .map(|terms| self.apply_utilization(terms, utilization))
    }

    /// The part of [`score`](Self::score) that does not depend on the
    /// device's utilization: feasibility, the latency/bandwidth blend and
    /// the dollar term. It reads only the topology, this model, the
    /// device pair, `props` and `size`, so callers may reuse it across
    /// calls that differ only in utilization.
    pub(crate) fn static_terms(
        &self,
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
        props: &PropertySet,
        size: u64,
    ) -> Option<StaticTerms> {
        let real_path = topo.path(compute, dev)?;
        let path = match self.awareness {
            TopologyAwareness::Aware => real_path,
            TopologyAwareness::Blind => disagg_hwsim::topology::PathCost::LOCAL,
        };
        if !props.satisfied_by(topo.mem(dev), path) {
            return None;
        }
        let model = topo.mem(dev);
        let op = props.hint.dominant_op();
        let lat = model.latency(op) + path.latency_ns;
        let bw = model.bandwidth(op).min(path.bandwidth_bpns);

        // Expected time to push `size` bytes through in `typical_bytes`
        // chunks under the declared pattern.
        let chunk = props.hint.typical_bytes.max(1).min(size.max(1));
        let chunks = (size.max(1) as f64 / chunk as f64).ceil();
        let per_chunk_lat = match props.hint.pattern {
            AccessPattern::Random => lat,
            // Streaming amortizes latency across the whole volume.
            AccessPattern::Sequential => lat / chunks.max(1.0),
        };
        let latency_term = chunks * per_chunk_lat;
        let transfer_term = size as f64 / bw;

        Some(StaticTerms {
            base: self.weights.latency * latency_term + self.weights.bandwidth * transfer_term,
            dollars: self.weights.dollars * model.cost_per_gib,
        })
    }

    /// Completes a score from its static terms and the device's current
    /// utilization (the contention and capacity-pressure terms).
    pub(crate) fn apply_utilization(&self, terms: StaticTerms, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let contended = terms.base * (1.0 + self.weights.contention * u);
        let pressure = self.weights.pressure * terms.base * u;
        contended + pressure + terms.dollars
    }

    /// Scores every feasible device, cheapest first.
    pub fn rank(
        &self,
        topo: &Topology,
        pool: &MemoryPool,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
    ) -> Vec<(MemDeviceId, f64)> {
        let mut out: Vec<(MemDeviceId, f64)> = topo
            .mem_ids()
            .filter(|&d| pool.capacity(d) - pool.allocated(d) >= size)
            .filter_map(|d| {
                self.score(topo, compute, d, props, size, pool.utilization(d))
                    .map(|s| (d, s))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_region::props::{AccessHint, AccessMode, LatencyClass};

    #[test]
    fn dram_beats_cxl_for_random_low_latency_from_cpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let dram = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let cxl = m.score(&topo, ids.cpu, ids.cxl, &props, 1 << 20, 0.0).unwrap();
        assert!(dram < cxl);
    }

    #[test]
    fn gddr_beats_dram_from_the_gpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let gddr = m.score(&topo, ids.gpu, ids.gddr, &props, 1 << 20, 0.0).unwrap();
        let dram = m.score(&topo, ids.gpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        assert!(gddr < dram, "GDDR {gddr} should beat DRAM {dram} from GPU");
    }

    #[test]
    fn dram_beats_gddr_from_the_cpu() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let dram = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let gddr = m.score(&topo, ids.cpu, ids.gddr, &props, 1 << 20, 0.0).unwrap();
        assert!(dram < gddr, "DRAM {dram} should beat GDDR {gddr} from CPU");
    }

    #[test]
    fn infeasible_properties_score_none() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let persistent = PropertySet::new().persistent(true);
        assert!(m.score(&topo, ids.cpu, ids.dram, &persistent, 64, 0.0).is_none());
        assert!(m.score(&topo, ids.cpu, ids.pmem, &persistent, 64, 0.0).is_some());
        let low_lat = PropertySet::new().with_latency(LatencyClass::Low);
        assert!(m.score(&topo, ids.cpu, ids.far, &low_lat, 64, 0.0).is_none());
    }

    #[test]
    fn utilization_inflates_cost() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let props = PropertySet::new();
        let idle = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.0).unwrap();
        let busy = m.score(&topo, ids.cpu, ids.dram, &props, 1 << 20, 0.9).unwrap();
        assert!(busy > idle);
    }

    #[test]
    fn rank_orders_feasible_devices_cheapest_first() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let m = CostModel::new();
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let ranked = m.rank(&topo, &pool, ids.cpu, &props, 1 << 20);
        assert!(!ranked.is_empty());
        // Cache is the fastest feasible device for small random reads.
        assert_eq!(ranked[0].0, ids.cache);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn rank_respects_free_capacity() {
        let (topo, ids) = single_server();
        let mut pool = MemoryPool::new(&topo);
        // Fill the cache completely.
        let cache_cap = pool.capacity(ids.cache);
        pool.alloc(ids.cache, cache_cap).unwrap();
        let m = CostModel::new();
        let ranked = m.rank(&topo, &pool, ids.cpu, &PropertySet::new(), 1 << 20);
        assert!(ranked.iter().all(|&(d, _)| d != ids.cache));
    }

    #[test]
    fn blind_model_cannot_tell_local_from_remote() {
        let (topo, ids) = single_server();
        let blind = CostModel {
            awareness: TopologyAwareness::Blind,
            ..CostModel::new()
        };
        let props = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::streaming());
        // Blind to the NIC hop, far memory's rated bandwidth looks fine.
        let far_blind = blind.score(&topo, ids.cpu, ids.far, &props, 1 << 20, 0.0).unwrap();
        let aware = CostModel::new();
        let far_aware = aware.score(&topo, ids.cpu, ids.far, &props, 1 << 20, 0.0).unwrap();
        assert!(far_blind <= far_aware);
    }

    #[test]
    fn streaming_hint_tolerates_latency_random_does_not() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        // Far memory: 25x the latency of DRAM but only 8x less bandwidth.
        // Random access should therefore hate it much more than streaming.
        let streaming = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::streaming());
        let random = PropertySet::new()
            .with_mode(AccessMode::Async)
            .with_hint(AccessHint::random_reads());
        let ratio = |p: &PropertySet| {
            let d = m.score(&topo, ids.cpu, ids.dram, p, 64 << 20, 0.0).unwrap();
            let f = m.score(&topo, ids.cpu, ids.far, p, 64 << 20, 0.0).unwrap();
            f / d
        };
        assert!(ratio(&random) > ratio(&streaming));
    }

    #[test]
    fn async_mode_unlocks_storage_devices() {
        let (topo, ids) = single_server();
        let m = CostModel::new();
        let sync = PropertySet::new();
        let async_ = PropertySet::new().with_mode(AccessMode::Async);
        assert!(m.score(&topo, ids.cpu, ids.ssd, &sync, 64, 0.0).is_none());
        assert!(m.score(&topo, ids.cpu, ids.ssd, &async_, 64, 0.0).is_some());
    }
}
