//! The placement optimizer — and the baselines the paper argues against.
//!
//! Placement turns a declarative memory request into a physical device:
//! filter the devices that satisfy the hard properties *as seen from the
//! executing compute device*, then take the cost-model argmin. For
//! dataflow outputs the optimizer also considers the consumers' compute
//! devices ([`PlacementEngine::choose_shared`]) so that handover can be a
//! pure ownership transfer instead of a copy.
//!
//! Three strategies are provided because the paper's Figure 1 is a
//! comparison: the **declarative** memory-centric optimizer (our vision),
//! the **compute-centric** strategy (always use the executing device's
//! local memory — today's default), and a **worst-feasible** adversary
//! used to bound how bad naïve placement can get (experiment E9).
//!
//! # Score row
//!
//! Every region allocation scores each memory device once per accessor,
//! and between two calls for the same `(props, size)` request shape only
//! the devices' utilization changes. The engine therefore keeps one
//! *score row*: for the last request shape, the cost model's
//! utilization-free `static_terms` per `(compute, device)` pair, filled
//! the first time a pair is scored. A call for the same shape then costs
//! one utilization step per device. A call with another shape, topology
//! build or cost model empties the row. Scores come out bit-for-bit equal
//! to [`CostModel::score`], which runs the same two steps.
//!
//! One row is enough. Per benchmark workload, the share of
//! `choose`/`choose_shared` calls whose shape, topology and model match
//! the previous call's is 100% on `batch_dag` (every output is 4 KiB),
//! 29% on `apps_rw`, 52% on `serve_bulk` and 60% on `serve_chaos`.
//! Keeping the 16 most recent shapes raised the last three to 97%, 98%
//! and 88% but did not change any workload's host time beyond
//! run-to-run noise.

use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::MemoryPool;
use disagg_region::props::PropertySet;

use crate::cost::{CostModel, StaticTerms};

/// Placement strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The memory-centric optimizer: hard-property filter + cost argmin.
    #[default]
    Declarative,
    /// Compute-centric: always the executing device's local memory (fall
    /// back to the cheapest feasible device only when locals are full or
    /// infeasible). Models today's explicit placement.
    ComputeCentric,
    /// Adversarial: the *worst* feasible device. Bounds naïve placement.
    WorstFeasible,
    /// First feasible device in id order, ignoring cost entirely. Models
    /// a naive allocator with no cost model.
    FirstFit,
}

/// A placement decision trace entry (for the audit log).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// The executing compute device the request was resolved against.
    pub compute: ComputeId,
    /// Requested size.
    pub size: u64,
    /// Chosen device.
    pub dev: MemDeviceId,
    /// The cost-model score of the chosen device.
    pub score: f64,
    /// How many devices were feasible.
    pub feasible: usize,
}

/// The static score terms of one request shape on one topology build
/// under one cost model, per device pair.
#[derive(Debug, Default)]
struct ScoreRow {
    /// What the terms are for: topology build, model, props and size
    /// (`None` until the first call).
    key: Option<(u64, CostModel, PropertySet, u64)>,
    /// Bumped whenever the key changes, so emptying the row touches no
    /// cell.
    generation: u64,
    /// `cells[compute * mem_devices + dev]`: the generation the pair was
    /// last scored in and its static terms then (`None` when infeasible).
    /// A cell from an older generation is empty.
    cells: Vec<(u64, Option<StaticTerms>)>,
}

impl ScoreRow {
    /// Makes this the row of `(props, size)` under `model` on `topo`,
    /// emptying it unless it already is.
    fn select(&mut self, model: &CostModel, topo: &Topology, props: &PropertySet, size: u64) {
        let build = topo.build_id();
        if !matches!(&self.key, Some((t, m, p, s)) if *t == build && *s == size && p == props && m == model)
        {
            self.key = Some((build, model.clone(), props.clone(), size));
            self.generation += 1;
            self.cells.resize(
                topo.compute_devices().len() * topo.mem_devices().len(),
                (0, None),
            );
        }
    }

    /// The static terms of serving the selected request from `dev` to a
    /// task on `compute`, computed on first use.
    fn terms(
        &mut self,
        model: &CostModel,
        topo: &Topology,
        compute: ComputeId,
        dev: MemDeviceId,
    ) -> Option<StaticTerms> {
        let (_, _, props, size) = self.key.as_ref().expect("a row is selected before use");
        let cell = &mut self.cells[compute.index() * topo.mem_devices().len() + dev.index()];
        if cell.0 != self.generation {
            *cell = (
                self.generation,
                model.static_terms(topo, compute, dev, props, *size),
            );
        }
        cell.1
    }
}

/// Resolves declarative requests to devices under a chosen policy.
#[derive(Debug, Default)]
pub struct PlacementEngine {
    /// The cost model used for ranking.
    pub model: CostModel,
    /// Active policy.
    pub policy: PlacementPolicy,
    /// Decision log (cleared by the caller between runs as needed).
    pub decisions: Vec<PlacementDecision>,
    /// Cached static score terms (see the module docs).
    row: ScoreRow,
}

impl PlacementEngine {
    /// An engine with the given policy and a default cost model.
    pub fn new(policy: PlacementPolicy) -> Self {
        PlacementEngine {
            model: CostModel::new(),
            policy,
            decisions: Vec::new(),
            row: ScoreRow::default(),
        }
    }

    /// Chooses a device for a request from a single compute device.
    ///
    /// One streaming pass over the devices instead of building and
    /// sorting a ranked `Vec` per call (this sits under every region
    /// allocation): each policy's pick is a running extremum over the
    /// feasible set, reproducing exactly what the former
    /// rank-then-select computed. Devices are visited in id order, so
    /// "keep the earlier on ties" selects the smaller id (the sort's
    /// tie-break) and "replace on ties" the larger.
    pub fn choose(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        compute: ComputeId,
        props: &PropertySet,
        size: u64,
    ) -> Option<MemDeviceId> {
        use std::cmp::Ordering;

        let locals = match self.policy {
            PlacementPolicy::ComputeCentric => Some(&topo.compute(compute).local_mem),
            _ => None,
        };
        let mut feasible = 0usize;
        // Minimum (score, id): Declarative's pick and everyone's fallback.
        let mut best: Option<(MemDeviceId, f64)> = None;
        // Maximum (score, id): WorstFeasible's pick.
        let mut worst: Option<(MemDeviceId, f64)> = None;
        // First feasible in id order: FirstFit's pick.
        let mut first: Option<(MemDeviceId, f64)> = None;
        // Minimum (score, id) among the executor's local devices.
        let mut best_local: Option<(MemDeviceId, f64)> = None;
        self.row.select(&self.model, topo, props, size);
        for dev in topo.mem_ids() {
            if pool.capacity(dev) - pool.allocated(dev) < size {
                continue;
            }
            let Some(terms) = self.row.terms(&self.model, topo, compute, dev) else {
                continue;
            };
            let score = self.model.apply_utilization(terms, pool.utilization(dev));
            feasible += 1;
            if first.is_none() {
                first = Some((dev, score));
            }
            if best.is_none_or(|(_, b)| score.total_cmp(&b) == Ordering::Less) {
                best = Some((dev, score));
            }
            if worst.is_none_or(|(_, w)| score.total_cmp(&w) != Ordering::Less) {
                worst = Some((dev, score));
            }
            if locals.is_some_and(|l| l.contains(&dev))
                && best_local.is_none_or(|(_, b)| score.total_cmp(&b) == Ordering::Less)
            {
                best_local = Some((dev, score));
            }
        }
        let (dev, score) = match self.policy {
            PlacementPolicy::Declarative => best?,
            PlacementPolicy::WorstFeasible => worst?,
            PlacementPolicy::FirstFit => first?,
            PlacementPolicy::ComputeCentric => best_local.or(best)?,
        };
        self.decisions.push(PlacementDecision {
            compute,
            size,
            dev,
            score,
            feasible,
        });
        Some(dev)
    }

    /// Chooses a device for a region that several compute devices will
    /// touch (a producer's output and its consumers): every listed device
    /// must be able to address it, and the summed cost is minimized. This
    /// is what makes output→input handover an ownership transfer.
    pub fn choose_shared(
        &mut self,
        topo: &Topology,
        pool: &MemoryPool,
        computes: &[ComputeId],
        props: &PropertySet,
        size: u64,
    ) -> Option<MemDeviceId> {
        assert!(!computes.is_empty(), "choose_shared needs at least one accessor");
        let mut best: Option<(MemDeviceId, f64)> = None;
        let mut feasible = 0usize;
        self.row.select(&self.model, topo, props, size);
        for dev in topo.mem_ids() {
            if pool.capacity(dev) - pool.allocated(dev) < size {
                continue;
            }
            let util = pool.utilization(dev);
            let mut total = 0.0;
            let mut ok = true;
            for &c in computes {
                match self.row.terms(&self.model, topo, c, dev) {
                    Some(t) => total += self.model.apply_utilization(t, util),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            feasible += 1;
            let better = match (self.policy, best) {
                (_, None) => true,
                (PlacementPolicy::WorstFeasible, Some((_, b))) => total > b,
                (_, Some((_, b))) => total < b,
            };
            if better {
                best = Some((dev, total));
            }
        }
        let (dev, score) = best?;
        self.decisions.push(PlacementDecision {
            compute: computes[0],
            size,
            dev,
            score,
            feasible,
        });
        Some(dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::presets::single_server;
    use disagg_region::props::{AccessHint, LatencyClass};

    #[test]
    fn declarative_places_fast_local_scratch_per_device() {
        // The Figure 3 experiment in miniature: the same logical request
        // resolves to DRAM under the CPU and GDDR under the GPU.
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new()
            .with_latency(LatencyClass::Low)
            .with_hint(AccessHint::mixed_random());
        // Big enough that the tiny cache scratchpad cannot hold it.
        let size = 1 << 30;
        let from_cpu = eng.choose(&topo, &pool, ids.cpu, &props, size).unwrap();
        let from_gpu = eng.choose(&topo, &pool, ids.gpu, &props, size).unwrap();
        assert_eq!(from_cpu, ids.dram);
        assert_eq!(from_gpu, ids.gddr);
    }

    #[test]
    fn worst_feasible_picks_the_most_expensive_device() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut best = PlacementEngine::new(PlacementPolicy::Declarative);
        let mut worst = PlacementEngine::new(PlacementPolicy::WorstFeasible);
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let b = best.choose(&topo, &pool, ids.cpu, &props, 1 << 20).unwrap();
        let w = worst.choose(&topo, &pool, ids.cpu, &props, 1 << 20).unwrap();
        assert_ne!(b, w);
        assert_eq!(
            best.decisions[0].feasible, worst.decisions[0].feasible,
            "same feasibility set, different pick"
        );
        assert!(worst.decisions[0].score > best.decisions[0].score);
    }

    #[test]
    fn compute_centric_pins_to_local_memory() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::ComputeCentric);
        // A streaming request the declarative optimizer would send to HBM;
        // compute-centric still picks a CPU-local device.
        let props = PropertySet::new().with_hint(AccessHint::streaming());
        let dev = eng.choose(&topo, &pool, ids.cpu, &props, 1 << 20).unwrap();
        assert!(topo.compute(ids.cpu).local_mem.contains(&dev));
    }

    #[test]
    fn persistent_requests_only_land_on_persistent_devices() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        for policy in [
            PlacementPolicy::Declarative,
            PlacementPolicy::ComputeCentric,
            PlacementPolicy::WorstFeasible,
            PlacementPolicy::FirstFit,
        ] {
            let mut eng = PlacementEngine::new(policy);
            let props = PropertySet::new().persistent(true);
            let dev = eng.choose(&topo, &pool, ids.cpu, &props, 1 << 20).unwrap();
            assert!(
                topo.mem(dev).persistent,
                "{policy:?} placed persistent data on volatile {dev}"
            );
        }
        let _ = ids;
    }

    #[test]
    fn impossible_requests_return_none() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        // Persistent + low-latency is unsatisfiable in this topology
        // (PMem's 300 ns read latency exceeds the Low bound).
        let props = PropertySet::new()
            .persistent(true)
            .with_latency(LatencyClass::Low);
        assert!(eng.choose(&topo, &pool, ids.cpu, &props, 64).is_none());
        assert!(eng.decisions.is_empty());
    }

    #[test]
    fn choose_shared_lands_where_all_parties_can_reach() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        let props = PropertySet::new().with_hint(AccessHint::streaming());
        let dev = eng
            .choose_shared(&topo, &pool, &[ids.cpu, ids.gpu], &props, 1 << 20)
            .unwrap();
        assert!(topo.reachable(ids.cpu, dev));
        assert!(topo.reachable(ids.gpu, dev));
    }

    #[test]
    fn choose_shared_balances_both_accessors() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        // Latency-sensitive shared data between CPU and GPU: GDDR is great
        // for the GPU but poor for the CPU; the optimizer should pick a
        // device neither party hates (in this topology, a CPU-side or
        // hub-attached device both can reach with moderate cost).
        let props = PropertySet::new().with_hint(AccessHint::mixed_random());
        let shared = eng
            .choose_shared(&topo, &pool, &[ids.cpu, ids.gpu], &props, 1 << 26)
            .unwrap();
        let m = CostModel::new();
        let total = |d| {
            m.score(&topo, ids.cpu, d, &props, 1 << 26, 0.0).unwrap()
                + m.score(&topo, ids.gpu, d, &props, 1 << 26, 0.0).unwrap()
        };
        // The chosen device must be no worse than either party's favourite.
        assert!(total(shared) <= total(ids.dram) + 1e-9);
        assert!(total(shared) <= total(ids.gddr) + 1e-9);
    }

    #[test]
    fn first_fit_ignores_cost() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::FirstFit);
        let props = PropertySet::new();
        let dev = eng.choose(&topo, &pool, ids.cpu, &props, 1 << 20).unwrap();
        // First feasible by id order: the cache (mem0) qualifies for a
        // property-free 1 MiB request.
        assert_eq!(dev, ids.cache);
    }

    #[test]
    fn decision_log_captures_context() {
        let (topo, ids) = single_server();
        let pool = MemoryPool::new(&topo);
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);
        eng.choose(&topo, &pool, ids.cpu, &PropertySet::new(), 4096).unwrap();
        assert_eq!(eng.decisions.len(), 1);
        let d = &eng.decisions[0];
        assert_eq!(d.compute, ids.cpu);
        assert_eq!(d.size, 4096);
        assert!(d.feasible >= 1);
    }

    /// What `choose` (one accessor) or `choose_shared` picked when every
    /// call scored every device with [`CostModel::score`] directly:
    /// `(device, score, feasible)`.
    fn direct_pick(
        eng: &PlacementEngine,
        topo: &Topology,
        pool: &MemoryPool,
        computes: &[ComputeId],
        props: &PropertySet,
        size: u64,
        shared: bool,
    ) -> Option<(MemDeviceId, f64, usize)> {
        let feasible: Vec<(MemDeviceId, f64)> = topo
            .mem_ids()
            .filter(|&d| pool.capacity(d) - pool.allocated(d) >= size)
            .filter_map(|d| {
                let util = pool.utilization(d);
                let scores: Option<Vec<f64>> = computes
                    .iter()
                    .map(|&c| eng.model.score(topo, c, d, props, size, util))
                    .collect();
                Some((d, scores?.iter().fold(0.0, |a, s| a + s)))
            })
            .collect();
        let n = feasible.len();
        let min = || {
            feasible.iter().copied().reduce(|a, b| if b.1 < a.1 { b } else { a })
        };
        let pick = match eng.policy {
            PlacementPolicy::WorstFeasible if shared => {
                feasible.iter().copied().reduce(|a, b| if b.1 > a.1 { b } else { a })
            }
            PlacementPolicy::WorstFeasible => {
                feasible.iter().copied().reduce(|a, b| if b.1 >= a.1 { b } else { a })
            }
            _ if shared => min(),
            PlacementPolicy::Declarative => min(),
            PlacementPolicy::FirstFit => feasible.first().copied(),
            PlacementPolicy::ComputeCentric => {
                let locals = &topo.compute(computes[0]).local_mem;
                feasible
                    .iter()
                    .copied()
                    .filter(|(d, _)| locals.contains(d))
                    .reduce(|a, b| if b.1 < a.1 { b } else { a })
                    .or_else(min)
            }
        };
        pick.map(|(d, score)| (d, score, n))
    }

    #[test]
    fn score_row_picks_what_direct_scoring_picks() {
        use disagg_hwsim::device::AccessPattern;
        use disagg_hwsim::presets::disaggregated_rack;
        use disagg_hwsim::rng::SimRng;
        use disagg_region::props::{AccessMode, BandwidthClass};

        let (topo, _) = disaggregated_rack(2, 1, 2, 2);
        let computes: Vec<ComputeId> = topo.compute_ids().collect();
        let mut rng = SimRng::new(0x5c0e);
        // A few request shapes, so calls alternate between reusing the
        // row and emptying it.
        let latencies = [LatencyClass::Low, LatencyClass::Medium, LatencyClass::High, LatencyClass::Any];
        let bandwidths = [BandwidthClass::High, BandwidthClass::Medium, BandwidthClass::Low, BandwidthClass::Any];
        let shapes: Vec<(PropertySet, u64)> = (0..4)
            .map(|_| {
                let props = PropertySet {
                    latency: *rng.pick(&latencies),
                    bandwidth: *rng.pick(&bandwidths),
                    persistent: rng.chance(0.2),
                    coherent: rng.chance(0.3),
                    confidential: rng.chance(0.3),
                    mode: if rng.chance(0.5) { AccessMode::Sync } else { AccessMode::Async },
                    hint: AccessHint {
                        pattern: if rng.chance(0.5) { AccessPattern::Random } else { AccessPattern::Sequential },
                        read_fraction: rng.next_f64(),
                        typical_bytes: *rng.pick(&[64, 256, 4096, 1 << 20]),
                    },
                };
                let odd = rng.range(1, 1 << 31);
                let size = *rng.pick(&[1, 4096, 1 << 20, 1 << 28, odd]);
                (props, size)
            })
            .collect();
        for policy in [
            PlacementPolicy::Declarative,
            PlacementPolicy::ComputeCentric,
            PlacementPolicy::WorstFeasible,
            PlacementPolicy::FirstFit,
        ] {
            let mut eng = PlacementEngine::new(policy);
            let mut pool = MemoryPool::new(&topo);
            let mut live = Vec::new();
            let mut outcomes = [0usize; 2];
            for _ in 0..400 {
                // Move utilization: allocate somewhere, sometimes free.
                let dev = MemDeviceId::from_index(rng.next_below(topo.mem_devices().len() as u64) as usize);
                if let Ok(id) = pool.alloc(dev, rng.range(1, 1 << 29)) {
                    live.push(id);
                }
                if rng.chance(0.4) && !live.is_empty() {
                    let i = rng.next_below(live.len() as u64) as usize;
                    pool.free(live.swap_remove(i)).unwrap();
                }
                let (props, size) = rng.pick(&shapes).clone();
                let shared = rng.chance(0.5);
                let mut accessors = vec![*rng.pick(&computes)];
                if shared {
                    for _ in 0..rng.next_below(3) {
                        accessors.push(*rng.pick(&computes));
                    }
                }
                let want = direct_pick(&eng, &topo, &pool, &accessors, &props, size, shared);
                let logged = eng.decisions.len();
                let got = if shared {
                    eng.choose_shared(&topo, &pool, &accessors, &props, size)
                } else {
                    eng.choose(&topo, &pool, accessors[0], &props, size)
                };
                assert_eq!(got, want.map(|w| w.0), "{policy:?} shared={shared}");
                outcomes[usize::from(got.is_some())] += 1;
                match want {
                    None => assert_eq!(eng.decisions.len(), logged),
                    Some((dev, score, feasible)) => {
                        let d = eng.decisions.last().unwrap();
                        assert_eq!(d.dev, dev);
                        assert_eq!(d.score.to_bits(), score.to_bits(), "bit-for-bit score");
                        assert_eq!(d.feasible, feasible);
                    }
                }
            }
            assert!(outcomes.iter().all(|&n| n >= 40), "{policy:?}: {outcomes:?} (refused, placed)");
        }
    }

    #[test]
    fn score_row_is_emptied_when_the_model_or_topology_changes() {
        use disagg_hwsim::compute::{ComputeKind, ComputeModel};
        use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
        use disagg_hwsim::topology::LinkKind;

        // One CPU and two identical DRAMs; `near` is the one behind the
        // faster link.
        let build = |near: usize| {
            let mut b = Topology::builder();
            let n = b.node("host");
            let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
            let drams = [0, 1].map(|_| b.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram)));
            for (i, &d) in drams.iter().enumerate() {
                let latency = if i == near { 10.0 } else { 150.0 };
                b.link_custom(cpu, d, LinkKind::MemBus, latency, 100.0);
            }
            (b.build().unwrap(), cpu, drams)
        };
        let props = PropertySet::new().with_hint(AccessHint::random_reads());
        let mut eng = PlacementEngine::new(PlacementPolicy::Declarative);

        let (a, cpu, drams) = build(0);
        let pool = MemoryPool::new(&a);
        let key = |eng: &PlacementEngine| eng.row.key.clone().map(|(t, m, _, _)| (t, m));
        assert_eq!(eng.choose(&a, &pool, cpu, &props, 4096), Some(drams[0]));
        assert_eq!(key(&eng), Some((a.build_id(), eng.model.clone())));

        // Same shape, other topology build: the terms for `a` go.
        let (b, _, _) = build(1);
        assert_eq!(eng.choose(&b, &pool, cpu, &props, 4096), Some(drams[1]));
        assert_eq!(key(&eng), Some((b.build_id(), eng.model.clone())));

        // Blind to paths, the two DRAMs tie and the lower id wins.
        eng.model.awareness = crate::cost::TopologyAwareness::Blind;
        assert_eq!(eng.choose(&b, &pool, cpu, &props, 4096), Some(drams[0]));
        assert_eq!(key(&eng), Some((b.build_id(), eng.model.clone())));
        let blind = eng.model.score(&b, cpu, drams[0], &props, 4096, 0.0).unwrap();
        assert_eq!(eng.decisions.last().unwrap().score, blind);
    }
}
