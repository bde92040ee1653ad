//! Lifetime management: ownership handover between dataflow tasks.
//!
//! §2.3: "The runtime system allocates input and output memory so that
//! handover is just a memory ownership transfer, and physical data
//! movement is minimized." When a task finishes, its output region must
//! reach the successor. Two mechanisms exist:
//!
//! - **Ownership transfer** (Figure 4): if the consumer's compute device
//!   can address the region where it lies, the handle moves — O(1)
//!   bookkeeping, zero bytes on any wire.
//! - **Physical copy**: otherwise (or under the `AlwaysCopy` baseline of
//!   experiment E7), a new region is allocated near the consumer and the
//!   bytes are copied at full transfer cost in virtual time. On the host
//!   the copy shares the source's pages copy on write.
//!
//! The manager also implements release-on-last-owner cleanup for task
//! exit.

use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_hwsim::trace::{Trace, TraceEvent};
use disagg_region::pool::RegionId;
use disagg_region::region::{OwnerId, RegionError, RegionManager};
use disagg_region::typed::RegionType;

use crate::placement::PlacementEngine;

/// Handover strategy (the E7 ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoverPolicy {
    /// Transfer ownership whenever the consumer can address the memory.
    #[default]
    TransferWhenPossible,
    /// Always copy (models systems without a shared address space).
    AlwaysCopy,
}

/// Bookkeeping cost of a pure ownership transfer (metadata update).
pub const TRANSFER_OVERHEAD: SimDuration = SimDuration::from_nanos(150);

/// The result of a handover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoverOutcome {
    /// The region the consumer now owns (may differ from the producer's
    /// region id if a copy was made).
    pub region: RegionId,
    /// True if ownership moved without copying.
    pub transferred: bool,
    /// Bytes physically copied (0 on transfer).
    pub bytes_copied: u64,
    /// Virtual time the handover took.
    pub took: SimDuration,
}

/// Manages handover and end-of-task cleanup.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifetimeManager {
    /// Active handover policy.
    pub policy: HandoverPolicy,
}

impl LifetimeManager {
    /// A manager with the given policy.
    pub fn new(policy: HandoverPolicy) -> Self {
        LifetimeManager { policy }
    }

    /// Hands a producer's output region to a consumer task.
    ///
    /// Under [`HandoverPolicy::TransferWhenPossible`], if the consumer's
    /// compute device can address the region in place, ownership moves and
    /// no bytes are copied. Otherwise the bytes are physically copied to a
    /// device chosen (by the placement engine) for the consumer, and the
    /// producer's region is released.
    #[allow(clippy::too_many_arguments)]
    pub fn handover(
        &self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        trace: &mut Trace,
        engine: &mut PlacementEngine,
        region: RegionId,
        from: OwnerId,
        to: OwnerId,
        consumer_compute: ComputeId,
        now: SimTime,
    ) -> Result<HandoverOutcome, RegionError> {
        let placement = mgr.placement(region)?;
        let addressable = topo.reachable(consumer_compute, placement.dev);
        let transferable = mgr.meta(region)?.rtype.transferable();

        if self.policy == HandoverPolicy::TransferWhenPossible && addressable && transferable {
            mgr.transfer(region, from, to)?;
            let (from_task, to_task) = owner_task_ids(from, to);
            trace.push(TraceEvent::OwnershipTransfer {
                region: region.0,
                from_task,
                to_task,
                bytes: placement.size,
                at: now,
            });
            return Ok(HandoverOutcome {
                region,
                transferred: true,
                bytes_copied: 0,
                took: TRANSFER_OVERHEAD,
            });
        }
        self.copy_to(
            mgr,
            topo,
            ledger,
            trace,
            engine,
            region,
            Some(from),
            to,
            consumer_compute,
            now,
        )
    }

    /// Copies a region's contents into a fresh region placed for
    /// `consumer_compute` and owned by `to`. If `release_from` is set, the
    /// source region is released by that owner afterwards. Used for the
    /// copy path of handover and for fan-out edges beyond the first
    /// consumer (who got the transfer).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_to(
        &self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        trace: &mut Trace,
        engine: &mut PlacementEngine,
        region: RegionId,
        release_from: Option<OwnerId>,
        to: OwnerId,
        consumer_compute: ComputeId,
        now: SimTime,
    ) -> Result<HandoverOutcome, RegionError> {
        let placement = mgr.placement(region)?;
        let meta = mgr.meta(region)?;
        let props = meta.props.clone();

        let dst_dev = engine
            .choose(topo, mgr.pool(), consumer_compute, &props, placement.size)
            .ok_or(RegionError::Alloc(disagg_region::pool::AllocError::OutOfMemory {
                dev: placement.dev,
                requested: placement.size,
                free: 0,
            }))?;
        let new = mgr.alloc(dst_dev, placement.size, RegionType::Input, props, to, now)?;

        // The new region shares the source's pages copy on write, so the
        // host copies nothing up front; the rack's cost is charged below.
        mgr.copy_contents(region, new)?;

        // Charge the physical movement on both devices and trace it.
        let base = topo
            .transfer_cost(placement.dev, dst_dev, placement.size)
            .unwrap_or(SimDuration::ZERO);
        let f1 = ledger.reserve(
            ResourceKey::Mem(placement.dev),
            now,
            placement.size as f64,
            topo.mem(placement.dev).read_bw_bpns,
        );
        let f2 = ledger.reserve(
            ResourceKey::Mem(dst_dev),
            now,
            placement.size as f64,
            topo.mem(dst_dev).write_bw_bpns,
        );
        let mut took = base.max(f1.max(f2) - now);
        if let Some(path) = topo.mem_path(placement.dev, dst_dev) {
            if let Some(link) = path.bottleneck_link {
                let f3 = ledger.reserve(
                    ResourceKey::Link(link),
                    now,
                    placement.size as f64,
                    path.bandwidth_bpns,
                );
                took = took.max(f3 - now);
            }
        }
        trace.push(TraceEvent::Migrate {
            region: region.0,
            from: placement.dev,
            to: dst_dev,
            bytes: placement.size,
            at: now,
            took,
        });

        if let Some(from) = release_from {
            mgr.release(region, from)?;
        }
        Ok(HandoverOutcome {
            region: new,
            transferred: false,
            bytes_copied: placement.size,
            took,
        })
    }

    /// End-of-task cleanup: releases everything the task still owns.
    pub fn task_exit(&self, mgr: &mut RegionManager, trace: &mut Trace, who: OwnerId, now: SimTime) {
        mgr.release_owned(who, |id, p| {
            trace.push(TraceEvent::Free {
                region: id.0,
                dev: p.dev,
                bytes: p.size,
                at: now,
            });
        });
    }
}

fn owner_task_ids(from: OwnerId, to: OwnerId) -> (u64, u64) {
    let idx = |o: OwnerId| match o {
        OwnerId::Task { task, .. } => task,
        OwnerId::Job(j) => j,
        OwnerId::App => u64::MAX,
    };
    (idx(from), idx(to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use disagg_hwsim::presets::{disaggregated_rack, single_server};
    use disagg_region::props::PropertySet;

    const P: OwnerId = OwnerId::Task { job: 0, task: 0 };
    const C: OwnerId = OwnerId::Task { job: 0, task: 1 };

    #[test]
    fn addressable_handover_is_a_pure_transfer() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(ids.dram, 1 << 20, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[0xEE; 64]).unwrap();

        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, out, P, C, ids.gpu, SimTime::ZERO)
            .unwrap();
        assert!(o.transferred);
        assert_eq!(o.bytes_copied, 0);
        assert_eq!(o.region, out);
        assert_eq!(o.took, TRANSFER_OVERHEAD);
        assert_eq!(&mgr.to_vec(out, C).unwrap()[..64], &[0xEE; 64]);
        assert_eq!(trace.bytes_transferred_by_ownership(), 1 << 20);
        assert_eq!(trace.bytes_moved(), 0);
    }

    #[test]
    fn always_copy_policy_moves_bytes() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::new(HandoverPolicy::AlwaysCopy);

        let out = mgr
            .alloc(ids.dram, 1 << 20, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[0xAB; 32]).unwrap();

        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, out, P, C, ids.cpu, SimTime::ZERO)
            .unwrap();
        assert!(!o.transferred);
        assert_eq!(o.bytes_copied, 1 << 20);
        assert_ne!(o.region, out);
        assert!(o.took > TRANSFER_OVERHEAD);
        assert_eq!(&mgr.to_vec(o.region, C).unwrap()[..32], &[0xAB; 32]);
        // Producer's region was released.
        assert!(!mgr.is_live(out));
        assert_eq!(trace.bytes_moved(), 1 << 20);
    }

    #[test]
    fn unaddressable_region_falls_back_to_copy() {
        // Two fully disjoint islands: the consumer's CPU has no route to
        // the producer's DRAM (think: another host's private memory with
        // no RDMA window). Handover must fall back to a physical copy.
        use disagg_hwsim::compute::{ComputeKind, ComputeModel};
        use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
        use disagg_hwsim::topology::{LinkKind, Topology};

        let mut b = Topology::builder();
        let n0 = b.node("a");
        let n1 = b.node("b");
        let cpu0 = b.compute(n0, ComputeModel::preset(ComputeKind::Cpu));
        let cpu1 = b.compute(n1, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n0, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 24));
        let d1 = b.mem(n1, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1 << 24));
        b.link(cpu0, d0, LinkKind::MemBus);
        b.link(cpu1, d1, LinkKind::MemBus);
        let topo = b.build().unwrap();
        let _ = cpu0;

        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(d0, 4096, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[7; 8]).unwrap();
        let o = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, out, P, C, cpu1, SimTime::ZERO)
            .unwrap();
        assert!(!o.transferred, "cpu1 cannot address d0; must copy");
        assert_eq!(mgr.placement(o.region).unwrap().dev, d1);
        assert_eq!(&mgr.to_vec(o.region, C).unwrap()[..8], &[7; 8]);
    }

    #[test]
    fn fan_out_copies_for_secondary_consumers() {
        let (topo, rack) = disaggregated_rack(2, 32, 2, 512);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::enabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();

        let out = mgr
            .alloc(rack.pool[0], 8192, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &[3; 16]).unwrap();

        // First consumer gets the transfer…
        let c2 = OwnerId::Task { job: 0, task: 2 };
        let o1 = lm
            .handover(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, out, P, C, rack.cpus[0], SimTime::ZERO)
            .unwrap();
        assert!(o1.transferred);
        // …the second gets an independent copy (no release of the source).
        let o2 = lm
            .copy_to(&mut mgr, &topo, &mut ledger, &mut trace, &mut engine, out, None, c2, rack.cpus[1], SimTime::ZERO)
            .unwrap();
        assert!(!o2.transferred);
        assert!(mgr.is_live(out));
        assert!(mgr.is_live(o2.region));
        assert_eq!(&mgr.to_vec(o2.region, c2).unwrap()[..16], &[3; 16]);
    }

    #[test]
    fn fan_out_copies_share_pages_until_written() {
        use disagg_region::pool::PAGE_SIZE;
        let (topo, rack) = disaggregated_rack(2, 32, 2, 512);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let mut trace = Trace::disabled();
        let mut engine = PlacementEngine::new(PlacementPolicy::Declarative);
        let lm = LifetimeManager::default();
        let mut fan_out = |mgr: &mut RegionManager, out, to| {
            lm.copy_to(mgr, &topo, &mut ledger, &mut trace, &mut engine, out, None, to, rack.cpus[1], SimTime::ZERO)
                .unwrap()
                .region
        };

        // A never-written 128 MiB output copies no bytes at all.
        let big = mgr
            .alloc(rack.pool[0], 128 << 20, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        fan_out(&mut mgr, big, C);
        assert_eq!(mgr.pool().bytes_copied(), 0);

        // A written one shares its pages; one later write copies one page.
        let out = mgr
            .alloc(rack.pool[0], 2 * PAGE_SIZE, RegionType::Output, PropertySet::new(), P, SimTime::ZERO)
            .unwrap();
        mgr.write(out, P, 0, &vec![9; 2 * PAGE_SIZE as usize]).unwrap();
        let c2 = OwnerId::Task { job: 0, task: 2 };
        let copy = fan_out(&mut mgr, out, c2);
        assert_eq!(mgr.pool().bytes_copied(), 0);
        mgr.write(copy, c2, 5, &[1]).unwrap();
        assert_eq!(mgr.pool().bytes_copied(), PAGE_SIZE);
        assert_eq!(mgr.to_vec(out, P).unwrap()[5], 9, "the producer's bytes are untouched");
        assert_eq!(mgr.to_vec(copy, c2).unwrap()[5], 1);
    }

    #[test]
    fn task_exit_releases_everything() {
        let (topo, ids) = single_server();
        let mut mgr = RegionManager::new(&topo);
        let mut trace = Trace::enabled();
        let lm = LifetimeManager::default();
        for _ in 0..3 {
            mgr.alloc(ids.dram, 4096, RegionType::PrivateScratch, PropertySet::new(), P, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(mgr.live_count(), 3);
        lm.task_exit(&mut mgr, &mut trace, P, SimTime(100));
        assert_eq!(mgr.live_count(), 0);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Free { .. })), 3);
    }

    #[test]
    fn release_owned_matches_releasing_each_owned_region() {
        use disagg_hwsim::rng::SimRng;
        use disagg_region::pool::RegionId;

        // The task-exit loop before `release_owned`: list the owner's
        // regions, then release them one by one.
        fn exit_one_by_one(mgr: &mut RegionManager, trace: &mut Trace, who: OwnerId, now: SimTime) {
            for id in mgr.owned_by(who) {
                if let Ok(p) = mgr.placement(id) {
                    if mgr.release(id, who).unwrap_or(false) {
                        trace.push(TraceEvent::Free { region: id.0, dev: p.dev, bytes: p.size, at: now });
                    }
                }
            }
        }

        let (topo, ids) = single_server();
        let owners: Vec<OwnerId> = (0..6)
            .map(|task| OwnerId::Task { job: 0, task })
            .chain([OwnerId::Job(0), OwnerId::App])
            .collect();
        let types = [RegionType::PrivateScratch, RegionType::Output, RegionType::GlobalScratch];
        // A seeded mix of allocations, transfers and shares, and the
        // order in which the owners exit.
        let build = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut mgr = RegionManager::new(&topo);
            let mut regions: Vec<RegionId> = Vec::new();
            for _ in 0..60 {
                let who = *rng.pick(&owners);
                match rng.next_below(3) {
                    0 => {
                        // DRAM is coherent, so any shareable region can be shared.
                        let rtype = *rng.pick(&types);
                        let id = mgr.alloc(ids.dram, 4096, rtype, PropertySet::new(), who, SimTime::ZERO);
                        regions.push(id.unwrap());
                    }
                    1 if !regions.is_empty() => {
                        let id = *rng.pick(&regions);
                        let _ = mgr.transfer(id, who, *rng.pick(&owners));
                    }
                    _ if !regions.is_empty() => {
                        let id = *rng.pick(&regions);
                        let _ = mgr.share(id, who, *rng.pick(&owners), &topo);
                    }
                    _ => {}
                }
            }
            let mut exits = owners.clone();
            rng.shuffle(&mut exits);
            (mgr, regions, exits)
        };
        for seed in 0..20 {
            let (mgr, regions, exits) = build(seed);
            let lm = LifetimeManager::default();
            let (mut old_mgr, mut old_trace) = (build(seed).0, Trace::enabled());
            let (mut new_mgr, mut new_trace) = (mgr, Trace::enabled());
            for (i, &who) in exits.iter().enumerate() {
                let now = SimTime(i as u64);
                exit_one_by_one(&mut old_mgr, &mut old_trace, who, now);
                lm.task_exit(&mut new_mgr, &mut new_trace, who, now);
                for &o in &owners {
                    assert_eq!(new_mgr.owned_by(o), old_mgr.owned_by(o), "seed {seed}: index of {o:?}");
                }
                for &id in &regions {
                    assert_eq!(new_mgr.is_live(id), old_mgr.is_live(id), "seed {seed}: {id}");
                    if let (Ok(a), Ok(b)) = (new_mgr.meta(id), old_mgr.meta(id)) {
                        assert_eq!(a.ownership, b.ownership, "seed {seed}: owners of {id}");
                    }
                }
                assert_eq!(new_trace.events(), old_trace.events(), "seed {seed}: Free events");
            }
            assert_eq!(new_mgr.live_count(), 0);
            assert_eq!(new_trace.events().len(), regions.len(), "seed {seed}: one Free each");
        }
    }
}
