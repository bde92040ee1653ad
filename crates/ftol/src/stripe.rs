//! Erasure-coded striping of regions across memory nodes.
//!
//! The Carbink-flavoured alternative to replication: a logical region is
//! split into `k` data spans placed on distinct failure domains, plus `m`
//! Reed–Solomon parity spans. Storage overhead drops from N× to
//! `(k+m)/k`; the price is parity updates on writes and a reconstruction
//! (read `k` surviving spans + decode) instead of a plain copy on
//! recovery. This matches the paper's pointer to "a combination of
//! erasure-coding, one-sided remote memory accesses ... as it is used by
//! Carbink".

use disagg_hwsim::contention::{BandwidthLedger, ResourceKey};
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::RegionId;
use disagg_region::props::{AccessMode, PropertySet};
use disagg_region::region::{OwnerId, RegionManager};
use disagg_region::typed::RegionType;

use crate::reedsolomon::ReedSolomon;
use crate::FtolError;

/// Where parity/decode arithmetic runs (Carbink's "off-loadable parity
/// calculations"): on the host CPU, or offloaded to a DPU/accelerator
/// that streams GF(2⁸) multiply-accumulates an order of magnitude
/// faster and off the critical path of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParityEngine {
    /// Host CPU computes parity and decodes (0.5 ns/B).
    #[default]
    Host,
    /// DPU/accelerator offload (0.05 ns/B).
    Offload,
}

impl ParityEngine {
    /// Modelled GF(2⁸) arithmetic cost per byte, nanoseconds.
    pub fn ns_per_byte(self) -> f64 {
        match self {
            ParityEngine::Host => 0.5,
            ParityEngine::Offload => 0.05,
        }
    }
}

/// A logical region striped as `k` data + `m` parity spans.
#[derive(Debug)]
pub struct StripedRegion {
    /// Data spans (indices `0..k`), then parity spans (`k..k+m`).
    pub spans: Vec<RegionId>,
    /// Devices backing each span.
    pub devs: Vec<MemDeviceId>,
    /// Bytes per span.
    pub span_size: u64,
    /// Logical size in bytes.
    pub size: u64,
    /// Owner of all spans.
    pub owner: OwnerId,
    /// Total bytes written including parity amplification (stats).
    pub bytes_written: u64,
    /// Where parity arithmetic runs.
    pub parity_engine: ParityEngine,
    rs: ReedSolomon,
}

impl StripedRegion {
    /// Creates a striped region over `k + m` devices on pairwise distinct
    /// nodes. The first `k` devices hold data, the rest parity.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        mgr: &mut RegionManager,
        topo: &Topology,
        devices: &[MemDeviceId],
        size: u64,
        k: usize,
        m: usize,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<StripedRegion, FtolError> {
        let rs = ReedSolomon::new(k, m)?;
        if devices.len() != k + m {
            return Err(FtolError::NotEnoughDevices {
                have: devices.len(),
                need: k + m,
            });
        }
        for (i, &a) in devices.iter().enumerate() {
            for &b in &devices[i + 1..] {
                if topo.node_of_mem(a) == topo.node_of_mem(b) {
                    return Err(FtolError::SharedFailureDomain(a, b));
                }
            }
        }
        let span_size = size.div_ceil(k as u64).max(1);
        let mut spans = Vec::with_capacity(k + m);
        for &dev in devices {
            let id = mgr.alloc(
                dev,
                span_size,
                RegionType::GlobalScratch,
                PropertySet::new().with_mode(AccessMode::Async),
                owner,
                now,
            )?;
            spans.push(id);
        }
        Ok(StripedRegion {
            spans,
            devs: devices.to_vec(),
            span_size,
            size,
            owner,
            bytes_written: 0,
            parity_engine: ParityEngine::default(),
            rs,
        })
    }

    /// Switches parity/decode arithmetic to the given engine.
    pub fn with_parity_engine(mut self, engine: ParityEngine) -> Self {
        self.parity_engine = engine;
        self
    }

    /// Data span count.
    pub fn k(&self) -> usize {
        self.rs.data_shards()
    }

    /// Parity span count.
    pub fn m(&self) -> usize {
        self.rs.parity_shards()
    }

    /// Storage overhead factor `(k + m)/k`.
    pub fn overhead(&self) -> f64 {
        self.rs.overhead()
    }

    /// Span indices whose device and node are alive at `t`.
    pub fn alive(&self, topo: &Topology, faults: &FaultInjector, t: SimTime) -> Vec<usize> {
        (0..self.devs.len())
            .filter(|&i| {
                let dev = self.devs[i];
                !faults.device_failed(dev, t) && !faults.node_down(topo.node_of_mem(dev), t)
            })
            .collect()
    }

    /// Span indices whose bytes overlap a corrupted range on their
    /// device at `t`: the span is alive but its contents are suspect,
    /// so reads must not trust it as a reconstruction source.
    fn tainted(&self, mgr: &RegionManager, faults: &FaultInjector, t: SimTime) -> Vec<usize> {
        if faults.is_empty() {
            return Vec::new();
        }
        (0..self.spans.len())
            .filter(|&i| {
                mgr.placement(self.spans[i]).is_ok_and(|p| {
                    faults
                        .corrupted_ranges(p.dev, t)
                        .iter()
                        .any(|&(o, l)| o < p.offset + p.size && p.offset < o + l)
                })
            })
            .collect()
    }

    fn charge_span(
        &self,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        span: usize,
        bytes: u64,
        write: bool,
        now: SimTime,
    ) -> SimDuration {
        let dev = self.devs[span];
        let model = topo.mem(dev);
        let (lat, bw) = if write {
            (model.write_lat_ns, model.write_bw_bpns)
        } else {
            (model.read_lat_ns, model.read_bw_bpns)
        };
        let eff = model.effective_bytes(bytes) as f64;
        let start = now + SimDuration::from_nanos_f64(lat);
        let fin = ledger.reserve(ResourceKey::Mem(dev), start, eff, bw);
        fin - now
    }

    /// Writes `data` at logical `offset`, updating the touched data spans
    /// and recomputing parity. Span I/O proceeds in parallel; the write
    /// completes with the slowest span.
    pub fn write(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimDuration, FtolError> {
        let end = offset + data.len() as u64;
        if end > self.size {
            return Err(FtolError::OutOfBounds {
                offset,
                len: data.len() as u64,
                size: self.size,
            });
        }
        let k = self.k();
        // Scatter the write across the affected data spans.
        let mut slowest = SimDuration::ZERO;
        let mut cursor = offset;
        let mut src = 0usize;
        while cursor < end {
            let span = (cursor / self.span_size) as usize;
            let within = cursor % self.span_size;
            let take = ((self.span_size - within) as usize).min(data.len() - src);
            mgr.write(self.spans[span], self.owner, within, &data[src..src + take])?;
            slowest = slowest.max(self.charge_span(topo, ledger, span, take as u64, true, now));
            self.bytes_written += take as u64;
            cursor += take as u64;
            src += take;
        }
        // Recompute parity from the full data spans and rewrite it.
        let data_spans: Vec<Vec<u8>> = (0..k)
            .map(|i| mgr.to_vec(self.spans[i], self.owner))
            .collect::<Result<_, _>>()?;
        let parity = self.rs.encode(&data_spans)?;
        // Parity arithmetic reads k spans and produces m spans.
        let parity_cost = SimDuration::from_nanos_f64(
            (k as u64 * self.span_size) as f64 * self.parity_engine.ns_per_byte(),
        );
        for (p, bytes) in parity.iter().enumerate() {
            mgr.write(self.spans[k + p], self.owner, 0, bytes)?;
            slowest = slowest.max(self.charge_span(topo, ledger, k + p, self.span_size, true, now));
            self.bytes_written += self.span_size;
        }
        Ok(slowest + parity_cost)
    }

    /// Reads `buf.len()` bytes at logical `offset`. If every needed data
    /// span is alive and uncorrupted this is a plain parallel read; if
    /// any is lost — its device failed, its node crashed, or its bytes
    /// overlap a corrupted range — the read degrades to reconstruction:
    /// fetch `k` trustworthy surviving spans, decode, and serve from the
    /// decoded data. Returns the duration and whether the read was
    /// degraded.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        offset: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<(SimDuration, bool), FtolError> {
        let end = offset + buf.len() as u64;
        if end > self.size {
            return Err(FtolError::OutOfBounds {
                offset,
                len: buf.len() as u64,
                size: self.size,
            });
        }
        let tainted = self.tainted(mgr, faults, now);
        let alive: Vec<usize> = self
            .alive(topo, faults, now)
            .into_iter()
            .filter(|i| !tainted.contains(i))
            .collect();
        let k = self.k();
        let needed: Vec<usize> = ((offset / self.span_size) as usize
            ..=((end - 1) / self.span_size) as usize)
            .collect();
        let all_alive = needed.iter().all(|s| alive.contains(s));

        if all_alive {
            let mut slowest = SimDuration::ZERO;
            let mut cursor = offset;
            let mut dst = 0usize;
            while cursor < end {
                let span = (cursor / self.span_size) as usize;
                let within = cursor % self.span_size;
                let take = ((self.span_size - within) as usize).min(buf.len() - dst);
                mgr.read(self.spans[span], self.owner, within, &mut buf[dst..dst + take])?;
                slowest =
                    slowest.max(self.charge_span(topo, ledger, span, take as u64, false, now));
                cursor += take as u64;
                dst += take;
            }
            return Ok((slowest, false));
        }

        // Degraded read: gather k surviving spans, reconstruct, serve.
        if alive.len() < k {
            return Err(FtolError::Unrecoverable {
                alive: alive.len(),
                needed: k,
            });
        }
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.spans.len()];
        let mut slowest = SimDuration::ZERO;
        for &i in alive.iter().take(k) {
            shards[i] = Some(mgr.to_vec(self.spans[i], self.owner)?);
            slowest = slowest.max(self.charge_span(topo, ledger, i, self.span_size, false, now));
        }
        self.rs.reconstruct(&mut shards)?;
        let decode = SimDuration::from_nanos_f64(
            self.span_size as f64 * self.parity_engine.ns_per_byte(),
        );
        let total = slowest + decode;

        let mut cursor = offset;
        let mut dst = 0usize;
        while cursor < end {
            let span = (cursor / self.span_size) as usize;
            let within = (cursor % self.span_size) as usize;
            let take = (self.span_size as usize - within).min(buf.len() - dst);
            let shard = shards[span].as_ref().expect("reconstructed");
            buf[dst..dst + take].copy_from_slice(&shard[within..within + take]);
            cursor += take as u64;
            dst += take;
        }
        Ok((total, true))
    }

    /// Rebuilds the span lost on `lost` onto `spare`: read `k` surviving
    /// spans, decode, write the reconstructed span. Returns the recovery
    /// duration.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        lost: usize,
        spare: MemDeviceId,
        now: SimTime,
    ) -> Result<SimDuration, FtolError> {
        let alive = self.alive(topo, faults, now);
        if alive.contains(&lost) {
            return Err(FtolError::ReplicaNotLost(lost));
        }
        let k = self.k();
        if alive.len() < k {
            return Err(FtolError::Unrecoverable {
                alive: alive.len(),
                needed: k,
            });
        }
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.spans.len()];
        let mut slowest = SimDuration::ZERO;
        for &i in alive.iter().take(k) {
            shards[i] = Some(mgr.to_vec(self.spans[i], self.owner)?);
            slowest = slowest.max(self.charge_span(topo, ledger, i, self.span_size, false, now));
        }
        self.rs.reconstruct(&mut shards)?;
        let decode = SimDuration::from_nanos_f64(
            self.span_size as f64 * self.parity_engine.ns_per_byte(),
        );

        let new = mgr.alloc(
            spare,
            self.span_size,
            RegionType::GlobalScratch,
            PropertySet::new().with_mode(AccessMode::Async),
            self.owner,
            now,
        )?;
        mgr.write(new, self.owner, 0, shards[lost].as_ref().expect("reconstructed"))?;
        let _ = mgr.release(self.spans[lost], self.owner);
        self.spans[lost] = new;
        self.devs[lost] = spare;
        let write = self.charge_span(topo, ledger, lost, self.span_size, true, now);
        self.bytes_written += self.span_size;
        Ok(slowest + decode + write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::fault::{FaultEvent, FaultKind};
    use disagg_hwsim::presets::disaggregated_rack;

    const OWNER: OwnerId = OwnerId::App;

    fn fixture(blades: usize) -> (Topology, RegionManager, BandwidthLedger, Vec<MemDeviceId>) {
        let (topo, rack) = disaggregated_rack(2, 32, blades, 64);
        let mgr = RegionManager::new(&topo);
        (topo, mgr, BandwidthLedger::default_buckets(), rack.pool)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn create_validates_devices_and_domains() {
        let (topo, mut mgr, _, pool) = fixture(4);
        assert!(matches!(
            StripedRegion::create(&mut mgr, &topo, &pool[..3], 1 << 20, 3, 1, OWNER, SimTime::ZERO),
            Err(FtolError::NotEnoughDevices { .. })
        ));
        let dup = [pool[0], pool[0], pool[1], pool[2]];
        assert!(matches!(
            StripedRegion::create(&mut mgr, &topo, &dup, 1 << 20, 3, 1, OWNER, SimTime::ZERO),
            Err(FtolError::SharedFailureDomain(_, _))
        ));
        let sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 1 << 20, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        assert_eq!(sr.k(), 3);
        assert_eq!(sr.m(), 1);
        assert!((sr.overhead() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn write_read_round_trip_spanning_spans() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(2500);
        // Offset 100 spans all three data spans (span_size = 1000).
        sr.write(&mut mgr, &topo, &mut ledger, 100, &data, SimTime::ZERO)
            .unwrap();
        let mut buf = vec![0u8; 2500];
        let faults = FaultInjector::none();
        let (took, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 100, &mut buf, SimTime::ZERO)
            .unwrap();
        assert!(!degraded);
        assert!(took > SimDuration::ZERO);
        assert_eq!(buf, data);
    }

    #[test]
    fn parity_amplifies_writes_less_than_replication() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        // 3000 data bytes + 1000 parity = 4000 written; 2x replication
        // of the same data would write 6000.
        assert_eq!(sr.bytes_written, 4000);
    }

    #[test]
    fn degraded_read_survives_a_lost_data_span() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::DeviceFail(sr.devs[1]),
        }]);
        let mut buf = vec![0u8; 3000];
        let (took_degraded, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(degraded);
        assert_eq!(buf, data, "reconstruction must restore exact bytes");

        // A healthy read of the same range is faster than the degraded one.
        let mut ledger2 = BandwidthLedger::default_buckets();
        let none = FaultInjector::none();
        let (took_ok, _) = sr
            .read(&mgr, &topo, &mut ledger2, &none, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(took_degraded > took_ok);
    }

    #[test]
    fn corrupted_span_triggers_degraded_decode() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        // Silent corruption inside data span 1: the span stays alive but
        // cannot be trusted as a read or reconstruction source.
        let p = mgr.placement(sr.spans[1]).unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::Corrupt { dev: p.dev, offset: p.offset + 10, len: 4 },
        }]);
        let mut buf = vec![0u8; 3000];
        let (_, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(degraded, "a corrupt span must not be read directly");
        assert_eq!(buf, data, "decode restores the exact bytes");
    }

    #[test]
    fn too_many_losses_are_unrecoverable() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        sr.write(&mut mgr, &topo, &mut ledger, 0, &payload(3000), SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(1),
                kind: FaultKind::DeviceFail(sr.devs[0]),
            },
            FaultEvent {
                at: SimTime(1),
                kind: FaultKind::DeviceFail(sr.devs[1]),
            },
        ]);
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            sr.read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(2)),
            Err(FtolError::Unrecoverable { alive: 2, needed: 3 })
        ));
    }

    #[test]
    fn recovery_rebuilds_the_lost_span() {
        let (topo, mut mgr, mut ledger, pool) = fixture(5);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::DeviceFail(sr.devs[2]),
        }]);
        let took = sr
            .recover(&mut mgr, &topo, &mut ledger, &faults, 2, pool[4], SimTime(10))
            .unwrap();
        assert!(took > SimDuration::ZERO);
        assert_eq!(sr.devs[2], pool[4]);
        // After recovery, a normal (non-degraded) read sees correct data.
        let mut buf = vec![0u8; 3000];
        let (_, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(20))
            .unwrap();
        assert!(!degraded);
        assert_eq!(buf, data);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 1000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        assert!(matches!(
            sr.write(&mut mgr, &topo, &mut ledger, 990, &[0u8; 20], SimTime::ZERO),
            Err(FtolError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 20];
        let faults = FaultInjector::none();
        assert!(matches!(
            sr.read(&mgr, &topo, &mut ledger, &faults, 990, &mut buf, SimTime::ZERO),
            Err(FtolError::OutOfBounds { .. })
        ));
    }
}
