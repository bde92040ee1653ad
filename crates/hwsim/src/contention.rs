//! Bandwidth contention accounting.
//!
//! Devices and links have finite bandwidth; when many tasks stream against
//! the same CXL expander the paper's placement problem gets interesting.
//! The [`BandwidthLedger`] models contention deterministically: virtual
//! time is divided into fixed buckets, every transfer reserves bytes in the
//! buckets it spans, and a bucket that is already fully subscribed pushes
//! the remainder of a transfer into later buckets (FIFO queueing). The
//! resulting slowdown is a pure function of the sequence of reservations,
//! so experiment output is reproducible.
//!
//! # Hot-path layout
//!
//! Bucket state lives in per-resource **ring buffers** indexed by quantum
//! (bucket number), not in a `(resource, bucket) → f64` hash map: one
//! resource lookup per reservation, then O(1) direct indexing per bucket.
//! Slots are tagged with the quantum they hold and **lazily evicted** —
//! a slot is reset the first time a newer quantum that aliases onto it is
//! touched, so quanta the simulation has moved past cost nothing to
//! retire. The ring guarantees exact accounting for any two live quanta
//! less than its capacity apart (it grows to cover the span of any single
//! reservation); an access that lands on a quantum already evicted by a
//! newer alias falls back to a spill map, so accounting never corrupts
//! newer buckets.
//!
//! A ring is stored in fixed 64-slot chunks, each allocated the first
//! time one of its slots is touched. Most resources are charged in a
//! handful of buckets per runtime, so allocating and zeroing a full
//! 4,096-slot (96 KiB) ring for each of them cost more than the
//! reservations it served.

use crate::fx::FxHashMap;
use crate::ids::{ComputeId, LinkId, MemDeviceId};
use crate::time::{SimDuration, SimTime};

/// A contended resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKey {
    /// A memory device's internal bandwidth.
    Mem(MemDeviceId),
    /// An interconnect link.
    Link(LinkId),
    /// A compute device's execution slots.
    Compute(ComputeId),
}

/// Per-resource usage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceStats {
    /// Total bytes transferred through the resource.
    pub bytes: f64,
    /// Total busy time accumulated (may exceed wall time when parallel).
    pub busy: SimDuration,
    /// Number of reservations made.
    pub reservations: u64,
    /// Most reservations sharing any one time bucket: how many accessors
    /// the resource was charged for at its most contended instant.
    pub peak_overlap: u32,
}

/// Sentinel quantum for a ring slot that holds nothing.
const EMPTY: u64 = u64::MAX;

/// Initial ring capacity per resource (quanta). At the default 10 µs
/// bucket this retains ~41 ms of virtual time, far beyond any live
/// reservation window in practice; the ring grows when a single
/// reservation spans more.
const INITIAL_SLOTS: usize = 4096;

/// Ring slots per chunk. A ring is allocated one chunk at a time, on
/// first touch, so a resource touched in a few buckets costs a few
/// chunks, not the whole ring.
const CHUNK: usize = 64;

/// One time bucket of one resource.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Which quantum this slot currently holds ([`EMPTY`] if none).
    quantum: u64,
    /// Bytes already reserved in the quantum.
    used: f64,
    /// Reservations touching the quantum.
    accessors: u32,
}

impl Slot {
    const fn empty() -> Slot {
        Slot { quantum: EMPTY, used: 0.0, accessors: 0 }
    }
}

/// Per-resource ring of bucket state plus aggregate statistics.
#[derive(Debug)]
struct Lane {
    /// Power-of-two ring in [`CHUNK`]-slot chunks (`None` = never
    /// touched, all slots empty); slot for quantum `q` is `q & mask`.
    chunks: Vec<Option<Box<[Slot; CHUNK]>>>,
    mask: u64,
    /// Spill storage for quanta whose ring slot was already claimed by a
    /// *newer* alias (only reachable if a reservation jumps further back
    /// in virtual time than the ring retains — pathological, but must
    /// not corrupt the newer bucket).
    spill: FxHashMap<u64, Slot>,
    stats: ResourceStats,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            chunks: vec![None; INITIAL_SLOTS / CHUNK],
            mask: INITIAL_SLOTS as u64 - 1,
            spill: FxHashMap::default(),
            stats: ResourceStats::default(),
        }
    }

    /// Ring slot `i`, allocating its chunk on first touch.
    fn ring_mut(chunks: &mut [Option<Box<[Slot; CHUNK]>>], i: usize) -> &mut Slot {
        &mut chunks[i / CHUNK].get_or_insert_with(|| Box::new([Slot::empty(); CHUNK]))[i % CHUNK]
    }

    /// Ensures the ring can hold `span` consecutive quanta without
    /// self-aliasing (grows geometrically, re-laying out live slots).
    fn reserve_span(&mut self, span: u64) {
        let mut cap = self.mask + 1;
        if span.saturating_mul(2) <= cap {
            return;
        }
        while span.saturating_mul(2) > cap {
            cap = cap.saturating_mul(2);
        }
        let old = std::mem::replace(&mut self.chunks, vec![None; cap as usize / CHUNK]);
        self.mask = cap - 1;
        for s in old.iter().flatten().flat_map(|c| c.iter()) {
            if s.quantum != EMPTY {
                *Lane::ring_mut(&mut self.chunks, (s.quantum & self.mask) as usize) = *s;
            }
        }
    }

    /// The live bucket state for quantum `q`, lazily evicting an expired
    /// older occupant of the same ring slot.
    fn slot_mut(&mut self, q: u64) -> &mut Slot {
        let slot = Lane::ring_mut(&mut self.chunks, (q & self.mask) as usize);
        if slot.quantum != EMPTY && slot.quantum > q {
            // The slot holds a *newer* quantum: serve the old one from
            // spill so we never clobber live future state.
            return self.spill.entry(q).or_insert(Slot { quantum: q, ..Slot::empty() });
        }
        if slot.quantum != q {
            // Lazy eviction: the older quantum can never affect a future
            // reservation once a newer alias claims the slot.
            *slot = Slot { quantum: q, ..Slot::empty() };
        }
        slot
    }
}

/// Deterministic, bucketed bandwidth ledger.
#[derive(Debug)]
pub struct BandwidthLedger {
    bucket_ns: u64,
    /// Resource → dense lane index.
    lane_of: FxHashMap<ResourceKey, u32>,
    lanes: Vec<Lane>,
}

impl BandwidthLedger {
    /// Creates a ledger with the given bucket width. Smaller buckets model
    /// contention more precisely but cost more to simulate; 10 µs is a good
    /// default for rack-scale experiments.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ns` is zero.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        BandwidthLedger {
            bucket_ns,
            lane_of: FxHashMap::default(),
            lanes: Vec::new(),
        }
    }

    /// Default ledger (10 µs buckets).
    pub fn default_buckets() -> Self {
        BandwidthLedger::new(10_000)
    }

    fn lane_mut(&mut self, resource: ResourceKey) -> &mut Lane {
        let idx = *self.lane_of.entry(resource).or_insert_with(|| {
            self.lanes.push(Lane::new());
            (self.lanes.len() - 1) as u32
        });
        &mut self.lanes[idx as usize]
    }

    /// Reserves `bytes` of transfer on `resource` starting at `start`,
    /// given the resource's bandwidth in bytes/ns. Returns the *finish
    /// time* of the transfer after queueing behind earlier reservations.
    ///
    /// A transfer through an empty ledger finishes exactly `bytes / bw`
    /// after `start`; oversubscribed buckets stretch it.
    pub fn reserve(
        &mut self,
        resource: ResourceKey,
        start: SimTime,
        bytes: f64,
        bw_bpns: f64,
    ) -> SimTime {
        if bytes <= 0.0 || !bw_bpns.is_finite() || bw_bpns <= 0.0 {
            return start;
        }
        let bucket_ns = self.bucket_ns;
        let cap_per_bucket = bw_bpns * bucket_ns as f64;
        // Upper bound on the bucket span of this reservation assuming it
        // finds every bucket empty is bytes/cap; contention can stretch it
        // further, so the span is re-checked as the loop advances.
        let lane = self.lane_mut(resource);
        lane.reserve_span((bytes / cap_per_bucket) as u64 + 2);

        let mut remaining = bytes;
        let first_bucket = start.as_nanos() / bucket_ns;
        let mut bucket = first_bucket;
        // Fractional headroom of the first bucket: the transfer only
        // occupies the part of the bucket after `start`.
        let mut first_fraction =
            1.0 - (start.as_nanos() % bucket_ns) as f64 / bucket_ns as f64;
        // Time this op's own bytes take at rated bandwidth (accumulated
        // across buckets): the floor below which no finish can fall.
        let mut own_ns = 0.0f64;
        let finish;
        loop {
            lane.reserve_span(bucket - first_bucket + 2);
            let cap = cap_per_bucket * first_fraction;
            first_fraction = 1.0;
            let slot = lane.slot_mut(bucket);
            let avail = (cap - slot.used).max(0.0);
            if remaining <= avail {
                slot.used += remaining;
                own_ns += remaining / bw_bpns;
                // Two bounds on the completion instant: the op's own
                // serial transfer time from `start`, and the FIFO position
                // implied by everything reserved in this bucket.
                let own_finish = start.as_nanos() + own_ns.ceil() as u64;
                let consumed_fraction = (slot.used / cap_per_bucket).min(1.0);
                let fifo_finish = bucket * bucket_ns
                    + (consumed_fraction * bucket_ns as f64).ceil() as u64;
                finish = SimTime(own_finish.max(fifo_finish).max(start.as_nanos()));
                break;
            }
            slot.used += avail;
            remaining -= avail;
            own_ns += avail / bw_bpns;
            bucket += 1;
        }
        // Charge the overlap: every bucket this transfer touched gains
        // one accessor, and the resource's peak concurrent-accessor
        // count is the contention actually experienced.
        let mut peak = 0u32;
        for b in first_bucket..=bucket {
            let slot = lane.slot_mut(b);
            slot.accessors += 1;
            peak = peak.max(slot.accessors);
        }
        let st = &mut lane.stats;
        st.bytes += bytes;
        st.busy += finish - start;
        st.reservations += 1;
        st.peak_overlap = st.peak_overlap.max(peak);
        finish
    }

    /// Statistics for one resource (zeroes if never used).
    pub fn stats(&self, resource: ResourceKey) -> ResourceStats {
        self.lane_of
            .get(&resource)
            .map(|&i| self.lanes[i as usize].stats)
            .unwrap_or_default()
    }

    /// Fraction of a resource's bandwidth consumed over `[0, horizon)`.
    pub fn utilization(&self, resource: ResourceKey, bw_bpns: f64, horizon: SimDuration) -> f64 {
        if horizon == SimDuration::ZERO || bw_bpns <= 0.0 {
            return 0.0;
        }
        let bytes = self.stats(resource).bytes;
        (bytes / (bw_bpns * horizon.as_nanos_f64())).min(1.0)
    }

    /// Clears all reservations and statistics.
    pub fn reset(&mut self) {
        self.lane_of.clear();
        self.lanes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: ResourceKey = ResourceKey::Mem(MemDeviceId(0));

    #[test]
    fn uncontended_transfer_finishes_at_rated_bandwidth() {
        let mut ledger = BandwidthLedger::new(1_000);
        // 10 GB/s, 10_000 bytes → 1_000 ns.
        let finish = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(finish, SimTime(1_000));
    }

    #[test]
    fn second_flow_queues_behind_first() {
        let mut ledger = BandwidthLedger::new(1_000);
        let f1 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f1, SimTime(1_000));
        // Second transfer finds the first bucket full and lands in the next.
        assert_eq!(f2, SimTime(2_000));
    }

    #[test]
    fn disjoint_resources_do_not_contend() {
        let mut ledger = BandwidthLedger::new(1_000);
        let other = ResourceKey::Mem(MemDeviceId(1));
        let f1 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        let f2 = ledger.reserve(other, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f1, f2);
    }

    #[test]
    fn mid_bucket_start_has_partial_headroom() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Start halfway into a bucket: only half the bucket's capacity
        // remains, so a 10_000-byte transfer at 10 B/ns spills over.
        let finish = ledger.reserve(DEV, SimTime(500), 10_000.0, 10.0);
        assert!(finish > SimTime(1_000));
        assert!(finish <= SimTime(2_000));
    }

    #[test]
    fn zero_bytes_is_instant() {
        let mut ledger = BandwidthLedger::new(1_000);
        assert_eq!(ledger.reserve(DEV, SimTime(42), 0.0, 10.0), SimTime(42));
    }

    #[test]
    fn infinite_bandwidth_is_instant() {
        let mut ledger = BandwidthLedger::new(1_000);
        assert_eq!(
            ledger.reserve(DEV, SimTime(42), 1e9, f64::INFINITY),
            SimTime(42)
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut ledger = BandwidthLedger::new(1_000);
        ledger.reserve(DEV, SimTime(0), 5_000.0, 10.0);
        ledger.reserve(DEV, SimTime(0), 5_000.0, 10.0);
        let st = ledger.stats(DEV);
        assert_eq!(st.bytes, 10_000.0);
        assert_eq!(st.reservations, 2);
        assert!(st.busy > SimDuration::ZERO);
    }

    #[test]
    fn utilization_is_bounded() {
        let mut ledger = BandwidthLedger::new(1_000);
        ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        let u = ledger.utilization(DEV, 10.0, SimDuration::from_nanos(2_000));
        assert!((u - 0.5).abs() < 1e-9, "expected 50% utilization, got {u}");
        assert_eq!(ledger.utilization(DEV, 10.0, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_reservations() {
        let mut ledger = BandwidthLedger::new(1_000);
        ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        ledger.reset();
        let finish = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(finish, SimTime(1_000));
        assert_eq!(ledger.stats(DEV).reservations, 1);
    }

    #[test]
    fn peak_overlap_counts_concurrent_accessors() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Three small transfers share the first bucket.
        for _ in 0..3 {
            ledger.reserve(DEV, SimTime(0), 100.0, 10.0);
        }
        // A fourth lands in a later, empty window.
        ledger.reserve(DEV, SimTime(50_000), 100.0, 10.0);
        assert_eq!(ledger.stats(DEV).peak_overlap, 3);
    }

    #[test]
    fn many_flows_slow_down_linearly() {
        let mut ledger = BandwidthLedger::new(1_000);
        let mut last = SimTime(0);
        for _ in 0..8 {
            last = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        }
        // Eight serialized 1_000 ns transfers → 8_000 ns.
        assert_eq!(last, SimTime(8_000));
    }

    #[test]
    fn single_reservation_spanning_many_buckets_grows_the_ring() {
        let mut ledger = BandwidthLedger::new(1_000);
        // 100M bytes at 10 B/ns = 10M ns = 10_000 buckets (> INITIAL_SLOTS).
        let finish = ledger.reserve(DEV, SimTime(0), 100_000_000.0, 10.0);
        assert_eq!(finish, SimTime(10_000_000));
        // A second flow queues behind the entire first transfer.
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f2, SimTime(10_001_000));
    }

    #[test]
    fn far_future_then_far_past_reservations_stay_isolated() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Touch a quantum far in the future, then come back to a quantum
        // that aliases onto an evicted slot: the old quantum must see a
        // clean bucket (spill path) and must not disturb the future one.
        let far = SimTime(INITIAL_SLOTS as u64 * 1_000 * 3);
        let f1 = ledger.reserve(DEV, far, 10_000.0, 10.0);
        assert_eq!(f1, SimTime(far.as_nanos() + 1_000));
        let f2 = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f2, SimTime(1_000));
        assert_eq!(ledger.lanes[0].spill.len(), 1, "the old quantum went to spill");
        let f3 = ledger.reserve(DEV, far, 10_000.0, 10.0);
        assert_eq!(f3, SimTime(far.as_nanos() + 2_000), "future bucket kept its charge");
    }

    /// Chunks the ring of the ledger's only lane has allocated.
    fn chunks_in_use(ledger: &BandwidthLedger) -> usize {
        ledger.lanes[0].chunks.iter().flatten().count()
    }

    #[test]
    fn a_lane_touched_in_one_bucket_allocates_one_chunk() {
        let mut ledger = BandwidthLedger::new(1_000);
        ledger.reserve(DEV, SimTime(5_000_000), 100.0, 10.0);
        assert_eq!(chunks_in_use(&ledger), 1);
        assert_eq!(ledger.lanes[0].chunks.len(), INITIAL_SLOTS / CHUNK);
    }

    #[test]
    fn ring_growth_keeps_live_slots() {
        let mut ledger = BandwidthLedger::new(1_000);
        // Half-fill bucket 0, then grow the ring with a reservation that
        // spans 10_000 buckets starting at bucket 100.
        ledger.reserve(DEV, SimTime(0), 5_000.0, 10.0);
        ledger.reserve(DEV, SimTime(100_000), 100_000_000.0, 10.0);
        assert!(ledger.lanes[0].mask + 1 > INITIAL_SLOTS as u64, "ring grew");
        // Bucket 0 kept its charge: 5_000 more bytes fit there, the rest
        // queue into bucket 1.
        let f = ledger.reserve(DEV, SimTime(0), 10_000.0, 10.0);
        assert_eq!(f, SimTime(1_500));
        // Bucket 100 onward kept the long transfer's charge.
        let g = ledger.reserve(DEV, SimTime(100_000), 10_000.0, 10.0);
        assert_eq!(g, SimTime(10_101_000));
    }

    #[test]
    fn forward_progress_reuses_slots_without_leaking_charge() {
        let mut ledger = BandwidthLedger::new(1_000);
        // March far past the ring capacity; every bucket must look fresh.
        for i in 0..(INITIAL_SLOTS as u64 * 4) {
            let at = SimTime(i * 1_000);
            let f = ledger.reserve(DEV, at, 5_000.0, 10.0);
            assert_eq!(f, SimTime(at.as_nanos() + 500), "bucket {i} had stale charge");
        }
    }
}
