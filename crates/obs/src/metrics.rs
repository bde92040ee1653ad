//! The deterministic metrics registry.
//!
//! Counters and log2-bucket histograms keyed by name, fed from the
//! event stream. Every recorded value is *virtual* (virtual
//! nanoseconds, byte counts) and every container is ordered
//! (`BTreeMap`), so two runs of the same submission produce identical
//! snapshots — metrics are part of the reproducibility contract, not an
//! approximation of it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use disagg_hwsim::trace::TraceEvent;

use crate::observer::Observer;

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `bit_len(v) == i`, i.e. bucket 0 is `v == 0`, bucket 1 is `v == 1`,
/// bucket 2 is `2..=3`, and so on up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A log2-bucket histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Occupancy per log2 bucket.
    pub buckets: [u64; BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The log2 bucket index of a value.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive value range `[lo, hi]` a log2 bucket covers.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1 => (1, 1),
        i if i >= 64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Deterministic percentile estimate (`p` in `[0, 1]`): locates the
    /// bucket holding the p-quantile's rank, then linearly interpolates
    /// *within* the bucket assuming its values spread evenly over
    /// `[lo, hi]` — the `pos`-th of `n` values lands at
    /// `lo + span * pos / (n + 1)`. Integer math throughout, so the
    /// estimate is bit-for-bit reproducible; before this interpolation
    /// the function returned the bucket's upper bound, quantizing every
    /// percentile to a power of two.
    pub fn quantile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let pos = (rank - seen) as u128;
                let span = (hi - lo) as u128;
                return lo + (span * pos / (n as u128 + 1)) as u64;
            }
            seen += n;
        }
        self.max
    }
}

/// An immutable histogram summary carried in snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest value (0 when empty, for display friendliness).
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// p50 bucket upper bound.
    pub p50: u64,
    /// p99 bucket upper bound.
    pub p99: u64,
    /// Non-empty log2 buckets as `(bucket_index, occupancy)`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            p50: h.quantile_bound(0.50),
            p99: h.quantile_bound(0.99),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u8, n))
                .collect(),
        }
    }
}

/// Virtual-time epoch length for per-region access-temperature
/// tracking: accesses are bucketed into fixed 1 ms windows of virtual
/// time, the granularity an epoch re-planner would act on.
pub const TEMP_EPOCH_NS: u64 = 1_000_000;

/// One region's access temperature over one epoch window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTemperature {
    /// Region identifier.
    pub region: u64,
    /// Epoch index (`at / TEMP_EPOCH_NS` of the accesses).
    pub epoch: u64,
    /// Accesses (reads, writes, migrations) landing in the window.
    pub accesses: u64,
    /// Bytes touched in the window.
    pub bytes: u64,
    /// log2 bucket of the access count — the "heat" a tiering policy
    /// compares against thresholds.
    pub heat: u8,
    /// log2 bucket of the bytes touched.
    pub heat_bytes: u8,
}

/// The per-device counters [`MetricsRegistry::record`] feeds, as
/// `(prefix, suffix)` of their names: device `id`'s counter is named
/// `{prefix}{id}{suffix}`.
const DEVICE_COUNTERS: [(&str, &str); 6] = [
    ("dev.mem", ".allocs"),
    ("dev.mem", ".bytes"),
    ("dev.cpu", ".dispatches"),
    ("dev.cpu", ".tasks"),
    ("dev.cpu", ".faults"),
    ("node", ".breaker.trips"),
];
const MEM_ALLOCS: usize = 0;
const MEM_BYTES: usize = 1;
const CPU_DISPATCHES: usize = 2;
const CPU_TASKS: usize = 3;
const CPU_FAULTS: usize = 4;
const NODE_BREAKER_TRIPS: usize = 5;

/// Counters + histograms keyed by name, plus per-region per-epoch
/// access temperatures.
///
/// The per-device counters [`record`](Self::record) feeds live in
/// arrays indexed by device id and are named only when read
/// ([`snapshot`](Self::snapshot), [`counter`](Self::counter)); reads
/// see exactly what one name-keyed map would hold.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    /// Per-device counters, indexed like [`DEVICE_COUNTERS`] and then
    /// by device id (`None` = never incremented). A name given to
    /// [`incr`](Self::incr) lands in `counters` and reads as the sum.
    devices: [Vec<Option<u64>>; DEVICE_COUNTERS.len()],
    histograms: BTreeMap<String, Histogram>,
    /// `(region, epoch) -> (accesses, bytes)`, ordered for determinism.
    temps: BTreeMap<(u64, u64), (u64, u64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter (creating it at 0).
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Records a value into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Adds `by` to a per-device counter (creating it at 0).
    fn incr_device(&mut self, counter: usize, id: u32, by: u64) {
        let ids = &mut self.devices[counter];
        let i = id as usize;
        if ids.len() <= i {
            ids.resize(i + 1, None);
        }
        *ids[i].get_or_insert(0) += by;
    }

    /// The per-device counter `name` names, if any: `(counter, id)`.
    fn device_counter(name: &str) -> Option<(usize, usize)> {
        DEVICE_COUNTERS
            .iter()
            .enumerate()
            .find_map(|(counter, &(prefix, suffix))| {
                let id = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
                // Only the canonical spelling: no sign, no leading zeros.
                let n: u32 = id.parse().ok().filter(|n: &u32| n.to_string() == id)?;
                Some((counter, n as usize))
            })
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let named = self.counters.get(name).copied().unwrap_or(0);
        let device = Self::device_counter(name)
            .and_then(|(counter, id)| self.devices[counter].get(id).copied().flatten());
        named + device.unwrap_or(0)
    }

    /// The histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Feeds one event into the standard runtime metrics: event-kind
    /// counters, byte accounting per device, and the queue-wait /
    /// access-latency / migration-size / task-duration histograms.
    pub fn record(&mut self, e: &TraceEvent) {
        self.incr("events", 1);
        match *e {
            TraceEvent::Alloc { dev, bytes, .. } => {
                self.incr("events.alloc", 1);
                self.incr("bytes.allocated", bytes);
                self.observe("alloc_bytes", bytes);
                self.incr_device(MEM_ALLOCS, dev.0, 1);
            }
            TraceEvent::Free { .. } => self.incr("events.free", 1),
            TraceEvent::Access { region, dev, bytes, at, took, .. } => {
                self.incr("events.access", 1);
                self.incr("bytes.moved", bytes);
                self.incr_device(MEM_BYTES, dev.0, bytes);
                self.observe("access_ns", took.as_nanos());
                self.touch_region(region, at.as_nanos(), bytes);
            }
            TraceEvent::Migrate { region, from, to, bytes, at, took } => {
                self.incr("events.migrate", 1);
                self.incr("bytes.moved", bytes);
                self.incr_device(MEM_BYTES, from.0, bytes);
                self.incr_device(MEM_BYTES, to.0, bytes);
                self.observe("migrate_bytes", bytes);
                self.observe("migrate_ns", took.as_nanos());
                self.touch_region(region, at.as_nanos(), bytes);
            }
            TraceEvent::OwnershipTransfer { bytes, .. } => {
                self.incr("events.transfer", 1);
                self.incr("bytes.ownership", bytes);
                self.observe("transfer_bytes", bytes);
            }
            TraceEvent::TaskQueued { .. } => self.incr("events.task_queued", 1),
            TraceEvent::TaskDispatch { on, waited, .. } => {
                self.incr("events.task_dispatch", 1);
                self.incr_device(CPU_DISPATCHES, on.0, 1);
                self.observe("queue_wait_ns", waited.as_nanos());
            }
            TraceEvent::TaskStart { on, .. } => {
                self.incr("events.task_start", 1);
                self.incr_device(CPU_TASKS, on.0, 1);
            }
            TraceEvent::TaskFinish { .. } => self.incr("events.task_finish", 1),
            TraceEvent::FaultDetected { on, .. } => {
                self.incr("events.fault_detected", 1);
                self.incr("faults.detected", 1);
                self.incr_device(CPU_FAULTS, on.0, 1);
            }
            TraceEvent::TaskRetry { lost, .. } => {
                self.incr("events.task_retry", 1);
                self.incr("recovery.retries", 1);
                self.observe("recovery_lost_ns", lost.as_nanos());
            }
            TraceEvent::Reconstruct { bytes, took, .. } => {
                self.incr("events.reconstruct", 1);
                self.incr("recovery.reconstructs", 1);
                self.incr("bytes.reconstructed", bytes);
                self.observe("reconstruct_ns", took.as_nanos());
            }
            TraceEvent::RequestTag { .. } => self.incr("events.request_tag", 1),
            TraceEvent::BreakerTrip { node, .. } => {
                self.incr("events.breaker_trip", 1);
                self.incr("breaker.trips", 1);
                self.incr_device(NODE_BREAKER_TRIPS, node.0, 1);
            }
            TraceEvent::BreakerProbe { .. } => {
                self.incr("events.breaker_probe", 1);
                self.incr("breaker.probes", 1);
            }
            TraceEvent::BreakerClose { .. } => {
                self.incr("events.breaker_close", 1);
                self.incr("breaker.closes", 1);
            }
            TraceEvent::RequestShed { .. } => {
                self.incr("events.request_shed", 1);
                self.incr("serve.shed", 1);
            }
            TraceEvent::RequestDegraded { .. } => {
                self.incr("events.request_degraded", 1);
                self.incr("serve.degraded", 1);
            }
        }
    }

    /// Charges one access against a region's current epoch window.
    fn touch_region(&mut self, region: u64, at_ns: u64, bytes: u64) {
        let e = self
            .temps
            .entry((region, at_ns / TEMP_EPOCH_NS))
            .or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    /// The per-region per-epoch access temperatures recorded so far,
    /// in `(region, epoch)` order.
    pub fn temperatures(&self) -> Vec<RegionTemperature> {
        self.temps
            .iter()
            .map(|(&(region, epoch), &(accesses, bytes))| RegionTemperature {
                region,
                epoch,
                accesses,
                bytes,
                heat: bucket_of(accesses) as u8,
                heat_bytes: bucket_of(bytes) as u8,
            })
            .collect()
    }

    /// An immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: {
                let mut all = self.counters.clone();
                for (&(prefix, suffix), ids) in DEVICE_COUNTERS.iter().zip(&self.devices) {
                    for (id, v) in ids.iter().enumerate() {
                        if let Some(v) = v {
                            *all.entry(format!("{prefix}{id}{suffix}")).or_insert(0) += v;
                        }
                    }
                }
                all.into_iter().collect()
            },
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::of(h)))
                .collect(),
            temperatures: self.temperatures(),
        }
    }
}

/// A metrics-only streaming sink.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    /// The registry being maintained.
    pub registry: MetricsRegistry,
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, event: &TraceEvent) {
        self.registry.record(event);
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.registry.snapshot())
    }
}

/// What a run's metrics looked like at snapshot time. Attached to
/// `RunReport` when the runtime carries a metrics-keeping observer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` in name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Per-region per-epoch access temperatures in `(region, epoch)`
    /// order — the telemetry substrate for adaptive tiering.
    pub temperatures: Vec<RegionTemperature>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// A region's temperature windows, in epoch order.
    pub fn region_temperature(&self, region: u64) -> Vec<&RegionTemperature> {
        self.temperatures
            .iter()
            .filter(|t| t.region == region)
            .collect()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.temperatures.is_empty()
    }

    /// Renders an aligned human-readable listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<width$}  count={} sum={} min={} p50<={} p99<={} max={}",
                h.count, h.sum, h.min, h.p50, h.p99, h.max
            );
        }
        for t in &self.temperatures {
            let _ = writeln!(
                out,
                "temp region={} epoch={} accesses={} bytes={} heat={} heat_bytes={}",
                t.region, t.epoch, t.accesses, t.bytes, t.heat, t.heat_bytes
            );
        }
        out
    }

    /// Renders the snapshot as JSON (hand-rolled; the workspace stays
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", crate::json::escape(k));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(b, n)| format!("[{b},{n}]"))
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \
                 \"p99\": {}, \"max\": {}, \"log2_buckets\": [{}]}}",
                crate::json::escape(k),
                h.count,
                h.sum,
                h.min,
                h.p50,
                h.p99,
                h.max,
                buckets.join(", ")
            );
        }
        out.push_str("\n  },\n  \"temperatures\": [");
        for (i, t) in self.temperatures.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"region\": {}, \"epoch\": {}, \"accesses\": {}, \"bytes\": {}, \
                 \"heat\": {}, \"heat_bytes\": {}}}",
                t.region, t.epoch, t.accesses, t.bytes, t.heat, t.heat_bytes
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::device::AccessOp;
    use disagg_hwsim::ids::{ComputeId, MemDeviceId, NodeId};
    use disagg_hwsim::time::{SimDuration, SimTime};

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1039);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1024);
        assert!(h.quantile_bound(0.5) >= 4);
        assert!(h.quantile_bound(0.99) >= 1024);
        assert_eq!(Histogram::default().quantile_bound(0.5), 0);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(11), (1024, 2047));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        }
    }

    /// Pins the quantile fix: the log2-bucket estimate interpolates
    /// within the bucket instead of returning its upper bound. The
    /// "was" values are what the pre-fix implementation returned —
    /// always a power of two minus one.
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.50), 5); // was 7: bucket [4,7] upper bound
        assert_eq!(h.quantile_bound(0.99), 1535); // was 2047: bucket [1024,2047]

        // Several values in one bucket spread evenly across it.
        let mut h = Histogram::default();
        for _ in 0..3 {
            h.observe(1000); // bucket 10 covers [512, 1023]
        }
        assert_eq!(h.quantile_bound(0.25), 512 + 511 / 4); // was 1023
        assert_eq!(h.quantile_bound(0.50), 512 + 511 * 2 / 4);
        assert_eq!(h.quantile_bound(1.0), 512 + 511 * 3 / 4);

        // Degenerate buckets interpolate to their single value.
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        assert_eq!(h.quantile_bound(0.50), 0);
        assert_eq!(h.quantile_bound(1.0), 1);
    }

    #[test]
    fn temperatures_bucket_accesses_per_region_and_epoch() {
        let mut r = MetricsRegistry::new();
        let access = |region, at, bytes| TraceEvent::Access {
            region,
            dev: MemDeviceId(0),
            bytes,
            op: AccessOp::Read,
            at: SimTime(at),
            took: SimDuration(10),
        };
        r.record(&access(1, 0, 100));
        r.record(&access(1, 50, 100));
        r.record(&access(1, TEMP_EPOCH_NS - 1, 56));
        r.record(&access(1, 2 * TEMP_EPOCH_NS, 4));
        r.record(&access(2, 10, 1));
        let snap = r.snapshot();
        assert_eq!(snap.temperatures.len(), 3, "two windows for region 1, one for region 2");
        let hot = snap.region_temperature(1);
        assert_eq!((hot[0].epoch, hot[0].accesses, hot[0].bytes), (0, 3, 256));
        assert_eq!(hot[0].heat, bucket_of(3) as u8);
        assert_eq!(hot[0].heat_bytes, bucket_of(256) as u8);
        assert_eq!((hot[1].epoch, hot[1].accesses), (2, 1));
        assert_eq!(snap.region_temperature(2)[0].bytes, 1);
        assert!(snap.to_json().contains("\"temperatures\""));
        assert!(snap.render().contains("temp region=1 epoch=0"));
    }

    #[test]
    fn registry_records_standard_metrics() {
        let mut r = MetricsRegistry::new();
        r.record(&TraceEvent::Access {
            region: 0,
            dev: MemDeviceId(2),
            bytes: 4096,
            op: AccessOp::Read,
            at: SimTime(10),
            took: SimDuration(100),
        });
        r.record(&TraceEvent::TaskDispatch {
            job: 0,
            task: 1,
            on: ComputeId(0),
            at: SimTime(50),
            waited: SimDuration(40),
        });
        r.record(&TraceEvent::Migrate {
            region: 0,
            from: MemDeviceId(0),
            to: MemDeviceId(2),
            bytes: 100,
            at: SimTime(60),
            took: SimDuration(5),
        });
        assert_eq!(r.counter("events"), 3);
        assert_eq!(r.counter("bytes.moved"), 4196);
        assert_eq!(r.counter("dev.mem2.bytes"), 4196);
        assert_eq!(r.counter("dev.mem0.bytes"), 100);
        assert_eq!(r.histogram("queue_wait_ns").unwrap().sum, 40);
        assert_eq!(r.histogram("access_ns").unwrap().count, 1);
        assert_eq!(r.histogram("migrate_bytes").unwrap().max, 100);
    }

    #[test]
    fn snapshots_are_deterministic_and_queryable() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.incr("b", 2);
            r.incr("a", 1);
            r.observe("h", 7);
            r.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        // Name-ordered regardless of insertion order.
        assert_eq!(s1.counters[0].0, "a");
        assert_eq!(s1.counter("b"), 2);
        assert_eq!(s1.counter("missing"), 0);
        assert_eq!(s1.histogram("h").unwrap().count, 1);
        let json = s1.to_json();
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"log2_buckets\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(s1.render().contains("p50<="));
    }
    /// Counter increments and histogram samples, by name.
    type Named = (Vec<(String, u64)>, Vec<(&'static str, u64)>);

    /// The counters and histogram samples one event fed when `record`
    /// kept every metric in a name-keyed map.
    fn named_metrics(e: &TraceEvent) -> Named {
        let c = |name: &str, by: u64| (name.to_string(), by);
        let dev = |prefix: &str, id: u32, suffix: &str, by: u64| (format!("{prefix}{id}{suffix}"), by);
        let (mut counters, hists) = match *e {
            TraceEvent::Alloc { dev: d, bytes, .. } => (
                vec![c("events.alloc", 1), c("bytes.allocated", bytes), dev("dev.mem", d.0, ".allocs", 1)],
                vec![("alloc_bytes", bytes)],
            ),
            TraceEvent::Free { .. } => (vec![c("events.free", 1)], vec![]),
            TraceEvent::Access { dev: d, bytes, took, .. } => (
                vec![c("events.access", 1), c("bytes.moved", bytes), dev("dev.mem", d.0, ".bytes", bytes)],
                vec![("access_ns", took.as_nanos())],
            ),
            TraceEvent::Migrate { from, to, bytes, took, .. } => (
                vec![
                    c("events.migrate", 1),
                    c("bytes.moved", bytes),
                    dev("dev.mem", from.0, ".bytes", bytes),
                    dev("dev.mem", to.0, ".bytes", bytes),
                ],
                vec![("migrate_bytes", bytes), ("migrate_ns", took.as_nanos())],
            ),
            TraceEvent::OwnershipTransfer { bytes, .. } => (
                vec![c("events.transfer", 1), c("bytes.ownership", bytes)],
                vec![("transfer_bytes", bytes)],
            ),
            TraceEvent::TaskQueued { .. } => (vec![c("events.task_queued", 1)], vec![]),
            TraceEvent::TaskDispatch { on, waited, .. } => (
                vec![c("events.task_dispatch", 1), dev("dev.cpu", on.0, ".dispatches", 1)],
                vec![("queue_wait_ns", waited.as_nanos())],
            ),
            TraceEvent::TaskStart { on, .. } => {
                (vec![c("events.task_start", 1), dev("dev.cpu", on.0, ".tasks", 1)], vec![])
            }
            TraceEvent::TaskFinish { .. } => (vec![c("events.task_finish", 1)], vec![]),
            TraceEvent::FaultDetected { on, .. } => (
                vec![c("events.fault_detected", 1), c("faults.detected", 1), dev("dev.cpu", on.0, ".faults", 1)],
                vec![],
            ),
            TraceEvent::TaskRetry { lost, .. } => (
                vec![c("events.task_retry", 1), c("recovery.retries", 1)],
                vec![("recovery_lost_ns", lost.as_nanos())],
            ),
            TraceEvent::Reconstruct { bytes, took, .. } => (
                vec![c("events.reconstruct", 1), c("recovery.reconstructs", 1), c("bytes.reconstructed", bytes)],
                vec![("reconstruct_ns", took.as_nanos())],
            ),
            TraceEvent::RequestTag { .. } => (vec![c("events.request_tag", 1)], vec![]),
            TraceEvent::BreakerTrip { node, .. } => (
                vec![c("events.breaker_trip", 1), c("breaker.trips", 1), dev("node", node.0, ".breaker.trips", 1)],
                vec![],
            ),
            TraceEvent::BreakerProbe { .. } => {
                (vec![c("events.breaker_probe", 1), c("breaker.probes", 1)], vec![])
            }
            TraceEvent::BreakerClose { .. } => {
                (vec![c("events.breaker_close", 1), c("breaker.closes", 1)], vec![])
            }
            TraceEvent::RequestShed { .. } => {
                (vec![c("events.request_shed", 1), c("serve.shed", 1)], vec![])
            }
            TraceEvent::RequestDegraded { .. } => {
                (vec![c("events.request_degraded", 1), c("serve.degraded", 1)], vec![])
            }
        };
        counters.push(c("events", 1));
        (counters, hists)
    }

    #[test]
    fn device_counters_read_as_if_every_event_were_named() {
        let (at, took) = (SimTime(5), SimDuration(3));
        let mut events = Vec::new();
        for i in 0..40u32 {
            let (m, cpu, n) = (MemDeviceId(i * 7 % 12), ComputeId(i * 5 % 11), NodeId(i % 5 * 3));
            // Zero-byte events still create their counters.
            let (bytes, t) = (u64::from(i % 4) * 100, u64::from(i));
            let lost = SimDuration(t * 10);
            events.extend([
                TraceEvent::Alloc { region: 1, dev: m, bytes, at },
                TraceEvent::Free { region: 1, dev: m, bytes, at },
                TraceEvent::Access { region: 1, dev: m, bytes, op: AccessOp::Read, at, took },
                TraceEvent::Migrate { region: 1, from: m, to: MemDeviceId(i % 3), bytes, at, took },
                TraceEvent::OwnershipTransfer { region: 1, from_task: 0, to_task: 1, bytes, at },
                TraceEvent::TaskQueued { job: 0, task: t, on: cpu, at },
                TraceEvent::TaskDispatch { job: 0, task: t, on: cpu, at, waited: lost },
                TraceEvent::TaskStart { job: 0, task: t, on: cpu, at },
                TraceEvent::TaskFinish { job: 0, task: t, on: cpu, at },
            ]);
            if i % 3 == 0 {
                events.extend([
                    TraceEvent::FaultDetected { job: 0, task: t, on: ComputeId(i % 2), at },
                    TraceEvent::TaskRetry { job: 0, task: t, from: cpu, to: cpu, attempt: 1, at, lost },
                    TraceEvent::Reconstruct { region: 1, dev: m, bytes, at, took, job: None, task: None },
                    TraceEvent::RequestTag { request: t, tenant: 0, job: 0, at },
                    TraceEvent::BreakerTrip { node: n, at },
                    TraceEvent::BreakerProbe { node: n, at },
                    TraceEvent::BreakerClose { node: n, at },
                    TraceEvent::RequestShed { request: t, tenant: 0, at },
                    TraceEvent::RequestDegraded { request: t, tenant: 0, at },
                ]);
            }
        }
        let mut r = MetricsRegistry::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        // Names given directly share the metrics `record` feeds, and
        // other names (a device id spelled with a leading zero too)
        // stay apart.
        for (name, by) in [("dev.mem1.bytes", 9), ("dev.mem01.bytes", 4), ("events", 2), ("custom", 0)] {
            r.incr(name, by);
            *counters.entry(name.to_string()).or_insert(0) += by;
        }
        for (name, v) in [("access_ns", 77), ("custom_ns", 5)] {
            r.observe(name, v);
            histograms.entry(name.to_string()).or_default().observe(v);
        }
        for e in &events {
            r.record(e);
            let (cs, hs) = named_metrics(e);
            for (k, v) in cs {
                *counters.entry(k).or_insert(0) += v;
            }
            for (k, v) in hs {
                histograms.entry(k.to_string()).or_default().observe(v);
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters, counters.clone().into_iter().collect::<Vec<_>>());
        let want: Vec<(String, HistogramSnapshot)> =
            histograms.iter().map(|(k, h)| (k.clone(), HistogramSnapshot::of(h))).collect();
        assert_eq!(snap.histograms, want);
        for (k, v) in &counters {
            assert_eq!(r.counter(k), *v, "{k}");
        }
        for (k, h) in &histograms {
            assert_eq!(r.histogram(k), Some(h), "{k}");
        }
        assert_eq!(r.counter("dev.mem99.bytes"), 0);
        assert_eq!(r.histogram("reconstruct_ns").unwrap().count, 14);
        assert!(r.histogram("missing").is_none());
    }
}
