//! Structured event tracing.
//!
//! The benchmark harness regenerates the paper's tables from what actually
//! happened during a run: which devices served which regions, how many
//! bytes moved physically versus how many handovers were pure ownership
//! transfers, when tasks started and finished. The [`Trace`] collects those
//! events. Job/task identifiers are plain integers here because the
//! dataflow layer sits above this crate.

use crate::device::AccessOp;
use crate::ids::{ComputeId, MemDeviceId, NodeId};
use crate::time::{SimDuration, SimTime};

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A region was allocated on a device.
    Alloc {
        /// Region identifier (assigned by the memory pool).
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Region size in bytes.
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// A region was freed.
    Free {
        /// Region identifier.
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Region size in bytes.
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// A memory access completed.
    Access {
        /// The accessed region.
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Bytes logically accessed.
        bytes: u64,
        /// Read or write.
        op: AccessOp,
        /// When the access was issued.
        at: SimTime,
        /// How long it took (after contention).
        took: SimDuration,
    },
    /// A region migrated between devices (physical copy).
    Migrate {
        /// Region identifier.
        region: u64,
        /// Source device.
        from: MemDeviceId,
        /// Destination device.
        to: MemDeviceId,
        /// Bytes copied.
        bytes: u64,
        /// When.
        at: SimTime,
        /// How long the copy took.
        took: SimDuration,
    },
    /// A region's ownership moved between tasks without a physical copy.
    OwnershipTransfer {
        /// Region identifier.
        region: u64,
        /// Handing-over task (job-local index).
        from_task: u64,
        /// Receiving task (job-local index).
        to_task: u64,
        /// Region size (bytes that did *not* need to move).
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// A task began executing.
    TaskStart {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// Where it runs.
        on: ComputeId,
        /// When.
        at: SimTime,
    },
    /// A task finished.
    TaskFinish {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// Where it ran.
        on: ComputeId,
        /// When.
        at: SimTime,
    },
    /// A task's dependencies were all satisfied and it entered a
    /// compute device's ready queue.
    TaskQueued {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// The device whose queue it joined.
        on: ComputeId,
        /// When it became ready.
        at: SimTime,
    },
    /// A queued task was picked by the dispatcher and occupied a lane.
    TaskDispatch {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// The dispatching device.
        on: ComputeId,
        /// Dispatch time.
        at: SimTime,
        /// Time spent waiting in the ready queue.
        waited: SimDuration,
    },
    /// The recovery layer noticed a fault that interrupted a running
    /// task (emitted at detection time, i.e. fault time + detection
    /// delay — not at the instant the fault struck).
    FaultDetected {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// The device the interrupted attempt was running on.
        on: ComputeId,
        /// Detection time.
        at: SimTime,
    },
    /// A task attempt was abandoned and the task re-placed elsewhere
    /// (crash retry or straggler speculation).
    TaskRetry {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// Device of the abandoned attempt.
        from: ComputeId,
        /// Device of the new attempt.
        to: ComputeId,
        /// Retry number (1 = first retry).
        attempt: u64,
        /// When the new attempt was launched.
        at: SimTime,
        /// Virtual time burned on the abandoned attempt (including
        /// detection delay and backoff).
        lost: SimDuration,
    },
    /// Lost or corrupted region bytes were transparently rebuilt from
    /// redundancy (replica copy or Reed-Solomon decode).
    Reconstruct {
        /// Region identifier.
        region: u64,
        /// Device the reconstructed bytes were served from / written to.
        dev: MemDeviceId,
        /// Bytes reconstructed.
        bytes: u64,
        /// When reconstruction started.
        at: SimTime,
        /// Simulated transfer + decode cost.
        took: SimDuration,
        /// Job of the task whose access triggered the rebuild (`None`
        /// when the rebuild ran outside any task, e.g. post-wave heal).
        job: Option<u64>,
        /// Task index of the triggering task, if any.
        task: Option<u64>,
    },
    /// A circuit breaker opened: enough `FaultDetected` strikes landed
    /// on one node that placement stops offering it candidates until the
    /// cool-down elapses. Emitted serially from the commit path, so the
    /// transition order is deterministic at every shard count.
    BreakerTrip {
        /// The node the breaker guards.
        node: NodeId,
        /// When the breaker opened.
        at: SimTime,
    },
    /// An open breaker's cool-down elapsed and one probe task was
    /// admitted onto the node (half-open state).
    BreakerProbe {
        /// The node the breaker guards.
        node: NodeId,
        /// When the probe was admitted.
        at: SimTime,
    },
    /// A half-open breaker's probe task finished cleanly and the breaker
    /// closed; the node is back in the candidate set.
    BreakerClose {
        /// The node the breaker guards.
        node: NodeId,
        /// When the breaker closed.
        at: SimTime,
    },
    /// The serving control plane shed a request at admission because its
    /// deadline (arrival + calibrated service estimate under the current
    /// queue depth) could not be met. Distinct from quota rejection.
    RequestShed {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Arrival time of the shed request.
        at: SimTime,
    },
    /// The serving control plane instantiated a request from its
    /// tenant's *degraded* template (brownout mode) instead of the
    /// normal one.
    RequestDegraded {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Arrival time of the degraded request.
        at: SimTime,
    },
    /// A served request's identity, stamped once per job at submission
    /// time so every later `job`-carrying event in the same trace can be
    /// attributed back to the request (and tenant) that caused it.
    /// Emitted only for request-annotated submissions: plain batch runs
    /// never see it, so their traces are unchanged.
    RequestTag {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// The job instantiated for the request.
        job: u64,
        /// The job's arrival time.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Alloc { at, .. }
            | TraceEvent::Free { at, .. }
            | TraceEvent::Access { at, .. }
            | TraceEvent::Migrate { at, .. }
            | TraceEvent::OwnershipTransfer { at, .. }
            | TraceEvent::TaskStart { at, .. }
            | TraceEvent::TaskFinish { at, .. }
            | TraceEvent::TaskQueued { at, .. }
            | TraceEvent::TaskDispatch { at, .. }
            | TraceEvent::FaultDetected { at, .. }
            | TraceEvent::TaskRetry { at, .. }
            | TraceEvent::Reconstruct { at, .. }
            | TraceEvent::BreakerTrip { at, .. }
            | TraceEvent::BreakerProbe { at, .. }
            | TraceEvent::BreakerClose { at, .. }
            | TraceEvent::RequestShed { at, .. }
            | TraceEvent::RequestDegraded { at, .. }
            | TraceEvent::RequestTag { at, .. } => at,
        }
    }
}

/// A streaming hook called once per event, at emission time, before the
/// event is (maybe) buffered. Observability layers above this crate
/// install one to see events as they happen instead of post-mortem.
pub type TraceTap = Box<dyn FnMut(&TraceEvent) + Send>;

/// An append-only event log with aggregate queries.
#[derive(Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    tap: Option<TraceTap>,
    /// Access and migration bytes of every pushed event, buffered or not.
    moved: u64,
    /// Ownership-transfer bytes of every pushed event, buffered or not.
    transferred: u64,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events)
            .field("enabled", &self.enabled)
            .field("tap", &self.tap.as_ref().map(|_| "..."))
            .field("moved", &self.moved)
            .field("transferred", &self.transferred)
            .finish()
    }
}

impl Trace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// A trace that drops everything (zero overhead for large runs).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Installs a streaming tap. The tap sees every pushed event even
    /// when buffering is disabled, so a streaming observer does not
    /// require paying for the in-memory event log.
    pub fn set_tap(&mut self, tap: TraceTap) {
        self.tap = Some(tap);
    }

    /// Removes the streaming tap, if any.
    pub fn clear_tap(&mut self) {
        self.tap = None;
    }

    /// True if a streaming tap is installed.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Records an event: counts its moved or transferred bytes, streams
    /// it to the tap (if installed), then buffers it (if enabled).
    pub fn push(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access { bytes, .. } | TraceEvent::Migrate { bytes, .. } => {
                self.moved += bytes;
            }
            TraceEvent::OwnershipTransfer { bytes, .. } => self.transferred += bytes,
            _ => {}
        }
        if let Some(tap) = &mut self.tap {
            tap(&event);
        }
        if self.enabled {
            self.events.push(event);
        }
    }

    /// All recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes physically moved (accesses + migrations) since the
    /// trace was made or last cleared, counted whether or not events are
    /// buffered.
    pub fn bytes_moved(&self) -> u64 {
        self.moved
    }

    /// Total bytes whose movement was *avoided* by ownership transfer
    /// since the trace was made or last cleared, counted whether or not
    /// events are buffered.
    pub fn bytes_transferred_by_ownership(&self) -> u64 {
        self.transferred
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Bytes accessed per device, as `(device, bytes)` pairs sorted by id.
    pub fn bytes_per_device(&self) -> Vec<(MemDeviceId, u64)> {
        let mut acc: std::collections::BTreeMap<MemDeviceId, u64> = Default::default();
        for e in &self.events {
            match *e {
                TraceEvent::Access { dev, bytes, .. } => *acc.entry(dev).or_default() += bytes,
                TraceEvent::Migrate { from, to, bytes, .. } => {
                    *acc.entry(from).or_default() += bytes;
                    *acc.entry(to).or_default() += bytes;
                }
                _ => {}
            }
        }
        acc.into_iter().collect()
    }

    /// Clears all events and the moved- and transferred-bytes counts.
    pub fn clear(&mut self) {
        self.events.clear();
        self.moved = 0;
        self.transferred = 0;
    }

    /// Renders the trace as CSV (`kind,at_ns,detail...`) for offline
    /// debugging — the paper's Challenge 8(1) asks how to debug across
    /// abstraction layers; the answer starts with being able to get the
    /// events out.
    pub fn to_csv(&self) -> String {
        // Request attribution pre-pass: `RequestTag` events map jobs to
        // the serving request that instantiated them, so every
        // job-carrying row can be grepped per request.
        let mut req_of_job: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in &self.events {
            if let TraceEvent::RequestTag { request, job, .. } = *e {
                req_of_job.insert(job, request);
            }
        }
        let req = |job: u64| req_of_job.get(&job).map(|r| r.to_string()).unwrap_or_default();
        let mut out = String::from(
            "kind,at_ns,took_ns,region,dev_from,dev_to,bytes,job,task,from_task,to_task,op,request\n",
        );
        for e in &self.events {
            let request = match *e {
                TraceEvent::TaskStart { job, .. }
                | TraceEvent::TaskFinish { job, .. }
                | TraceEvent::TaskQueued { job, .. }
                | TraceEvent::TaskDispatch { job, .. }
                | TraceEvent::FaultDetected { job, .. }
                | TraceEvent::TaskRetry { job, .. }
                | TraceEvent::Reconstruct { job: Some(job), .. } => req(job),
                TraceEvent::RequestTag { request, .. }
                | TraceEvent::RequestShed { request, .. }
                | TraceEvent::RequestDegraded { request, .. } => request.to_string(),
                _ => String::new(),
            };
            let line = match *e {
                TraceEvent::Alloc { region, dev, bytes, at } => {
                    format!("alloc,{},,{region},{},,{bytes},,,,,", at.as_nanos(), dev.0)
                }
                TraceEvent::Free { region, dev, bytes, at } => {
                    format!("free,{},,{region},{},,{bytes},,,,,", at.as_nanos(), dev.0)
                }
                TraceEvent::Access { region, dev, bytes, op, at, took } => {
                    let opn = match op {
                        AccessOp::Read => "read",
                        AccessOp::Write => "write",
                    };
                    format!(
                        "access,{},{},{region},{},,{bytes},,,,,{opn}",
                        at.as_nanos(),
                        took.as_nanos(),
                        dev.0
                    )
                }
                TraceEvent::Migrate { region, from, to, bytes, at, took } => {
                    format!(
                        "migrate,{},{},{region},{},{},{bytes},,,,,",
                        at.as_nanos(),
                        took.as_nanos(),
                        from.0,
                        to.0
                    )
                }
                TraceEvent::OwnershipTransfer { region, from_task, to_task, bytes, at } => {
                    format!(
                        "transfer,{},,{region},,,{bytes},,,{from_task},{to_task},",
                        at.as_nanos()
                    )
                }
                TraceEvent::TaskStart { job, task, on, at } => {
                    format!("task_start,{},,,{},,,{job},{task},,,", at.as_nanos(), on.0)
                }
                TraceEvent::TaskFinish { job, task, on, at } => {
                    format!("task_finish,{},,,{},,,{job},{task},,,", at.as_nanos(), on.0)
                }
                TraceEvent::TaskQueued { job, task, on, at } => {
                    format!("task_queued,{},,,{},,,{job},{task},,,", at.as_nanos(), on.0)
                }
                TraceEvent::TaskDispatch { job, task, on, at, waited } => {
                    format!(
                        "task_dispatch,{},{},,{},,,{job},{task},,,",
                        at.as_nanos(),
                        waited.as_nanos(),
                        on.0
                    )
                }
                TraceEvent::FaultDetected { job, task, on, at } => {
                    format!("fault_detected,{},,,{},,,{job},{task},,,", at.as_nanos(), on.0)
                }
                TraceEvent::TaskRetry { job, task, from, to, attempt, at, lost } => {
                    format!(
                        "task_retry,{},{},,{},{},,{job},{task},,,attempt{attempt}",
                        at.as_nanos(),
                        lost.as_nanos(),
                        from.0,
                        to.0
                    )
                }
                TraceEvent::Reconstruct { region, dev, bytes, at, took, job, task } => {
                    format!(
                        "reconstruct,{},{},{region},{},,{bytes},{},{},,,",
                        at.as_nanos(),
                        took.as_nanos(),
                        dev.0,
                        job.map(|j| j.to_string()).unwrap_or_default(),
                        task.map(|t| t.to_string()).unwrap_or_default()
                    )
                }
                TraceEvent::BreakerTrip { node, at } => {
                    format!("breaker_trip,{},,,,,,,,,,node{}", at.as_nanos(), node.0)
                }
                TraceEvent::BreakerProbe { node, at } => {
                    format!("breaker_probe,{},,,,,,,,,,node{}", at.as_nanos(), node.0)
                }
                TraceEvent::BreakerClose { node, at } => {
                    format!("breaker_close,{},,,,,,,,,,node{}", at.as_nanos(), node.0)
                }
                TraceEvent::RequestShed { request: _, tenant, at } => {
                    format!("request_shed,{},,,,,,,,,,tenant{tenant}", at.as_nanos())
                }
                TraceEvent::RequestDegraded { request: _, tenant, at } => {
                    format!("request_degraded,{},,,,,,,,,,tenant{tenant}", at.as_nanos())
                }
                TraceEvent::RequestTag { request: _, tenant, job, at } => {
                    format!("request_tag,{},,,,,,{job},,,,tenant{tenant}", at.as_nanos())
                }
            };
            out.push_str(&line);
            out.push(',');
            out.push_str(&request);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(dev: u32, bytes: u64) -> TraceEvent {
        TraceEvent::Access {
            region: 0,
            dev: MemDeviceId(dev),
            bytes,
            op: AccessOp::Read,
            at: SimTime(0),
            took: SimDuration(10),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(access(0, 64));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn bytes_moved_counts_whether_or_not_events_are_buffered() {
        for mut t in [Trace::enabled(), Trace::disabled()] {
            t.push(access(0, 64));
            t.push(TraceEvent::Migrate {
                region: 1,
                from: MemDeviceId(0),
                to: MemDeviceId(1),
                bytes: 50,
                at: SimTime(0),
                took: SimDuration(1),
            });
            t.push(TraceEvent::OwnershipTransfer {
                region: 2,
                from_task: 0,
                to_task: 1,
                bytes: 30,
                at: SimTime(0),
            });
            assert_eq!(t.bytes_moved(), 114);
            assert_eq!(t.bytes_transferred_by_ownership(), 30);
            t.clear();
            assert_eq!(t.bytes_moved(), 0);
            assert_eq!(t.bytes_transferred_by_ownership(), 0);
        }
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.push(access(0, 64));
        t.push(access(1, 128));
        assert_eq!(t.len(), 2);
        assert_eq!(t.bytes_moved(), 192);
    }

    #[test]
    fn ownership_transfers_tracked_separately_from_physical_moves() {
        let mut t = Trace::enabled();
        t.push(access(0, 100));
        t.push(TraceEvent::OwnershipTransfer {
            region: 1,
            from_task: 0,
            to_task: 1,
            bytes: 1_000,
            at: SimTime(5),
        });
        assert_eq!(t.bytes_moved(), 100);
        assert_eq!(t.bytes_transferred_by_ownership(), 1_000);
    }

    #[test]
    fn migrations_count_on_both_devices() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::Migrate {
            region: 1,
            from: MemDeviceId(0),
            to: MemDeviceId(1),
            bytes: 50,
            at: SimTime(0),
            took: SimDuration(1),
        });
        let per_dev = t.bytes_per_device();
        assert_eq!(per_dev, vec![(MemDeviceId(0), 50), (MemDeviceId(1), 50)]);
        assert_eq!(t.bytes_moved(), 50);
    }

    #[test]
    fn count_filters_events() {
        let mut t = Trace::enabled();
        t.push(access(0, 1));
        t.push(access(0, 1));
        t.push(TraceEvent::TaskStart {
            job: 0,
            task: 0,
            on: ComputeId(0),
            at: SimTime(0),
        });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Access { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::TaskStart { .. })), 1);
    }

    #[test]
    fn event_timestamps_accessible() {
        let e = access(0, 1);
        assert_eq!(e.at(), SimTime(0));
        let mut t = Trace::enabled();
        t.push(e);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn csv_export_covers_every_event_kind() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::RequestTag { request: 7, tenant: 2, job: 0, at: SimTime(0) });
        t.push(TraceEvent::Alloc { region: 1, dev: MemDeviceId(0), bytes: 64, at: SimTime(1) });
        t.push(access(0, 64));
        t.push(TraceEvent::Migrate {
            region: 1,
            from: MemDeviceId(0),
            to: MemDeviceId(1),
            bytes: 64,
            at: SimTime(2),
            took: SimDuration(3),
        });
        t.push(TraceEvent::OwnershipTransfer {
            region: 1,
            from_task: 0,
            to_task: 1,
            bytes: 64,
            at: SimTime(3),
        });
        t.push(TraceEvent::TaskQueued { job: 0, task: 1, on: ComputeId(0), at: SimTime(3) });
        t.push(TraceEvent::TaskDispatch {
            job: 0,
            task: 1,
            on: ComputeId(0),
            at: SimTime(4),
            waited: SimDuration(1),
        });
        t.push(TraceEvent::TaskStart { job: 0, task: 1, on: ComputeId(0), at: SimTime(4) });
        t.push(TraceEvent::FaultDetected { job: 0, task: 1, on: ComputeId(0), at: SimTime(4) });
        t.push(TraceEvent::TaskRetry {
            job: 0,
            task: 1,
            from: ComputeId(0),
            to: ComputeId(1),
            attempt: 1,
            at: SimTime(5),
            lost: SimDuration(2),
        });
        t.push(TraceEvent::Reconstruct {
            region: 1,
            dev: MemDeviceId(1),
            bytes: 64,
            at: SimTime(5),
            took: SimDuration(7),
            job: Some(0),
            task: Some(1),
        });
        t.push(TraceEvent::TaskFinish { job: 0, task: 1, on: ComputeId(0), at: SimTime(5) });
        t.push(TraceEvent::Free { region: 1, dev: MemDeviceId(1), bytes: 64, at: SimTime(6) });
        t.push(TraceEvent::BreakerTrip { node: NodeId(0), at: SimTime(6) });
        t.push(TraceEvent::BreakerProbe { node: NodeId(0), at: SimTime(7) });
        t.push(TraceEvent::BreakerClose { node: NodeId(0), at: SimTime(8) });
        t.push(TraceEvent::RequestShed { request: 9, tenant: 3, at: SimTime(8) });
        t.push(TraceEvent::RequestDegraded { request: 10, tenant: 3, at: SimTime(9) });
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 19, "header + 18 events");
        assert!(lines[0].starts_with("kind,at_ns"));
        for kind in [
            "request_tag",
            "alloc",
            "access",
            "migrate",
            "transfer",
            "task_queued",
            "task_dispatch",
            "task_start",
            "fault_detected",
            "task_retry",
            "reconstruct",
            "task_finish",
            "free",
            "breaker_trip",
            "breaker_probe",
            "breaker_close",
            "request_shed",
            "request_degraded",
        ] {
            assert!(csv.lines().any(|l| l.starts_with(kind)), "missing {kind}");
        }
        // Every row has the header's arity.
        let cols = lines[0].matches(',').count();
        for l in &lines[1..] {
            assert_eq!(l.matches(',').count(), cols, "bad row: {l}");
        }
        // Ownership transfers carry their endpoints in dedicated
        // columns, not stuffed into the task field.
        let header: Vec<&str> = lines[0].split(',').collect();
        let from_col = header.iter().position(|&h| h == "from_task").unwrap();
        let to_col = header.iter().position(|&h| h == "to_task").unwrap();
        let transfer = lines.iter().find(|l| l.starts_with("transfer")).unwrap();
        let fields: Vec<&str> = transfer.split(',').collect();
        assert_eq!(fields[from_col], "0");
        assert_eq!(fields[to_col], "1");
        assert!(!transfer.contains("->"), "no packed endpoints: {transfer}");
        // The request column resolves every job-0 row to request 7 via
        // the tag, including the reconstruct's owning task.
        let req_col = header.iter().position(|&h| h == "request").unwrap();
        for kind in ["task_start", "task_retry", "fault_detected", "reconstruct", "request_tag"] {
            let row = lines.iter().find(|l| l.starts_with(kind)).unwrap();
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields[req_col], "7", "{kind} row carries its owning request");
        }
        // Non-job rows leave the column empty.
        let alloc = lines.iter().find(|l| l.starts_with("alloc")).unwrap();
        assert_eq!(alloc.split(',').nth(req_col).unwrap(), "");
        // Shed/degraded requests carry their own request id; breaker
        // rows carry the node in the op column and no request.
        let shed = lines.iter().find(|l| l.starts_with("request_shed")).unwrap();
        assert_eq!(shed.split(',').nth(req_col).unwrap(), "9");
        let trip = lines.iter().find(|l| l.starts_with("breaker_trip")).unwrap();
        assert!(trip.contains("node0"), "breaker row names its node: {trip}");
        assert_eq!(trip.split(',').nth(req_col).unwrap(), "");
    }

    #[test]
    fn tap_streams_every_event_even_when_buffering_is_off() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicUsize::new(0));
        for (mut t, buffered) in [(Trace::enabled(), 2), (Trace::disabled(), 0)] {
            let n = seen.clone();
            t.set_tap(Box::new(move |_| {
                n.fetch_add(1, Ordering::Relaxed);
            }));
            assert!(t.has_tap());
            t.push(access(0, 64));
            t.push(access(1, 64));
            assert_eq!(t.len(), buffered);
            t.clear_tap();
            t.push(access(0, 64)); // not streamed
            assert!(!t.has_tap());
        }
        assert_eq!(seen.load(Ordering::Relaxed), 4, "2 taps x 2 pushes");
    }
}
