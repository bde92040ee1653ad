//! The discrete-event, out-of-order executor — sharded.
//!
//! [`run_wave`] drives one admission wave of jobs through virtual time
//! as a proper event simulation instead of a serial drain:
//!
//! - an **event heap** keyed on [`SimTime`] orders everything that can
//!   change executor state: a job arriving, a dataflow edge being
//!   satisfied (output handed over / transfer complete), a compute lane
//!   freeing up;
//! - **dependency counting** over [`disagg_dataflow::graph::Dag`]
//!   in-degrees moves a task into its assigned device's **ready queue**
//!   the instant its last incoming edge is satisfied;
//! - each compute device **dispatches** queued tasks into free lanes
//!   according to the configured
//!   [`QueuePolicy`](disagg_sched::schedule::QueuePolicy) (the
//!   scheduler's cost model feeds the default rank order);
//! - compute and region transfer **overlap**: a producer's successors
//!   are unblocked by per-edge events (pipelined early for streaming
//!   pairs), so independent DAG branches advance concurrently on
//!   different devices while transfers are still in flight elsewhere.
//!
//! # Sharding: conservative virtual-time windows
//!
//! With [`RuntimeConfig::shards`](crate::RuntimeConfig) > 1 the
//! topology is partitioned along node boundaries
//! ([`ShardMap::partition`]) and the single event heap becomes one heap
//! **per shard**, each owning its shard's ready queues, lane tables,
//! and deferred exits. The loop then alternates two phases:
//!
//! - **Stage** (parallel): every shard pops its own heap for events in
//!   the window `[T, T + lookahead)`, where `T` is the global minimum
//!   pending time and the lookahead is the cheapest cross-shard link
//!   latency — no cross-shard effect can land sooner, so the pops are
//!   causally independent and run under [`std::thread::scope`] when
//!   the backlog is worth it.
//! - **Commit** (serial): the coordinator repeatedly takes the global
//!   minimum `(time, seq)` across all staged fronts and heap heads and
//!   applies that one event against the shared runtime state. Events
//!   a commit emits for *other* shards land in per-destination
//!   mailboxes and are flushed into the target heaps between commits.
//!
//! Every event carries a sequence number from one wave-global counter,
//! so the union of the shard heaps is totally ordered exactly like the
//! old single heap — commits happen in the identical order at any
//! shard count, making reports, traces, and metrics **bit-for-bit
//! identical** whether the wave runs on 1 shard or 8 (pinned by
//! `tests/equivalence.rs`). Sharding changes how the simulation is
//! *driven*, never what it computes.
//!
//! Determinism: the heap breaks time ties by the monotone sequence
//! number, queue pops break policy ties by (queue time, job, task), and
//! the bandwidth ledger is charged in event order — two runs of the
//! same submission produce identical reports.
//!
//! # Hot-path layout
//!
//! Per-task state is kept in dense arenas indexed by a one-time global
//! task numbering (`task_base[ji] + task.index()`), not `(job, task)`
//! hash maps: dependency counts, pending inputs, and start/finish times
//! are all O(1) array hits. Ready queues are binary heaps whose key
//! *is* the dispatch policy (see [`task::QueueEntry`]). Deferred task
//! exits live in per-shard min-heaps ordered by `(finish, seq)` with a
//! wave-global seq, merged on drain — the same order the old single
//! heap produced, without ever re-sorting inside the event loop.

mod shard;
mod task;

use std::cmp::Reverse;

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_dataflow::task::TaskId;
use disagg_hwsim::contention::ResourceKey;
use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::shard::ShardMap;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::trace::TraceEvent;
use disagg_obs::sharded::{ShardLanes, Stamped};
use disagg_region::pool::RegionId;
use disagg_region::region::OwnerId;
use disagg_region::typed::RegionType;
use disagg_sched::schedule::{Schedule, Scheduler};
use disagg_sched::shard::ShardTables;

use crate::error::DisaggError;
use crate::report::{DeviceSummary, RunReport};
use crate::runtime::Runtime;

use shard::{flush_exits, ShardState};
use task::{enqueue, service};

/// Minimum total heap backlog before window staging fans out to OS
/// threads; below this the spawn overhead outweighs the pop work and
/// staging runs inline.
const PAR_STAGE_THRESHOLD: usize = 256;

/// What can happen at an instant of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A task with no (remaining) prerequisites becomes ready: sources
    /// fire this at their job's arrival time.
    Ready { ji: usize, task: TaskId },
    /// One incoming dataflow edge of a task was satisfied (the
    /// producer's output is transferred/copied and addressable).
    EdgeDone { ji: usize, task: TaskId },
    /// A lane on a compute device became free.
    LaneFree { compute: ComputeId },
}

/// Mutable per-wave state threaded through the event loop.
pub(crate) struct Wave {
    pub job_ids: Vec<JobId>,
    pub schedule: Schedule,
    /// Per-shard event loops (one when sharding is off).
    pub shards: Vec<ShardState>,
    /// The topology partition this wave runs on.
    pub map: ShardMap,
    /// Dense task → shard routing derived from the schedule.
    pub tables: ShardTables,
    /// The shard whose event is being committed right now; events it
    /// emits for itself go straight to its heap, events for peers go
    /// through its outboxes.
    pub current: usize,
    /// Outstanding (unflushed) cross-shard mailbox entries.
    pub pending_mail: usize,
    /// Wave-global event sequence: assigned at push time, totally
    /// ordering the union of all shard heaps.
    pub seq: u64,
    /// Global task numbering: task `(ji, t)` owns arena slot
    /// `task_base[ji] + t.index()`.
    pub task_base: Vec<usize>,
    /// Unsatisfied incoming-edge counts, indexed by global task number.
    pub deps_left: Vec<u32>,
    /// Wave-global exit sequence (same trick as `seq`: the merged
    /// per-shard exit drain reproduces the old single heap's order).
    pub exit_seq: u64,
    /// Reusable merge buffers for the cross-shard exit drain.
    pub exit_lanes: ShardLanes<OwnerId>,
    pub exit_scratch: Vec<Stamped<OwnerId>>,
    /// Handed-over input regions awaiting each consumer (global task
    /// number).
    pub inputs: Vec<Vec<RegionId>>,
    pub start_at: Vec<SimTime>,
    pub finish_at: Vec<SimTime>,
    /// Job-scoped published-region maps (user-facing string keys).
    pub published: Vec<FxHashMap<String, RegionId>>,
    pub global_state: Vec<Option<RegionId>>,
    /// Per-job tenant identity from the submission's request tags —
    /// what the retry-budget buckets are keyed on.
    pub tenants: Vec<Option<u64>>,
    /// Jobs declared failed under fail-fast isolation: their remaining
    /// events are committed as no-ops instead of erroring the wave.
    pub failed: Vec<bool>,
    /// Per-task completion flags (global task numbering), so a fail-fast
    /// knows which of the job's tasks it is cancelling.
    pub ran: Vec<bool>,
    /// Tasks cancelled by fail-fast isolation, for the end-of-wave
    /// drain accounting.
    pub failed_tasks: usize,
    /// Events committed (the loop's unit of work); identical at every
    /// shard count.
    pub events: u64,
    pub report: RunReport,
}

impl Wave {
    /// The shard that owns an event: task events go to the planned
    /// compute's shard (a fault reroute may *execute* elsewhere — that
    /// only moves which heap holds the event, never the commit order),
    /// lane events to the lane's device's shard.
    fn route(&self, kind: EventKind) -> usize {
        match kind {
            EventKind::Ready { ji, task } | EventKind::EdgeDone { ji, task } => self
                .tables
                .shard_of(self.job_ids[ji], task)
                .unwrap_or(0),
            EventKind::LaneFree { compute } => self.map.shard_of_compute(compute),
        }
    }

    /// Emits an event from the currently-committing shard: own-shard
    /// events go straight onto the heap, cross-shard events into the
    /// destination's mailbox (flushed before the next commit; heap
    /// order restores the total order, so flush order is irrelevant).
    pub(crate) fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let dst = self.route(kind);
        let e = (at, self.seq, kind);
        self.seq += 1;
        if dst == self.current {
            self.shards[dst].heap.push(Reverse(e));
        } else {
            self.shards[self.current].outboxes[dst].push_back(e);
            self.pending_mail += 1;
        }
    }

    /// Seeds an event before the loop starts (no committing shard yet):
    /// straight onto the owning shard's heap.
    fn seed_event(&mut self, at: SimTime, kind: EventKind) {
        let dst = self.route(kind);
        self.shards[dst].heap.push(Reverse((at, self.seq, kind)));
        self.seq += 1;
    }

    /// Drains every outbox into its destination heap.
    fn flush_mail(&mut self) {
        if self.pending_mail == 0 {
            return;
        }
        for s in 0..self.shards.len() {
            for d in 0..self.shards.len() {
                if d == s || self.shards[s].outboxes[d].is_empty() {
                    continue;
                }
                // Swap the mailbox out to sidestep the double borrow,
                // then back in so its allocation is reused.
                let mut mail = std::mem::take(&mut self.shards[s].outboxes[d]);
                for e in mail.drain(..) {
                    self.shards[d].heap.push(Reverse(e));
                }
                self.shards[s].outboxes[d] = mail;
            }
        }
        self.pending_mail = 0;
    }

    /// Global arena slot of a task.
    pub(crate) fn gx(&self, ji: usize, task: TaskId) -> usize {
        self.task_base[ji] + task.index()
    }

    /// Defers a task's exit to the shard owning the device it finished
    /// on, stamped with the wave-global exit sequence.
    pub(crate) fn defer_exit(&mut self, finish: SimTime, who: OwnerId, compute: ComputeId) {
        let s = self.map.shard_of_compute(compute);
        self.shards[s]
            .pending_exits
            .push(Reverse((finish, self.exit_seq, who)));
        self.exit_seq += 1;
    }
}

/// Applies one event against the shared runtime state. Called serially,
/// in global `(time, seq)` order, regardless of shard count.
fn commit(
    rt: &mut Runtime,
    w: &mut Wave,
    jobs: &[JobSpec],
    at: SimTime,
    kind: EventKind,
) -> Result<(), DisaggError> {
    w.events += 1;
    match kind {
        // Events addressed to a fail-fast-isolated job are spent as
        // no-ops: the wave keeps draining, the job stays cancelled.
        EventKind::Ready { ji, task } => {
            if w.failed[ji] {
                return Ok(());
            }
            enqueue(rt, w, jobs, ji, task, at)
        }
        EventKind::EdgeDone { ji, task } => {
            if w.failed[ji] {
                return Ok(());
            }
            let g = w.gx(ji, task);
            w.deps_left[g] -= 1;
            if w.deps_left[g] == 0 {
                enqueue(rt, w, jobs, ji, task, at)
            } else {
                Ok(())
            }
        }
        EventKind::LaneFree { compute } => service(rt, w, jobs, compute, at),
    }
}

/// Cores the host actually has. On a single-core host fanning staging
/// out to threads is pure spawn overhead, so the loop stays inline.
fn host_threads() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Stages the current window on every shard — in parallel when the
/// host has cores to spare and the backlog justifies the thread
/// spawns, inline otherwise. Staging only touches each shard's own
/// heap, so the parallel arm shares nothing.
fn stage_all(shards: &mut [ShardState], window_end: Option<SimTime>) {
    let backlog: usize = shards.iter().map(|s| s.heap.len()).sum();
    if backlog >= PAR_STAGE_THRESHOLD && host_threads() > 1 {
        std::thread::scope(|scope| {
            for sh in shards.iter_mut() {
                scope.spawn(move || sh.stage(window_end));
            }
        });
    } else {
        for sh in shards.iter_mut() {
            sh.stage(window_end);
        }
    }
}

/// Runs one admission wave (the whole batch when admission is off).
/// `offsets` are per-job arrival delays relative to the wave start;
/// `tags` are optional per-job `(request, tenant)` identities stamped
/// into the trace at arrival for request-centric attribution.
pub(crate) fn run_wave(
    rt: &mut Runtime,
    jobs: Vec<JobSpec>,
    offsets: Vec<SimDuration>,
    tags: Vec<Option<(u64, u64)>>,
) -> Result<RunReport, DisaggError> {
    let t0 = rt.clock;
    let trace_mark = rt.trace.len();
    // Report only this run's audit findings, not the runtime's whole
    // history.
    let audit_mark = rt.auditor.violations.len();
    let denial_mark = rt.auditor.denials;
    let copied_mark = rt.mgr.pool().bytes_copied();
    let moved_mark = rt.trace.bytes_moved();
    let transferred_mark = rt.trace.bytes_transferred_by_ownership();
    let job_ids: Vec<JobId> = jobs
        .iter()
        .map(|_| {
            let id = JobId(rt.next_job);
            rt.next_job += 1;
            id
        })
        .collect();
    let pairs: Vec<(JobId, &JobSpec)> = job_ids.iter().copied().zip(jobs.iter()).collect();
    let schedule = Scheduler::new(rt.config.sched).plan(&rt.topo, &pairs)?;

    // Job-wide global state, placed where every assigned device can
    // address it.
    let mut global_state: Vec<Option<RegionId>> = vec![None; jobs.len()];
    for (ji, (&jid, spec)) in job_ids.iter().zip(jobs.iter()).enumerate() {
        if spec.global_state_bytes == 0 {
            continue;
        }
        let mut computes: Vec<ComputeId> = (0..spec.tasks.len())
            .filter_map(|t| schedule.assignment(jid, TaskId(t as u32)))
            .collect();
        computes.dedup();
        let props = RegionType::GlobalState.properties();
        let dev = rt
            .engine
            .choose_shared(&rt.topo, rt.mgr.pool(), &computes, &props, spec.global_state_bytes)
            .ok_or(DisaggError::Placement {
                job: jid,
                task: TaskId(0),
                what: "global state",
            })?;
        let id = rt.mgr.alloc(
            dev,
            spec.global_state_bytes,
            RegionType::GlobalState,
            props.clone(),
            OwnerId::Job(jid.0),
            t0,
        )?;
        rt.auditor
            .check_placement(&rt.topo, computes[0], id, dev, &props);
        rt.trace.push(TraceEvent::Alloc {
            region: id.0,
            dev,
            bytes: spec.global_state_bytes,
            at: t0,
        });
        global_state[ji] = Some(id);
    }

    // One-time global task numbering: per-job offsets into flat arenas.
    let mut task_base = Vec::with_capacity(jobs.len());
    let mut total_tasks = 0usize;
    for spec in &jobs {
        task_base.push(total_tasks);
        total_tasks += spec.tasks.len();
    }
    let mut deps_left = Vec::with_capacity(total_tasks);
    for spec in &jobs {
        deps_left.extend(spec.dag.indegrees().into_iter().map(|d| d as u32));
    }

    let map = rt.shard_map.clone();
    let tables = ShardTables::build(&schedule, &map);
    let shards: Vec<ShardState> = (0..map.shards())
        .map(|s| ShardState::new(&map, s, &rt.topo, t0))
        .collect();
    let n_shards = shards.len();

    let mut w = Wave {
        job_ids,
        schedule,
        shards,
        map,
        tables,
        current: 0,
        pending_mail: 0,
        seq: 0,
        task_base,
        deps_left,
        exit_seq: 0,
        exit_lanes: ShardLanes::new(n_shards),
        exit_scratch: Vec::new(),
        inputs: vec![Vec::new(); total_tasks],
        start_at: vec![SimTime::ZERO; total_tasks],
        finish_at: vec![SimTime::ZERO; total_tasks],
        published: jobs.iter().map(|_| FxHashMap::default()).collect(),
        global_state,
        tenants: tags.iter().map(|t| t.map(|(_, tenant)| tenant)).collect(),
        failed: vec![false; jobs.len()],
        ran: vec![false; total_tasks],
        failed_tasks: 0,
        events: 0,
        report: RunReport::default(),
    };

    // Seed the frontier: source tasks become ready when their job
    // arrives. Request-tagged jobs stamp their identity into the trace
    // here — serially, before any event commits, so the tag block is
    // bit-for-bit identical at every shard count.
    for (ji, spec) in jobs.iter().enumerate() {
        let arrival = t0 + offsets[ji];
        if let Some(&Some((request, tenant))) = tags.get(ji) {
            rt.trace.push(TraceEvent::RequestTag {
                request,
                tenant,
                job: w.job_ids[ji].0,
                at: arrival,
            });
        }
        for task in spec.dag.frontier() {
            w.seed_event(arrival, EventKind::Ready { ji, task });
        }
    }

    if n_shards == 1 {
        // Fast path: one shard is the classic single-heap loop — no
        // windows, no staging, no mailboxes.
        while let Some(Reverse((at, _, kind))) = w.shards[0].heap.pop() {
            commit(rt, &mut w, &jobs, at, kind)?;
        }
    } else {
        let lookahead = w.map.lookahead();
        loop {
            w.flush_mail();
            let Some(t_min) = w.shards.iter().filter_map(ShardState::next_time).min() else {
                break;
            };
            // Conservative window: nothing committed at or after t_min
            // can affect another shard before t_min + lookahead, so
            // each shard may pop its own backlog below that bound
            // independently. Unbounded when nothing crosses shards.
            let window_end = lookahead.map(|la| t_min + la);
            stage_all(&mut w.shards, window_end);

            // Commit serially in global (time, seq) order, considering
            // both staged fronts and heap heads (commits emit new
            // events, possibly inside the current window).
            loop {
                w.flush_mail();
                let mut best: Option<(SimTime, u64, usize, bool)> = None;
                let mut any_staged = false;
                for (si, sh) in w.shards.iter().enumerate() {
                    if let Some(&(t, seq, _)) = sh.staged.get(sh.cursor) {
                        any_staged = true;
                        if best.is_none_or(|(bt, bs, _, _)| (t, seq) < (bt, bs)) {
                            best = Some((t, seq, si, true));
                        }
                    }
                    if let Some(&Reverse((t, seq, _))) = sh.heap.peek() {
                        if best.is_none_or(|(bt, bs, _, _)| (t, seq) < (bt, bs)) {
                            best = Some((t, seq, si, false));
                        }
                    }
                }
                let Some((_, _, si, from_staged)) = best else {
                    break;
                };
                if !from_staged && !any_staged {
                    // Window exhausted and the next event sits in a
                    // heap: re-window so its shard's peers can stage
                    // their (possibly earlier-than-lookahead) backlog
                    // around it first.
                    break;
                }
                let (at, _, kind) = if from_staged {
                    let sh = &mut w.shards[si];
                    let e = sh.staged[sh.cursor];
                    sh.cursor += 1;
                    e
                } else {
                    let Reverse(e) = w.shards[si].heap.pop().expect("peeked above");
                    e
                };
                w.current = si;
                commit(rt, &mut w, &jobs, at, kind)?;
            }
        }
    }
    assert_eq!(
        w.report.tasks.len() + w.failed_tasks,
        total_tasks,
        "event heap drained with tasks unrun; DAG validation should prevent this"
    );

    // End of wave: flush the remaining task exits in merged time order,
    // then release job-scoped regions; App-scoped (persistent) regions
    // survive.
    flush_exits(rt, &mut w.shards, &mut w.exit_lanes, &mut w.exit_scratch, None);
    for &jid in &w.job_ids {
        let _ = rt.mgr.release_all(OwnerId::Job(jid.0));
    }

    // Feed the wave's accesses into the hotness tracker (one decay tick
    // per wave so old heat fades).
    rt.hotness.decay();
    for e in &rt.trace.events()[trace_mark..] {
        match *e {
            TraceEvent::Access { region, bytes, at, .. } => {
                rt.hotness.record(RegionId(region), bytes, at);
            }
            TraceEvent::Free { region, .. } => {
                rt.hotness.forget(RegionId(region));
            }
            _ => {}
        }
    }

    let end = w.finish_at.iter().copied().fold(t0, SimTime::max);
    rt.clock = end;
    let mut report = w.report;
    report.events = w.events;
    report.makespan = end - t0;
    report.bytes_moved = rt.trace.bytes_moved() - moved_mark;
    report.bytes_ownership_transferred =
        rt.trace.bytes_transferred_by_ownership() - transferred_mark;
    report.host_bytes_copied = rt.mgr.pool().bytes_copied() - copied_mark;
    report.placements = std::mem::take(&mut rt.engine.decisions);
    report.violations = rt.auditor.violations[audit_mark..].to_vec();
    report.denials = rt.auditor.denials - denial_mark;
    report.devices = rt
        .topo
        .mem_ids()
        .map(|dev| DeviceSummary {
            dev,
            peak_bytes: rt.mgr.pool().peak(dev),
            capacity: rt.mgr.pool().capacity(dev),
            bytes_transferred: rt.ledger.stats(ResourceKey::Mem(dev)).bytes.round() as u64,
        })
        .collect();
    report.tasks.sort_by_key(|t| (t.finish, t.job, t.task));
    // The DAG the wave honored, for critical-path analysis.
    for (ji, spec) in jobs.iter().enumerate() {
        let jid = w.job_ids[ji];
        for ti in 0..spec.dag.len() {
            let task = TaskId(ti as u32);
            for &succ in spec.dag.successors(task) {
                report.edges.push((jid, task, succ));
            }
        }
    }
    report.metrics = rt.config.observer.metrics();
    Ok(report)
}
