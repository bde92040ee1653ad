//! Resource-aware DAG scheduling over heterogeneous compute devices.
//!
//! The RTS "must also schedule and map tasks to different types of devices
//! using cost models that consider topology and access paths ... to
//! optimize for concurrently running jobs". The [`Scheduler`] implements
//! HEFT-style list scheduling: tasks are ranked by their upward rank
//! (critical path to a sink, including estimated communication), then
//! greedily assigned to the compute device minimizing their earliest
//! finish time, honoring per-device parallelism (`slots`) and hard
//! compute-class requirements. A round-robin baseline is included for the
//! ablation experiments.

use disagg_hwsim::ids::ComputeId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;

use disagg_dataflow::job::{JobId, JobSpec};
use disagg_dataflow::task::{ComputePref, TaskId};

/// Scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// HEFT-style list scheduling (the real scheduler).
    #[default]
    Heft,
    /// Round-robin over eligible devices in topological order (baseline).
    RoundRobin,
}

/// How a per-device ready queue admits tasks into free lanes.
///
/// The schedule's device *assignment* stays authoritative, but under
/// out-of-order execution several assigned tasks can be ready on the
/// same device at once; the queue policy decides which one a freed
/// lane dispatches next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Highest upward rank first: the cost model's critical-path
    /// estimate orders dispatch, so list-scheduling priorities carry
    /// through to execution (the HEFT-consistent default).
    #[default]
    CostRank,
    /// Queue-arrival order (breaks ties by job then task id).
    Fifo,
    /// Shortest estimated duration first (maximizes lane turnover,
    /// risks starving long tasks).
    ShortestFirst,
}

/// One scheduled task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEntry {
    /// The job.
    pub job: JobId,
    /// The task within the job.
    pub task: TaskId,
    /// Assigned compute device.
    pub compute: ComputeId,
    /// Estimated start time.
    pub est_start: SimTime,
    /// Estimated finish time.
    pub est_finish: SimTime,
    /// Upward rank (estimated critical path to a sink, ns). Feeds
    /// [`QueuePolicy::CostRank`] dispatch ordering; 0 under policies
    /// that do not rank (round-robin).
    pub rank: f64,
}

impl ScheduleEntry {
    /// The cost model's estimated duration for this placement.
    pub fn est_duration(&self) -> SimDuration {
        self.est_finish - self.est_start
    }
}

/// Sentinel for "no entry" in the dense lookup table.
const NO_ENTRY: u32 = u32::MAX;

/// A complete schedule for a set of jobs.
///
/// Lookups are hot — the executor resolves every dispatch decision
/// through [`Schedule::entry`] — so instead of a `(JobId, TaskId)` hash
/// map the schedule keeps an indexed slice: job ids within one plan are
/// clustered (the runtime issues them consecutively per wave), so
/// `index[job - base_job][task]` resolves a rank/assignment lookup with
/// two array indexes.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Entries in estimated execution order.
    pub entries: Vec<ScheduleEntry>,
    /// Lowest job id in the plan; row 0 of `index` belongs to it.
    base_job: u64,
    /// `index[job - base_job][task]` → entry position ([`NO_ENTRY`] if absent).
    index: Vec<Vec<u32>>,
}

impl Schedule {
    fn slot(&self, job: JobId, task: TaskId) -> Option<usize> {
        let row = job.0.checked_sub(self.base_job)? as usize;
        let &i = self.index.get(row)?.get(task.index())?;
        (i != NO_ENTRY).then_some(i as usize)
    }

    /// The compute device assigned to a task.
    pub fn assignment(&self, job: JobId, task: TaskId) -> Option<ComputeId> {
        self.slot(job, task).map(|i| self.entries[i].compute)
    }

    /// The entry for a task.
    pub fn entry(&self, job: JobId, task: TaskId) -> Option<&ScheduleEntry> {
        self.slot(job, task).map(|i| &self.entries[i])
    }

    /// The estimated makespan across all entries.
    pub fn est_makespan(&self) -> SimDuration {
        self.entries
            .iter()
            .map(|e| e.est_finish)
            .fold(SimTime::ZERO, SimTime::max)
            - SimTime::ZERO
    }

    fn set_slot(&mut self, job: JobId, task: TaskId, i: u32) {
        if self.index.is_empty() {
            self.base_job = job.0;
        } else if job.0 < self.base_job {
            // A lower job id arrived after the base was fixed: shift the
            // table down (rare — plans are built from one job list).
            let shift = (self.base_job - job.0) as usize;
            let mut rows = vec![Vec::new(); shift];
            rows.append(&mut self.index);
            self.index = rows;
            self.base_job = job.0;
        }
        let row = (job.0 - self.base_job) as usize;
        if row >= self.index.len() {
            self.index.resize(row + 1, Vec::new());
        }
        let cols = &mut self.index[row];
        if task.index() >= cols.len() {
            cols.resize(task.index() + 1, NO_ENTRY);
        }
        cols[task.index()] = i;
    }

    fn push(&mut self, entry: ScheduleEntry) {
        let i = self.entries.len() as u32;
        self.set_slot(entry.job, entry.task, i);
        self.entries.push(entry);
    }

    fn sort_by_start(&mut self) {
        self.entries.sort_by_key(|e| (e.est_start, e.job, e.task));
        for (i, (job, task)) in self
            .entries
            .iter()
            .map(|e| (e.job, e.task))
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            self.set_slot(job, task, i as u32);
        }
    }
}

/// Scheduling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A task requires a compute class the topology does not provide.
    NoEligibleDevice {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoEligibleDevice { job, task } => {
                write!(f, "no eligible compute device for {job}/{task}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Average fabric bandwidth used for cross-device communication estimates
/// (bytes/ns). A constant keeps ranking cheap; the executor charges real
/// path costs later.
const AVG_COMM_BW: f64 = 20.0;

/// Penalty multiplier applied to estimated durations on devices the task
/// merely *prefers* not to use (soft preference).
const NON_PREFERRED_PENALTY: f64 = 2.0;

/// The DAG scheduler.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    /// Active policy.
    pub policy: SchedPolicy,
}

impl Scheduler {
    /// A scheduler with the given policy.
    pub fn new(policy: SchedPolicy) -> Self {
        Scheduler { policy }
    }

    /// Devices eligible for a task under its compute preference.
    fn eligible(topo: &Topology, pref: ComputePref) -> Vec<ComputeId> {
        topo.compute_ids()
            .filter(|&c| pref.allows(topo.compute(c).kind))
            .collect()
    }

    /// Best reachable memory bandwidth per compute device (bytes/ns),
    /// indexed by `ComputeId`. The topology is immutable during a plan,
    /// so this `O(computes × mems)` scan runs once instead of once per
    /// `(task, device)` estimate.
    fn best_bws(topo: &Topology) -> Vec<f64> {
        topo.compute_ids()
            .map(|c| {
                topo.mem_ids()
                    .filter_map(|m| {
                        topo.path(c, m).map(|p| topo.mem(m).read_bw_bpns.min(p.bandwidth_bpns))
                    })
                    .fold(1.0f64, f64::max)
            })
            .collect()
    }

    /// Estimated duration of a task on a device: launch + compute +
    /// optimistic memory traffic at the device's best reachable bandwidth
    /// (precomputed in `bw`, see [`Scheduler::best_bws`]).
    fn estimate_with(
        topo: &Topology,
        bw: &[f64],
        spec: &JobSpec,
        task: TaskId,
        c: ComputeId,
    ) -> f64 {
        let t = &spec.tasks[task.index()];
        let model = topo.compute(c);
        let exec = model.exec_cost(t.work.class, t.work.elems).as_nanos_f64();
        let input_bytes: u64 = spec
            .dag
            .predecessors(task)
            .iter()
            .map(|p| spec.tasks[p.index()].output_bytes)
            .sum();
        // Traffic estimate: dataflow in/out plus created scratch streams.
        // The private-scratch *footprint* is capacity, not traffic — a job
        // with a large working set does not necessarily stream all of it.
        let bytes = input_bytes + t.output_bytes + t.global_scratch;
        let mem = bytes as f64 / bw[c.index()];
        let base = exec + mem;
        match t.compute {
            ComputePref::Prefer(k) if k != model.kind => base * NON_PREFERRED_PENALTY,
            _ => base,
        }
    }

    /// Eligible devices for a task, ranked cheapest-first by the same
    /// cost model `plan` uses (estimated duration, ties broken by
    /// device id). The recovery layer re-places interrupted tasks with
    /// this: instead of grabbing the first surviving device, it walks
    /// the ranking and takes the best candidate that is still alive.
    pub fn ranked_candidates(
        topo: &Topology,
        spec: &JobSpec,
        task: TaskId,
    ) -> Vec<(ComputeId, f64)> {
        Self::ranked_candidates_where(topo, spec, task, |_| true)
    }

    /// [`ranked_candidates`](Self::ranked_candidates) restricted to
    /// devices passing `pred` — the fault-aware control plane filters
    /// out nodes whose circuit breaker is open *before* ranking, so an
    /// excluded device never shadows a healthy one in the ordering.
    pub fn ranked_candidates_where(
        topo: &Topology,
        spec: &JobSpec,
        task: TaskId,
        pred: impl Fn(ComputeId) -> bool,
    ) -> Vec<(ComputeId, f64)> {
        let bw = Self::best_bws(topo);
        let mut ranked: Vec<(ComputeId, f64)> =
            Self::eligible(topo, spec.tasks[task.index()].compute)
                .into_iter()
                .filter(|&c| pred(c))
                .map(|c| (c, Self::estimate_with(topo, &bw, spec, task, c)))
                .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// Plans a schedule for the given jobs.
    pub fn plan(
        &self,
        topo: &Topology,
        jobs: &[(JobId, &JobSpec)],
    ) -> Result<Schedule, SchedError> {
        // Flatten all tasks into one item arena; `base[si] + task` is a
        // job-local task's global item index (no per-task hashing).
        struct Item {
            job: JobId,
            spec_idx: usize,
            task: TaskId,
            /// Index into `elig_sets`: tasks sharing a compute
            /// preference share one eligible-device list.
            elig: u32,
            /// Estimated duration per eligible device (parallel to the
            /// item's eligible list).
            est: Vec<f64>,
            avg: f64,
        }
        let bw = Self::best_bws(topo);
        // Distinct compute preferences per batch are few (Any plus a
        // handful of Prefer/Require kinds): dedup the eligible lists
        // instead of collecting one Vec per task.
        let mut elig_sets: Vec<(ComputePref, Vec<ComputeId>)> = Vec::new();
        let mut base: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut items: Vec<Item> = Vec::new();
        for (si, &(job, spec)) in jobs.iter().enumerate() {
            base.push(items.len());
            for ti in 0..spec.tasks.len() {
                let task = TaskId(ti as u32);
                let pref = spec.tasks[ti].compute;
                let elig = match elig_sets.iter().position(|(p, _)| *p == pref) {
                    Some(i) => i,
                    None => {
                        elig_sets.push((pref, Self::eligible(topo, pref)));
                        elig_sets.len() - 1
                    }
                };
                let eligible = &elig_sets[elig].1;
                if eligible.is_empty() {
                    return Err(SchedError::NoEligibleDevice { job, task });
                }
                let est: Vec<f64> = eligible
                    .iter()
                    .map(|&c| Self::estimate_with(topo, &bw, spec, task, c))
                    .collect();
                let avg = est.iter().sum::<f64>() / est.len() as f64;
                items.push(Item { job, spec_idx: si, task, elig: elig as u32, est, avg });
            }
        }

        // Upward ranks (per job; jobs are independent DAGs).
        let mut rank = vec![0.0f64; items.len()];
        for (si, &(_, spec)) in jobs.iter().enumerate() {
            for &task in spec.dag.topo_order().iter().rev() {
                let i = base[si] + task.index();
                let mut best_succ = 0.0f64;
                for &s in spec.dag.successors(task) {
                    let succ = base[si] + s.index();
                    let comm = spec.tasks[task.index()].output_bytes as f64 / AVG_COMM_BW;
                    best_succ = best_succ.max(comm + rank[succ]);
                }
                rank[i] = items[i].avg + best_succ;
            }
        }

        // Processing order: HEFT = rank descending; round-robin = job
        // submission then topological order.
        let mut order: Vec<usize> = (0..items.len()).collect();
        match self.policy {
            SchedPolicy::Heft => {
                order.sort_by(|&a, &b| {
                    rank[b]
                        .total_cmp(&rank[a])
                        .then(items[a].job.cmp(&items[b].job))
                        .then(items[a].task.cmp(&items[b].task))
                });
            }
            SchedPolicy::RoundRobin => {
                // Topological order is already how items were pushed.
            }
        }

        // Per-device lanes (slots) with free times, and each device's
        // earliest lane `(index, free time)`, refreshed whenever one of
        // its lanes is booked (first lane wins ties, as in a full scan).
        let mut lanes: Vec<Vec<SimTime>> = topo
            .compute_devices()
            .iter()
            .map(|m| vec![SimTime::ZERO; m.slots as usize])
            .collect();
        let earliest_of = |lane_times: &[SimTime]| -> (usize, SimTime) {
            lane_times
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .expect("devices have at least one slot")
        };
        let mut earliest: Vec<(usize, SimTime)> = lanes.iter().map(|l| earliest_of(l)).collect();
        // Finish time + device per item, indexed like `items`.
        let mut finish: Vec<Option<(SimTime, ComputeId)>> = vec![None; items.len()];
        let mut schedule = Schedule::default();
        let mut rr_cursor = 0usize;
        // Tasks assigned per device: breaks exact EFT ties toward the
        // least-loaded device so equal work spreads across equal hardware
        // (and with it, memory pressure across nodes).
        let mut assigned: Vec<usize> = vec![0; topo.compute_devices().len()];

        // Dependencies must be scheduled before dependents for the ready
        // time to be known. HEFT's rank order guarantees that within a
        // job; enforce it by deferring items whose predecessors are not
        // yet placed.
        let mut pending: std::collections::VecDeque<usize> = order.into();
        let mut guard = 0usize;
        // Reusable per-item scratch for HEFT's finish-time evaluation.
        let mut fins: Vec<SimTime> = Vec::new();
        // Per predecessor of the current item: its device, and when its
        // output is ready there and on any other device.
        let mut pred_ready: Vec<(ComputeId, SimTime, SimTime)> = Vec::new();
        while let Some(i) = pending.pop_front() {
            let item = &items[i];
            let (job, spec) = jobs[item.spec_idx];
            let preds = spec.dag.predecessors(item.task);
            let pred_idx = |p: TaskId| base[item.spec_idx] + p.index();
            if !preds.iter().all(|&p| finish[pred_idx(p)].is_some()) {
                pending.push_back(i);
                guard += 1;
                assert!(
                    guard < items.len() * items.len() + 16,
                    "scheduler made no progress; DAG validation should prevent this"
                );
                continue;
            }
            guard = 0;
            let eligible: &[ComputeId] = &elig_sets[item.elig as usize].1;
            pred_ready.clear();
            pred_ready.extend(preds.iter().map(|&p| {
                let (f, pc) = finish[pred_idx(p)].expect("preds checked above");
                let comm = spec.tasks[p.index()].output_bytes as f64 / AVG_COMM_BW;
                (pc, f, f + SimDuration::from_nanos_f64(comm))
            }));

            // (lane, start, finish) of the item on eligible device `ei`.
            let choose_on = |ei: usize, earliest: &[(usize, SimTime)]| {
                let c = eligible[ei];
                let ready = pred_ready
                    .iter()
                    .map(|&(pc, local, remote)| if pc == c { local } else { remote })
                    .fold(SimTime::ZERO, SimTime::max);
                let (lane, free) = earliest[c.index()];
                let start = ready.max(free);
                let dur = SimDuration::from_nanos_f64(items[i].est[ei]);
                (lane, start, start + dur)
            };

            let ei = match self.policy {
                SchedPolicy::Heft => {
                    // Evaluate each eligible device once (min_by would
                    // recompute per comparison), then min with the same
                    // EFT → least-assigned → id tie-break.
                    fins.clear();
                    fins.extend((0..eligible.len()).map(|ei| choose_on(ei, &earliest).2));
                    (0..eligible.len())
                        .min_by(|&a, &b| {
                            let (ca, cb) = (eligible[a], eligible[b]);
                            fins[a]
                                .cmp(&fins[b])
                                .then(assigned[ca.index()].cmp(&assigned[cb.index()]))
                                .then(ca.cmp(&cb))
                        })
                        .expect("eligibility checked at collection")
                }
                SchedPolicy::RoundRobin => {
                    let ei = rr_cursor % eligible.len();
                    rr_cursor += 1;
                    ei
                }
            };
            let c = eligible[ei];
            let (lane, start, fin) = choose_on(ei, &earliest);
            assigned[c.index()] += 1;
            lanes[c.index()][lane] = fin;
            earliest[c.index()] = earliest_of(&lanes[c.index()]);
            finish[base[item.spec_idx] + items[i].task.index()] = Some((fin, c));
            schedule.push(ScheduleEntry {
                job,
                task: items[i].task,
                compute: c,
                est_start: start,
                est_finish: fin,
                rank: rank[i],
            });
        }
        schedule.sort_by_start();
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_dataflow::job::JobBuilder;
    use disagg_dataflow::task::TaskSpec;
    use disagg_hwsim::compute::{ComputeKind, WorkClass};
    use disagg_hwsim::presets::single_server;

    fn pipeline(n: usize, class: WorkClass, elems: u64) -> JobSpec {
        let mut job = JobBuilder::new("pipe");
        let ids: Vec<_> = (0..n)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("t{i}"))
                        .work(class, elems)
                        .output_bytes(1 << 20),
                )
            })
            .collect();
        job.chain(&ids);
        job.build().unwrap()
    }

    #[test]
    fn precedence_is_respected() {
        let (topo, _) = single_server();
        let spec = pipeline(5, WorkClass::Scalar, 100_000);
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        for w in 0..4u32 {
            let a = sched.entry(JobId(0), TaskId(w)).unwrap();
            let b = sched.entry(JobId(0), TaskId(w + 1)).unwrap();
            assert!(a.est_finish <= b.est_start, "task {w} must finish first");
        }
    }

    #[test]
    fn tensor_work_lands_on_an_accelerator() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("ml");
        job.task(TaskSpec::new("train").work(WorkClass::Tensor, 100_000_000));
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let c = sched.assignment(JobId(0), TaskId(0)).unwrap();
        assert_eq!(c, ids.gpu, "tensor work should pick the GPU");
    }

    #[test]
    fn scalar_work_stays_on_the_cpu() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("db");
        job.task(TaskSpec::new("probe").work(WorkClass::Scalar, 10_000_000));
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert_eq!(sched.assignment(JobId(0), TaskId(0)).unwrap(), ids.cpu);
    }

    #[test]
    fn require_is_a_hard_constraint() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("gpu-only");
        // Scalar work that would prefer the CPU, but the developer pinned it.
        job.task(
            TaskSpec::new("kernel")
                .require(ComputeKind::Gpu)
                .work(WorkClass::Scalar, 1_000_000),
        );
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert_eq!(sched.assignment(JobId(0), TaskId(0)).unwrap(), ids.gpu);
    }

    #[test]
    fn missing_required_device_errors() {
        let (topo, _) = single_server();
        let mut job = JobBuilder::new("tpu-only");
        job.task(TaskSpec::new("x").require(ComputeKind::Tpu));
        let spec = job.build().unwrap();
        assert_eq!(
            Scheduler::new(SchedPolicy::Heft)
                .plan(&topo, &[(JobId(3), &spec)])
                .unwrap_err(),
            SchedError::NoEligibleDevice {
                job: JobId(3),
                task: TaskId(0)
            }
        );
    }

    #[test]
    fn independent_tasks_run_in_parallel_lanes() {
        let (topo, _) = single_server();
        let mut job = JobBuilder::new("fan");
        for i in 0..8 {
            job.task(TaskSpec::new(format!("t{i}")).work(WorkClass::Scalar, 1_000_000));
        }
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        // With 32 CPU slots, all 8 independent tasks start at time zero.
        assert!(sched.entries.iter().all(|e| e.est_start == SimTime::ZERO));
    }

    #[test]
    fn slots_serialize_oversubscribed_devices() {
        let (topo, _) = single_server();
        // 40 independent CPU-required tasks on a 32-slot CPU: at least 8
        // must start after the first wave.
        let mut job = JobBuilder::new("wave");
        for i in 0..40 {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .require(ComputeKind::Cpu)
                    .work(WorkClass::Scalar, 1_000_000),
            );
        }
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let delayed = sched
            .entries
            .iter()
            .filter(|e| e.est_start > SimTime::ZERO)
            .count();
        assert_eq!(delayed, 8);
    }

    #[test]
    fn heft_beats_round_robin_on_heterogeneous_work() {
        let (topo, _) = single_server();
        // A mix of scalar and tensor tasks: HEFT routes each to its best
        // device; round-robin scatters them (all scalars first, so its
        // alternation puts half the scalar work on the GPU).
        let mut job = JobBuilder::new("mix");
        for i in 0..6 {
            job.task(TaskSpec::new(format!("s{i}")).work(WorkClass::Scalar, 50_000_000));
        }
        for i in 0..6 {
            job.task(TaskSpec::new(format!("t{i}")).work(WorkClass::Tensor, 50_000_000));
        }
        let spec = job.build().unwrap();
        let heft = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let rr = Scheduler::new(SchedPolicy::RoundRobin)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        assert!(
            heft.est_makespan() < rr.est_makespan(),
            "HEFT {:?} vs RR {:?}",
            heft.est_makespan(),
            rr.est_makespan()
        );
    }

    #[test]
    fn multiple_jobs_schedule_together() {
        let (topo, _) = single_server();
        let a = pipeline(3, WorkClass::Scalar, 1_000_000);
        let b = pipeline(3, WorkClass::Vector, 1_000_000);
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &a), (JobId(1), &b)])
            .unwrap();
        assert_eq!(sched.entries.len(), 6);
        assert!(sched.assignment(JobId(1), TaskId(2)).is_some());
        assert!(sched.est_makespan() > SimDuration::ZERO);
    }

    #[test]
    fn ranked_candidates_orders_by_cost_model() {
        let (topo, ids) = single_server();
        let mut job = JobBuilder::new("rank");
        job.task(TaskSpec::new("train").work(WorkClass::Tensor, 100_000_000));
        let spec = job.build().unwrap();
        let ranked = Scheduler::ranked_candidates(&topo, &spec, TaskId(0));
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].0, ids.gpu, "tensor work ranks the GPU first");
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1, "cheapest-first order");
        }
    }

    #[test]
    fn accelerator_zoo_routes_each_work_class_to_its_device() {
        use disagg_hwsim::presets::accelerator_server;
        let (topo, _h) = accelerator_server();
        let mut job = JobBuilder::new("zoo");
        let scalar = job.task(TaskSpec::new("scalar").work(WorkClass::Scalar, 50_000_000));
        let vector = job.task(TaskSpec::new("vector").work(WorkClass::Vector, 500_000_000));
        let tensor = job.task(TaskSpec::new("tensor").work(WorkClass::Tensor, 500_000_000));
        let crypto = job.task(TaskSpec::new("crypto").work(WorkClass::Crypto, 500_000_000));
        let spec = job.build().unwrap();
        let sched = Scheduler::new(SchedPolicy::Heft)
            .plan(&topo, &[(JobId(0), &spec)])
            .unwrap();
        let kind = |t| topo.compute(sched.assignment(JobId(0), t).unwrap()).kind;
        assert_eq!(kind(scalar), ComputeKind::Cpu);
        assert_eq!(kind(vector), ComputeKind::Gpu);
        assert_eq!(kind(tensor), ComputeKind::Tpu);
        assert_eq!(kind(crypto), ComputeKind::Fpga);
    }
}
