//! The four workloads: how each turns a seed into inputs, sets up a
//! fresh rack, runs one pass, checks the pass's outputs, and reduces it
//! to its virtual-clock outcome.

use disagg_bench::exp::{chaos_serve, serving};
use disagg_core::prelude::*;
use disagg_core::{
    BreakerPolicy, BreakerState, FaultControlPolicy, RecoveryPolicy, RetryBudgetPolicy,
};
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::rng::SimRng;
use disagg_obs::ObserverSlot;
use disagg_serve::{
    ArrivalProcess, ControlPlane, Request, ServeConfig, ServeLayer, ServeReport, Slo, Verdict,
};
use disagg_workloads::gen::Zipf;
use disagg_workloads::{dbms, hpc, ml, streaming, util};

use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed batch of seeded layered DAGs of body-less tasks.
    BatchDag,
    /// A closed batch of the paper's four application jobs.
    AppsRw,
    /// Open-loop serving of the E17 template mix below its knee.
    ServeBulk,
    /// The E18 compute-bound mix under rotating node crashes.
    ServeChaos,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::BatchDag,
        Workload::AppsRw,
        Workload::ServeBulk,
        Workload::ServeChaos,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDag => "batch_dag",
            Workload::AppsRw => "apps_rw",
            Workload::ServeBulk => "serve_bulk",
            Workload::ServeChaos => "serve_chaos",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads whose pass is a `ServeLayer::run`.
    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeBulk | Workload::ServeChaos)
    }
}

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// DAGs in the `batch_dag` batch.
    pub dag_jobs: usize,
    /// Layers per DAG.
    pub dag_layers: usize,
    /// Tasks per layer.
    pub dag_width: usize,
    /// Copies of each application job in `apps_rw`.
    pub app_copies: usize,
    /// Requests offered per `serve_bulk` pass.
    pub bulk_requests: usize,
    /// Independent request streams per `serve_chaos` pass.
    pub chaos_streams: usize,
    /// Requests offered per `serve_chaos` stream.
    pub chaos_requests: usize,
    /// Completed requests or jobs a pass must reach, so that the p90
    /// has at least ten samples beyond it.
    pub min_completed: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub const FULL: Scale = Scale {
        dag_jobs: 128,
        dag_layers: 16,
        dag_width: 16,
        app_copies: 25,
        bulk_requests: 112,
        chaos_streams: 96,
        chaos_requests: 24,
        min_completed: 100,
    };

    /// Sizes for the self-tests.
    pub const TINY: Scale = Scale {
        dag_jobs: 4,
        dag_layers: 4,
        dag_width: 4,
        app_copies: 1,
        bulk_requests: 6,
        chaos_streams: 2,
        chaos_requests: 8,
        min_completed: 1,
    };
}

/// One application job of `apps_rw` with its seeded configuration.
#[derive(Debug, Clone, Copy)]
enum App {
    Dbms(dbms::DbmsConfig),
    Ml(ml::MlConfig),
    Hpc(hpc::HpcConfig),
    Stream(streaming::StreamConfig),
}

impl App {
    fn job(self) -> JobSpec {
        match self {
            App::Dbms(c) => dbms::query_job(c),
            App::Ml(c) => ml::training_job(c),
            App::Hpc(c) => hpc::stencil_job(c),
            App::Stream(c) => streaming::windowed_job(c),
        }
    }

    /// The task whose persistent output holds the job's answer.
    fn sink(self) -> &'static str {
        match self {
            App::Dbms(_) => "hash-join",
            App::Ml(_) => "train",
            App::Hpc(_) => "reduce",
            App::Stream(_) => "sink",
        }
    }

    /// The reference answer, computed without the runtime.
    fn expected(self) -> Answer {
        match self {
            App::Dbms(c) => {
                let e = dbms::expected(&c);
                Answer::Dbms(e.join_matches, e.groups as u64, e.total_sum)
            }
            App::Ml(c) => Answer::Ml(ml::expected_model(&c)),
            App::Hpc(c) => Answer::Hpc(hpc::expected_sum(&c)),
            App::Stream(c) => Answer::Stream(streaming::expected_windows(&c)),
        }
    }

    fn decode(self, out: &[u8]) -> Answer {
        match self {
            App::Dbms(_) => {
                let (m, g, t) = dbms::decode_result(out);
                Answer::Dbms(m, g, t)
            }
            App::Ml(_) => Answer::Ml(ml::decode_model(out)),
            App::Hpc(_) => Answer::Hpc(hpc::decode_sum(out)),
            App::Stream(_) => Answer::Stream(streaming::decode_result(out)),
        }
    }
}

/// An application job's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Join matches, groups, total sum.
    Dbms(u64, u64, u64),
    /// Model checksum.
    Ml(u64),
    /// Grid sum.
    Hpc(i64),
    /// Window aggregates.
    Stream(Vec<streaming::WindowAgg>),
}

/// One serving stream: its configuration and the requests
/// `ServeLayer::run` draws from it.
#[derive(Debug, Clone)]
struct Stream {
    cfg: ServeConfig,
    requests: Vec<Request>,
}

#[derive(Debug, Clone)]
enum Inputs {
    /// DAGs are generated in setup, from the seed.
    Dag,
    Apps(Vec<App>),
    Serve {
        slo: Slo,
        streams: Vec<Stream>,
    },
}

/// Everything a seed fixes about a workload's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    scale: Scale,
    inputs: Inputs,
}

/// Fresh racks with their inputs, ready for one pass: one rack per
/// serving stream, or one rack for the batch.
pub struct Prepared {
    units: Vec<(Runtime, Input)>,
}

enum Input {
    Jobs(Vec<JobSpec>),
    Serve(Box<ServeLayer>, ServeConfig),
}

/// What one rack of a pass returned.
pub enum Report {
    /// A `Runtime::execute`.
    Batch(Box<RunReport>),
    /// A `ServeLayer::run`.
    Serve(Box<ServeReport>),
}

impl Report {
    /// The executor's report.
    pub fn run(&self) -> &RunReport {
        match self {
            Report::Batch(r) => r,
            Report::Serve(s) => &s.run,
        }
    }
}

/// One finished rack of a pass.
pub struct Unit {
    /// The runtime, with its trace buffer.
    pub rt: Runtime,
    /// Its report.
    pub report: Report,
    /// Host time at the call's start.
    pub start: Instant,
    /// Host time at the call's return.
    pub end: Instant,
}

/// A finished pass.
pub struct Executed {
    /// One unit per rack, in run order.
    pub units: Vec<Unit>,
}

/// A pass reduced to its virtual-clock results. Deterministic for a
/// seed: every pass of a run, traced or not, must produce the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Virtual time from each rack's start to its last task finish.
    pub makespans: Vec<SimDuration>,
    /// Requests (serving) or jobs (batch) offered.
    pub offered: usize,
    /// Requests or jobs that completed.
    pub completed: usize,
    /// Completed within the tenant's p99 SLO (every completed job of a
    /// closed batch, which carries no SLO).
    pub within_slo: usize,
    /// Sorted sojourn times of the completed requests or jobs, in
    /// virtual ns.
    pub latencies: Vec<u64>,
    /// Executor events.
    pub events: u64,
    /// Executed tasks.
    pub tasks: usize,
    /// Physical handover copies.
    pub handover_copies: u64,
    /// Handovers done by ownership transfer.
    pub ownership_transfers: u64,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests served degraded.
    pub degraded: usize,
    /// Requests that failed fast.
    pub fast_failed: usize,
    /// Breaker trips.
    pub breaker_trips: usize,
    /// Peak pooled-memory utilization over the racks (serving only).
    pub peak_pool_util: f64,
    /// FNV-1a over every task's placement and timing.
    pub digest: u64,
}

impl Outcome {
    /// Offered units that did not complete.
    pub fn failed(&self) -> usize {
        self.offered - self.completed
    }

    /// Mean makespan over the pass's racks.
    pub fn makespan(&self) -> f64 {
        let total: u64 = self.makespans.iter().map(|m| m.0).sum();
        total as f64 / self.makespans.len().max(1) as f64
    }
}

/// The rack every batch pass runs on.
fn batch_rack() -> Topology {
    disaggregated_rack(4, 16, 4, 256).0
}

/// The rack every serving pass runs on (E17 and E18's shape).
fn serve_rack() -> Topology {
    disaggregated_rack(4, 8, 2, 32).0
}

/// Mean service time of a template mix: each template once, alone, on
/// the serving rack (the E17/E18 calibration).
fn mean_service(layer: &ServeLayer) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for ti in 0..layer.len() {
        let req = Request {
            index: 0,
            tenant: ti,
            arrival: SimDuration::ZERO,
            seed: 0x5eed ^ ti as u64,
        };
        let mut rt = Runtime::new(serve_rack(), RuntimeConfig::default());
        total += rt
            .execute(layer.instantiate(ti, &req))
            .expect("calibration run")
            .makespan;
    }
    SimDuration(total.0 / layer.len().max(1) as u64)
}

/// The request stream `ServeLayer::run` draws for `cfg`, re-drawn with
/// the same public generators in the same order.
fn draw(cfg: &ServeConfig) -> Vec<Request> {
    let mut rng = SimRng::new(cfg.seed);
    let offsets = cfg.arrivals.sample_offsets(cfg.requests, &mut rng.fork(0));
    let zipf = Zipf::new(cfg.tenants, cfg.zipf_theta);
    let mut tenant_rng = rng.fork(1);
    let mut seed_rng = rng.fork(2);
    offsets
        .into_iter()
        .enumerate()
        .map(|(index, arrival)| Request {
            index,
            tenant: zipf.sample(&mut tenant_rng),
            arrival,
            seed: seed_rng.next_u64(),
        })
        .collect()
}

/// Draws candidate streams from `seeds` until one is typical of its
/// process and sets `cfg.seed` to it: every template serves exactly its
/// expected share of the requests (largest-remainder rounding of the
/// Zipf mix), and the arrival span is within 2% of `requests` mean gaps.
/// Pass cost and the latency percentiles depend on both, so holding
/// them fixed keeps one seed's pass comparable with another's; arrival
/// gaps, tenant order and per-request jitter still come from the seed.
fn typical_stream(cfg: &mut ServeConfig, seeds: &mut SimRng, templates: usize) -> Vec<Request> {
    let n = cfg.requests;
    let zipf: Vec<f64> = (1..=cfg.tenants)
        .map(|i| 1.0 / (i as f64).powf(cfg.zipf_theta))
        .collect();
    let norm: f64 = zipf.iter().sum();
    let mut share = vec![0.0; templates];
    for (t, w) in zipf.iter().enumerate() {
        share[t % templates] += w / norm * n as f64;
    }
    let mut want: Vec<usize> = share.iter().map(|s| s.floor() as usize).collect();
    let mut order: Vec<usize> = (0..templates).collect();
    order.sort_by(|&a, &b| (share[b] - share[b].floor()).total_cmp(&(share[a] - share[a].floor())));
    for &t in order.iter().take(n - want.iter().sum::<usize>()) {
        want[t] += 1;
    }
    let span = cfg.arrivals.mean_gap().as_nanos_f64() * n as f64;
    loop {
        cfg.seed = seeds.next_u64();
        let stream = draw(cfg);
        let mut got = vec![0usize; templates];
        for r in &stream {
            got[r.tenant % templates] += 1;
        }
        let last = stream.last().map_or(0.0, |r| r.arrival.as_nanos_f64());
        if got == want && (last - span).abs() <= 0.02 * span {
            return stream;
        }
    }
}

/// E18's six rotating node-crash windows over `[A/4, 0.95A)` of the
/// arrival span `A`, on three of the four servers.
fn crash_windows(span: SimDuration) -> FaultInjector {
    let t = span.0.max(60);
    let (down, pitch, first) = (t / 5, t / 10, t / 4);
    let (_, rack) = disaggregated_rack(4, 8, 2, 32);
    let mut f = FaultInjector::none();
    for k in 0..6u64 {
        let node = rack.nodes[(k % 3) as usize];
        let start = first + k * pitch;
        f.schedule(SimTime(start), FaultKind::NodeCrash(node));
        f.schedule(SimTime(start + down), FaultKind::NodeRecover(node));
    }
    f
}

fn template_mix(workload: Workload) -> ServeLayer {
    match workload {
        Workload::ServeChaos => chaos_serve::templates(),
        _ => serving::templates(),
    }
}

/// A seeded layered DAG batch in the shape of `driver::stress_jobs`:
/// every non-source task reads the 4 KiB outputs of two neighbours in a
/// seeded shuffle of the previous layer, so every output has exactly two
/// readers, and each task's work jitters by the seed.
fn dag_batch(seed: u64, jobs: usize, layers: usize, width: usize) -> Vec<JobSpec> {
    assert!(width >= 2, "fan-in 2 needs two tasks per layer");
    let mut rng = SimRng::new(seed).fork(0xda6);
    (0..jobs)
        .map(|j| {
            let mut job = JobBuilder::new(format!("dag{j}"));
            let mut prev: Vec<TaskId> = Vec::new();
            for l in 0..layers {
                let cur: Vec<TaskId> = (0..width)
                    .map(|i| {
                        job.task(
                            TaskSpec::new(format!("t{l}_{i}"))
                                .work(WorkClass::Scalar, rng.range(8_000, 12_000))
                                .output_bytes(4096),
                        )
                    })
                    .collect();
                if !prev.is_empty() {
                    rng.shuffle(&mut prev);
                    for (i, &t) in cur.iter().enumerate() {
                        job.edge(prev[i], t);
                        job.edge(prev[(i + 1) % width], t);
                    }
                }
                prev = cur;
            }
            job.build().expect("a layered DAG is acyclic")
        })
        .collect()
}

impl Plan {
    /// Derives a workload's inputs from `seed`. For the serving
    /// workloads this calibrates the template mix's service time (the
    /// SLO and load are multiples of it) on the simulated rack.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let inputs = match workload {
            Workload::BatchDag => Inputs::Dag,
            Workload::AppsRw => {
                let mut rng = SimRng::new(seed).fork(0xa995);
                let mut apps = Vec::with_capacity(4 * scale.app_copies);
                for _ in 0..scale.app_copies {
                    apps.push(App::Dbms(dbms::DbmsConfig {
                        tuples: 4_000,
                        probe_tuples: 2_000,
                        // The reference draws the probe side from seed + 1.
                        seed: rng.next_u64() >> 1,
                        ..dbms::DbmsConfig::default()
                    }));
                    apps.push(App::Ml(ml::MlConfig {
                        samples: 2_048,
                        epochs: 2,
                        seed: rng.next_u64(),
                        ..ml::MlConfig::default()
                    }));
                    apps.push(App::Hpc(hpc::HpcConfig {
                        cells: 4_096,
                        sweeps: 6,
                        seed: rng.next_u64(),
                        ..hpc::HpcConfig::default()
                    }));
                    apps.push(App::Stream(streaming::StreamConfig {
                        events: 4_000,
                        seed: rng.next_u64(),
                        ..streaming::StreamConfig::default()
                    }));
                }
                Inputs::Apps(apps)
            }
            Workload::ServeBulk | Workload::ServeChaos => {
                let chaos = workload == Workload::ServeChaos;
                let svc = mean_service(&template_mix(workload)).0;
                // E17 serves at 1.00x (one request per mean service
                // time) under a p99 of 16x service; E18 at 16.00x under
                // a p99 of 6x service, with the full control plane.
                let (gap, slo, streams, requests) = if chaos {
                    let slo = Slo {
                        p50: SimDuration(svc * 2),
                        p99: SimDuration(svc * 6),
                    };
                    (svc / 16, slo, scale.chaos_streams, scale.chaos_requests)
                } else {
                    let slo = Slo {
                        p50: SimDuration(svc * 4),
                        p99: SimDuration(svc * 16),
                    };
                    (svc, slo, 1, scale.bulk_requests)
                };
                let mut seeds = SimRng::new(seed).fork(0x5e7e);
                let streams = (0..streams)
                    .map(|_| {
                        let mut cfg = ServeConfig {
                            arrivals: ArrivalProcess::Poisson {
                                mean_gap: SimDuration(gap),
                            },
                            requests,
                            tenants: 6,
                            zipf_theta: 1.0,
                            seed: 0,
                            quota: Some(512 << 20),
                            slo: Some(slo),
                            control: chaos.then(ControlPlane::default),
                            ..ServeConfig::default()
                        };
                        let requests =
                            typical_stream(&mut cfg, &mut seeds, template_mix(workload).len());
                        Stream { cfg, requests }
                    })
                    .collect();
                Inputs::Serve { slo, streams }
            }
        };
        Plan {
            workload,
            seed,
            scale,
            inputs,
        }
    }

    /// The rack a pass runs on.
    pub fn topology(&self) -> Topology {
        if self.workload.serves() {
            serve_rack()
        } else {
            batch_rack()
        }
    }

    /// The pass's work as one batch of jobs: the batch itself, or each
    /// offered request's primary template.
    pub fn jobs(&self) -> Vec<JobSpec> {
        match &self.inputs {
            Inputs::Dag => {
                let s = self.scale;
                dag_batch(self.seed, s.dag_jobs, s.dag_layers, s.dag_width)
            }
            Inputs::Apps(apps) => apps.iter().map(|a| a.job()).collect(),
            Inputs::Serve { streams, .. } => {
                let layer = template_mix(self.workload);
                streams
                    .iter()
                    .flat_map(|s| &s.requests)
                    .map(|r| layer.instantiate(r.tenant, r))
                    .collect()
            }
        }
    }

    /// The requests of each serving stream (none for a batch).
    pub fn streams(&self) -> Vec<&[Request]> {
        match &self.inputs {
            Inputs::Serve { streams, .. } => {
                streams.iter().map(|s| s.requests.as_slice()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The p99 SLO requests are held to, if the workload has one.
    pub fn slo_p99(&self) -> Option<SimDuration> {
        match &self.inputs {
            Inputs::Serve { slo, .. } => Some(slo.p99),
            _ => None,
        }
    }

    /// The runtime configuration of one rack: serving keeps the trace
    /// buffer E17 and E18 run with; a batch buffers only when traced.
    /// `observer` marks the traced pass; `stream` picks a serving
    /// stream's crash plan.
    fn config(&self, stream: Option<&Stream>, observer: Option<ObserverSlot>) -> RuntimeConfig {
        let mut c = if self.workload.serves() || observer.is_some() {
            RuntimeConfig::traced()
        } else {
            RuntimeConfig::default()
        };
        if let (Workload::ServeChaos, Some(s)) = (self.workload, stream) {
            let span = s.requests.last().map_or(SimDuration::ZERO, |r| r.arrival);
            c = c
                .with_faults(crash_windows(span))
                .with_recovery(
                    RecoveryPolicy::default()
                        .with_max_retries(8)
                        .with_detection_delay(SimDuration(2_000))
                        .with_backoff(SimDuration(1_000)),
                )
                .with_fault_control(
                    FaultControlPolicy::default()
                        .with_retry_budget(RetryBudgetPolicy::default().with_capacity(4))
                        .with_breakers(
                            BreakerPolicy::default()
                                .with_trip_after(2)
                                .with_cooldown(SimDuration::from_micros(200)),
                        )
                        .with_isolation(),
                );
        }
        match observer {
            Some(o) => c.with_observer(o),
            None => c,
        }
    }

    /// Sets up one pass: topology, runtime, templates and inputs of
    /// every rack. `observer` is asked once per rack. Returns the
    /// prepared pass and the host time its input generation took.
    pub fn setup(
        &self,
        mut observer: impl FnMut() -> Option<ObserverSlot>,
    ) -> (Prepared, Duration) {
        let mut gen = Duration::ZERO;
        let units = match &self.inputs {
            Inputs::Serve { streams, .. } => streams
                .iter()
                .map(|s| {
                    let rt = Runtime::new(self.topology(), self.config(Some(s), observer()));
                    let t = Instant::now();
                    let input = Input::Serve(Box::new(template_mix(self.workload)), s.cfg.clone());
                    gen += t.elapsed();
                    (rt, input)
                })
                .collect(),
            _ => {
                let rt = Runtime::new(self.topology(), self.config(None, observer()));
                let t = Instant::now();
                let input = Input::Jobs(self.jobs());
                gen += t.elapsed();
                vec![(rt, input)]
            }
        };
        (Prepared { units }, gen)
    }

    /// Reference answers of `apps_rw`, one per job (empty otherwise).
    pub fn references(&self) -> Vec<Answer> {
        match &self.inputs {
            Inputs::Apps(apps) => apps.iter().map(|a| a.expected()).collect(),
            _ => Vec::new(),
        }
    }

    /// The correctness gate of one pass; `references` comes from
    /// [`Plan::references`].
    pub fn check(&self, done: &Executed, references: &[Answer]) -> Result<(), String> {
        for unit in &done.units {
            let run = unit.report.run();
            if !run.placements_clean() || !run.violations.is_empty() {
                return Err(format!("{} placement violations", run.violations.len()));
            }
            match (&self.inputs, &unit.report) {
                (Inputs::Dag, Report::Batch(r)) => {
                    let s = self.scale;
                    let want = s.dag_jobs * s.dag_layers * s.dag_width;
                    if r.tasks.len() != want {
                        return Err(format!("ran {} of {want} tasks", r.tasks.len()));
                    }
                }
                (Inputs::Apps(apps), Report::Batch(r)) => {
                    let base = r.tasks.iter().map(|t| t.job.0).min().unwrap_or(0);
                    for (i, (app, want)) in apps.iter().zip(references).enumerate() {
                        let out =
                            util::final_output(&unit.rt, r, JobId(base + i as u64), app.sink());
                        let got = app.decode(&out);
                        if &got != want {
                            return Err(format!(
                                "job {i} ({}) answered {got:?}, expected {want:?}",
                                app.sink()
                            ));
                        }
                    }
                }
                (Inputs::Serve { .. }, Report::Serve(r)) => check_serving(r)?,
                _ => unreachable!("a pass reports the shape of its workload"),
            }
        }
        Ok(())
    }

    /// Reduces a pass to its virtual-clock outcome, pooling the racks
    /// of a multi-stream pass.
    pub fn outcome(&self, done: &Executed) -> Result<Outcome, String> {
        let mut o = Outcome {
            makespans: Vec::new(),
            offered: 0,
            completed: 0,
            within_slo: 0,
            latencies: Vec::new(),
            events: 0,
            tasks: 0,
            handover_copies: 0,
            ownership_transfers: 0,
            shed: 0,
            degraded: 0,
            fast_failed: 0,
            breaker_trips: 0,
            peak_pool_util: 0.0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        for unit in &done.units {
            let run = unit.report.run();
            for t in &run.tasks {
                for w in [
                    t.job.0,
                    u64::from(t.task.0),
                    u64::from(t.compute.0),
                    t.start.0,
                    t.finish.0,
                ] {
                    o.digest = (o.digest ^ w).wrapping_mul(0x100_0000_01b3);
                }
            }
            o.makespans.push(run.makespan);
            o.events += run.events;
            o.tasks += run.tasks.len();
            o.handover_copies += run.handover_copies;
            o.ownership_transfers += run.ownership_transfers;
            match &unit.report {
                Report::Batch(r) => {
                    // A closed batch: every job arrives at the pass's
                    // start, and its sojourn ends at its last task's finish.
                    let start = r
                        .tasks
                        .iter()
                        .map(|t| t.start)
                        .min()
                        .unwrap_or(SimTime::ZERO);
                    let base = r.tasks.iter().map(|t| t.job.0).min().unwrap_or(0);
                    let mut finish = vec![None::<SimTime>; self.offered()];
                    for t in &r.tasks {
                        let slot = &mut finish[(t.job.0 - base) as usize];
                        *slot = Some(slot.map_or(t.finish, |f| f.max(t.finish)));
                    }
                    let done: Vec<u64> = finish.iter().flatten().map(|&f| (f - start).0).collect();
                    o.offered += finish.len();
                    o.completed += done.len();
                    o.within_slo += done.len();
                    o.latencies.extend(done);
                }
                Report::Serve(r) => {
                    let p99 = self.slo_p99().expect("serving workloads carry an SLO");
                    let done: Vec<u64> = r
                        .requests
                        .iter()
                        .filter(|q| q.verdict == Verdict::Completed)
                        .map(|q| q.latency.expect("completed requests have a latency").0)
                        .collect();
                    o.offered += r.offered;
                    o.completed += done.len();
                    o.within_slo += done.iter().filter(|&&l| l <= p99.0).count();
                    o.latencies.extend(done);
                    o.shed += r.shed;
                    o.degraded += r.degraded;
                    o.fast_failed += r.fast_failed;
                    o.breaker_trips += r
                        .breaker_transitions
                        .iter()
                        .filter(|t| t.to == BreakerState::Open)
                        .count();
                    o.peak_pool_util = o.peak_pool_util.max(r.peak_util);
                }
            }
        }
        o.latencies.sort_unstable();
        if o.completed < self.scale.min_completed {
            return Err(format!(
                "{} of {} offered completed; the p90 needs at least {}",
                o.completed, o.offered, self.scale.min_completed
            ));
        }
        Ok(o)
    }

    /// Requests or jobs offered per pass.
    pub fn offered(&self) -> usize {
        match &self.inputs {
            Inputs::Dag => self.scale.dag_jobs,
            Inputs::Apps(apps) => apps.len(),
            Inputs::Serve { streams, .. } => streams.iter().map(|s| s.cfg.requests).sum(),
        }
    }
}

/// The serving invariants: every offered request is admitted, rejected
/// or shed; every completed request has exactly one span; and each
/// span's five components sum to its latency.
fn check_serving(r: &ServeReport) -> Result<(), String> {
    if r.offered != r.admitted + r.rejected + r.shed {
        return Err(format!(
            "offered {} != admitted {} + rejected {} + shed {}",
            r.offered, r.admitted, r.rejected, r.shed
        ));
    }
    let completed = r
        .requests
        .iter()
        .filter(|q| q.verdict == Verdict::Completed)
        .count();
    if r.spans.len() != completed {
        return Err(format!(
            "{} spans for {completed} completed requests",
            r.spans.len()
        ));
    }
    if let Some(s) = r
        .spans
        .iter()
        .find(|s| s.attribution.total() != s.latency())
    {
        return Err(format!(
            "request {} span components sum to {:?}, latency {:?}",
            s.request,
            s.attribution.total(),
            s.latency()
        ));
    }
    Ok(())
}

impl Prepared {
    /// Runs the pass: one `Runtime::execute` or `ServeLayer::run` per
    /// rack.
    pub fn execute(self) -> Result<Executed, String> {
        let mut units = Vec::with_capacity(self.units.len());
        for (mut rt, input) in self.units {
            let start = Instant::now();
            let report = match input {
                Input::Jobs(jobs) => {
                    Report::Batch(Box::new(rt.execute(jobs).map_err(|e| e.to_string())?))
                }
                Input::Serve(layer, cfg) => Report::Serve(Box::new(
                    layer.run(&mut rt, &cfg).map_err(|e| e.to_string())?,
                )),
            };
            units.push(Unit {
                rt,
                report,
                start,
                end: Instant::now(),
            });
        }
        Ok(Executed { units })
    }
}
