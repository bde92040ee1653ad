//! One benchmark run: timed passes for `--seconds`, then (with
//! `--trace 1`) one traced pass that profiles the layers.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use disagg_core::prelude::{JobId, RuntimeConfig};
use disagg_hwsim::trace::TraceEvent;
use disagg_obs::ObserverSlot;
use disagg_sched::Scheduler;

use crate::host::peak_rss_mib;
use crate::layers::{Layer, Profile, Stamper};
use crate::metrics::{median, percentile, Metrics};
use crate::workloads::{Answer, Executed, Outcome, Plan, Scale, Workload};

/// Setup repetitions per run, at least: `setup_s` is their median.
pub const MIN_SETUPS: usize = 51;

/// Direct `Scheduler::plan` calls per run: `sched.plan_s` is their
/// median.
const PLAN_REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs.
    pub seed: u64,
    /// How long the timed passes run, in host seconds.
    pub seconds: f64,
    /// Whether to add the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The end-to-end metrics.
    pub end_to_end: Metrics,
    /// The per-layer metrics (empty without the traced pass).
    pub per_layer: Metrics,
    /// Requests or jobs offered over every pass.
    pub attempted: u64,
    /// Host time of each timed pass, in run order.
    pub passes: Vec<f64>,
    /// The virtual-clock outcome every pass produced.
    pub outcome: Outcome,
    /// The traced pass's layer profile and host time.
    pub profile: Option<(Profile, Duration)>,
}

/// Runs the timed passes and, if asked, the traced pass. Any failed
/// check ends the run with an error.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.scale);
    let t = Instant::now();
    let references = plan.references();
    let mut verify = t.elapsed();

    let (mut setups, mut gens, mut hosts) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcome: Option<Outcome> = None;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let (prep, gen) = plan.setup(|| None);
        let t1 = Instant::now();
        let done = prep.execute()?;
        let host = t1.elapsed();
        setups.push((t1 - t0).as_secs_f64());
        gens.push(gen.as_secs_f64());
        hosts.push(host.as_secs_f64());

        let t = Instant::now();
        plan.check(&done, &references)?;
        if outcome.is_none() {
            verify += t.elapsed();
        }
        same_outcome(&mut outcome, plan.outcome(&done)?, "timed passes")?;
        drop(done);
        // Stop before a pass that would overrun the measuring time.
        if start.elapsed().as_secs_f64() + host.as_secs_f64() > opts.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let (prep, gen) = plan.setup(|| None);
        setups.push(t0.elapsed().as_secs_f64());
        gens.push(gen.as_secs_f64());
        drop(black_box(prep));
    }
    let rss = peak_rss_mib()?;
    let outcome = outcome.expect("at least one timed pass ran");
    let host_s = median(&hosts);

    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setups), "s");
    e2e.push("host_s", host_s, "s");
    e2e.push("makespan_ms", outcome.makespan() / 1e6, "sim_ms");
    e2e.push(
        "p50_ms",
        percentile(&outcome.latencies, 0.50) as f64 / 1e6,
        "sim_ms",
    );
    e2e.push(
        "p90_ms",
        percentile(&outcome.latencies, 0.90) as f64 / 1e6,
        "sim_ms",
    );
    e2e.push(
        "slo_goodput",
        outcome.within_slo as f64 / outcome.offered as f64,
        "frac",
    );
    e2e.push(
        "served_frac",
        outcome.completed as f64 / outcome.offered as f64,
        "frac",
    );

    let mut attempted = (hosts.len() * outcome.offered) as u64;
    let mut per_layer = Metrics::default();
    let mut profile = None;
    if opts.trace {
        attempted += outcome.offered as u64;
        let (layers, prof) = traced_pass(&plan, &references, &outcome, host_s)?;
        per_layer = layers;
        per_layer.push("peak_rss_mib", rss, "MiB");
        per_layer.push("workloads.gen_s", median(&gens), "s");
        per_layer.push("workloads.verify_s", verify.as_secs_f64(), "s");
        profile = Some(prof);
    }
    Ok(RunOutput {
        end_to_end: e2e,
        per_layer,
        attempted,
        passes: hosts,
        outcome,
        profile,
    })
}

fn same_outcome(first: &mut Option<Outcome>, next: Outcome, what: &str) -> Result<(), String> {
    match first {
        None => *first = Some(next),
        Some(f) if *f != next => {
            return Err(format!(
                "virtual-clock outcome differs between {what}: {f:?} vs {next:?}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// Runs the traced pass with a [`Stamper`] attached, checks it against
/// the timed passes, profiles it, and times the observability calls on
/// its trace buffer.
fn traced_pass(
    plan: &Plan,
    references: &[Answer],
    timed: &Outcome,
    host_s: f64,
) -> Result<(Metrics, (Profile, Duration)), String> {
    let mut stampers = Vec::new();
    let tasks_per_rack = timed.tasks / timed.makespans.len().max(1);
    let (prep, _) = plan.setup(|| {
        let stamps = Vec::with_capacity(16 * tasks_per_rack + 1024);
        let stamper = Arc::new(Mutex::new(Stamper { stamps }));
        stampers.push(stamper.clone());
        Some(ObserverSlot::shared(stamper))
    });
    let t0 = Instant::now();
    let done = prep.execute()?;
    let traced = t0.elapsed();
    plan.check(&done, references)?;
    same_outcome(
        &mut Some(timed.clone()),
        plan.outcome(&done)?,
        "the timed and traced passes",
    )?;
    let mut prof = Profile::default();
    for (unit, stamper) in done.units.iter().zip(&stampers) {
        let stamper = stamper.lock().expect("the stamper never panics");
        prof.add(&Profile::attribute(unit.start, &stamper.stamps, unit.end));
    }

    let mut m = Metrics::default();
    let secs = |l: Layer| prof.get(l).as_secs_f64();
    let (pre, post) = (secs(Layer::Pre), secs(Layer::Post));
    let serves = plan.workload.serves();
    m.push("region.copy_s", secs(Layer::RegionCopy), "s");
    m.push("region.alloc_s", secs(Layer::RegionAlloc), "s");
    m.push("region.free_s", secs(Layer::RegionFree), "s");
    m.push("region.access_s", secs(Layer::RegionAccess), "s");
    m.push("region.transfer_s", secs(Layer::RegionTransfer), "s");
    m.push("core.dispatch_s", secs(Layer::CoreDispatch), "s");
    m.push("core.body_s", secs(Layer::CoreBody), "s");
    m.push("core.recovery_s", secs(Layer::CoreRecovery), "s");
    m.push("core.pre_s", if serves { 0.0 } else { pre }, "s");
    m.push("core.post_s", if serves { 0.0 } else { post }, "s");
    m.push("serve.pre_s", if serves { pre } else { 0.0 }, "s");
    m.push("serve.admit_s", secs(Layer::ServeAdmit), "s");
    m.push("serve.post_s", if serves { post } else { 0.0 }, "s");
    m.push(
        "obs.layer_coverage",
        prof.total().as_secs_f64() / traced.as_secs_f64(),
        "frac",
    );
    m.push("obs.trace_overhead", traced.as_secs_f64() / host_s, "ratio");

    let (mut copied, mut retries, mut faults, mut trace_events, mut moved) =
        (0u64, 0u64, 0u64, 0usize, 0u64);
    for unit in &done.units {
        let events = unit.rt.trace().events();
        trace_events += events.len();
        moved += unit.report.run().bytes_moved;
        for e in events {
            match e {
                TraceEvent::Migrate { bytes, .. } => copied += bytes,
                TraceEvent::TaskRetry { .. } => retries += 1,
                TraceEvent::FaultDetected { .. } => faults += 1,
                _ => {}
            }
        }
    }
    m.push("region.bytes_copied", copied as f64, "B");
    m.push("region.bytes_moved", moved as f64, "B");
    m.push(
        "region.handover_copies",
        timed.handover_copies as f64,
        "count",
    );
    m.push(
        "region.ownership_transfers",
        timed.ownership_transfers as f64,
        "count",
    );
    let handovers = timed.handover_copies + timed.ownership_transfers;
    m.push(
        "region.transfer_ratio",
        timed.ownership_transfers as f64 / handovers.max(1) as f64,
        "frac",
    );
    m.push("core.events", timed.events as f64, "count");
    m.push("core.tasks", timed.tasks as f64, "count");
    m.push(
        "core.ns_per_event",
        host_s * 1e9 / timed.events.max(1) as f64,
        "ns",
    );
    m.push("core.retries", retries as f64, "count");
    m.push("core.faults_detected", faults as f64, "count");
    m.push("hwsim.trace_events", trace_events as f64, "count");
    m.push("serve.shed", timed.shed as f64, "count");
    m.push("serve.degraded", timed.degraded as f64, "count");
    m.push("serve.fast_failed", timed.fast_failed as f64, "count");
    m.push("serve.breaker_trips", timed.breaker_trips as f64, "count");
    m.push("serve.peak_pool_util", timed.peak_pool_util, "frac");
    m.push(
        "failed_frac",
        timed.failed() as f64 / timed.offered as f64,
        "frac",
    );

    obs_calls(plan, &done, &mut m)?;
    sched_plan(plan, &mut m)?;
    Ok((m, (prof, traced)))
}

/// Times the observability layer's analyses on each rack's trace
/// buffer, summed over the racks.
fn obs_calls(plan: &Plan, done: &Executed, m: &mut Metrics) -> Result<(), String> {
    let slo = plan.slo_p99();
    let mut t = [Duration::ZERO; 5];
    for unit in &done.units {
        let events = unit.rt.trace().events();
        let at = Instant::now();
        let spans = black_box(disagg_obs::assemble_request_spans(events));
        t[0] += at.elapsed();
        let at = Instant::now();
        black_box(disagg_obs::tail_attribution(&spans));
        t[1] += at.elapsed();
        let at = Instant::now();
        black_box(disagg_obs::slo_burn_by(&spans, 16, |_| slo));
        t[2] += at.elapsed();
        let at = Instant::now();
        let doc = disagg_obs::serving_chrome_trace(events, unit.rt.topology(), &spans);
        let stats =
            disagg_obs::validate_chrome_trace(&doc).map_err(|e| format!("chrome trace: {e}"))?;
        t[3] += at.elapsed();
        if stats.request_spans < spans.len() {
            return Err(format!(
                "chrome trace has {} request spans for {} spans",
                stats.request_spans,
                spans.len()
            ));
        }
        let at = Instant::now();
        black_box(unit.report.run().critical_paths(3));
        t[4] += at.elapsed();
    }
    let names = [
        "obs.spans_s",
        "obs.tail_s",
        "obs.burn_s",
        "obs.chrome_s",
        "obs.critical_path_s",
    ];
    for (name, d) in names.into_iter().zip(t) {
        m.push(name, d.as_secs_f64(), "s");
    }
    Ok(())
}

/// Times `Scheduler::plan` directly on the pass's batch (for serving,
/// the offered requests' jobs).
fn sched_plan(plan: &Plan, m: &mut Metrics) -> Result<(), String> {
    let topo = plan.topology();
    let jobs = plan.jobs();
    let tasks: usize = jobs.iter().map(|j| j.tasks.len()).sum();
    let pairs: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (JobId(i as u64), j))
        .collect();
    let scheduler = Scheduler::new(RuntimeConfig::default().sched);
    let mut times = Vec::with_capacity(PLAN_REPS);
    for _ in 0..PLAN_REPS {
        let t = Instant::now();
        black_box(
            scheduler
                .plan(&topo, &pairs)
                .map_err(|e| format!("plan: {e}"))?,
        );
        times.push(t.elapsed().as_secs_f64());
    }
    let plan_s = median(&times);
    m.push("sched.plan_s", plan_s, "s");
    m.push(
        "sched.plan_ns_per_task",
        plan_s * 1e9 / tasks.max(1) as f64,
        "ns",
    );
    Ok(())
}
