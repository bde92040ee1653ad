//! End-to-end tests for the runtime executor.

use disagg_core::prelude::*;
use disagg_hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
use disagg_hwsim::presets::{disaggregated_rack, single_server};
use disagg_hwsim::trace::TraceEvent;

fn passthrough(bytes: usize) -> impl Fn(&mut TaskCtx<'_, '_>) -> Result<(), TaskError> {
    move |ctx| {
        let mut buf = vec![0u8; bytes];
        if !ctx.inputs().is_empty() {
            ctx.read_input(0, &mut buf)?;
        }
        ctx.write_output(0, &buf)?;
        Ok(())
    }
}

#[test]
fn linear_pipeline_is_all_ownership_transfers() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("pipe");
    let n = 5;
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .work(WorkClass::Vector, 10_000)
                    .output_bytes(1 << 20)
                    .body(passthrough(1 << 20)),
            )
        })
        .collect();
    job.chain(&ids);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, (n - 1) as u64);
    assert_eq!(report.handover_copies, 0);
    assert_eq!(report.transfer_ratio(), 1.0);
    assert!(report.makespan > SimDuration::ZERO);
    // 4 handovers of 1 MiB avoided any wire movement.
    assert_eq!(report.bytes_ownership_transferred, 4 << 20);
}

#[test]
fn always_copy_baseline_moves_every_byte() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(
        topo,
        RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy),
    );
    let mut job = JobBuilder::new("pipe");
    let ids: Vec<TaskId> = (0..3)
        .map(|i| {
            job.task(
                TaskSpec::new(format!("t{i}"))
                    .output_bytes(1 << 20)
                    .body(passthrough(1 << 20)),
            )
        })
        .collect();
    job.chain(&ids);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 0);
    assert_eq!(report.handover_copies, 2);
    assert!(report.bytes_moved >= 2 << 20, "copies must move the bytes");
}

#[test]
fn fan_out_of_a_never_written_output_copies_no_host_bytes() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::default());
    let mut job = JobBuilder::new("fan-out");
    let src = job.task(TaskSpec::new("src").output_bytes(128 << 20));
    for i in 0..3 {
        let t = job.task(TaskSpec::new(format!("c{i}")).output_bytes(4096));
        job.edge(src, t);
    }
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.handover_copies, 2, "one transfer, two copies");
    assert_eq!(report.host_bytes_copied, 0, "the copies share the zero page");
}

#[test]
fn written_fan_out_copies_only_the_partial_tail_page() {
    // The diamond's source writes its 4 KiB output, so the copy to the
    // second consumer memcpy's that one partial page.
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::default());
    let report = rt.execute(diamond_job()).unwrap();
    assert_eq!(report.handover_copies, 1);
    assert_eq!(report.host_bytes_copied, 4096);
}

#[test]
fn bytes_moved_is_the_same_traced_or_not() {
    let run = |config: RuntimeConfig| {
        let mut rt = Runtime::new(two_workers(), config);
        rt.execute(diamond_job()).unwrap().bytes_moved
    };
    let traced = run(RuntimeConfig::traced());
    assert!(traced > 0);
    assert_eq!(run(RuntimeConfig::default()), traced);
}

#[test]
fn byte_counters_are_per_wave_and_match_the_trace() {
    // Two waves on one runtime: each report counts only its own wave,
    // the two add up to the trace's totals, and an untraced runtime
    // reports the same values.
    let run = |config: RuntimeConfig| {
        let mut rt = Runtime::new(two_workers(), config);
        let waves: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let r = rt.execute(diamond_job()).unwrap();
                (r.bytes_moved, r.bytes_ownership_transferred)
            })
            .collect();
        (waves, rt.trace().events().to_vec())
    };
    let (traced, events) = run(RuntimeConfig::traced());
    assert_eq!(traced[0], traced[1], "identical waves count identical bytes");
    assert!(traced[0].0 > 0 && traced[0].1 > 0);
    let moved: u64 = events
        .iter()
        .map(|e| match *e {
            TraceEvent::Access { bytes, .. } | TraceEvent::Migrate { bytes, .. } => bytes,
            _ => 0,
        })
        .sum();
    let transferred: u64 = events
        .iter()
        .map(|e| match *e {
            TraceEvent::OwnershipTransfer { bytes, .. } => bytes,
            _ => 0,
        })
        .sum();
    assert_eq!((traced[0].0 + traced[1].0, traced[0].1 + traced[1].1), (moved, transferred));
    let (untraced, _) = run(RuntimeConfig::default());
    assert_eq!(untraced, traced);
}

#[test]
fn hospital_dataflow_properties_are_honored() {
    // Figure 2: the five-task hospital job with its property annotations.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("hospital").defaults(TaskProps {
        confidential: Some(true),
        ..TaskProps::default()
    });
    let t1 = job.task(
        TaskSpec::new("preprocessing")
            .on(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Vector, 1_000_000)
            .private_scratch(1 << 20)
            .output_bytes(1 << 20)
            .body(passthrough(1 << 20)),
    );
    let t2 = job.task(
        TaskSpec::new("face-recognition")
            .on(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .work(WorkClass::Tensor, 10_000_000)
            .private_scratch(8 << 20)
            .output_bytes(64 << 10)
            .body(passthrough(64 << 10)),
    );
    let t3 = job.task(
        TaskSpec::new("track-hours")
            .on(ComputeKind::Cpu)
            .work(WorkClass::Scalar, 100_000)
            .private_scratch(1 << 16)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    let t4 = job.task(
        TaskSpec::new("compute-utilization")
            .on(ComputeKind::Cpu)
            .confidential(false)
            .work(WorkClass::Scalar, 10_000)
            .output_bytes(1024)
            .body(passthrough(1024)),
    );
    let t5 = job.task(
        TaskSpec::new("alert-caregivers")
            .on(ComputeKind::Cpu)
            .persistent(true)
            .work(WorkClass::Scalar, 10_000)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    job.edge(t1, t2);
    job.edge(t2, t3);
    job.edge(t2, t4);
    job.edge(t2, t5);

    let report = rt.execute(job.build().unwrap()).unwrap();
    assert!(report.placements_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.tasks.len(), 5);

    // GPU tasks ran on the GPU.
    let face = report.task_by_name(JobId(0), "face-recognition").unwrap();
    assert_eq!(rt.topology().compute(face.compute).kind, ComputeKind::Gpu);

    // The persistent alert output survived on a persistent device and is
    // still live (App scope) after the job finished.
    let alert = report.task_by_name(JobId(0), "alert-caregivers").unwrap();
    let (_, out_region, out_dev) = alert
        .placements
        .iter()
        .find(|(kind, _, _)| *kind == "output")
        .expect("alert task has an output placement");
    assert!(rt.topology().mem(*out_dev).persistent);
    assert!(rt.manager().is_live(*out_region), "persistent result survives");
}

#[test]
fn figure3_same_request_maps_to_dram_on_cpu_and_gddr_on_gpu() {
    let (topo, ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("fig3");
    job.task(
        TaskSpec::new("cpu-task")
            .require(ComputeKind::Cpu)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 30)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    job.task(
        TaskSpec::new("gpu-task")
            .require(ComputeKind::Gpu)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 30)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    let report = rt.execute(job.build().unwrap()).unwrap();
    let scratch_dev = |name: &str| {
        report
            .task_by_name(JobId(0), name)
            .unwrap()
            .placements
            .iter()
            .find(|(k, _, _)| *k == "private_scratch")
            .unwrap()
            .2
    };
    assert_eq!(scratch_dev("cpu-task"), ids.dram);
    assert_eq!(scratch_dev("gpu-task"), ids.gddr);
}

#[test]
fn fan_out_gives_first_consumer_the_transfer_and_copies_the_rest() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("fanout");
    let src = job.task(
        TaskSpec::new("src")
            .output_bytes(1 << 16)
            .body(passthrough(1 << 16)),
    );
    let consumers: Vec<TaskId> = (0..3)
        .map(|i| {
            job.task(TaskSpec::new(format!("c{i}")).body(|ctx| {
                let mut buf = [0u8; 16];
                ctx.read_input(0, &mut buf)?;
                Ok(())
            }))
        })
        .collect();
    for &c in &consumers {
        job.edge(src, c);
    }
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 1);
    assert_eq!(report.handover_copies, 2);
}

#[test]
fn global_state_is_shared_across_tasks_of_a_job() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("stateful");
    let w = job.task(TaskSpec::new("writer").body(|ctx| {
        ctx.state_write(0, &[42u8; 8])?;
        Ok(())
    }));
    let r = job.task(TaskSpec::new("reader").body(|ctx| {
        let mut buf = [0u8; 8];
        ctx.state_read(0, &mut buf)?;
        if buf != [42u8; 8] {
            return Err(TaskError::new("global state not visible"));
        }
        Ok(())
    }));
    job.edge(w, r);
    let spec = job.global_state(4096).build().unwrap();
    let report = rt.execute(spec).unwrap();
    assert_eq!(report.tasks.len(), 2);
}

#[test]
fn published_global_scratch_is_reusable_downstream() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("publish");
    let producer = job.task(
        TaskSpec::new("build-index")
            .global_scratch(1 << 16)
            .output_bytes(64)
            .body(|ctx| {
                let idx = ctx.global_scratch()?;
                ctx.async_write(idx, 0, &[0xCC; 1024])?;
                ctx.wait_async();
                ctx.publish("index", idx);
                ctx.write_output(0, &[0u8; 64])?;
                Ok(())
            }),
    );
    let consumer = job.task(TaskSpec::new("reuse-index").body(|ctx| {
        let idx = ctx
            .lookup("index")
            .ok_or_else(|| TaskError::new("index not published"))?;
        let mut buf = [0u8; 1024];
        ctx.async_read(idx, 0, &mut buf)?;
        ctx.wait_async();
        if buf != [0xCC; 1024] {
            return Err(TaskError::new("index contents wrong"));
        }
        Ok(())
    }));
    job.edge(producer, consumer);
    rt.execute(job.build().unwrap()).unwrap();
}

#[test]
fn node_crash_fails_over_to_another_compute_device() {
    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let crash_node = topo.node_of_compute(rack.cpus[0]);
    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::NodeCrash(crash_node),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let mut job = JobBuilder::new("failover");
    job.task(
        TaskSpec::new("work")
            .work(WorkClass::Scalar, 1_000)
            .private_scratch(4096)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    let report = rt.execute(job.build().unwrap()).unwrap();
    let t = &report.tasks[0];
    assert_ne!(
        rt.topology().node_of_compute(t.compute),
        crash_node,
        "task must not run on the crashed node"
    );
}

#[test]
fn confidential_region_cross_job_access_is_denied() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    // Job 0 leaves behind a persistent, confidential result.
    let mut job0 = JobBuilder::new("secret-job");
    job0.task(
        TaskSpec::new("write-secret")
            .confidential(true)
            .persistent(true)
            .output_bytes(4096)
            .body(passthrough(4096)),
    );
    let report0 = rt.execute(job0.build().unwrap()).unwrap();
    let (_, secret, _) = report0.tasks[0]
        .placements
        .iter()
        .find(|(k, _, _)| *k == "output")
        .copied()
        .expect("secret output placed");

    // Job 1 tries to read it: denied by ownership + confidentiality.
    let mut job1 = JobBuilder::new("snoop-job");
    job1.task(TaskSpec::new("snoop").body(move |ctx| {
        let mut buf = [0u8; 16];
        match ctx.acc.read(secret, 0, &mut buf, AccessPattern::Random) {
            Err(e) => Err(TaskError::from(e)),
            Ok(_) => Ok(()),
        }
    }));
    let err = rt.execute(job1.build().unwrap()).unwrap_err();
    match err {
        RuntimeError::Task { error, .. } => {
            assert!(error.is_confidentiality_denial(), "got: {}", error.msg)
        }
        other => panic!("expected task failure, got {other}"),
    }
}

#[test]
fn multi_job_batch_reports_all_tasks_and_advances_clock() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        let a = j.task(TaskSpec::new("a").output_bytes(1024).body(passthrough(1024)));
        let b = j.task(TaskSpec::new("b").body(|_| Ok(())));
        j.edge(a, b);
        j.build().unwrap()
    };
    let report = rt.execute(vec![mk("one"), mk("two")]).unwrap();
    assert_eq!(report.tasks.len(), 4);
    assert!(rt.now() > SimTime::ZERO);
    let first_clock = rt.now();
    rt.execute(vec![mk("three")]).unwrap();
    assert!(rt.now() > first_clock, "clock is monotonic across batches");
}

#[test]
fn declarative_beats_worst_feasible_placement() {
    let mk_job = || {
        let mut j = JobBuilder::new("scan");
        j.task(
            TaskSpec::new("scan")
                .work(WorkClass::Scalar, 1_000_000)
                .private_scratch(64 << 20)
                .body(|ctx| {
                    let mut buf = vec![0u8; 1 << 20];
                    for i in 0..16u64 {
                        ctx.scratch_read((i * (1 << 20)) % (32 << 20), &mut buf)?;
                    }
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let run = |policy: PlacementPolicy| {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_placement(policy));
        rt.execute(mk_job()).unwrap().makespan
    };
    let good = run(PlacementPolicy::Declarative);
    let bad = run(PlacementPolicy::WorstFeasible);
    assert!(
        bad.as_nanos() > 2 * good.as_nanos(),
        "worst {bad} should be >2x declarative {good}"
    );
}

#[test]
fn lifetime_rule_frees_scratch_after_task_exit() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("cleanup");
    job.task(
        TaskSpec::new("t")
            .private_scratch(1 << 20)
            .body(|ctx| {
                ctx.scratch_write(0, &[1u8; 64])?;
                Ok(())
            }),
    );
    rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(
        rt.manager().live_count(),
        0,
        "no regions outlive a job without persistent outputs"
    );
}

#[test]
fn streaming_chains_pipeline_and_batch_chains_do_not() {
    // A chain of 4 heavy tasks. As a batch job, stages run back-to-back;
    // declared streaming, each stage starts once its predecessor's first
    // chunk is out.
    let run = |streaming: bool| {
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let mut job = JobBuilder::new("chain");
        let ids: Vec<TaskId> = (0..4)
            .map(|i| {
                job.task(
                    TaskSpec::new(format!("s{i}"))
                        .streaming(streaming)
                        .work(WorkClass::Scalar, 1_000_000)
                        .output_bytes(1 << 20)
                        .body(|ctx| {
                            ctx.compute(WorkClass::Scalar, 1_000_000);
                            ctx.write_output(0, &[1u8; 1 << 20])?;
                            Ok(())
                        }),
                )
            })
            .collect();
        job.chain(&ids);
        rt.execute(job.build().unwrap()).unwrap().makespan
    };
    let batch = run(false);
    let streamed = run(true);
    let speedup = batch.as_nanos_f64() / streamed.as_nanos_f64();
    assert!(
        speedup > 2.0,
        "streaming chain should pipeline: batch {batch} vs streamed {streamed} ({speedup:.2}x)"
    );
    assert!(
        speedup < 4.0,
        "4 stages cannot speed up more than 4x, got {speedup:.2}x"
    );
}

#[test]
fn mixed_streaming_edges_only_pipeline_between_streaming_tasks() {
    // stream → batch → stream: the batch stage forces a full barrier.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("mixed");
    let mk = |name: &str, streaming: bool| {
        TaskSpec::new(name)
            .streaming(streaming)
            .work(WorkClass::Scalar, 1_000_000)
            .output_bytes(1 << 16)
            .body(|ctx| {
                ctx.compute(WorkClass::Scalar, 1_000_000);
                ctx.write_output(0, &[1u8; 1 << 16])?;
                Ok(())
            })
    };
    let a = job.task(mk("a", true));
    let b = job.task(mk("b", false));
    let c = job.task(mk("c", true));
    job.chain(&[a, b, c]);
    let report = rt.execute(job.build().unwrap()).unwrap();
    let at = report.task_by_name(JobId(0), "a").unwrap();
    let bt = report.task_by_name(JobId(0), "b").unwrap();
    let ct = report.task_by_name(JobId(0), "c").unwrap();
    // a→b is not pipelined (b is batch): b starts after a finishes.
    assert!(bt.start >= at.finish);
    // b→c is not pipelined either (b is batch).
    assert!(ct.start >= bt.finish);
}

#[test]
fn mid_task_node_crash_retries_on_a_survivor() {
    // The assigned node dies halfway through the task; the body re-runs
    // on a surviving node and the job still completes — paying for both
    // attempts.
    let (topo, rack) = disaggregated_rack(2, 32, 2, 64);
    let victim = topo.node_of_compute(rack.cpus[0]);

    // Baseline: how long does the task take without faults?
    let mk_job = || {
        let mut j = JobBuilder::new("crashy");
        j.task(
            TaskSpec::new("work")
                .require(ComputeKind::Cpu)
                .work(WorkClass::Scalar, 2_000_000)
                .private_scratch(1 << 20)
                .body(|ctx| {
                    ctx.scratch_write(0, &[1u8; 4096])?;
                    ctx.compute(WorkClass::Scalar, 2_000_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let healthy = {
        let (topo, _) = disaggregated_rack(2, 32, 2, 64);
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        rt.execute(mk_job()).unwrap()
    };
    let healthy_task = &healthy.tasks[0];
    let healthy_dur = healthy_task.duration();
    // Crash the node that ran it, halfway through its runtime.
    let crash_at = healthy_task.start + healthy_dur / 2;
    assert_eq!(
        healthy
            .tasks
            .iter()
            .filter(|t| t.name == "work")
            .count(),
        1
    );

    let faults = FaultInjector::with_events(vec![FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash(victim),
    }]);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced().with_faults(faults));
    let report = rt.execute(mk_job()).unwrap();
    let t = &report.tasks[0];
    assert_ne!(
        rt.topology().node_of_compute(t.compute),
        victim,
        "the retry must land on a surviving node"
    );
    assert!(
        t.duration().as_nanos() > healthy_dur.as_nanos() * 13 / 10,
        "the retry pays for both attempts: {} vs healthy {}",
        t.duration(),
        healthy_dur
    );
}

#[test]
fn arrivals_gate_job_starts_and_makespan_extends_past_the_last_one() {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        j.task(
            TaskSpec::new("t")
                .work(WorkClass::Scalar, 100_000)
                .body(|ctx| {
                    ctx.compute(WorkClass::Scalar, 100_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let report = rt
        .execute(vec![
            (SimDuration::ZERO, mk("first")),
            (SimDuration::from_micros(500), mk("second")),
            (SimDuration::from_millis(2), mk("third")),
        ])
        .unwrap();
    let start_of = |job: u64| {
        report
            .tasks
            .iter()
            .find(|t| t.job == JobId(job))
            .unwrap()
            .start
    };
    assert_eq!(start_of(0), SimTime::ZERO);
    assert!(start_of(1) >= SimTime(500_000));
    assert!(start_of(1) < SimTime(1_000_000), "no reason to delay past arrival");
    assert!(start_of(2) >= SimTime(2_000_000));
    // The last arrival lands at 2 ms; its ~100 us of work extends the
    // makespan past that.
    assert!(report.makespan > SimDuration::from_millis(2));
}

#[test]
fn app_published_regions_are_reusable_across_jobs() {
    // Job 0 builds an index and publishes it at application scope; job 1
    // (a different job, no dataflow edge) finds and reads it — the
    // paper's "re-use (transient) results of earlier operators" across
    // job boundaries.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut builder = JobBuilder::new("builder");
    builder.task(
        TaskSpec::new("build-index")
            .global_scratch(1 << 16)
            .body(|ctx| {
                let idx = ctx.global_scratch()?;
                ctx.async_write(idx, 0, &[0xEE; 512])?;
                ctx.wait_async();
                ctx.publish_app("shared-index", idx);
                Ok(())
            }),
    );
    rt.execute(builder.build().unwrap()).unwrap();
    assert!(rt.manager().live_count() >= 1, "the index must survive job 0");

    let mut consumer = JobBuilder::new("consumer");
    consumer.task(TaskSpec::new("reuse").body(|ctx| {
        let idx = ctx
            .lookup("shared-index")
            .ok_or_else(|| TaskError::new("app index not found"))?;
        let mut buf = [0u8; 512];
        ctx.async_read(idx, 0, &mut buf)?;
        ctx.wait_async();
        if buf != [0xEE; 512] {
            return Err(TaskError::new("index contents wrong"));
        }
        Ok(())
    }));
    rt.execute(consumer.build().unwrap()).unwrap();
}

#[test]
fn app_published_confidential_regions_stay_isolated() {
    // App scope does not leak confidential data across jobs: the region
    // manager's confidentiality check fires before hierarchical access.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut secret = JobBuilder::new("secret");
    secret.task(
        TaskSpec::new("keeper")
            .confidential(true)
            .global_scratch(4096)
            .body(|ctx| {
                let r = ctx.global_scratch()?;
                ctx.async_write(r, 0, b"classified")?;
                ctx.wait_async();
                ctx.publish_app("leaky", r);
                Ok(())
            }),
    );
    rt.execute(secret.build().unwrap()).unwrap();

    let mut snoop = JobBuilder::new("snoop");
    snoop.task(TaskSpec::new("snoop").body(|ctx| {
        let r = ctx.lookup("leaky").ok_or_else(|| TaskError::new("gone"))?;
        let mut buf = [0u8; 10];
        match ctx.async_read(r, 0, &mut buf) {
            Err(e) => Err(e),
            Ok(_) => Ok(()),
        }
    }));
    let err = rt.execute(snoop.build().unwrap()).unwrap_err();
    match err {
        RuntimeError::Task { error, .. } => {
            assert!(error.is_confidentiality_denial(), "got: {}", error.msg)
        }
        other => panic!("expected denial, got {other}"),
    }
}

#[test]
fn runtime_tiering_promotes_hot_app_regions_and_respects_properties() {
    use disagg_region::migrate::TieringPolicy;
    use disagg_region::props::{AccessMode, PropertySet};
    use disagg_region::region::OwnerId;
    use disagg_region::typed::RegionType;

    let (topo, ids) = single_server();
    let dram = ids.dram;
    let cxl = ids.cxl;
    let pmem = ids.pmem;
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    // An App-scoped region parked on CXL (a cold-start placement), and a
    // persistent one on PMem that must never move to volatile memory.
    let hot = rt
        .manager_mut()
        .alloc(
            cxl,
            1 << 20,
            RegionType::GlobalScratch,
            PropertySet::new().with_mode(AccessMode::Async),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();
    let pinned = rt
        .manager_mut()
        .alloc(
            pmem,
            1 << 20,
            RegionType::GlobalScratch,
            PropertySet::new().persistent(true),
            OwnerId::App,
            SimTime::ZERO,
        )
        .unwrap();

    // A job hammers the CXL region (heat flows in through the trace).
    let mut j = JobBuilder::new("heater");
    j.task(TaskSpec::new("hammer").body(move |ctx| {
        let mut buf = [0u8; 4096];
        for i in 0..64u64 {
            ctx.acc
                .read(hot, (i * 4096) % ((1 << 20) - 4096), &mut buf, AccessPattern::Random)?;
        }
        Ok(())
    }));
    rt.execute(j.build().unwrap()).unwrap();
    assert!(rt.hotness().stat(hot).score > 0.0, "heat must accumulate");

    let mut policy = TieringPolicy::new(vec![dram, cxl, pmem]);
    policy.promote_score = 4.0;
    let moved = rt.run_tiering(&policy).unwrap();
    assert!(
        moved.iter().any(|&(r, to, _)| r == hot && to == dram),
        "the hot CXL region should promote to DRAM: {moved:?}"
    );
    assert!(
        moved.iter().all(|&(r, _, _)| r != pinned),
        "the persistent region must not move to volatile tiers"
    );
    assert_eq!(rt.manager().placement(hot).unwrap().dev, dram);
    assert_eq!(rt.manager().placement(pinned).unwrap().dev, pmem);
}

// ---------------------------------------------------------------------
// Out-of-order executor invariants.
// ---------------------------------------------------------------------

/// Two nodes, each with a single-slot CPU and local DRAM, joined by a
/// NUMA interconnect: the smallest topology where genuine multi-device
/// overlap is observable (each device can only run one task at a time).
fn two_workers() -> disagg_hwsim::topology::Topology {
    use disagg_hwsim::compute::ComputeModel;
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::{Endpoint, LinkKind, Topology};

    let mut b = Topology::builder();
    let mut serial_cpu = ComputeModel::preset(ComputeKind::Cpu);
    serial_cpu.slots = 1;
    let s0 = b.node("worker0");
    let s1 = b.node("worker1");
    let cpu0 = b.compute(s0, serial_cpu.clone());
    let cpu1 = b.compute(s1, serial_cpu);
    let dram0 = b.mem(s0, MemDeviceModel::preset(MemDeviceKind::Dram));
    let dram1 = b.mem(s1, MemDeviceModel::preset(MemDeviceKind::Dram));
    b.link(cpu0, dram0, LinkKind::MemBus);
    b.link(cpu1, dram1, LinkKind::MemBus);
    b.link(cpu0, Endpoint::Hub(s0), LinkKind::MemBus);
    b.link(cpu1, Endpoint::Hub(s1), LinkKind::MemBus);
    b.link(Endpoint::Hub(s0), Endpoint::Hub(s1), LinkKind::Numa);
    b.link(Endpoint::Hub(s0), dram0, LinkKind::MemBus);
    b.link(Endpoint::Hub(s1), dram1, LinkKind::MemBus);
    b.build().expect("two-worker topology is valid")
}

/// A diamond: source → {left, right} → sink, every task ~1 ms of scalar
/// compute with a small output.
fn diamond_job() -> JobSpec {
    let mut j = JobBuilder::new("diamond");
    let mk = |name: &str| {
        TaskSpec::new(name)
            .work(WorkClass::Scalar, 1_000_000)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.compute(WorkClass::Scalar, 1_000_000);
                ctx.write_output(0, &[1u8; 4096])?;
                Ok(())
            })
    };
    let source = j.task(mk("source"));
    let left = j.task(mk("left"));
    let right = j.task(mk("right"));
    let sink = j.task(mk("sink"));
    j.edge(source, left);
    j.edge(source, right);
    j.edge(left, sink);
    j.edge(right, sink);
    j.build().unwrap()
}

#[test]
fn diamond_on_two_devices_beats_the_serial_sum() {
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(diamond_job()).unwrap();
    assert_eq!(report.tasks.len(), 4);
    let serial_sum: SimDuration = report.tasks.iter().map(|t| t.duration()).sum();
    assert!(
        report.makespan < serial_sum,
        "parallel arms must overlap: makespan {} vs serial sum {}",
        report.makespan,
        serial_sum
    );
    // The two arms genuinely ran concurrently (in virtual time) on the
    // two single-slot devices.
    let left = report.task_by_name(JobId(0), "left").unwrap();
    let right = report.task_by_name(JobId(0), "right").unwrap();
    assert_ne!(left.compute, right.compute, "arms spread across devices");
    assert!(
        left.start < right.finish && right.start < left.finish,
        "arm executions overlap in virtual time"
    );
}

#[test]
fn makespan_is_bounded_below_by_the_critical_path() {
    // For non-streaming tasks, every DAG path must execute end-to-end
    // in sequence, so the makespan can never undercut the longest path
    // of observed task durations.
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(diamond_job()).unwrap();
    let dur = |name: &str| report.task_by_name(JobId(0), name).unwrap().duration();
    let critical_path =
        dur("source") + dur("left").max(dur("right")) + dur("sink");
    assert!(
        report.makespan >= critical_path,
        "makespan {} below critical path {}",
        report.makespan,
        critical_path
    );
}

#[test]
fn same_submission_is_bit_for_bit_deterministic() {
    let run = || {
        let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
        rt.execute(diamond_job()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.ownership_transfers, b.ownership_transfers);
    assert_eq!(a.handover_copies, b.handover_copies);
    assert_eq!(a.bytes_moved, b.bytes_moved);
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
        assert_eq!((x.job, x.task, x.compute), (y.job, y.task, y.compute));
        assert_eq!((x.start, x.finish), (y.start, y.finish));
    }
}

#[test]
fn every_queue_policy_runs_the_full_dag() {
    for policy in [
        QueuePolicy::CostRank,
        QueuePolicy::Fifo,
        QueuePolicy::ShortestFirst,
    ] {
        let mut rt = Runtime::new(
            two_workers(),
            RuntimeConfig::traced().with_queue(policy),
        );
        let report = rt.execute(diamond_job()).unwrap();
        assert_eq!(report.tasks.len(), 4, "{policy:?} ran every task");
        let serial_sum: SimDuration = report.tasks.iter().map(|t| t.duration()).sum();
        assert!(
            report.makespan < serial_sum,
            "{policy:?} still overlaps the arms"
        );
    }
}

#[test]
fn dispatch_is_visible_in_the_trace() {
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    rt.execute(diamond_job()).unwrap();
    let queued = rt
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TaskQueued { .. }))
        .count();
    let dispatched = rt
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TaskDispatch { .. }))
        .count();
    assert_eq!(queued, 4, "every task passes through a ready queue");
    assert_eq!(dispatched, 4, "every task is dispatched exactly once");
    // The sink must have waited in a queue for a lane only if both arms
    // contended; regardless, no dispatch may precede its queueing.
    for e in rt.trace().events() {
        if let TraceEvent::TaskDispatch { waited, .. } = e {
            assert!(*waited >= SimDuration::ZERO);
        }
    }
}

#[test]
fn quickstart_handover_count_is_unchanged() {
    // The crate-level quickstart promises exactly one zero-copy
    // ownership transfer; the out-of-order executor must keep it.
    let (topo, _ids) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let mut job = JobBuilder::new("quickstart");
    let produce = job.task(
        TaskSpec::new("produce")
            .work(WorkClass::Vector, 10_000)
            .output_bytes(4096)
            .body(|ctx| {
                ctx.write_output(0, &[7u8; 4096])?;
                Ok(())
            }),
    );
    let consume = job.task(TaskSpec::new("consume").body(|ctx| {
        let mut buf = [0u8; 4096];
        ctx.read_input(0, &mut buf)?;
        assert!(buf.iter().all(|&b| b == 7));
        Ok(())
    }));
    job.edge(produce, consume);
    let report = rt.execute(job.build().unwrap()).unwrap();
    assert_eq!(report.ownership_transfers, 1);
    assert!(report.placements_clean());
}

#[test]
fn independent_jobs_interleave_on_the_devices() {
    // Two single-task jobs submitted as one batch must not serialize
    // behind each other when two devices are free.
    let mk = |name: &str| {
        let mut j = JobBuilder::new(name);
        j.task(
            TaskSpec::new("t")
                .work(WorkClass::Scalar, 1_000_000)
                .body(|ctx| {
                    ctx.compute(WorkClass::Scalar, 1_000_000);
                    Ok(())
                }),
        );
        j.build().unwrap()
    };
    let mut rt = Runtime::new(two_workers(), RuntimeConfig::traced());
    let report = rt.execute(vec![mk("one"), mk("two")]).unwrap();
    let serial_sum: SimDuration = report.tasks.iter().map(|t| t.duration()).sum();
    assert!(
        report.makespan < serial_sum,
        "independent jobs overlap: makespan {} vs serial {}",
        report.makespan,
        serial_sum
    );
}

#[test]
fn reports_contain_only_their_own_runs_findings() {
    // Run 1 provokes a confidential denial; run 2 is clean. Each report
    // carries its own findings, not the runtime's whole history.
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    let mut secret = JobBuilder::new("secret");
    secret.task(
        TaskSpec::new("keeper")
            .confidential(true)
            .persistent(true)
            .output_bytes(1024)
            .body(|ctx| {
                ctx.write_output(0, b"shh")?;
                Ok(())
            }),
    );
    let r1 = rt.execute(secret.build().unwrap()).unwrap();
    assert!(r1.violations.is_empty());

    let mut clean = JobBuilder::new("clean");
    clean.task(TaskSpec::new("noop").body(|_| Ok(())));
    let r2 = rt.execute(clean.build().unwrap()).unwrap();
    assert!(
        r2.violations.is_empty() && r2.denials == 0,
        "run 2 must not inherit run 1's audit history"
    );
}
