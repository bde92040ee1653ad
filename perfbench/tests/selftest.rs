//! Self-tests of the benchmark at tiny sizes: every workload passes its
//! correctness gate on two seeds, the seed reaches the inputs, virtual
//! results repeat exactly, and the traced pass's layers tile its host
//! time.

use disagg_perfbench::layers::Layer;
use disagg_perfbench::run::{run, Options, RunOutput};
use disagg_perfbench::workloads::{Plan, Report, Scale, Workload};

const END_TO_END: [&str; 7] = [
    "setup_s",
    "host_s",
    "makespan_ms",
    "p50_ms",
    "p90_ms",
    "slo_goodput",
    "served_frac",
];

fn tiny(workload: Workload, seed: u64) -> RunOutput {
    let opts = Options {
        workload,
        seed,
        seconds: 0.001,
        trace: true,
        scale: Scale::TINY,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
}

#[test]
fn every_workload_passes_its_gate_and_the_seed_reaches_the_inputs() {
    for w in Workload::ALL {
        let a = tiny(w, 1);
        let b = tiny(w, 2);
        assert_ne!(
            a.outcome,
            b.outcome,
            "{}: two seeds gave the same virtual outcome",
            w.name()
        );
        for out in [&a, &b] {
            assert!(out.attempted >= 1);
            let names: Vec<_> = out.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END, "{}", w.name());
            for m in out.end_to_end.iter() {
                assert!(
                    m.value > 0.0,
                    "{}: end-to-end {} is {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn virtual_results_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let a = tiny(w, 7);
        let b = tiny(w, 7);
        assert_eq!(a.outcome, b.outcome, "{}", w.name());
        for name in &END_TO_END[2..] {
            assert_eq!(
                a.end_to_end.get(name),
                b.end_to_end.get(name),
                "{} {name}",
                w.name()
            );
        }
    }
}

#[test]
fn traced_layers_sum_to_the_traced_host_time() {
    for w in Workload::ALL {
        let out = tiny(w, 3);
        let (prof, traced) = out.profile.expect("trace 1 profiles the layers");
        let share = prof.total().as_secs_f64() / traced.as_secs_f64();
        assert!(
            (0.95..=1.0 + 1e-9).contains(&share),
            "{}: layers cover {share}",
            w.name()
        );
        let coverage = out
            .per_layer
            .get("obs.layer_coverage")
            .expect("coverage is reported");
        assert!((coverage - share).abs() < 1e-12);
        assert!(
            out.per_layer
                .get("obs.trace_overhead")
                .expect("overhead is reported")
                > 0.0
        );
        let pre = if w.serves() {
            "serve.pre_s"
        } else {
            "core.pre_s"
        };
        assert_eq!(
            out.per_layer.get(pre),
            Some(prof.get(Layer::Pre).as_secs_f64())
        );
    }
}

#[test]
fn the_planned_streams_are_the_ones_served() {
    for w in [Workload::ServeBulk, Workload::ServeChaos] {
        let plan = Plan::new(w, 5, Scale::TINY);
        let (prep, _) = plan.setup(|| None);
        let done = prep.execute().expect("tiny serving pass runs");
        assert_eq!(done.units.len(), plan.streams().len());
        for (unit, stream) in done.units.iter().zip(plan.streams()) {
            let Report::Serve(r) = &unit.report else {
                panic!("serving reports")
            };
            let served: Vec<_> = r.requests.iter().map(|q| (q.tenant, q.arrival)).collect();
            let planned: Vec<_> = stream.iter().map(|q| (q.tenant, q.arrival)).collect();
            assert_eq!(served, planned, "{}", w.name());
        }
    }
}
