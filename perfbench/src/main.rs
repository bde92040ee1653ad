//! `disagg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A failed check
//! prints `"correct": false` with no metrics and exits with code 1.

use std::process::ExitCode;

use disagg_perfbench::host::Host;
use disagg_perfbench::layers::Layer;
use disagg_perfbench::metrics::{result_line, Metrics};
use disagg_perfbench::run::{run, Options, RunOutput};
use disagg_perfbench::workloads::{Scale, Workload};

const USAGE: &str = "usage: disagg-perfbench --workload <batch_dag|apps_rw|serve_bulk|serve_chaos> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    })
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}:");
    for x in m.iter() {
        println!("  {:<28} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn report(opts: &Options, out: &RunOutput) {
    let o = &out.outcome;
    println!(
        "workload {} seed {}: {} timed passes; {} offered, {} completed, {} tasks, {} events per pass",
        opts.workload.name(),
        opts.seed,
        out.passes.len(),
        o.offered,
        o.completed,
        o.tasks,
        o.events
    );
    let passes: Vec<String> = out.passes.iter().map(|s| format!("{s:.4}")).collect();
    println!("pass host times (s): {}", passes.join(" "));
    print_metrics("end-to-end", &out.end_to_end);
    if let Some((prof, traced)) = &out.profile {
        println!("traced pass: {:.6} s, layer shares:", traced.as_secs_f64());
        for l in Layer::ALL {
            let s = prof.get(l).as_secs_f64();
            println!(
                "  {:<16} {:>12.6} s {:>6.1}%",
                format!("{l:?}"),
                s,
                100.0 * s / traced.as_secs_f64()
            );
        }
        print_metrics("per-layer", &out.per_layer);
    }
}

/// Pins glibc's allocator to one heap that never shrinks: no `mmap`ed
/// chunks and no trimming. The serving passes allocate and free
/// regions of 1-128 MiB; by default each such region is a fresh mapping
/// whose page faults cost more than the copy itself and vary with the
/// host's memory state from one run to the next. With one growing heap
/// the first pass faults the pages in and later passes reuse them, so
/// host time measures the simulator's own work.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::os::raw::c_int;
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_MAX: c_int = -4;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` only sets glibc allocator parameters; both are
    // documented options with valid values, and no other thread exists
    // yet to race with the change.
    let pinned =
        unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 };
    if !pinned {
        eprintln!("warning: mallopt refused; host times use the default allocator policy");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", Host::current().to_json());
    match run(&opts) {
        Ok(out) => {
            report(&opts, &out);
            let metrics = if opts.trace {
                &out.per_layer
            } else {
                &out.end_to_end
            };
            println!("{}", result_line(true, out.attempted, 0, metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            println!("{}", result_line(false, 1, 1, &Metrics::default()));
            ExitCode::from(1)
        }
    }
}
