//! The host a run was measured on, and the process's peak memory.

use std::fmt::Write;

/// What identifies the host and build of a run.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Git commit of the source tree, when it is a git checkout.
    pub git_commit: &'static str,
    /// FNV-1a digest of the runtime's sources.
    pub source_digest: &'static str,
}

impl Host {
    /// This process's host and build.
    pub fn current() -> Host {
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            git_commit: env!("PERFBENCH_GIT"),
            source_digest: env!("PERFBENCH_SOURCE"),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"available_parallelism\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.parallelism, self.rustc, self.profile, self.git_commit, self.source_digest
        )
        .expect("writing to a String cannot fail");
        s
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
