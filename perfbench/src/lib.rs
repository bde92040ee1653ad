//! A single-threaded benchmark of the disagg runtime on two clocks:
//! virtual time on the simulated rack, and the host time the simulator
//! takes to produce it. See `README.md` for the workloads, the metrics
//! and how each per-layer metric maps onto an end-to-end one.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod workloads;
