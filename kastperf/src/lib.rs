//! `kastperf`: the repository's benchmark. It drives the release `kastio`
//! binary from outside — `kastio serve` over TCP and `kastio cluster` as
//! a child process — with inputs generated from a seed, checks every
//! reply, and reports end-to-end metrics; its traced run adds per-layer
//! metrics from spans around the public calls of each layer. See
//! `README.md` beside this crate for the workloads and metrics.

pub mod inputs;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod wire;
pub mod workloads;
