//! The vread-rs benchmark: seeded workloads driven through the harness's
//! public entry points and checked for correctness. The worker binary
//! (`src/main.rs`) runs them on command; `run.py` times them from the
//! outside and prints the metrics.

#![forbid(unsafe_code)]

pub mod drive;
pub mod gen;
pub mod host;
pub mod layers;
pub mod shapes;
pub mod suite;
