//! End-to-end and per-layer benchmark of the AnyDB reproduction.
//!
//! Three closed-loop workloads drive the program through its public API:
//!
//! * `oltp_skewed` — TPC-C payments, all on warehouse 1 of 4, through
//!   `AnyDbEngine::run_phase` with live morphing on;
//! * `htap_neworder` — uniform payments and new-orders beside a CH-Q3
//!   stream, same engine shape;
//! * `sharded_neworder` — new-orders on two shard nodes, each with a sync
//!   follower, submitted through `ShardRouter::submit`.
//!
//! An untraced run reports `setup_s` and `txn_per_s` and checks every
//! output; a traced run records spans around each call the benchmark
//! makes into a layer and reports per-layer metrics. See `README.md`.

mod engine;
pub mod host;
pub mod json;
mod probes;
pub mod run;
pub mod sharded;
pub mod stats;
pub mod trace;
