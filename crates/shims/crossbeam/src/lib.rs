//! Offline stand-in for `crossbeam`.
//!
//! Provides the subset AnyDB uses: `utils::CachePadded` (a real
//! cache-line-aligned wrapper — this one is not a behavioral
//! approximation), `channel::{unbounded, bounded}` MPMC channels built
//! on a mutex + condvars, and `channel::Select` over their receivers. The channel shim trades crossbeam's lock-free
//! throughput for simplicity; AnyDB's hot path runs on its own SPSC ring
//! and inbox, which do not go through this crate.

pub mod channel;
pub mod queue;
pub mod utils;
