//! Deterministic work-sharding over scoped threads — re-exported from
//! [`alice_par`], the bottom-of-the-workspace crate.
//!
//! The flow's parallel sections (fabric characterization in the select
//! stage, the batch suite driver in `alice-bench`) all use the same
//! primitive: N independent index-addressed tasks, pulled from a shared
//! counter by a fixed pool of `std::thread::scope` workers, with results
//! reassembled in index order. Scheduling therefore never affects
//! output — `jobs = 1` and `jobs = 64` produce identical results.

pub use alice_par::{resolve_jobs, shard};
