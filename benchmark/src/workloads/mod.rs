//! The four workloads. Names are permanent (see `spec.rs`).

pub mod incr_direct;
pub mod kv_tcp;
pub mod rubis_tcp;
pub mod shard_durable;
mod tcp;
