//! `robusthdd` — the RobustHD serving daemon and its clients.
//!
//! This crate turns the in-process pipeline (encode → score → resilience
//! supervisor) into a long-running network service:
//!
//! * [`json`] — a dependency-free JSON value type: shortest-roundtrip
//!   `f64` printing (so confidences survive the wire bit-for-bit) and a
//!   bounded recursive-descent parser that never panics on garbage.
//! * [`protocol`] — newline-delimited JSON request/response framing with
//!   tagged `type` fields; unknown fields are ignored (forward
//!   compatibility), unknown types get structured `error` responses.
//! * [`engine`] — [`ServeEngine`]: one deployment (encoder, model,
//!   supervisor) consumed a micro-batch at a time through the same fused
//!   path in-process callers use; [`FleetEngine`]: a multi-tenant
//!   [`robusthd::ModelRegistry`] routed on the wire `model` field, each
//!   tenant under its own supervisor and the registry's memory budget.
//! * [`coalescer`] — the time/size-bounded micro-batch queue with
//!   admission control: concurrent single-query requests drain as one
//!   fused batch; overload is shed at admission with an explicit
//!   `overloaded` response.
//! * [`server`] — the `std::net` TCP daemon: accept/reader/writer threads
//!   around a single drain thread that owns the engine, graceful drain on
//!   `shutdown`.
//! * [`loadgen`] — a self-contained pipelined load generator, with a
//!   Zipf [`TenantMix`] for mixed-tenant fleet traffic.
//! * [`tenants`] — the synthetic multi-tenant fleet the fleet benchmarks
//!   serve.
//!
//! Serving through the daemon is **bit-exact** with serving in-process:
//! coalescing changes *when* queries are scored, never *what* they score.
//! `tests/serve_differential.rs` pins that with `f64::to_bits`
//! comparisons across batch windows, thread counts, and degraded
//! supervisor states.

#![forbid(unsafe_code)]

pub mod coalescer;
pub mod engine;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod tenants;

pub use coalescer::{Coalescer, PendingQuery, SubmitError};
pub use engine::{AdmissionPolicy, DrainEngine, FleetEngine, QueryAnswer, ServeEngine};
pub use loadgen::{run_loadgen, run_loadgen_mixed, LoadOptions, LoadReport, TenantMix};
pub use protocol::{Request, Response, StatsSnapshot, MAX_LINE_BYTES};
pub use server::{serve, serve_fleet, ServeStats, ServerHandle};
pub use tenants::{build_fleet_tenants, FleetBenchOptions, FleetTenant};
