//! `lll-serve`: a batched, cache-warmed LLL-solving daemon.
//!
//! The one-shot binaries in this workspace recompute the full
//! topology pipeline — schedule coloring and scheduling classes — for
//! every instance, even though the Brandt–Maus–Uitto
//! machinery makes all of it a pure function of the dependency graph
//! and a seed. This crate serves the amortized, many-instance regime:
//! a long-lived [`Engine`] answers newline-delimited solve requests
//! (DIMACS CNF or a JSON instance schema) and reuses schedules across
//! requests with the same graph shape via a fingerprint-keyed
//! [`TopologyCache`], so a warm request pays only the fixing sweep.
//!
//! The workspace determinism contract extends to the service layer:
//! a response — and any per-request `obs` recorder stream — is a pure
//! function of the request and the engine's deterministic
//! configuration. Cache hit vs. cold, one worker vs. eight: the bytes
//! are identical, and the differential batteries in `tests/` pin it.
//!
//! ```text
//! $ printf '%s\n' '{"id":"q0","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}' | lll-serve
//! {"id":"q0","status":"ok","assignment":[1,1],...}
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod request;
pub mod response;
pub mod server;

pub use cache::TopologyCache;
pub use engine::{Engine, EngineConfig, EngineStats};
pub use error::{ErrorKind, RequestError};
pub use metrics::{spawn_telemetry, ServeMetrics, TelemetryConfig, TelemetryHandle};
pub use request::{JsonEvent, JsonInstance, JsonVariable, Payload, Request, SolveRequest};
pub use response::{OkResponse, Response};
pub use server::{serve, ServeConfig, ServeSummary};
