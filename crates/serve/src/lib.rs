//! # vartol-serve
//!
//! A sharded, cache-fronted timing service over the
//! [`vartol::workspace::Workspace`]: the long-lived front door that
//! turns the library's owned-handle sessions into something EDA flows
//! and scripts can talk to over a socket.
//!
//! * [`protocol`] — the wire protocol: newline-delimited JSON, typed
//!   [`ServeRequest`]/[`ServeResponse`], response [`Frame`]s carrying a
//!   deterministic payload plus an excluded wall-clock field, and the
//!   strict hand-written request decoder.
//! * [`json`] — the JSON text parser backing that decoder (the offline
//!   serde shims only serialize; see `shims/README.md`).
//! * [`shard`] — the [`Service`]: circuits partitioned across
//!   independent worker threads by name hash, bounded per-shard queues
//!   with immediate [`ServeResponse::Busy`] rejection above the
//!   configured depth, and a per-shard LRU [`cache::ResultCache`] keyed
//!   by `(circuit, size-vector fingerprint, model fingerprint, request
//!   fingerprint)` that `Resize`/`Size`/`Commit`/`SetClock` invalidate
//!   per circuit.
//! * [`server`] — the transports: a `std::net` TCP listener and a
//!   stdin/stdout REPL sharing one [`serve_lines`] loop, so a script
//!   piped locally and a socket client see byte-identical frames. Long
//!   `Size` runs stream per-pass [`ServeResponse::Progress`] frames
//!   before the final answer.
//!
//! The determinism contract carries through from the workspace:
//! replaying a request script serially yields **byte-identical
//! payloads at every shard count and pool width** (`wall_us` is the
//! only excluded field — see [`protocol::deterministic_part`]).
//!
//! # Example
//!
//! ```
//! use vartol::liberty::Library;
//! use vartol_serve::{ServeConfig, ServeRequest, Service};
//! use vartol_serve::protocol::ServeResponse;
//!
//! let service = Service::new(Library::synthetic_90nm(), ServeConfig::default());
//! service.call(ServeRequest::Register {
//!     circuit: "adder_8".into(),
//!     preset: Some("adder_8".into()),
//!     bench: None,
//! });
//! let frames = service.call(ServeRequest::from_line(
//!     r#"{"Analyze":{"circuit":"adder_8","kind":"FullSsta"}}"#,
//! ).unwrap());
//! assert!(matches!(frames[0].payload, ServeResponse::Analysis { .. }));
//! // The same request again is a cache hit with an identical payload.
//! assert_eq!(service.stats().misses(), 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod protocol;
pub mod server;
pub mod shard;

pub use protocol::{
    Frame, ServeRequest, ServeResponse, ServiceStats, ShardStats, PROTOCOL_VERSION,
};
pub use server::{serve_lines, Server};
pub use shard::{shard_of, ServeConfig, Service};
