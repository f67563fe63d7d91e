//! # amp-net — wire-level RPC front end for the scheduling service
//!
//! A dependency-light TCP server that puts the sharded scheduling
//! engine ([`amp_service::EngineShards`]) on a socket. Built entirely on
//! `std::net` and bounded threads — no async runtime — with the
//! workspace's canonical JSON codec ([`amp_core::json`]) as the wire
//! format.
//!
//! The crate divides along the request path:
//!
//! * [`proto`] — the wire protocol: newline-delimited canonical JSON
//!   frames, request/response/error rendering and parsing. One line is
//!   one frame; the codec guarantees a rendered value never contains a
//!   raw newline.
//! * [`admission`] — who gets in and how fast: per-tenant token-bucket
//!   quotas (typed `QUOTA_EXCEEDED`, fair across tenants) and bounded
//!   per-connection in-flight windows (TCP backpressure, never a
//!   disconnect).
//! * [`server`] — the listener and per-connection reader/pump threads:
//!   greedy pipeline batching into [`amp_service::EngineShards`], typed
//!   rejections for every refused frame, and drain-then-close shutdown
//!   that answers everything it accepted.
//! * [`metrics`] — wire-layer counters (connections, frames, admission
//!   outcomes), exported through the `{"op":"status"}` control frame
//!   next to the engine fleet's own per-shard metrics and cache
//!   counters.
//! * [`wire`] — the corked write path: a vectored frame writer with a
//!   short-write resume loop (one `writev` per response burst instead
//!   of one syscall per line) and the bounded buffer pool that keeps
//!   the steady-state framing path allocation-free.
//! * [`registry`] — the sharded slab connection registry: conn-id-keyed
//!   slots across lock shards (no global accept/close bottleneck) plus
//!   JoinHandle reaping so a long-lived server retains a bounded number
//!   of finished handles.

pub mod admission;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;
pub mod wire;

pub use admission::{InflightWindow, QuotaConfig, TenantQuotas};
pub use metrics::{NetMetrics, NetSnapshot};
pub use proto::{ClientResponse, WireError, WireRequest};
pub use registry::ConnRegistry;
pub use server::{Server, ServerConfig};
pub use wire::{write_frames, BufPool, CORK_MAX};
