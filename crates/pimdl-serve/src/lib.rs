//! `pimdl-serve` — a multi-threaded serving runtime over the PIM-DL
//! engine: the paper's §2.2 cloud-serving motivation turned into a running
//! system rather than a closed-form simulation.
//!
//! The runtime composes four pieces:
//!
//! * **Admission** ([`admission`]) — a bounded FIFO with explicit load
//!   shedding: a full queue rejects on arrival, and per-request deadlines
//!   shed queued work that can no longer be served in time. Nothing blocks
//!   the client and nothing is silently dropped.
//! * **Continuous batching** ([`batcher`]) — the engine scheduler's
//!   [`pimdl_engine::scheduler::BatchingPolicy`] semantics (flush at
//!   `max_batch`, or when the oldest request has waited `max_wait_s`) as a
//!   pure state machine. Queue and batcher are composed once (the
//!   shed → refill → flush → dispatch step in [`server`]) and driven by a
//!   socket or by a deterministic virtual clock ([`clock`]).
//! * **DIMM sharding** ([`shard`]) — model replicas across groups of
//!   simulated PIM DIMMs; batches route to the least-loaded shard, service
//!   times come from a table priced once by the engine's end-to-end cost
//!   model, and results come from `pimdl_sim`'s functional LUT execution,
//!   verified against a host reference checksum carried by every request.
//!   [`Shards`] is the serving loop's book of its in-process shards; it
//!   runs each batch inline on the virtual clock, or on the shard's own
//!   worker thread, which shares nothing with the loop but its channels
//!   and the completion waker.
//! * **Metrics** ([`metrics`]) — lock-free counters and fixed-bucket
//!   histograms (latency p50/p95/p99, batch-size distribution, peak queue
//!   depth, shed counts), snapshotted at shutdown.
//!
//! The network front ends ([`server`], [`fabric`]) are three codecs —
//! line protocol, HTTP/1.1, shard-fabric frames — over one crate-private
//! connection core (`conn.rs`): one event loop, one transport path with
//! bounded per-connection output, one reactor-thread spawner, on the
//! readiness [`reactor`] (real epoll, or a scripted source on the virtual
//! clock for bit-deterministic tests).
//!
//! # Example
//!
//! ```rust
//! use pimdl_serve::{OpenLoop, Runtime, ServeConfig};
//! use pimdl_engine::shapes::TransformerShape;
//! use pimdl_sim::PlatformConfig;
//!
//! let mut platform = PlatformConfig::upmem();
//! platform.num_pes = 64;
//! let rt = Runtime::new(platform, TransformerShape::tiny(), ServeConfig::example())?;
//! let report = rt.run_virtual(&OpenLoop {
//!     rate_rps: 50.0,
//!     num_requests: 32,
//!     seed: 1,
//! })?;
//! assert!(report.conserves(32));
//! assert!(report.all_completed_correct());
//! # Ok::<(), pimdl_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conn;
mod error;

pub mod admission;
pub mod batcher;
pub mod clock;
pub mod codec;
pub mod fabric;
pub mod http;
pub mod metrics;
pub mod reactor;
pub mod registry;
pub mod request;
pub mod runtime;
pub mod server;
pub mod shard;
pub mod supervisor;

pub use admission::AdmissionQueue;
pub use batcher::ContinuousBatcher;
pub use clock::{Clock, RealClock, VirtualClock};
pub use codec::{LineBuffer, LineClient, ServerMsg};
pub use error::ServeError;
pub use fabric::{
    FabricHandle, FabricServerLoop, FabricShardEngine, Frame, FrameDecoder, FrameError,
    ProcessShardEngine, SimShardEngine, WorkerSpec,
};
pub use http::{HttpClient, HttpLimits, HttpParser, HttpRequest};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use reactor::{
    EpollPoller, EventSource, IoEvent, ReactorStats, ReactorStatsSnapshot, SimPoller, Token, Waker,
};
pub use registry::{AdmitRefusal, FairBatcher, ModelRegistry, TaggedJob};
pub use request::{Outcome, Request, RequestRecord};
pub use runtime::{OpenLoop, Runtime, ServeConfig, ServeReport};
pub use server::{HttpConfig, HttpServerLoop, ServeHandle, ServerLoop};
pub use shard::{DispatchTicket, ReplicaModel, ServiceModel, ShardManager, Shards};
pub use supervisor::{HashRing, LoadOrder, ShardState, Supervisor, TableState};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
