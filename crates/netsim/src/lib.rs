#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # netsim
//!
//! Topology-generic discrete-event network simulation engine.
//!
//! One event loop drives an arbitrary directed-link topology of
//! protocol endpoints: [`ShardSim`], over a crate-private pump
//! (endpoint start-up, arrival fan-out, timers, per-link transmitter
//! service in priority order, receiver drains and the
//! single-pending-wake rule). A simulation runs either as one shard in
//! one window on the calling thread ([`ShardSim::run`]) or split
//! across threads by the conservative [`coordinator`]. The harness
//! crate's point-to-point, full-duplex and relay runners are thin
//! topology builders run as one shard; its sharded relay chain runs
//! under the coordinator.
//!
//! * [`endpoint`] — the sans-IO driving contract ([`TxEndpoint`] /
//!   [`RxEndpoint`]) the event loops poll;
//! * [`driver`] — [`Driver`], the one generic adapter binding any
//!   [`proto_core::Machine`] to that contract (no per-protocol glue);
//! * [`channel`] — stochastic bit-error processes (i.i.d.
//!   [`channel::UniformBer`], continuous-time burst
//!   [`channel::GilbertElliott`]) — simulator-side substrate, moved out
//!   of `fec` so the codec crate stays host-agnostic;
//! * [`link`] — the directional channel model: serialization, fixed or
//!   orbital propagation delay, uniform/burst error processes, outages;
//! * [`traffic`] — CBR / Poisson / on-off / batch SDU generators;
//! * [`topology`] — nodes, directed links, and the
//!   id types wiring endpoints to them;
//! * [`collect`] — the [`Collect`] measurement trait the loops feed;
//! * [`shard`] — [`ShardBuilder`] / [`ShardSim`]: the event loop (push
//!   / arrive / sample / wake in a canonical same-instant order) over
//!   one shard's slice of a simulation, and the [`Partition`] that cuts
//!   a topology into shards;
//! * [`coordinator`] — [`run_sharded`]: the conservative window
//!   coordinator that runs one [`ShardSim`] per thread and routes
//!   frames across cut links.
//!
//! Determinism: all randomness flows through per-stream
//! [`sim_core::SeedSplitter`] RNGs owned by channels and traffic
//! generators (common random numbers), and the loop breaks timestamp
//! ties by a canonical key that does not depend on the partition — a
//! run is a pure function of its configuration and seed, at any shard
//! count.

pub mod channel;
pub mod collect;
pub mod coordinator;
pub mod driver;
pub mod endpoint;
pub mod link;
mod pump;
pub mod shard;
pub mod topology;
pub mod traffic;

pub use channel::{ErrorProcess, GeState, GilbertElliott, Lossless, UniformBer};
pub use collect::Collect;
pub use coordinator::{run_sharded, ShardProfile, ShardedOutcome};
pub use driver::Driver;
pub use endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
pub use link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use proto_core::{Machine, ReceiverMachine, SenderMachine};
pub use shard::{
    CutLink, CutPlan, FinishedShard, Inbound, Partition, ShardBuilder, ShardEvent, ShardSim,
    WindowSummary,
};
pub use topology::{
    ColId, EndpointId, LinkId, LinkSpec, NodeId, RxId, Topology, TopologyError, TxId,
};
pub use traffic::{Pattern, TrafficGen};
