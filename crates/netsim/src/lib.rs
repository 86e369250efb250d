#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # netsim
//!
//! Topology-generic discrete-event network simulation engine.
//!
//! Two event loops drive an arbitrary directed-link topology of
//! protocol endpoints, and both run one shared pump (a crate-private
//! module): endpoint start-up, arrival fan-out, timers, per-link
//! transmitter service in priority order, receiver drains and the
//! single-pending-wake rule exist once. The loops differ only in how
//! they schedule events and break same-instant ties. The harness
//! crate's point-to-point, full-duplex and relay runners are thin
//! topology builders over the serial loop; its sharded relay chain
//! runs on the sharded one.
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
//! * [`topology`] — nodes with [`NodeRole`]s, directed links, and the
//!   id types wiring endpoints to them;
//! * [`collect`] — the [`Collect`] measurement trait the loops feed;
//! * [`engine`] — [`SimBuilder`] / [`Sim`]: the serial event loop
//!   (push / arrive / sample / wake, insertion-order ties) that runs
//!   every experiment but the sharded one;
//! * [`shard`] — [`Partition`], [`ShardBuilder`] / [`ShardSim`]: one
//!   shard's slice of a simulation, with cut links and canonical
//!   same-instant dispatch, run in granted windows;
//! * [`coordinator`] — [`run_sharded`]: the conservative window
//!   coordinator that runs one [`ShardSim`] per thread and routes
//!   frames across cut links.
//!
//! Determinism: all randomness flows through per-stream
//! [`sim_core::SeedSplitter`] RNGs owned by channels and traffic
//! generators (common random numbers), and each loop breaks timestamp
//! ties deterministically (insertion order serially, a canonical key
//! across shards) — a run is a pure function of its configuration and
//! seed.

pub mod channel;
pub mod collect;
pub mod coordinator;
pub mod driver;
pub mod endpoint;
pub mod engine;
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
pub use engine::{Outcome, Sim, SimBuilder, SimEvent};
pub use link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use proto_core::{Machine, ReceiverMachine, SenderMachine};
pub use shard::{
    CutLink, CutPlan, FinishedShard, Inbound, Partition, ShardBuilder, ShardEvent, ShardSim,
    WindowSummary,
};
pub use topology::{
    ColId, EndpointId, LinkId, LinkSpec, NodeId, NodeRole, RxId, Topology, TopologyError, TxId,
};
pub use traffic::{Pattern, TrafficGen};
