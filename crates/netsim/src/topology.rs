//! Nodes, directed links, and the ids wiring endpoints to them.
//!
//! A [`Topology`] is the static shape of a simulation: how many nodes
//! exist and which directed links connect them.
//! [`crate::shard::Partition::plan`] cuts this shape into shards; each
//! shard's endpoints, collectors and traffic sources attach through a
//! [`crate::shard::ShardBuilder`], whose `build()` returns a
//! [`TopologyError`] listing every inconsistency it finds.

use std::fmt;

/// Index of a node in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Index of a directed link in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Index of a sending endpoint registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxId(pub usize);

/// Index of a receiving endpoint registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RxId(pub usize);

/// Index of a collector registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColId(pub usize);

/// Either side of a protocol, where a link needs to address both
/// (senders competing for a transmitter, listeners sharing an arrival).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EndpointId {
    /// A sending endpoint.
    Tx(TxId),
    /// A receiving endpoint.
    Rx(RxId),
}

impl From<TxId> for EndpointId {
    fn from(id: TxId) -> Self {
        EndpointId::Tx(id)
    }
}

impl From<RxId> for EndpointId {
    fn from(id: RxId) -> Self {
        EndpointId::Rx(id)
    }
}

/// One directed link: frames flow `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Direction label for channel-drop trace records (`"fwd"`/`"rev"`).
    pub dir: &'static str,
}

/// The static shape of a simulation: nodes plus directed links.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Number of nodes; [`NodeId`]s index `0..nodes`.
    pub nodes: usize,
    /// The directed links, indexed by [`LinkId`].
    pub links: Vec<LinkSpec>,
}

impl Topology {
    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

/// Every wiring inconsistency found while building a simulation.
#[derive(Debug)]
pub struct TopologyError(pub Vec<String>);

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.0.join("; "))
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_id_conversions() {
        assert_eq!(EndpointId::from(TxId(3)), EndpointId::Tx(TxId(3)));
        assert_eq!(EndpointId::from(RxId(0)), EndpointId::Rx(RxId(0)));
    }

    #[test]
    fn error_lists_every_problem() {
        let e = TopologyError(vec!["a".into(), "b".into()]);
        let msg = e.to_string();
        assert!(msg.contains("a") && msg.contains("b"), "{msg}");
    }
}
