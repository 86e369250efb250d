//! Sharded relay chain: one [`crate::relay`]-style store-and-forward
//! simulation partitioned across OS threads (`repro --shards N`).
//!
//! The chain is the natural conservative-parallel topology: hop `i`'s
//! propagation delay is a hard lower bound on how far upstream events
//! can influence downstream shards, so a contiguous node partition cuts
//! only satellite links with real lookahead. Each shard owns a run of
//! nodes (and the channels their nodes *transmit* on); frames crossing
//! a cut travel as timestamped batches through the
//! [`netsim::run_sharded`] coordinator.
//!
//! Determinism contract: every hop's channel draws its randomness from
//! the same per-hop shifted seed regardless of the partition, sources
//! issue from the same generator stream, and the shard runtime's
//! canonical same-instant dispatch order is partition-independent — so
//! the report is **identical at every shard count**, including 1. The
//! one-window [`crate::relay::run_relay`] family (which backs the pinned
//! golden fingerprints) runs the same loop over the same wiring, so the
//! two families' reports agree exactly, as tests check.
//!
//! Accounting across the cut: the sink shard's [`Collector`] is
//! pre-seeded with the full push schedule (a replayed clone of the
//! traffic generator), because push events happen on the source shard.
//! The source registers no collector; the coordinator patches `offered`
//! and the transmission sums into the sink's report afterwards.

use crate::metrics::{Collector, RunReport};
use crate::node::{Driver, RxEndpoint, TxEndpoint};
use crate::relay::RelayConfig;
use crate::scenario::{flow_report, ScenarioConfig};
use crate::traffic::TrafficGen;
use netsim::Machine;
use netsim::{
    link::Channel, DelayModel, FinishedShard, LinkId, LinkSpec, NodeId, Partition, ShardBuilder,
    ShardSim, Topology, TopologyError,
};
use sim_core::SeedSplitter;
use std::collections::BTreeMap;
use telemetry::Registry;

/// Per-hop channels from a per-hop shifted seed (fresh RNG streams per
/// link), shared with the serial relay so a hop's error/delay
/// realisation is the same in both families and partition-independent.
pub(crate) fn hop_channels(base: &ScenarioConfig, i: usize) -> (Channel, Channel) {
    let mut c = base.clone();
    c.seed = base.seed.wrapping_add(1000 * (i as u64 + 1));
    c.build_channels()
}

/// The chain's source generator (stream 2 of the master seed), shared
/// with the serial relay.
pub(crate) fn chain_gen(base: &ScenarioConfig) -> TrafficGen {
    TrafficGen::new(
        base.pattern.clone(),
        base.n_packets,
        SeedSplitter::new(base.seed).stream(2),
    )
}

/// Global ids: hop `i`'s forward (data) link.
pub(crate) fn lf(i: usize) -> usize {
    2 * i
}

/// Global ids: hop `i`'s reverse (control) link.
pub(crate) fn lr(i: usize) -> usize {
    2 * i + 1
}

/// The chain topology and per-link delay models, for partition
/// validation: `hops + 1` nodes, `2 * hops` links interleaved
/// fwd/rev per hop.
fn chain_topology(cfg: &RelayConfig) -> (Topology, Vec<DelayModel>) {
    let h = cfg.hops;
    let mut topo = Topology {
        nodes: h + 1,
        ..Topology::default()
    };
    let mut delays = Vec::with_capacity(2 * h);
    for i in 0..h {
        topo.links.push(LinkSpec {
            from: NodeId(i),
            to: NodeId(i + 1),
            dir: "fwd",
        });
        topo.links.push(LinkSpec {
            from: NodeId(i + 1),
            to: NodeId(i),
            dir: "rev",
        });
        let (f, r) = hop_channels(&cfg.base, i);
        delays.push(f.delay.clone());
        delays.push(r.delay.clone());
    }
    (topo, delays)
}

/// What one shard hands back for report assembly.
struct ChainShardOut {
    /// SDUs the local source issued (source shard only, else 0).
    issued: u64,
    failed: bool,
    transmissions: u64,
    retransmissions: u64,
    /// First sender's counter registry (source shard only).
    tx0_extras: Option<Registry>,
    /// The sink shard's finished report, with `offered`, `lost`,
    /// transmission sums and perf fields left for the coordinator.
    report: Option<Box<RunReport>>,
}

/// Drive a relay chain split across `shards` threads, every hop running
/// the same protocol. `mk_tx(i)` / `mk_rx(i)` build link `i`'s
/// endpoints (called on the owning shard's thread, so trace handles
/// resolve against that shard's buffered sink). `shards` is clamped to
/// `hops + 1` (one node per shard is the finest cut); `shards <= 1`
/// runs the same machinery in one window.
pub fn run_chain<T, R>(
    cfg: &RelayConfig,
    shards: usize,
    mk_tx: impl Fn(usize) -> T + Sync,
    mk_rx: impl Fn(usize) -> R + Sync,
    protocol: &str,
) -> RunReport
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    T::Frame: Send,
{
    assert!(cfg.hops >= 1, "need at least one link");
    let h = cfg.hops;
    let base = &cfg.base;
    let shards = shards.max(1).min(h + 1);

    let (topo, delays) = chain_topology(cfg);
    let part = Partition::contiguous(h + 1, shards);
    let plan = part
        .plan(&topo, &delays)
        .expect("chain partition is valid: contiguous over a positive-delay chain");

    // Node range [lo, hi] owned by each shard (contiguous by
    // construction).
    let mut ranges = vec![(usize::MAX, 0usize); shards];
    for node in 0..=h {
        let s = part.shard_of(NodeId(node)).expect("node assigned");
        let r = &mut ranges[s];
        r.0 = r.0.min(node);
        r.1 = r.1.max(node);
    }

    let build = |s: usize| -> Result<ShardSim<T, R, Collector>, TopologyError> {
        let (lo, hi) = ranges[s];
        let mut b: ShardBuilder<T, R, Collector> = ShardBuilder::new(base.payload_bytes);

        // Links in ascending global-id order. Upstream boundary hop
        // lo-1: we receive its forward link (stub) and own its reverse
        // channel (our node lo transmits the control frames). Interior
        // hops are whole. Downstream boundary hop hi: we own the
        // forward channel, receive the reverse (stub).
        let mut local: BTreeMap<usize, LinkId> = BTreeMap::new();
        if lo > 0 {
            let i = lo - 1;
            let (_f, r) = hop_channels(base, i);
            local.insert(lf(i), b.cut_in(lf(i)));
            local.insert(lr(i), b.cut_out(lr(i), r, "rev"));
        }
        for i in lo..hi {
            let (f, r) = hop_channels(base, i);
            local.insert(lf(i), b.link(lf(i), f, "fwd"));
            local.insert(lr(i), b.link(lr(i), r, "rev"));
        }
        if hi < h {
            let i = hi;
            let (f, _r) = hop_channels(base, i);
            local.insert(lf(i), b.cut_out(lf(i), f, "fwd"));
            local.insert(lr(i), b.cut_in(lr(i)));
        }

        // Endpoints in global registration order (hop-ascending, tx
        // before rx): tx_i lives on node i, rx_i on node i+1.
        let mut txs: BTreeMap<usize, netsim::TxId> = BTreeMap::new();
        let mut rxs: BTreeMap<usize, netsim::RxId> = BTreeMap::new();
        for i in lo.saturating_sub(1)..h {
            if i >= lo && i <= hi {
                txs.insert(i, b.tx(local[&lf(i)], mk_tx(i)));
            }
            if i + 1 >= lo && i < hi {
                rxs.insert(i, b.rx(local[&lr(i)], mk_rx(i)));
            }
        }
        for (&i, &r) in &rxs {
            b.listen(local[&lf(i)], r);
            b.drain_after(r, local[&lr(i)]);
        }
        for (&i, &t) in &txs {
            b.listen(local[&lr(i)], t);
        }

        // The sink shard accounts the whole flow: its collector is
        // pre-seeded with the push schedule (pushes happen remotely)
        // and carries the completion condition.
        let sink_col = (hi == h).then(|| {
            let mut c = Collector::new();
            let mut g = chain_gen(base);
            while let Some((at, id)) = g.next() {
                c.on_push(at, id);
            }
            let col = b.collector(c);
            b.expect(col, base.n_packets);
            col
        });
        for (&i, &r) in &rxs {
            if i + 1 == h {
                b.deliver(r, sink_col.expect("sink shard has the collector"));
            } else {
                b.forward(r, txs[&(i + 1)]);
            }
        }
        if lo == 0 {
            b.source(chain_gen(base), txs[&0], None, 0);
        }
        b.build()
    };

    let fin = |s: usize, mut out: FinishedShard<T, R, Collector>| -> ChainShardOut {
        let (lo, hi) = ranges[s];
        let failed = out.txs.iter().any(|t| t.is_failed());
        let transmissions: u64 = out.txs.iter().map(|t| t.transmissions()).sum();
        let retransmissions: u64 = out.txs.iter().map(|t| t.retransmissions()).sum();
        let tx0_extras = (lo == 0).then(|| out.txs[0].extra_stats());
        let report = (hi == h).then(|| {
            let col = out.collectors.pop().expect("sink collector");
            let rx = out.rxs.last().expect("sink receiver");
            // `offered` is a placeholder (the source shard knows the
            // real count); passing the delivered count keeps the
            // `lost` subtraction at zero until the coordinator patches
            // both fields, with the senders' totals and counters.
            let delivered = col.delivered_unique();
            Box::new(flow_report(
                protocol,
                col,
                delivered,
                &out,
                &[],
                rx,
                base.t_f(),
            ))
        });
        ChainShardOut {
            issued: if lo == 0 {
                out.issued.first().copied().unwrap_or(0)
            } else {
                0
            },
            failed,
            transmissions,
            retransmissions,
            tx0_extras,
            report,
        }
    };

    let outcome =
        netsim::run_sharded(&plan, base.deadline, build, fin).expect("chain shard wiring is valid");

    let mut offered = 0;
    let mut failed = false;
    let mut transmissions = 0;
    let mut retransmissions = 0;
    let mut tx0_extras = None;
    let mut report: Option<Box<RunReport>> = None;
    for o in outcome.outputs {
        offered += o.issued;
        failed |= o.failed;
        transmissions += o.transmissions;
        retransmissions += o.retransmissions;
        tx0_extras = tx0_extras.or(o.tx0_extras);
        report = report.or(o.report);
    }
    let mut report = *report.expect("exactly one shard owns the sink");
    report.offered = offered;
    report.lost = offered.saturating_sub(report.delivered_unique);
    report.link_failed = failed;
    report.transmissions = transmissions;
    report.retransmissions = retransmissions;
    if let Some(x) = tx0_extras {
        report.tx_extras = x;
    }
    report.queue = outcome.queue;
    report.wall_secs = outcome.wall_secs;
    crate::metrics::perf_absorb(&report.queue, report.wall_secs);
    crate::metrics::shard_absorb(&outcome.shard, outcome.supersteps);
    report
}

/// Per-hop trace labels, shared with the serial relay: hop `i`'s
/// sender/receiver pair shares the `hop<i>` prefix so trace consumers
/// can pair the two sides of each link. Chains longer than the table
/// fall back to untraced endpoints (trace labels are `&'static str` by
/// design).
pub(crate) const HOP_TX: [&str; 16] = [
    "hop0.tx", "hop1.tx", "hop2.tx", "hop3.tx", "hop4.tx", "hop5.tx", "hop6.tx", "hop7.tx",
    "hop8.tx", "hop9.tx", "hop10.tx", "hop11.tx", "hop12.tx", "hop13.tx", "hop14.tx", "hop15.tx",
];
pub(crate) const HOP_RX: [&str; 16] = [
    "hop0.rx", "hop1.rx", "hop2.rx", "hop3.rx", "hop4.rx", "hop5.rx", "hop6.rx", "hop7.rx",
    "hop8.rx", "hop9.rx", "hop10.rx", "hop11.rx", "hop12.rx", "hop13.rx", "hop14.rx", "hop15.rx",
];

pub(crate) fn hop_trace(labels: &[&'static str; 16], i: usize) -> telemetry::trace::Trace {
    labels
        .get(i)
        .map(|l| telemetry::global_handle(l))
        .unwrap_or_else(telemetry::trace::Trace::disabled)
}

/// Sharded relay chain under LAMS-DLC at every hop.
pub fn run_chain_lams(cfg: &RelayConfig, shards: usize) -> RunReport {
    let lcfg = cfg.base.lams_config();
    run_chain(
        cfg,
        shards,
        |i| Driver::new(lams_dlc::Sender::new(lcfg.clone()).with_trace(hop_trace(&HOP_TX, i))),
        |i| Driver::new(lams_dlc::Receiver::new(lcfg.clone()).with_trace(hop_trace(&HOP_RX, i))),
        "lams-chain",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Duration;

    fn chain(hops: usize, n: u64, ber: f64) -> RelayConfig {
        let mut base = ScenarioConfig::paper_default();
        base.n_packets = n;
        base.data_residual_ber = ber;
        base.ctrl_residual_ber = ber / 10.0;
        base.deadline = Duration::from_secs(120);
        RelayConfig { hops, base }
    }

    /// The determinism contract: one simulation, any cut, same answer.
    #[test]
    fn report_identical_at_every_shard_count() {
        let cfg = chain(4, 400, 1e-6);
        let baseline = run_chain_lams(&cfg, 1);
        assert_eq!(baseline.delivered_unique, 400);
        assert_eq!(baseline.lost, 0);
        for shards in [2, 3, 5] {
            let r = run_chain_lams(&cfg, shards);
            assert_eq!(r.offered, baseline.offered, "{shards} shards");
            assert_eq!(r.delivered_unique, baseline.delivered_unique);
            assert_eq!(r.duplicates, baseline.duplicates);
            assert_eq!(r.lost, baseline.lost);
            assert_eq!(r.finished_at, baseline.finished_at, "{shards} shards");
            assert_eq!(r.deadline_hit, baseline.deadline_hit);
            assert_eq!(r.transmissions, baseline.transmissions);
            assert_eq!(r.retransmissions, baseline.retransmissions);
            assert_eq!(
                r.e2e_delay.mean().to_bits(),
                baseline.e2e_delay.mean().to_bits(),
                "{shards} shards: e2e delay must be bit-identical"
            );
            assert_eq!(r.delay.mean().to_bits(), baseline.delay.mean().to_bits());
            assert_eq!(r.tx_extras.entries(), baseline.tx_extras.entries());
            assert_eq!(r.rx_extras.entries(), baseline.rx_extras.entries());
        }
    }

    /// More shards than nodes clamps to one node per shard.
    #[test]
    fn shard_count_clamps_to_node_count() {
        let cfg = chain(2, 150, 1e-6);
        let wide = run_chain_lams(&cfg, 64);
        let serial = run_chain_lams(&cfg, 1);
        assert_eq!(wide.delivered_unique, serial.delivered_unique);
        assert_eq!(wide.finished_at, serial.finished_at);
    }

    /// The sharded family equals the one-window relay exactly: both run
    /// the same loop over the same wiring, and the canonical dispatch
    /// order does not depend on the cut.
    #[test]
    fn equals_one_window_relay_at_every_shard_count() {
        let cfg = chain(3, 1_000, 1e-6);
        let relay = crate::relay::run_relay_lams(&cfg);
        assert_eq!(relay.lost, 0);
        for shards in 1..=3 {
            let r = run_chain_lams(&cfg, shards);
            assert_eq!(r.finished_at, relay.finished_at, "{shards} shards");
            assert_eq!(r.delivered_unique, relay.delivered_unique);
            assert_eq!(r.duplicates, relay.duplicates);
            assert_eq!(r.transmissions, relay.transmissions, "{shards} shards");
            assert_eq!(r.retransmissions, relay.retransmissions);
            assert_eq!(r.delay.mean().to_bits(), relay.delay.mean().to_bits());
            assert_eq!(
                r.e2e_delay.mean().to_bits(),
                relay.e2e_delay.mean().to_bits(),
                "{shards} shards"
            );
        }
    }
}
