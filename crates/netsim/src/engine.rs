//! The serial event loop, and the builder that wires a topology into it.
//!
//! Every simulation is four event kinds on one deterministic queue:
//!
//! * **Push** — a traffic source hands an SDU to its sender;
//! * **Arrive** — a frame reaches the far end of a link;
//! * **Sample** — the periodic occupancy sampling tick;
//! * **Wake** — re-poll at the earliest pending protocol instant.
//!
//! After draining every event scheduled for the current instant, the
//! loop pumps: endpoint timers fire, each link's transmitter serves its
//! senders in priority order while idle, receivers drain deliveries at
//! their configured point in the link order (store-and-forward relays
//! must forward into the *next* link's sender before that link is
//! pumped), holding samples flow to collectors, and the completion /
//! failure / wake checks run. The pump steps themselves live in the
//! crate-private `pump` module, shared with the sharded loop; this loop
//! owns the insertion-order tie-break, sampling, holdings and
//! completion. The
//! pump order and event insertion order are exactly those of the
//! original hand-rolled point-to-point, duplex and relay loops, so a
//! given seed reproduces their numbers bit-for-bit.

use crate::collect::Collect;
use crate::endpoint::{RxEndpoint, TxEndpoint};
use crate::link::Channel;
use crate::pump::{wake_at, Delivery, Pump, WakeSlot, Wiring};
use crate::topology::{
    ColId, EndpointId, LinkId, LinkSpec, NodeId, NodeRole, RxId, Topology, TopologyError, TxId,
};
use crate::traffic::TrafficGen;
use proto_core::{Clock, ManualClock};
use sim_core::{Duration, EventQueue, Instant, QueueProfile, RunTimer};
use telemetry::TraceEvent;

/// One event on the engine's queue, generic over the protocol frame.
pub enum SimEvent<F> {
    /// SDU `id` arrives at the source with this index.
    Push {
        /// Index of the traffic source (registration order).
        source: usize,
        /// SDU id.
        id: u64,
    },
    /// A frame reaches the receiving end of link `link`.
    Arrive {
        /// The link the frame travelled.
        link: usize,
        /// The frame itself.
        frame: F,
        /// True if it survived the channel uncorrupted.
        clean: bool,
    },
    /// Periodic occupancy sampling tick.
    Sample,
    /// Re-poll endpoints at a previously requested instant.
    Wake,
}

/// A traffic source: a generator feeding one sender, accounted by one
/// collector.
struct SourceSpec {
    gen: TrafficGen,
    tx: TxId,
    col: ColId,
}

/// One collector's periodic sampling subjects.
struct SamplerSpec {
    col: ColId,
    tx: TxId,
    /// Receivers whose worst (max) occupancy is sampled.
    rxs: Vec<RxId>,
}

/// Builder wiring endpoints, links, sources and collectors into a
/// [`Sim`]. Registration order is semantic: links pump in creation
/// order, a link's senders are served in registration order (first
/// registered wins the transmitter), and arrivals are offered to
/// listeners in registration order (all but the last get a clone).
pub struct SimBuilder<T, R, C> {
    topo: Topology,
    channels: Vec<Channel>,
    wiring: Wiring<T, R, C>,
    tx_node: Vec<NodeId>,
    rx_node: Vec<NodeId>,
    sources: Vec<SourceSpec>,
    samplers: Vec<SamplerSpec>,
    holdings: Vec<(ColId, TxId)>,
    payload_bytes: usize,
    deadline: Duration,
    sample_every: Duration,
}

impl<T, R, C> SimBuilder<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Start a build: SDU payload size, give-up time, sampling period.
    pub fn new(payload_bytes: usize, deadline: Duration, sample_every: Duration) -> Self {
        SimBuilder {
            topo: Topology::default(),
            channels: Vec::new(),
            wiring: Wiring::new(),
            tx_node: Vec::new(),
            rx_node: Vec::new(),
            sources: Vec::new(),
            samplers: Vec::new(),
            holdings: Vec::new(),
            payload_bytes,
            deadline,
            sample_every,
        }
    }

    /// Add a node with the given role.
    pub fn node(&mut self, role: NodeRole) -> NodeId {
        self.topo.roles.push(role);
        NodeId(self.topo.roles.len() - 1)
    }

    /// Add a directed link `from → to` carried by `channel`. Links pump
    /// in creation order; `dir` labels channel-drop trace records.
    pub fn link(
        &mut self,
        from: NodeId,
        to: NodeId,
        channel: Channel,
        dir: &'static str,
    ) -> LinkId {
        self.topo.links.push(LinkSpec { from, to, dir });
        self.channels.push(channel);
        self.wiring.add_link();
        LinkId(self.topo.links.len() - 1)
    }

    /// Host a sending endpoint at `node`, transmitting on `link`.
    /// Registration order on a link is its transmitter priority.
    pub fn tx(&mut self, node: NodeId, link: LinkId, endpoint: T) -> TxId {
        self.tx_node.push(node);
        self.wiring.tx(link, endpoint)
    }

    /// Host a receiving endpoint at `node`, transmitting its control
    /// frames on `link`. Registration order on a link is its
    /// transmitter priority (register the receiver first for
    /// control-frame priority, as full-duplex nodes do).
    pub fn rx(&mut self, node: NodeId, link: LinkId, endpoint: R) -> RxId {
        self.rx_node.push(node);
        self.wiring.rx(Some(link), endpoint)
    }

    /// Deliver `link`'s arrivals to `endpoint`. Listeners are offered
    /// frames in registration order; all but the last receive a clone.
    pub fn listen(&mut self, link: LinkId, endpoint: impl Into<EndpointId>) {
        self.wiring.listen(link, endpoint.into());
    }

    /// Register a collector.
    pub fn collector(&mut self, collector: C) -> ColId {
        self.wiring.collector(collector)
    }

    /// Feed `gen`'s SDUs into `tx`, accounted by `col`. Sources push
    /// their first SDU in registration order at t = 0.
    pub fn source(&mut self, gen: TrafficGen, tx: TxId, col: ColId) {
        self.sources.push(SourceSpec { gen, tx, col });
    }

    /// Terminal receiver: `rx`'s deliveries credit `col`.
    pub fn deliver(&mut self, rx: RxId, col: ColId) {
        self.wiring.deliver(rx, col);
    }

    /// Store-and-forward receiver: `rx`'s deliveries push into `tx`.
    pub fn forward(&mut self, rx: RxId, tx: TxId) {
        self.wiring.forward(rx, tx);
    }

    /// Drain `rx`'s deliveries right after `link` is pumped (default:
    /// after the last link). A relay must drain hop `i`'s receiver
    /// before hop `i + 1`'s link pumps, so forwarded frames catch the
    /// same pump pass.
    pub fn drain_after(&mut self, rx: RxId, link: LinkId) {
        self.wiring.drain_after(rx, link);
    }

    /// Sample `tx`'s buffer and the worst occupancy among `rxs` into
    /// `col` on every sampling tick, in registration order.
    pub fn sample(&mut self, col: ColId, tx: TxId, rxs: Vec<RxId>) {
        self.samplers.push(SamplerSpec { col, tx, rxs });
    }

    /// Drain `tx`'s holding-time samples into `col` each pump pass.
    pub fn holding(&mut self, col: ColId, tx: TxId) {
        self.holdings.push((col, tx));
    }

    /// Validate the wiring against the topology and produce a runnable
    /// [`Sim`].
    pub fn build(self) -> Result<Sim<T, R, C>, TopologyError> {
        let mut errors = Vec::new();
        let nodes = self.topo.nodes();
        if self.topo.link_count() == 0 {
            errors.push("no links".to_string());
        }
        for (i, l) in self.topo.links.iter().enumerate() {
            if l.from.0 >= nodes || l.to.0 >= nodes {
                errors.push(format!("link {i} references an unknown node"));
            } else if l.from == l.to {
                errors.push(format!("link {i} is a self-loop"));
            }
        }
        let w = &self.wiring;
        let foreign = |link: Option<LinkId>, node: NodeId| {
            link.and_then(|l| self.topo.links.get(l.0))
                .is_some_and(|spec| spec.from != node)
        };
        for (i, (l, n)) in w.tx_link.iter().zip(&self.tx_node).enumerate() {
            if foreign(Some(*l), *n) {
                errors.push(format!("tx {i} transmits on a link it does not originate"));
            }
        }
        for (i, (l, n)) in w.rx_link.iter().zip(&self.rx_node).enumerate() {
            if foreign(*l, *n) {
                errors.push(format!("rx {i} transmits on a link it does not originate"));
            }
        }
        for (li, listeners) in w.listeners.iter().enumerate() {
            let to = self.topo.links[li].to;
            for ep in listeners {
                let host = match *ep {
                    EndpointId::Tx(t) => self.tx_node.get(t.0).copied(),
                    EndpointId::Rx(r) => self.rx_node.get(r.0).copied(),
                };
                if host != Some(to) {
                    errors.push(format!(
                        "link {li} listener {ep:?} is not hosted at its far end"
                    ));
                }
            }
        }
        let pump = self.wiring.finish(self.payload_bytes, &mut errors);
        let (txs, rxs, cols) = (pump.txs.len(), pump.rxs.len(), pump.collectors.len());
        for (i, d) in pump.deliveries.iter().enumerate() {
            if let Delivery::Forward(t) = d {
                if self.tx_node.get(t.0).is_some_and(|n| *n != self.rx_node[i]) {
                    errors.push(format!("rx {i} forwards into a tx at a different node"));
                }
            }
        }
        for (i, s) in self.sources.iter().enumerate() {
            if s.tx.0 >= txs {
                errors.push(format!("source {i} feeds an unknown tx"));
            }
            if s.col.0 >= cols {
                errors.push(format!("source {i} uses an unknown collector"));
            }
        }
        for (i, s) in self.samplers.iter().enumerate() {
            if s.col.0 >= cols || s.tx.0 >= txs {
                errors.push(format!("sampler {i} references unknown ids"));
            }
            if s.rxs.iter().any(|r| r.0 >= rxs) {
                errors.push(format!("sampler {i} references an unknown rx"));
            }
        }
        for (i, (c, t)) in self.holdings.iter().enumerate() {
            if c.0 >= cols || t.0 >= txs {
                errors.push(format!("holding {i} references unknown ids"));
            }
        }
        // Role consistency: the wiring must exhibit each node's role.
        for (n, role) in self.topo.roles.iter().enumerate() {
            let node = NodeId(n);
            let sourced_tx = || {
                self.sources
                    .iter()
                    .any(|s| self.tx_node.get(s.tx.0) == Some(&node))
            };
            let rx_delivering = |forward: bool| {
                self.rx_node
                    .iter()
                    .zip(&pump.deliveries)
                    .any(|(h, d)| *h == node && matches!(d, Delivery::Forward(_)) == forward)
            };
            let ok = match role {
                NodeRole::Source => sourced_tx(),
                NodeRole::Sink => rx_delivering(false),
                NodeRole::Relay => rx_delivering(true),
                NodeRole::Duplex => sourced_tx() && rx_delivering(false),
            };
            if !ok {
                errors.push(format!("node {n} does not exhibit its {role:?} role"));
            }
        }
        if !errors.is_empty() {
            return Err(TopologyError(errors));
        }
        Ok(Sim {
            topo: self.topo,
            channels: self.channels,
            pump,
            sources: self.sources,
            samplers: self.samplers,
            holdings: self.holdings,
            deadline: self.deadline,
            sample_every: self.sample_every,
        })
    }
}

/// Everything a finished run hands back to its topology builder, which
/// owns report assembly (offered counts, extra stats, perf stamping).
pub struct Outcome<T, R, C> {
    /// The senders, in registration order.
    pub txs: Vec<T>,
    /// The receivers, in registration order.
    pub rxs: Vec<R>,
    /// The collectors, in registration order.
    pub collectors: Vec<C>,
    /// SDUs issued per source, in registration order.
    pub issued: Vec<u64>,
    /// Instant the run completed (or the deadline).
    pub finished_at: Instant,
    /// True if the deadline fired before completion.
    pub deadline_hit: bool,
    /// The event queue's profiling snapshot for this run.
    pub queue: QueueProfile,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

/// A validated, runnable simulation. Consume with [`Sim::run`] (fresh
/// queue) or [`Sim::run_in`] (reuse a queue's allocation across runs).
pub struct Sim<T, R, C> {
    topo: Topology,
    channels: Vec<Channel>,
    pump: Pump<T, R, C>,
    sources: Vec<SourceSpec>,
    samplers: Vec<SamplerSpec>,
    holdings: Vec<(ColId, TxId)>,
    deadline: Duration,
    sample_every: Duration,
}

impl<T, R, C> Sim<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Run to completion on a fresh event queue.
    pub fn run(self) -> Outcome<T, R, C> {
        let mut q = EventQueue::new();
        self.run_in(&mut q)
    }

    /// Run to completion, reusing `q`'s allocation (it is reset first).
    /// The returned profile covers this run only.
    pub fn run_in(self, q: &mut EventQueue<SimEvent<T::Frame>>) -> Outcome<T, R, C> {
        q.reset();
        // Self-profiling: resolve this thread's profiler once per run
        // (disabled = one branch per span) and hand the queue its own
        // handle so queue operations attribute under the engine spans.
        let prof = profile::current();
        q.set_profiler(prof.clone());
        let _run_span = prof.span("sim.run");
        let timer = RunTimer::start();
        let trace = telemetry::global_handle("channel");
        // Structural run markers: observers (the live auditor, offline
        // trace analysis) reset per-run state at `run_started` and
        // finalise at `run_finished`, so one JSONL stream can carry any
        // number of runs back to back.
        let sim_trace = telemetry::global_handle("sim");
        sim_trace.emit(Instant::ZERO, || TraceEvent::RunStarted);
        let Sim {
            topo,
            mut channels,
            mut pump,
            mut sources,
            samplers,
            holdings,
            deadline,
            sample_every,
        } = self;
        let deadline = Instant::ZERO + deadline;

        pump.start();
        for (s, src) in sources.iter_mut().enumerate() {
            if let Some((at, id)) = src.gen.next() {
                q.schedule(at, SimEvent::Push { source: s, id });
            }
        }
        q.schedule(Instant::ZERO, SimEvent::Sample);
        let mut wake = WakeSlot::default();
        wake.arm_at_zero(q, SimEvent::Wake);
        let mut holding_buf: Vec<f64> = Vec::new();
        // Simulated time as a Clock: kept in lock-step with the event
        // queue, so the engine's notion of "now" (and the instant the
        // run finished at) is the same abstraction a wall-clock host
        // uses — a ManualClock never advanced past the last dispatched
        // event (or the deadline, when that cuts the run short).
        let sim_clock = ManualClock::new();
        let mut deadline_hit = false;

        while let Some((now, first_ev)) = q.pop() {
            if now > deadline {
                deadline_hit = true;
                sim_clock.set(deadline);
                break;
            }
            sim_clock.set(now);
            // Drain every event scheduled for this same instant before
            // pumping: simultaneous SDU arrivals (a batch) must all be
            // in the sending buffer before any transmission decision.
            let dispatch_span = prof.span("sim.dispatch");
            let mut ev = first_ev;
            loop {
                match ev {
                    SimEvent::Push { source, id } => {
                        let src = &mut sources[source];
                        pump.collectors[src.col.0].on_push(now, id);
                        pump.txs[src.tx.0].push(id, pump.payload.clone());
                        if let Some((at, nid)) = src.gen.next() {
                            q.schedule(at.max(now), SimEvent::Push { source, id: nid });
                        }
                    }
                    SimEvent::Arrive { link, frame, clean } => {
                        pump.arrive(now, link, frame, clean);
                    }
                    SimEvent::Sample => {
                        prof.sample_queue_depth(q.len() as u64);
                        for s in &samplers {
                            let worst_rx = s
                                .rxs
                                .iter()
                                .map(|r| pump.rxs[r.0].occupancy())
                                .max()
                                .unwrap_or(0);
                            let tx = &pump.txs[s.tx.0];
                            pump.collectors[s.col.0].sample(
                                now,
                                tx.buffered(),
                                worst_rx,
                                tx.rate(),
                            );
                        }
                        if now + sample_every <= deadline {
                            q.schedule(now + sample_every, SimEvent::Sample);
                        }
                    }
                    SimEvent::Wake => wake.fired(now),
                }
                match q.pop_at(now) {
                    Some(next) => ev = next,
                    None => break,
                }
            }
            drop(dispatch_span);

            // Pump: timers, transmissions, deliveries.
            let timer_span = prof.span("sim.pump_timers");
            pump.fire_timers(now);
            drop(timer_span);
            let links_span = prof.span("sim.pump_links");
            for (li, channel) in channels.iter_mut().enumerate() {
                let tx_span = prof.span("sim.tx_serve");
                pump.serve(
                    now,
                    li,
                    channel,
                    topo.links[li].dir,
                    &trace,
                    |at, frame, clean| {
                        q.schedule(
                            at,
                            SimEvent::Arrive {
                                link: li,
                                frame,
                                clean,
                            },
                        );
                    },
                );
                drop(tx_span);
                let rx_span = prof.span("sim.rx_drain");
                pump.drain(now, li);
                drop(rx_span);
            }
            drop(links_span);
            let collect_span = prof.span("sim.collect");
            for (col, t) in &holdings {
                holding_buf.clear();
                pump.txs[t.0].drain_holding(&mut holding_buf);
                pump.collectors[col.0].on_holding(&holding_buf);
            }

            // "Safe delivery" (§4): the run completes when every flow
            // delivered its offer AND every sender has drained (each
            // frame positively acknowledged).
            let done = sources
                .iter()
                .all(|s| pump.collectors[s.col.0].delivered_unique() >= s.gen.total())
                && pump.txs.iter().all(|t| t.buffered() == 0);
            drop(collect_span);
            if done || pump.txs.iter().any(|t| t.is_failed()) {
                break;
            }

            let _wake_span = prof.span("sim.wake");
            let at = wake_at(now, pump.next_timer(), channels.iter());
            wake.rearm(q, now, at, SimEvent::Wake);
        }

        let finished_at = sim_clock.now();
        sim_trace.emit(finished_at, || TraceEvent::RunFinished { deadline_hit });

        Outcome {
            issued: sources.iter().map(|s| s.gen.issued()).collect(),
            txs: pump.txs,
            rxs: pump.rxs,
            collectors: pump.collectors,
            finished_at,
            deadline_hit,
            queue: q.profile(),
            wall_secs: timer.elapsed_secs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump::testkit::{clean_channel, CountCollector, EchoRx, EchoTx};
    use crate::traffic::Pattern;
    use sim_core::SeedSplitter;

    fn p2p(n: u64) -> SimBuilder<EchoTx, EchoRx, CountCollector> {
        let mut b = SimBuilder::new(64, Duration::from_secs(60), Duration::from_millis(5));
        let a = b.node(NodeRole::Source);
        let z = b.node(NodeRole::Sink);
        let lf = b.link(a, z, clean_channel(), "fwd");
        let lr = b.link(z, a, clean_channel(), "rev");
        let t = b.tx(a, lf, EchoTx::default());
        let r = b.rx(z, lr, EchoRx::default());
        b.listen(lf, r);
        b.listen(lr, t);
        let c = b.collector(CountCollector::default());
        b.source(
            TrafficGen::new(Pattern::Batch, n, SeedSplitter::new(1).stream(2)),
            t,
            c,
        );
        b.deliver(r, c);
        b.sample(c, t, vec![r]);
        b.holding(c, t);
        b
    }

    #[test]
    fn point_to_point_delivers_everything() {
        let out = p2p(10).build().expect("valid").run();
        assert_eq!(out.collectors[0].delivered, 10);
        assert_eq!(out.collectors[0].pushed, 10);
        assert_eq!(out.issued, vec![10]);
        assert!(!out.deadline_hit);
        assert!(out.finished_at > Instant::ZERO);
        assert!(out.queue.popped > 0);
    }

    #[test]
    fn queue_reuse_is_equivalent_to_fresh() {
        let fresh = p2p(25).build().expect("valid").run();
        let mut q = EventQueue::new();
        // Dirty the queue, then reuse it: reset must make it pristine.
        q.schedule(Instant::from_millis(3), SimEvent::Wake);
        q.pop();
        let reused = p2p(25).build().expect("valid").run_in(&mut q);
        assert_eq!(fresh.finished_at, reused.finished_at);
        assert_eq!(fresh.queue.scheduled, reused.queue.scheduled);
        assert_eq!(fresh.queue.popped, reused.queue.popped);
    }

    #[test]
    fn build_rejects_unwired_receiver() {
        let mut b: SimBuilder<EchoTx, EchoRx, CountCollector> =
            SimBuilder::new(64, Duration::from_secs(1), Duration::from_millis(5));
        let a = b.node(NodeRole::Source);
        let z = b.node(NodeRole::Sink);
        let lf = b.link(a, z, clean_channel(), "fwd");
        let lr = b.link(z, a, clean_channel(), "rev");
        let t = b.tx(a, lf, EchoTx::default());
        let r = b.rx(z, lr, EchoRx::default());
        b.listen(lf, r);
        let c = b.collector(CountCollector::default());
        b.source(
            TrafficGen::new(Pattern::Batch, 1, SeedSplitter::new(1).stream(2)),
            t,
            c,
        );
        // No deliver()/forward() for r: must be rejected.
        let err = b.build().err().expect("unwired rx must not build");
        assert!(err.to_string().contains("no delivery target"), "{err}");
    }

    #[test]
    fn build_rejects_unknown_listen_and_drain_links() {
        let mut b = p2p(1);
        // The p2p wiring has links 0 and 1 only, and one rx.
        b.listen(LinkId(7), RxId(0));
        b.drain_after(RxId(0), LinkId(9));
        b.deliver(RxId(4), ColId(0));
        let err = b.build().err().expect("unknown links must not build");
        let msg = err.to_string();
        assert!(msg.contains("listens on unknown link 7"), "{msg}");
        assert!(msg.contains("drains after unknown link 9"), "{msg}");
        assert!(msg.contains("unknown rx 4 has a delivery target"), "{msg}");
    }

    #[test]
    fn build_rejects_role_mismatch_and_bad_links() {
        let mut b: SimBuilder<EchoTx, EchoRx, CountCollector> =
            SimBuilder::new(64, Duration::from_secs(1), Duration::from_millis(5));
        let a = b.node(NodeRole::Source);
        // Self-loop link, and a Source node with no source feeding it.
        b.link(a, a, clean_channel(), "fwd");
        let err = b.build().err().expect("must not build");
        let msg = err.to_string();
        assert!(msg.contains("self-loop"), "{msg}");
        assert!(msg.contains("Source"), "{msg}");
    }

    #[test]
    fn relay_forwarding_chain_delivers() {
        // 3 nodes, 2 hops: source → relay → sink, with per-hop drain
        // points so forwarded frames catch the next link's pump pass.
        let mut b: SimBuilder<EchoTx, EchoRx, CountCollector> =
            SimBuilder::new(64, Duration::from_secs(60), Duration::from_millis(5));
        let n0 = b.node(NodeRole::Source);
        let n1 = b.node(NodeRole::Relay);
        let n2 = b.node(NodeRole::Sink);
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for (from, to) in [(n0, n1), (n1, n2)] {
            let lf = b.link(from, to, clean_channel(), "fwd");
            let lr = b.link(to, from, clean_channel(), "rev");
            let t = b.tx(from, lf, EchoTx::default());
            let r = b.rx(to, lr, EchoRx::default());
            b.listen(lf, r);
            b.listen(lr, t);
            b.drain_after(r, lr);
            txs.push(t);
            rxs.push(r);
        }
        let c = b.collector(CountCollector::default());
        b.source(
            TrafficGen::new(Pattern::Batch, 7, SeedSplitter::new(1).stream(2)),
            txs[0],
            c,
        );
        b.forward(rxs[0], txs[1]);
        b.deliver(rxs[1], c);
        b.sample(c, txs[0], rxs.clone());
        b.holding(c, txs[0]);
        let out = b.build().expect("valid relay").run();
        assert_eq!(out.collectors[0].delivered, 7);
        assert_eq!(out.txs[0].sent, 7);
        assert_eq!(out.txs[1].sent, 7, "relay must forward every frame");
    }
}
