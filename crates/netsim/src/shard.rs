//! Conservative sharded execution: the per-shard half.
//!
//! A [`Partition`] assigns every node of a [`Topology`] to exactly one
//! shard. Links whose endpoints land in different shards become **cut
//! links**: the sending shard keeps the real [`Channel`] (its RNG, FIFO
//! clamp and outage schedule), while the receiving shard registers a
//! channel-less *stub* that only dispatches injected arrivals to its
//! listeners. [`Partition::plan`] validates the assignment and extracts
//! the per-cut-link **lookahead** (the fixed propagation delay) that the
//! coordinator's conservative horizon rule depends on — a cut link with
//! zero or time-varying delay is rejected at partition time.
//!
//! [`ShardSim`] is the per-shard event loop. It runs the same pump as
//! the serial engine (timers → per-link serve/transmit → drains, from
//! the crate-private `pump` module) but processes events in **granted
//! windows**: [`ShardSim::run_window`]
//! consumes every queued event with `at ≤ grant`, accumulating frames
//! that crossed an outbound cut link into a timestamped batch for the
//! coordinator to route.
//!
//! Determinism across shard counts rests on three rules the types here
//! enforce or document:
//!
//! * **Canonical intra-instant order.** Same-instant events are drained
//!   into a scratch buffer and dispatched in a globally defined order —
//!   pushes by `(source ordinal, sdu id)`, then arrivals by `(global
//!   link id, per-link arrival sequence)`, then wakes — so the dispatch
//!   sequence is independent of how events happened to interleave
//!   across shard queues. (The serial engine's insertion-order
//!   tie-break cannot survive sharding: a cross-shard arrival loses its
//!   insertion position when it travels as a batch.)
//! * **Per-link arrival sequences assigned at transmit.** The shard
//!   owning a channel numbers its arrivals; the FIFO clamp can collapse
//!   distinct transmissions onto one arrival instant, and the sequence
//!   keeps their order well-defined wherever they are replayed.
//! * **Global registration order.** Builders must register links in
//!   ascending global-id order (validated) and endpoints in global
//!   order (documented), so each shard's pump order is the global pump
//!   order restricted to the shard.

use crate::collect::Collect;
use crate::endpoint::{RxEndpoint, TxEndpoint};
use crate::link::{Channel, DelayModel};
use crate::pump::{wake_at, Pump, WakeSlot, Wiring};
use crate::topology::{ColId, EndpointId, LinkId, NodeId, RxId, Topology, TopologyError, TxId};
use crate::traffic::TrafficGen;
use sim_core::{Duration, EventQueue, Instant, QueueProfile};

/// Deterministic node → shard assignment.
#[derive(Clone, Debug)]
pub struct Partition {
    assign: Vec<usize>,
    n_shards: usize,
}

impl Partition {
    /// Explicit assignment: `assign[node] = shard`.
    pub fn explicit(assign: Vec<usize>, n_shards: usize) -> Self {
        Partition { assign, n_shards }
    }

    /// Contiguous balanced ranges: nodes split into `n_shards` runs of
    /// near-equal length (the first `n_nodes % n_shards` runs get one
    /// extra node). The natural partition for chain topologies.
    pub fn contiguous(n_nodes: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let base = n_nodes / n_shards;
        let extra = n_nodes % n_shards;
        let mut assign = Vec::with_capacity(n_nodes);
        for s in 0..n_shards {
            let len = base + usize::from(s < extra);
            assign.extend(std::iter::repeat_n(s, len));
        }
        Partition { assign, n_shards }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Shard owning `node`, if assigned.
    pub fn shard_of(&self, node: NodeId) -> Option<usize> {
        self.assign.get(node.0).copied()
    }

    /// Validate the assignment against `topo` and extract the cut-link
    /// plan. `delays[link]` is each link's propagation model; cut links
    /// must have a fixed, strictly positive delay — that delay is the
    /// conservative lookahead the coordinator grants windows by.
    ///
    /// Rejected with one precise message each: wrong assignment length,
    /// out-of-range shard indices, empty shards, cut links whose delay
    /// is zero or time-varying, and multi-shard partitions with no
    /// cross-shard links at all (no cuts means no lookahead to grant
    /// windows by).
    pub fn plan(&self, topo: &Topology, delays: &[DelayModel]) -> Result<CutPlan, TopologyError> {
        let mut errors = Vec::new();
        let nodes = topo.nodes();
        if self.n_shards == 0 {
            errors.push("partition has zero shards".to_string());
        }
        if self.assign.len() != nodes {
            errors.push(format!(
                "partition assigns {} nodes but the topology has {nodes}",
                self.assign.len()
            ));
        }
        let mut populated = vec![false; self.n_shards];
        for (i, &s) in self.assign.iter().enumerate() {
            match populated.get_mut(s) {
                Some(slot) => *slot = true,
                None => errors.push(format!(
                    "node {i} assigned to shard {s} but there are only {} shards",
                    self.n_shards
                )),
            }
        }
        for (s, present) in populated.iter().enumerate() {
            if !present {
                errors.push(format!("shard {s} has no nodes"));
            }
        }
        if delays.len() != topo.link_count() {
            errors.push(format!(
                "got {} delay models for {} links",
                delays.len(),
                topo.link_count()
            ));
        }
        let mut cuts = Vec::new();
        if errors.is_empty() {
            for (i, l) in topo.links.iter().enumerate() {
                let (from_shard, to_shard) = (self.assign[l.from.0], self.assign[l.to.0]);
                if from_shard == to_shard {
                    continue;
                }
                match &delays[i] {
                    DelayModel::Fixed(d) if *d > Duration::ZERO => cuts.push(CutLink {
                        link: LinkId(i),
                        from_shard,
                        to_shard,
                        delay: *d,
                    }),
                    DelayModel::Fixed(_) => errors.push(format!(
                        "cut link {i} has zero propagation delay; \
                         cross-shard lookahead needs a positive fixed delay"
                    )),
                    DelayModel::Profile { .. } => errors.push(format!(
                        "cut link {i} has a time-varying delay profile; \
                         cross-shard lookahead needs a fixed delay"
                    )),
                }
            }
        }
        if errors.is_empty() && self.n_shards > 1 && cuts.is_empty() {
            // A multi-shard partition with no cross-shard links means
            // the shards never exchange anything and every horizon is
            // infinite — the "parallelism" is really independent runs.
            // Reject it so a miswired partition fails loudly instead of
            // silently degenerating.
            errors.push(format!(
                "partition has {} shards but no cross-shard links; \
                 conservative windows need at least one cut",
                self.n_shards
            ));
        }
        if !errors.is_empty() {
            return Err(TopologyError(errors));
        }
        Ok(CutPlan {
            n_shards: self.n_shards,
            cuts,
        })
    }
}

/// One link crossing a shard boundary.
#[derive(Clone, Copy, Debug)]
pub struct CutLink {
    /// Global link id.
    pub link: LinkId,
    /// Shard owning the channel (the sending side).
    pub from_shard: usize,
    /// Shard hosting the listeners (the receiving side).
    pub to_shard: usize,
    /// Fixed propagation delay — the conservative lookahead.
    pub delay: Duration,
}

/// A validated partition's cut-link plan, consumed by the coordinator.
#[derive(Clone, Debug)]
pub struct CutPlan {
    /// Number of shards.
    pub n_shards: usize,
    /// Every link crossing a shard boundary.
    pub cuts: Vec<CutLink>,
}

/// One event on a shard's queue.
pub enum ShardEvent<F> {
    /// SDU `id` arrives at local source `source`.
    Push {
        /// Local source index.
        source: usize,
        /// SDU id.
        id: u64,
    },
    /// A frame reaches the far end of local link `link`.
    Arrive {
        /// Local link index.
        link: usize,
        /// Per-link arrival sequence (canonical same-instant order).
        seq: u64,
        /// The frame.
        frame: F,
        /// True if it survived the channel uncorrupted.
        clean: bool,
    },
    /// Re-poll endpoints at a previously requested instant.
    Wake,
}

/// A frame in flight across a cut link, in coordinator-routable form.
/// `(at, link, seq)` is the canonical injection order.
pub struct Inbound<F> {
    /// Arrival instant at the receiving shard.
    pub at: Instant,
    /// Global id of the cut link it travelled.
    pub link: usize,
    /// Per-link arrival sequence assigned at transmit.
    pub seq: u64,
    /// The frame.
    pub frame: F,
    /// True if it survived the channel uncorrupted.
    pub clean: bool,
}

struct ShardSource {
    gen: TrafficGen,
    tx: TxId,
    /// Local collector credited with pushes, if this shard has one.
    /// `None` on shards whose flow is accounted remotely (the sink
    /// shard's collector is pre-seeded with the push schedule instead).
    col: Option<ColId>,
    /// Global source ordinal — the canonical same-instant dispatch key.
    ordinal: u64,
}

/// One local link: an owned channel (intra-shard or outbound cut) or an
/// inbound stub. Its senders and listeners live in the shared wiring.
struct LinkSlot {
    global: usize,
    dir: &'static str,
    /// `None` = inbound stub (listeners only).
    channel: Option<Channel>,
    /// Owned cut link: arrivals are exported as batches, not scheduled.
    export: bool,
    /// Next per-link arrival sequence (owned links only).
    next_seq: u64,
}

/// Builder for one shard's slice of a simulation. Mirrors
/// [`crate::SimBuilder`]'s registration API, with global link ids and
/// explicit cut-link roles. Register links in ascending global-id order
/// and endpoints in global registration order: each shard's pump order
/// must be the global order restricted to the shard.
pub struct ShardBuilder<T, R, C> {
    payload_bytes: usize,
    links: Vec<LinkSlot>,
    wiring: Wiring<T, R, C>,
    expects: Vec<(ColId, u64)>,
    sources: Vec<ShardSource>,
}

impl<T, R, C> ShardBuilder<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Start a build with the given SDU payload size.
    pub fn new(payload_bytes: usize) -> Self {
        ShardBuilder {
            payload_bytes,
            links: Vec::new(),
            wiring: Wiring::new(),
            expects: Vec::new(),
            sources: Vec::new(),
        }
    }

    fn push_link(
        &mut self,
        global: usize,
        dir: &'static str,
        channel: Option<Channel>,
        export: bool,
    ) -> LinkId {
        self.links.push(LinkSlot {
            global,
            dir,
            channel,
            export,
            next_seq: 0,
        });
        self.wiring.add_link();
        LinkId(self.links.len() - 1)
    }

    /// Add an intra-shard link carried by `channel` (global id `global`).
    pub fn link(&mut self, global: usize, channel: Channel, dir: &'static str) -> LinkId {
        self.push_link(global, dir, Some(channel), false)
    }

    /// Add an outbound cut link: this shard owns the channel; arrivals
    /// are exported to the coordinator instead of scheduled locally.
    pub fn cut_out(&mut self, global: usize, channel: Channel, dir: &'static str) -> LinkId {
        self.push_link(global, dir, Some(channel), true)
    }

    /// Add an inbound cut-link stub: no channel, only listeners for
    /// arrivals the coordinator injects.
    pub fn cut_in(&mut self, global: usize) -> LinkId {
        self.push_link(global, "", None, false)
    }

    /// Host a sending endpoint transmitting on local `link`.
    pub fn tx(&mut self, link: LinkId, endpoint: T) -> TxId {
        self.wiring.tx(link, endpoint)
    }

    /// Host a receiving endpoint transmitting its control frames on
    /// local `link`.
    pub fn rx(&mut self, link: LinkId, endpoint: R) -> RxId {
        self.wiring.rx(Some(link), endpoint)
    }

    /// Host a receiving endpoint that never transmits: a pure listener
    /// (a protocol without reverse traffic, or a receiver whose control
    /// path lives on another shard's links).
    pub fn rx_silent(&mut self, endpoint: R) -> RxId {
        self.wiring.rx(None, endpoint)
    }

    /// Deliver local `link`'s arrivals to `endpoint`.
    pub fn listen(&mut self, link: LinkId, endpoint: impl Into<EndpointId>) {
        self.wiring.listen(link, endpoint.into());
    }

    /// Register a collector.
    pub fn collector(&mut self, collector: C) -> ColId {
        self.wiring.collector(collector)
    }

    /// Shard-local completion condition: `col` must reach `total`
    /// unique deliveries (the sink shard's half of "safe delivery").
    pub fn expect(&mut self, col: ColId, total: u64) {
        self.expects.push((col, total));
    }

    /// Feed `gen`'s SDUs into `tx`. `col` credits pushes locally when
    /// the accounting collector lives on this shard; `ordinal` is the
    /// source's global registration index (canonical dispatch key).
    pub fn source(&mut self, gen: TrafficGen, tx: TxId, col: Option<ColId>, ordinal: u64) {
        self.sources.push(ShardSource {
            gen,
            tx,
            col,
            ordinal,
        });
    }

    /// Terminal receiver: `rx`'s deliveries credit `col`.
    pub fn deliver(&mut self, rx: RxId, col: ColId) {
        self.wiring.deliver(rx, col);
    }

    /// Store-and-forward receiver: `rx`'s deliveries push into `tx`
    /// (both endpoints co-located on this shard by construction).
    pub fn forward(&mut self, rx: RxId, tx: TxId) {
        self.wiring.forward(rx, tx);
    }

    /// Drain `rx`'s deliveries right after local `link` is pumped
    /// (default: after the last local link).
    pub fn drain_after(&mut self, rx: RxId, link: LinkId) {
        self.wiring.drain_after(rx, link);
    }

    /// Validate the shard wiring and produce a runnable [`ShardSim`].
    pub fn build(self) -> Result<ShardSim<T, R, C>, TopologyError> {
        let mut errors = Vec::new();
        if self.links.is_empty() {
            errors.push("shard has no links".to_string());
        }
        for w in self.links.windows(2) {
            if w[1].global <= w[0].global {
                errors.push(format!(
                    "links must be registered in ascending global-id order \
                     (got {} after {})",
                    w[1].global, w[0].global
                ));
            }
        }
        for (i, slot) in self.links.iter().enumerate() {
            let listeners = &self.wiring.listeners[i];
            if slot.channel.is_none() {
                if !self.wiring.senders[i].is_empty() {
                    errors.push(format!(
                        "local link {i} (global {}) is an inbound stub but has senders",
                        slot.global
                    ));
                }
                if listeners.is_empty() {
                    errors.push(format!("inbound cut link {} has no listeners", slot.global));
                }
            }
            if slot.export && !listeners.is_empty() {
                errors.push(format!(
                    "outbound cut link {} cannot have local listeners",
                    slot.global
                ));
            }
        }
        let pump = self.wiring.finish(self.payload_bytes, &mut errors);
        for (i, s) in self.sources.iter().enumerate() {
            if s.tx.0 >= pump.txs.len() {
                errors.push(format!("source {i} feeds an unknown tx"));
            }
            if s.col.is_some_and(|c| c.0 >= pump.collectors.len()) {
                errors.push(format!("source {i} uses an unknown collector"));
            }
        }
        for (i, (c, _)) in self.expects.iter().enumerate() {
            if c.0 >= pump.collectors.len() {
                errors.push(format!("expect {i} references an unknown collector"));
            }
        }
        if !errors.is_empty() {
            return Err(TopologyError(errors));
        }
        let mut q = EventQueue::new();
        q.set_profiler(profile::current());
        Ok(ShardSim {
            links: self.links,
            pump,
            expects: self.expects,
            sources: self.sources,
            q,
            wake: WakeSlot::default(),
            trace: telemetry::global_handle("channel"),
            last_event_at: Instant::ZERO,
            done_since: None,
            failed_at: None,
            events: 0,
            round: Vec::new(),
            next_round: Vec::new(),
        })
    }
}

/// Everything a finished shard hands back for report assembly, in
/// registration order (mirrors [`crate::Outcome`], restricted to the
/// shard).
pub struct FinishedShard<T, R, C> {
    /// The senders.
    pub txs: Vec<T>,
    /// The receivers.
    pub rxs: Vec<R>,
    /// The collectors.
    pub collectors: Vec<C>,
    /// SDUs issued per local source.
    pub issued: Vec<u64>,
    /// Global finish instant (coordinator-decided).
    pub finished_at: Instant,
    /// True if the deadline fired before completion.
    pub deadline_hit: bool,
}

/// One granted window's result, reported to the coordinator.
pub struct WindowSummary<F> {
    /// Simulated time this shard has now committed up to (the grant, or
    /// the failure instant if a sender declared link failure mid-window).
    pub committed: Instant,
    /// Earliest still-queued local event, for the coordinator's
    /// finish-time lower bound.
    pub next_event: Option<Instant>,
    /// Instant the shard-local completion condition last became true
    /// (and has held since); `None` while incomplete.
    pub done_since: Option<Instant>,
    /// Instant a local sender declared link failure, if any.
    pub failed_at: Option<Instant>,
    /// Most recent locally processed event instant.
    pub last_event_at: Instant,
    /// Events processed this window: pushes and arrivals only. Wakes
    /// are engine bookkeeping whose count varies with the window
    /// schedule, so excluding them keeps the sum over shards invariant
    /// across shard counts.
    pub events: u64,
    /// Events still pending on the shard queue at window end.
    pub queue_depth: u64,
    /// Frames that crossed outbound cut links this window, sorted by
    /// `(at, link, seq)`.
    pub outbound: Vec<Inbound<F>>,
}

/// One shard's runnable slice of a simulation: the serial engine's pump
/// over local links, driven in coordinator-granted windows.
pub struct ShardSim<T, R, C>
where
    T: TxEndpoint,
{
    links: Vec<LinkSlot>,
    pump: Pump<T, R, C>,
    expects: Vec<(ColId, u64)>,
    sources: Vec<ShardSource>,
    q: EventQueue<ShardEvent<T::Frame>>,
    wake: WakeSlot,
    trace: telemetry::Trace,
    last_event_at: Instant,
    done_since: Option<Instant>,
    failed_at: Option<Instant>,
    /// Cumulative pushes + arrivals dispatched (wakes excluded);
    /// windows report the per-window delta.
    events: u64,
    /// Scratch buffers for canonical same-instant dispatch.
    round: Vec<ShardEvent<T::Frame>>,
    next_round: Vec<ShardEvent<T::Frame>>,
}

/// Canonical same-instant dispatch key: pushes first (by global source
/// ordinal, then SDU id), then arrivals (by global link id, then
/// per-link arrival sequence), then wakes.
fn canon_key<F>(links: &[LinkSlot], sources: &[ShardSource], ev: &ShardEvent<F>) -> (u8, u64, u64) {
    match ev {
        ShardEvent::Push { source, id } => (0, sources[*source].ordinal, *id),
        ShardEvent::Arrive { link, seq, .. } => (1, links[*link].global as u64, *seq),
        ShardEvent::Wake => (2, 0, 0),
    }
}

impl<T, R, C> ShardSim<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Start all endpoints at t = 0 and schedule the initial events
    /// (first push per source, one wake). Call once, before the first
    /// window.
    pub fn start(&mut self) {
        self.pump.start();
        for (s, src) in self.sources.iter_mut().enumerate() {
            if let Some((at, id)) = src.gen.next() {
                self.q.schedule(at, ShardEvent::Push { source: s, id });
            }
        }
        self.wake.arm_at_zero(&mut self.q, ShardEvent::Wake);
    }

    /// Schedule coordinator-routed cut-link arrivals. The caller sorts
    /// by `(at, link, seq)`; injection order is insertion order, and the
    /// canonical dispatch key makes same-instant placement deterministic
    /// regardless.
    pub fn inject(&mut self, arrivals: Vec<Inbound<T::Frame>>) {
        for a in arrivals {
            let local = self
                .links
                .binary_search_by_key(&a.link, |l| l.global)
                .unwrap_or_else(|_| panic!("injected arrival on unknown global link {}", a.link));
            self.q.schedule(
                a.at,
                ShardEvent::Arrive {
                    link: local,
                    seq: a.seq,
                    frame: a.frame,
                    clean: a.clean,
                },
            );
        }
    }

    /// The shard-local completion condition: every local source
    /// exhausted, every expected collector total met, every local
    /// sender drained.
    fn locally_done(&self) -> bool {
        self.sources.iter().all(|s| s.gen.issued() >= s.gen.total())
            && self
                .expects
                .iter()
                .all(|(c, n)| self.pump.collectors[c.0].delivered_unique() >= *n)
            && self.pump.txs.iter().all(|t| t.buffered() == 0)
    }

    /// Process every queued event with `at ≤ grant`. With
    /// `stop_on_done` (single-shard runs, where local done is global
    /// done) the window also ends at the first instant the completion
    /// condition holds, exactly like the serial engine.
    pub fn run_window(&mut self, grant: Instant, stop_on_done: bool) -> WindowSummary<T::Frame> {
        let mut outbound: Vec<Inbound<T::Frame>> = Vec::new();
        let mut committed = grant;
        let events_before = self.events;
        while let Some(at) = self.q.next_instant() {
            if at > grant {
                break;
            }
            let (now, first) = self.q.pop().expect("peeked event pops");
            self.last_event_at = now;
            self.dispatch_instant(now, first);
            self.pump_links(now, &mut outbound);
            if self.locally_done() {
                if self.done_since.is_none() {
                    self.done_since = Some(now);
                }
            } else {
                self.done_since = None;
            }
            if self.pump.txs.iter().any(|t| t.is_failed()) {
                self.failed_at = Some(now);
                committed = now;
                break;
            }
            if stop_on_done && self.done_since.is_some() {
                committed = now;
                break;
            }
            let channels = self.links.iter().filter_map(|s| s.channel.as_ref());
            let at = wake_at(now, self.pump.next_timer(), channels);
            self.wake.rearm(&mut self.q, now, at, ShardEvent::Wake);
        }
        outbound.sort_by_key(|a| (a.at, a.link, a.seq));
        WindowSummary {
            committed,
            next_event: self.q.next_instant(),
            done_since: self.done_since,
            failed_at: self.failed_at,
            last_event_at: self.last_event_at,
            events: self.events - events_before,
            queue_depth: self.q.len() as u64,
            outbound,
        }
    }

    /// Drain every event at `now` and dispatch in canonical order,
    /// iterating rounds for same-instant cascades (a dispatched push
    /// can schedule its source's next push at the same instant).
    fn dispatch_instant(&mut self, now: Instant, first: ShardEvent<T::Frame>) {
        let mut round = std::mem::take(&mut self.round);
        let mut next = std::mem::take(&mut self.next_round);
        round.push(first);
        while let Some(ev) = self.q.pop_at(now) {
            round.push(ev);
        }
        while !round.is_empty() {
            round.sort_by_key(|ev| canon_key(&self.links, &self.sources, ev));
            for ev in round.drain(..) {
                self.dispatch(now, ev);
            }
            while let Some(ev) = self.q.pop_at(now) {
                next.push(ev);
            }
            std::mem::swap(&mut round, &mut next);
        }
        self.round = round;
        self.next_round = next;
    }

    fn dispatch(&mut self, now: Instant, ev: ShardEvent<T::Frame>) {
        match ev {
            ShardEvent::Push { source, id } => {
                self.events += 1;
                let src = &mut self.sources[source];
                if let Some(col) = src.col {
                    self.pump.collectors[col.0].on_push(now, id);
                }
                self.pump.txs[src.tx.0].push(id, self.pump.payload.clone());
                if let Some((at, nid)) = src.gen.next() {
                    self.q
                        .schedule(at.max(now), ShardEvent::Push { source, id: nid });
                }
            }
            ShardEvent::Arrive {
                link, frame, clean, ..
            } => {
                self.events += 1;
                self.pump.arrive(now, link, frame, clean);
            }
            ShardEvent::Wake => self.wake.fired(now),
        }
    }

    /// The shared pump over local links: timers, per-link serve (owned
    /// channels only; arrivals on cut links are exported), drains.
    fn pump_links(&mut self, now: Instant, outbound: &mut Vec<Inbound<T::Frame>>) {
        self.pump.fire_timers(now);
        let q = &mut self.q;
        for (li, slot) in self.links.iter_mut().enumerate() {
            let LinkSlot {
                global,
                dir,
                channel,
                export,
                next_seq,
            } = slot;
            if let Some(channel) = channel {
                self.pump
                    .serve(now, li, channel, dir, &self.trace, |at, frame, clean| {
                        let seq = *next_seq;
                        *next_seq += 1;
                        if *export {
                            outbound.push(Inbound {
                                at,
                                link: *global,
                                seq,
                                frame,
                                clean,
                            });
                        } else {
                            q.schedule(
                                at,
                                ShardEvent::Arrive {
                                    link: li,
                                    seq,
                                    frame,
                                    clean,
                                },
                            );
                        }
                    });
            }
            self.pump.drain(now, li);
        }
    }

    /// The queue's profiling snapshot so far.
    pub fn queue_profile(&self) -> QueueProfile {
        self.q.profile()
    }

    /// Consume the shard into its report-assembly pieces.
    pub fn into_finished(self, finished_at: Instant, deadline_hit: bool) -> FinishedShard<T, R, C> {
        FinishedShard {
            issued: self.sources.iter().map(|s| s.gen.issued()).collect(),
            txs: self.pump.txs,
            rxs: self.pump.rxs,
            collectors: self.pump.collectors,
            finished_at,
            deadline_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump::testkit::{clean_channel, CountCollector, EchoRx, EchoTx};
    use crate::topology::{LinkSpec, NodeRole};

    fn chain_topo(hops: usize) -> Topology {
        let mut t = Topology::default();
        t.roles.push(NodeRole::Source);
        for _ in 1..hops {
            t.roles.push(NodeRole::Relay);
        }
        t.roles.push(NodeRole::Sink);
        for i in 0..hops {
            t.links.push(LinkSpec {
                from: NodeId(i),
                to: NodeId(i + 1),
                dir: "fwd",
            });
            t.links.push(LinkSpec {
                from: NodeId(i + 1),
                to: NodeId(i),
                dir: "rev",
            });
        }
        t
    }

    fn fixed_delays(n: usize, ms: u64) -> Vec<DelayModel> {
        vec![DelayModel::Fixed(Duration::from_millis(ms)); n]
    }

    #[test]
    fn contiguous_partition_is_balanced_and_total() {
        let p = Partition::contiguous(5, 2);
        assert_eq!(p.n_shards(), 2);
        assert_eq!(p.shard_of(NodeId(0)), Some(0));
        assert_eq!(p.shard_of(NodeId(2)), Some(0));
        assert_eq!(p.shard_of(NodeId(3)), Some(1));
        assert_eq!(p.shard_of(NodeId(4)), Some(1));
        assert_eq!(p.shard_of(NodeId(5)), None);
    }

    #[test]
    fn plan_accepts_chain_and_finds_cuts() {
        let topo = chain_topo(3);
        let p = Partition::contiguous(4, 2);
        let plan = p
            .plan(&topo, &fixed_delays(topo.link_count(), 13))
            .expect("valid partition");
        assert_eq!(plan.n_shards, 2);
        // Nodes 0,1 | 2,3: hop 1 (links 2 fwd, 3 rev) is cut.
        assert_eq!(plan.cuts.len(), 2);
        assert_eq!(plan.cuts[0].link, LinkId(2));
        assert_eq!(plan.cuts[0].from_shard, 0);
        assert_eq!(plan.cuts[0].to_shard, 1);
        assert_eq!(plan.cuts[1].link, LinkId(3));
        assert_eq!(plan.cuts[1].from_shard, 1);
        assert_eq!(plan.cuts[1].to_shard, 0);
        assert_eq!(plan.cuts[0].delay, Duration::from_millis(13));
    }

    #[test]
    fn plan_rejects_wrong_length_and_range() {
        let topo = chain_topo(2);
        let err = Partition::explicit(vec![0, 1], 2)
            .plan(&topo, &fixed_delays(topo.link_count(), 1))
            .expect_err("3 nodes, 2 assigned");
        assert!(err.to_string().contains("assigns 2 nodes"), "{err}");
        let err = Partition::explicit(vec![0, 5, 1], 2)
            .plan(&topo, &fixed_delays(topo.link_count(), 1))
            .expect_err("shard 5 of 2");
        assert!(
            err.to_string().contains("node 1 assigned to shard 5"),
            "{err}"
        );
    }

    #[test]
    fn plan_rejects_empty_shards() {
        let topo = chain_topo(2);
        let err = Partition::explicit(vec![0, 0, 0], 2)
            .plan(&topo, &fixed_delays(topo.link_count(), 1))
            .expect_err("shard 1 empty");
        assert!(err.to_string().contains("shard 1 has no nodes"), "{err}");
        // Every node in exactly one shard, no shard empty: the valid case.
        assert!(Partition::explicit(vec![0, 0, 1], 2)
            .plan(&topo, &fixed_delays(topo.link_count(), 1))
            .is_ok());
    }

    #[test]
    fn plan_rejects_zero_delay_cut_links() {
        let topo = chain_topo(2);
        let mut delays = fixed_delays(topo.link_count(), 1);
        delays[2] = DelayModel::Fixed(Duration::ZERO); // hop 1 fwd: cut
        let err = Partition::explicit(vec![0, 0, 1], 2)
            .plan(&topo, &delays)
            .expect_err("zero-delay cut link");
        assert!(
            err.to_string()
                .contains("cut link 2 has zero propagation delay"),
            "{err}"
        );
        // The same zero delay on an intra-shard link is fine.
        let mut delays = fixed_delays(topo.link_count(), 1);
        delays[0] = DelayModel::Fixed(Duration::ZERO); // hop 0: internal
        assert!(Partition::explicit(vec![0, 0, 1], 2)
            .plan(&topo, &delays)
            .is_ok());
    }

    #[test]
    fn plan_rejects_multi_shard_partition_without_cuts() {
        // Two disconnected nodes: a 2-shard split has no cross-shard
        // links, so there is no lookahead to grant windows by.
        let mut topo = Topology::default();
        topo.roles.push(NodeRole::Source);
        topo.roles.push(NodeRole::Sink);
        let err = Partition::explicit(vec![0, 1], 2)
            .plan(&topo, &[])
            .expect_err("no cross-shard links");
        assert!(err.to_string().contains("no cross-shard links"), "{err}");
        // The same topology in one shard is fine: single-shard runs
        // never need cuts.
        assert!(Partition::explicit(vec![0, 0], 1).plan(&topo, &[]).is_ok());
    }

    #[test]
    fn builder_rejects_bad_cut_wiring() {
        // A sender on an inbound stub, a listener on an outbound cut
        // link, and descending global-id registration: all rejected.
        let mut b: ShardBuilder<EchoTx, EchoRx, CountCollector> = ShardBuilder::new(8);
        let out = b.cut_out(3, clean_channel(), "fwd");
        let stub = b.cut_in(1); // descending: 1 after 3
        b.tx(stub, EchoTx::default());
        b.listen(out, EndpointId::Rx(RxId(0)));
        let r = b.rx(out, EchoRx::default());
        b.deliver(r, ColId(0)); // unknown collector
        let err = match b.build() {
            Err(e) => e,
            Ok(_) => panic!("invalid shard wiring accepted"),
        };
        let msg = err.to_string();
        assert!(msg.contains("ascending global-id order"), "{msg}");
        assert!(msg.contains("inbound stub but has senders"), "{msg}");
        assert!(msg.contains("cannot have local listeners"), "{msg}");
        assert!(msg.contains("delivers to an unknown collector"), "{msg}");
    }

    #[test]
    fn builder_rejects_unknown_listen_and_drain_links() {
        let mut b: ShardBuilder<EchoTx, EchoRx, CountCollector> = ShardBuilder::new(8);
        let lf = b.link(0, clean_channel(), "fwd");
        let lr = b.link(1, clean_channel(), "rev");
        let t = b.tx(lf, EchoTx::default());
        let r = b.rx(lr, EchoRx::default());
        b.listen(lf, r);
        b.listen(lr, t);
        let c = b.collector(CountCollector::default());
        b.deliver(r, c);
        // Local links are 0 and 1 only.
        b.listen(LinkId(5), r);
        b.drain_after(r, LinkId(6));
        let err = match b.build() {
            Err(e) => e,
            Ok(_) => panic!("unknown local links accepted"),
        };
        let msg = err.to_string();
        assert!(msg.contains("listens on unknown link 5"), "{msg}");
        assert!(msg.contains("drains after unknown link 6"), "{msg}");
    }
}
