//! The per-instant endpoint/link machinery both event loops share.
//!
//! [`crate::engine::Sim`] and [`crate::shard::ShardSim`] differ only in
//! how they schedule events and break same-instant ties. Everything they
//! do with endpoints and links once an instant is chosen lives here, once:
//!
//! * [`Wiring`] — the builder half both `SimBuilder` and `ShardBuilder`
//!   embed: endpoint/collector registration, per-link sender priority and
//!   listener lists, delivery targets and drain points, and their
//!   validation;
//! * [`Pump`] — the runtime half: starting endpoints, arrival fan-out to
//!   a link's listeners, firing timers, serving a link's senders in
//!   priority order while its transmitter is idle (paper §2.2: a control
//!   frame registered first wins the transmitter), and draining receivers
//!   into a collector or a store-and-forward sender;
//! * [`wake_at`] / [`WakeSlot`] — the single-pending-wake re-arm rule.

use crate::collect::Collect;
use crate::endpoint::{RxEndpoint, TxEndpoint};
use crate::link::{Channel, Fate};
use crate::topology::{ColId, EndpointId, LinkId, RxId, TxId};
use bytes::Bytes;
use sim_core::{EventId, EventQueue, Instant};
use telemetry::{Trace, TraceEvent};

/// Where a receiver's completed deliveries go.
#[derive(Clone, Copy)]
pub(crate) enum Delivery {
    /// Terminal: credit the collector (the flow's destination).
    Collect(ColId),
    /// Store-and-forward: push into a co-located sender.
    Forward(TxId),
}

/// Builder-side wiring. Registration order is semantic: a link's senders
/// are served in registration order (first registered wins the
/// transmitter), and arrivals are offered to listeners in registration
/// order (all but the last get a clone).
pub(crate) struct Wiring<T, R, C> {
    pub(crate) txs: Vec<T>,
    pub(crate) tx_link: Vec<LinkId>,
    pub(crate) rxs: Vec<R>,
    /// `None` for a receiver that never transmits.
    pub(crate) rx_link: Vec<Option<LinkId>>,
    pub(crate) senders: Vec<Vec<EndpointId>>,
    pub(crate) listeners: Vec<Vec<EndpointId>>,
    rx_delivery: Vec<Option<Delivery>>,
    rx_drain_after: Vec<Option<LinkId>>,
    pub(crate) collectors: Vec<C>,
    /// Registrations that named an unknown link or receiver, reported by
    /// `finish`.
    errors: Vec<String>,
}

impl<T, R, C> Wiring<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    pub(crate) fn new() -> Self {
        Wiring {
            txs: Vec::new(),
            tx_link: Vec::new(),
            rxs: Vec::new(),
            rx_link: Vec::new(),
            senders: Vec::new(),
            listeners: Vec::new(),
            rx_delivery: Vec::new(),
            rx_drain_after: Vec::new(),
            collectors: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Open the sender and listener lists of the next link.
    pub(crate) fn add_link(&mut self) {
        self.senders.push(Vec::new());
        self.listeners.push(Vec::new());
    }

    pub(crate) fn tx(&mut self, link: LinkId, endpoint: T) -> TxId {
        let id = TxId(self.txs.len());
        self.txs.push(endpoint);
        self.tx_link.push(link);
        if let Some(senders) = self.senders.get_mut(link.0) {
            senders.push(EndpointId::Tx(id));
        }
        id
    }

    pub(crate) fn rx(&mut self, link: Option<LinkId>, endpoint: R) -> RxId {
        let id = RxId(self.rxs.len());
        self.rxs.push(endpoint);
        self.rx_link.push(link);
        self.rx_delivery.push(None);
        self.rx_drain_after.push(None);
        if let Some(senders) = link.and_then(|l| self.senders.get_mut(l.0)) {
            senders.push(EndpointId::Rx(id));
        }
        id
    }

    pub(crate) fn listen(&mut self, link: LinkId, endpoint: EndpointId) {
        match self.listeners.get_mut(link.0) {
            Some(listeners) => listeners.push(endpoint),
            None => self
                .errors
                .push(format!("{endpoint:?} listens on unknown link {}", link.0)),
        }
    }

    pub(crate) fn collector(&mut self, collector: C) -> ColId {
        self.collectors.push(collector);
        ColId(self.collectors.len() - 1)
    }

    fn set_delivery(&mut self, rx: RxId, d: Delivery) {
        match self.rx_delivery.get_mut(rx.0) {
            Some(slot) => *slot = Some(d),
            None => self
                .errors
                .push(format!("unknown rx {} has a delivery target", rx.0)),
        }
    }

    pub(crate) fn deliver(&mut self, rx: RxId, col: ColId) {
        self.set_delivery(rx, Delivery::Collect(col));
    }

    pub(crate) fn forward(&mut self, rx: RxId, tx: TxId) {
        self.set_delivery(rx, Delivery::Forward(tx));
    }

    pub(crate) fn drain_after(&mut self, rx: RxId, link: LinkId) {
        match self.rx_drain_after.get_mut(rx.0) {
            Some(slot) => *slot = Some(link),
            None => self
                .errors
                .push(format!("unknown rx {} has a drain point", rx.0)),
        }
    }

    /// Validate the wiring, appending every problem to `errors`, and
    /// produce the runtime half. The result is only runnable when
    /// `errors` stays empty; builders may inspect its deliveries first.
    pub(crate) fn finish(
        mut self,
        payload_bytes: usize,
        errors: &mut Vec<String>,
    ) -> Pump<T, R, C> {
        let links = self.senders.len();
        errors.append(&mut self.errors);
        for (i, l) in self.tx_link.iter().enumerate() {
            if l.0 >= links {
                errors.push(format!("tx {i} transmits on an unknown link"));
            }
        }
        for (i, l) in self.rx_link.iter().enumerate() {
            if l.is_some_and(|l| l.0 >= links) {
                errors.push(format!("rx {i} transmits on an unknown link"));
            }
        }
        let mut deliveries = Vec::with_capacity(self.rxs.len());
        for (i, d) in self.rx_delivery.iter().enumerate() {
            match d {
                Some(Delivery::Forward(t)) if t.0 >= self.txs.len() => {
                    errors.push(format!("rx {i} forwards into an unknown tx"));
                }
                Some(Delivery::Collect(c)) if c.0 >= self.collectors.len() => {
                    errors.push(format!("rx {i} delivers to an unknown collector"));
                }
                Some(_) => {}
                None => errors.push(format!("rx {i} has no delivery target")),
            }
            deliveries.push(d.unwrap_or(Delivery::Collect(ColId(0))));
        }
        // Per-link drain lists: receivers with no explicit point drain
        // after the last link (the classic end-of-pump position).
        let mut drains: Vec<Vec<RxId>> = vec![Vec::new(); links];
        for (i, after) in self.rx_drain_after.iter().enumerate() {
            let li = after.map_or(links.saturating_sub(1), |l| l.0);
            match drains.get_mut(li) {
                Some(d) => d.push(RxId(i)),
                None if after.is_some() => {
                    errors.push(format!("rx {i} drains after unknown link {li}"));
                }
                // No links at all: the builder reports that itself.
                None => {}
            }
        }
        Pump {
            txs: self.txs,
            rxs: self.rxs,
            collectors: self.collectors,
            senders: self.senders,
            listeners: self.listeners,
            deliveries,
            drains,
            payload: Bytes::from(vec![0u8; payload_bytes]),
        }
    }
}

/// Runtime half: the endpoints, collectors and per-link wiring of one
/// loop, with every operation the loops perform on them at an instant.
///
/// The per-instant methods are `#[inline]`: the loops call them per link
/// per instant, and without the hint a release build may place them in
/// another codegen unit than the loop and not inline them, which
/// measured 10–20% slower on full-size E1 and E18.
pub(crate) struct Pump<T, R, C> {
    pub(crate) txs: Vec<T>,
    pub(crate) rxs: Vec<R>,
    pub(crate) collectors: Vec<C>,
    senders: Vec<Vec<EndpointId>>,
    listeners: Vec<Vec<EndpointId>>,
    pub(crate) deliveries: Vec<Delivery>,
    drains: Vec<Vec<RxId>>,
    /// The SDU payload every push and forward hands a sender.
    pub(crate) payload: Bytes,
}

impl<T, R, C> Pump<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Link-up: start every endpoint at t = 0.
    pub(crate) fn start(&mut self) {
        for t in self.txs.iter_mut() {
            t.start(Instant::ZERO);
        }
        for r in self.rxs.iter_mut() {
            r.start(Instant::ZERO);
        }
    }

    /// Offer a frame that reached the far end of `link` to its listeners.
    #[inline]
    pub(crate) fn arrive(&mut self, now: Instant, link: usize, frame: T::Frame, clean: bool) {
        // Single listener — the common wiring — moves the frame straight
        // through; only genuine fan-out (duplex links feeding both
        // co-located endpoints) pays a clone, and only for the non-final
        // copies.
        match self.listeners[link].as_slice() {
            [ep] => match *ep {
                EndpointId::Tx(t) => self.txs[t.0].handle_frame(now, frame, clean),
                EndpointId::Rx(r) => self.rxs[r.0].handle_frame(now, frame, clean),
            },
            listeners => {
                let last = listeners.len().saturating_sub(1);
                let mut frame = Some(frame);
                for (k, ep) in listeners.iter().enumerate() {
                    let f = if k == last {
                        frame.take().expect("frame consumed once")
                    } else {
                        frame.as_ref().expect("frame present").clone()
                    };
                    match *ep {
                        EndpointId::Tx(t) => self.txs[t.0].handle_frame(now, f, clean),
                        EndpointId::Rx(r) => self.rxs[r.0].handle_frame(now, f, clean),
                    }
                }
            }
        }
    }

    /// Fire every endpoint's due timers.
    #[inline]
    pub(crate) fn fire_timers(&mut self, now: Instant) {
        for t in self.txs.iter_mut() {
            t.on_timeout(now);
        }
        for r in self.rxs.iter_mut() {
            r.on_timeout(now);
        }
    }

    /// Serve `link`'s senders in priority order while `channel` is idle,
    /// re-checking priority after each frame (a control frame freed
    /// mid-pump still wins). `send(at, frame, clean)` takes every frame
    /// the channel lets through; channel losses are traced under `dir`.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        now: Instant,
        link: usize,
        channel: &mut Channel,
        dir: &'static str,
        trace: &Trace,
        mut send: impl FnMut(Instant, T::Frame, bool),
    ) {
        while channel.idle(now) {
            let mut next = None;
            for ep in &self.senders[link] {
                next = match *ep {
                    EndpointId::Tx(t) => self.txs[t.0].poll_transmit(now).map(|f| (T::meta(&f), f)),
                    EndpointId::Rx(r) => self.rxs[r.0].poll_transmit(now).map(|f| (R::meta(&f), f)),
                };
                if next.is_some() {
                    break;
                }
            }
            let Some((meta, frame)) = next else {
                break;
            };
            match channel.transmit(now, meta.bytes, meta.is_info) {
                Fate::Arrives { at, clean } => send(at, frame, clean),
                Fate::Lost => trace.emit(now, || TraceEvent::ChannelDrop { dir }),
            }
        }
    }

    /// Drain the receivers whose drain point is `link` into their
    /// collector or forwarding sender.
    #[inline]
    pub(crate) fn drain(&mut self, now: Instant, link: usize) {
        for r in &self.drains[link] {
            while let Some((id, _len)) = self.rxs[r.0].poll_deliver(now) {
                match self.deliveries[r.0] {
                    Delivery::Collect(c) => self.collectors[c.0].on_deliver(now, id),
                    Delivery::Forward(t) => {
                        self.txs[t.0].push(id, self.payload.clone());
                    }
                }
            }
        }
    }

    /// Earliest instant any endpoint asks to be polled at.
    #[inline]
    pub(crate) fn next_timer(&self) -> Option<Instant> {
        let tx = self.txs.iter().filter_map(|t| t.poll_timeout()).min();
        let rx = self.rxs.iter().filter_map(|r| r.poll_timeout()).min();
        tx.into_iter().chain(rx).min()
    }
}

/// The instant to wake at after pumping `now`, given the endpoints'
/// earliest `timer` and the loop's channels: the earliest of the timer
/// and every busy channel's `free_at`. A timer at or before `now` means
/// the protocol is blocked on a busy transmitter (the pump already did
/// everything else possible at `now`): waking at `now` would spin
/// without advancing time, so it defers to the earliest channel-free
/// instant — strictly in the future when busy, and no wake when idle.
#[inline]
pub(crate) fn wake_at<'a>(
    now: Instant,
    timer: Option<Instant>,
    channels: impl Iterator<Item = &'a Channel>,
) -> Option<Instant> {
    let busy = channels.filter(|c| !c.idle(now)).map(|c| c.free_at()).min();
    match timer {
        Some(t) if t > now => Some(busy.map_or(t, |b| b.min(t))),
        _ => busy,
    }
}

/// The loop's one pending wake event. Re-arming an earlier wake
/// *reschedules* it (O(1) on the slab queue) instead of piling up stale
/// duplicates that would each buy a no-op pump pass.
#[derive(Default)]
pub(crate) struct WakeSlot(Option<(Instant, EventId)>);

impl WakeSlot {
    /// Arm the initial wake at t = 0.
    pub(crate) fn arm_at_zero<E>(&mut self, q: &mut EventQueue<E>, wake: E) {
        self.0 = Some((Instant::ZERO, q.schedule(Instant::ZERO, wake)));
    }

    /// A wake event was dispatched at `now`: the slot is free again once
    /// its instant has passed.
    #[inline]
    pub(crate) fn fired(&mut self, now: Instant) {
        if self.0.is_some_and(|(t, _)| t <= now) {
            self.0 = None;
        }
    }

    /// Make sure a wake is pending at or before `at` (see [`wake_at`]).
    #[inline]
    pub(crate) fn rearm<E>(
        &mut self,
        q: &mut EventQueue<E>,
        now: Instant,
        at: Option<Instant>,
        wake: E,
    ) {
        let Some(t) = at else {
            return;
        };
        debug_assert!(t > now, "wake must advance time");
        match self.0 {
            Some((at, id)) if t < at => {
                let id = q.reschedule(id, t).expect("tracked wake is pending");
                self.0 = Some((t, id));
            }
            None => self.0 = Some((t, q.schedule(t, wake))),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{DelayModel, ErrorModel};
    use sim_core::Duration;

    /// A clean channel, busy from t = 0 for the serialisation time of
    /// `bytes` (idle when `bytes` is 0).
    fn channel(bytes: usize) -> Channel {
        let mut c = Channel::new(8e3, DelayModel::Fixed(Duration::ZERO), ErrorModel::Clean);
        if bytes > 0 {
            c.transmit(Instant::ZERO, bytes, true);
        }
        c
    }

    #[test]
    fn wake_rule_covers_timer_deferral_and_idle() {
        let now = Instant::ZERO;
        let ms = Instant::from_millis;
        let busy = channel(100);
        let free = busy.free_at();
        assert!(free > ms(1), "test channel must stay busy past 1 ms");
        let idle = channel(0);
        // A future protocol timer earlier than any busy channel wins.
        assert_eq!(
            wake_at(now, Some(ms(1)), [&busy, &idle].into_iter()),
            Some(ms(1))
        );
        // A timer at or before `now` with a busy channel defers to that
        // channel's free instant instead of re-waking at `now`.
        assert_eq!(
            wake_at(now, Some(now), [&idle, &busy].into_iter()),
            Some(free)
        );
        // Nothing pending — no timer, no busy channel — means no wake,
        // and a due timer alone on idle channels does not spin either.
        assert_eq!(wake_at(now, None, [&idle].into_iter()), None);
        assert_eq!(wake_at(now, Some(now), [&idle].into_iter()), None);
    }
}

/// Toy endpoints shared by the loop tests.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::collect::Collect;
    use crate::endpoint::{FrameMeta, RxEndpoint, TxEndpoint};
    use crate::link::{Channel, DelayModel, ErrorModel};
    use bytes::Bytes;
    use sim_core::{Duration, Instant};
    use std::collections::VecDeque;

    /// A toy stop-and-wait-free protocol: the sender emits each SDU
    /// once as a `u64` frame; the receiver delivers it and never talks
    /// back. Enough to exercise push/arrive/deliver/done plumbing.
    #[derive(Default)]
    pub(crate) struct EchoTx {
        pub(crate) queue: VecDeque<u64>,
        pub(crate) sent: u64,
    }

    impl TxEndpoint for EchoTx {
        type Frame = u64;

        fn start(&mut self, _now: Instant) {}
        fn push(&mut self, id: u64, _payload: Bytes) -> bool {
            self.queue.push_back(id);
            true
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            let f = self.queue.pop_front();
            if f.is_some() {
                self.sent += 1;
            }
            f
        }
        fn handle_frame(&mut self, _now: Instant, _frame: u64, _ok: bool) {}
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn buffered(&self) -> usize {
            self.queue.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
        fn drain_holding(&mut self, _out: &mut Vec<f64>) {}
        fn transmissions(&self) -> u64 {
            self.sent
        }
        fn retransmissions(&self) -> u64 {
            0
        }
    }

    #[derive(Default)]
    pub(crate) struct EchoRx {
        pub(crate) pending: VecDeque<u64>,
    }

    impl RxEndpoint for EchoRx {
        type Frame = u64;

        fn start(&mut self, _now: Instant) {}
        fn handle_frame(&mut self, _now: Instant, frame: u64, ok: bool) {
            if ok {
                self.pending.push_back(frame);
            }
        }
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            None
        }
        fn poll_deliver(&mut self, _now: Instant) -> Option<(u64, usize)> {
            self.pending.pop_front().map(|id| (id, 64))
        }
        fn occupancy(&self) -> usize {
            self.pending.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
    }

    #[derive(Default)]
    pub(crate) struct CountCollector {
        pub(crate) pushed: u64,
        pub(crate) delivered: u64,
        pub(crate) samples: u64,
    }

    impl Collect for CountCollector {
        fn on_push(&mut self, _now: Instant, _id: u64) {
            self.pushed += 1;
        }
        fn on_deliver(&mut self, _now: Instant, _id: u64) {
            self.delivered += 1;
        }
        fn on_holding(&mut self, _samples: &[f64]) {}
        fn sample(&mut self, _now: Instant, _tx: usize, _rx: usize, _rate: f64) {
            self.samples += 1;
        }
        fn delivered_unique(&self) -> u64 {
            self.delivered
        }
    }

    pub(crate) fn clean_channel() -> Channel {
        Channel::new(
            1e6,
            DelayModel::Fixed(Duration::from_millis(1)),
            ErrorModel::Clean,
        )
    }
}
