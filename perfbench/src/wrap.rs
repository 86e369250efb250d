//! Timing wrappers around the crates' public traits. Each forwards
//! every call unchanged and adds only wall-clock reads and counters, so
//! a traced run simulates exactly what an untraced one does.

use lams_dlc_io::Transport;
use proto_core::{Clock, ClockDomain, Duration, Instant};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant as WallInstant;
use telemetry::{SharedSink, TraceRecord, TraceSink};

fn elapsed_ns(t0: WallInstant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A [`TraceSink`] that times every call into the sink it wraps (the
/// live monitor, in the traced runs).
pub struct TimingSink {
    inner: SharedSink,
    /// Records forwarded.
    pub records: u64,
    /// Wall nanoseconds spent inside the wrapped sink.
    pub busy_ns: u64,
}

impl TimingSink {
    /// Wrap `inner`, returned shared so the caller can install it and
    /// still read the timings afterwards.
    pub fn shared(inner: SharedSink) -> Rc<RefCell<TimingSink>> {
        Rc::new(RefCell::new(TimingSink {
            inner,
            records: 0,
            busy_ns: 0,
        }))
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, rec: &TraceRecord) {
        let t0 = WallInstant::now();
        self.inner.borrow_mut().record(rec);
        self.busy_ns += elapsed_ns(t0);
        self.records += 1;
    }

    fn record_all(&mut self, recs: &[TraceRecord]) {
        let t0 = WallInstant::now();
        self.inner.borrow_mut().record_all(recs);
        self.busy_ns += elapsed_ns(t0);
        self.records += recs.len() as u64;
    }

    fn len(&self) -> u64 {
        self.inner.borrow().len()
    }

    fn dropped(&self) -> u64 {
        self.inner.borrow().dropped()
    }

    fn flush(&mut self) {
        self.inner.borrow_mut().flush();
    }
}

/// A [`Clock`] that times the host's idle sleeps.
pub struct TimedClock<C> {
    inner: C,
    sleep_ns: Cell<u64>,
    sleeps: Cell<u64>,
}

impl<C: Clock> TimedClock<C> {
    /// Wrap `inner`.
    pub fn new(inner: C) -> Self {
        TimedClock {
            inner,
            sleep_ns: Cell::new(0),
            sleeps: Cell::new(0),
        }
    }

    /// Wall seconds spent in [`Clock::sleep`].
    pub fn sleep_s(&self) -> f64 {
        self.sleep_ns.get() as f64 / 1e9
    }

    /// Calls to [`Clock::sleep`].
    pub fn sleeps(&self) -> u64 {
        self.sleeps.get()
    }
}

impl<C: Clock> Clock for TimedClock<C> {
    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        let t0 = WallInstant::now();
        self.inner.sleep(d);
        self.sleep_ns.set(self.sleep_ns.get() + elapsed_ns(t0));
        self.sleeps.set(self.sleeps.get() + 1);
    }

    fn domain(&self) -> ClockDomain {
        self.inner.domain()
    }
}

/// Call counts and wall time of a [`TimedTransport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportTimes {
    /// Datagrams sent, both directions.
    pub sends: u64,
    /// Wall nanoseconds in the send calls.
    pub send_ns: u64,
    /// Receive calls, both directions.
    pub recvs: u64,
    /// Receive calls that found nothing pending.
    pub recv_empty: u64,
    /// Wall nanoseconds in the receive calls.
    pub recv_ns: u64,
}

/// A [`Transport`] that times every send and receive.
pub struct TimedTransport<T> {
    inner: T,
    /// What the wrapper measured so far.
    pub times: TransportTimes,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            times: TransportTimes::default(),
        }
    }

    fn send(&mut self, f: impl FnOnce(&mut T) -> Result<(), String>) -> Result<(), String> {
        let t0 = WallInstant::now();
        let r = f(&mut self.inner);
        self.times.send_ns += elapsed_ns(t0);
        self.times.sends += 1;
        r
    }

    fn recv(
        &mut self,
        f: impl FnOnce(&mut T) -> Result<Option<usize>, String>,
    ) -> Result<Option<usize>, String> {
        let t0 = WallInstant::now();
        let r = f(&mut self.inner);
        self.times.recv_ns += elapsed_ns(t0);
        self.times.recvs += 1;
        if matches!(r, Ok(None)) {
            self.times.recv_empty += 1;
        }
        r
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send_data(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.send(|t| t.send_data(datagram))
    }

    fn recv_data(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.recv(|t| t.recv_data(buf))
    }

    fn send_feedback(&mut self, datagram: &[u8]) -> Result<(), String> {
        self.send(|t| t.send_feedback(datagram))
    }

    fn recv_feedback(&mut self, buf: &mut [u8]) -> Result<Option<usize>, String> {
        self.recv(|t| t.recv_feedback(buf))
    }
}
