//! The measurement contract the event loop feeds.
//!
//! The loop is generic over its collector so the harness can keep its
//! report machinery (resequencer-based dedup, delay summaries, JSON
//! rendering) out of this crate. The loop calls these hooks at the
//! exact points the original hand-rolled loops did: `on_push` when an
//! SDU enters a source sender, `on_deliver` when a sink receiver
//! completes a delivery, `on_holding` after holding samples drain, and
//! `sample` on the periodic sampling tick.

use sim_core::Instant;

/// Per-flow measurement hooks driven by the event loop.
pub trait Collect {
    /// An SDU entered the flow's source sender.
    fn on_push(&mut self, now: Instant, id: u64);
    /// The flow's sink receiver completed a delivery.
    fn on_deliver(&mut self, now: Instant, id: u64);
    /// A batch of sender holding-time samples (seconds).
    fn on_holding(&mut self, samples: &[f64]);
    /// Periodic occupancy sample: sender buffer, worst receiver buffer,
    /// flow-controlled rate fraction.
    fn sample(&mut self, now: Instant, tx_buffered: usize, rx_occupancy: usize, rate: f64);
    /// Unique deliveries so far — drives the run-completion check.
    fn delivered_unique(&self) -> u64;
}
