//! Structured telemetry for the LAMS-DLC simulation workspace.
//!
//! Three facilities, all dependency-free and deterministic:
//!
//! * [`trace`] — a stream of sim-time-stamped protocol events
//!   ([`TraceRecord`]) emitted through the [`TraceSink`] trait. Sinks
//!   include a no-op sink (disabled tracing costs one branch per
//!   potential record), a bounded in-memory ring buffer, and a JSONL
//!   file writer. A process-wide sink can be installed so deeply nested
//!   simulation code can emit records without plumbing handles through
//!   every constructor.
//! * [`registry`] — a tiny insertion-ordered counter/gauge registry
//!   ([`Registry`]) replacing ad-hoc `Vec<(&'static str, f64)>`
//!   metric plumbing.
//! * [`json`] — a minimal JSON value model ([`Json`]) with rendering
//!   and parsing, used for machine-readable run reports. No external
//!   serialisation crates are available offline, so this is the one
//!   JSON implementation the workspace shares.
//! * [`timeline`] — Chrome trace-event rendering for the sharded
//!   runtime's superstep spans ([`SuperstepSpan`]), loadable in
//!   Perfetto.

#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use json::Json;
pub use registry::{is_canonical_name, CounterHandle, Registry};
pub use timeline::{timeline_doc, SuperstepSpan, TimelineGroup, TIMELINE_SCHEMA};
pub use trace::{
    global_handle, global_sink, install_global, parse_line, sink_trace, uninstall_global,
    BufferSink, FanoutSink, JsonlSink, RingSink, SharedSink, Trace, TraceEvent, TraceRecord,
    TraceSink,
};

#[cfg(test)]
mod tests {
    use proto_core::time::Instant;

    /// Nanoseconds per span open/close on a **disabled**
    /// [`profile::Prof`] handle — the cost every instrumented hot path
    /// pays when not profiling.
    fn span_disabled(iters: u64) -> f64 {
        let prof = profile::Prof::disabled();
        let start = std::time::Instant::now();
        for i in 0..iters {
            let _g = prof.span("bench.span");
            std::hint::black_box(i);
        }
        start.elapsed().as_secs_f64() * 1e9 / iters as f64
    }

    /// Nanoseconds per trace emit with **no** sink installed — the
    /// disabled fast path every simulation pays per protocol event.
    fn trace_emit_disabled(iters: u64) -> f64 {
        crate::uninstall_global();
        let handle = crate::global_handle("bench");
        let start = std::time::Instant::now();
        for i in 0..iters {
            handle.emit(Instant::from_nanos(i), || crate::TraceEvent::Nak {
                seq: i,
                cp_index: 0,
            });
        }
        start.elapsed().as_secs_f64() * 1e9 / iters as f64
    }

    #[test]
    fn disabled_span_stays_near_trace_disabled_cost() {
        // The profiler's disabled fast path: a disabled span open/close
        // must stay within ~2x of the trace-emit disabled branch (both
        // are one Option check). A small absolute floor keeps timer
        // noise at tiny per-op costs from flaking the ratio.
        let iters = 2_000_000;
        // Take the best of 3 to shed scheduler noise in CI.
        let best = |f: fn(u64) -> f64| (0..3).map(|_| f(iters)).fold(f64::INFINITY, f64::min);
        let span = best(span_disabled);
        let trace = best(trace_emit_disabled);
        assert!(
            span <= 2.0 * trace + 2.0,
            "disabled span {span:.3} ns/op vs disabled trace {trace:.3} ns/op"
        );
    }
}
