//! Low-overhead self-profiling for the simulation workspace.
//!
//! The simulator is deeply observable at the *protocol* level (traces,
//! audits, latency attribution) but was a black box at the *CPU* level.
//! This crate answers "where do the nanoseconds go" with three
//! facilities, all dependency-free so every other crate — including
//! `sim-core` at the bottom of the workspace graph — can use them:
//!
//! * **Wall-clock spans** — RAII [`SpanGuard`]s over a monotonic clock
//!   ([`std::time::Instant`]), accumulated into a per-thread span tree
//!   keyed by call path. Each tree node carries a call count and total
//!   nanoseconds; self time falls out as `total − Σ children`, which the
//!   nesting discipline guarantees is exact in integer nanoseconds.
//! * **Queue-depth sampling** — a constant-space `count/sum/max`
//!   summary fed by the engine's periodic sample events.
//! * **Allocation counting** — an optional [`alloc::CountingAlloc`]
//!   global allocator wrapper (installed by the `perfbench` benchmark)
//!   whose totals are read via [`alloc::snapshot`].
//!
//! # Enablement model
//!
//! Profiling is per-thread, mirroring the telemetry global-sink
//! pattern: [`install`] puts a fresh profiler in a thread-local,
//! [`take`] removes it and returns the [`Report`]. Hot code holds a
//! [`Prof`] handle (resolved once via [`current`]) and opens spans
//! through it; when no profiler is installed the handle is empty and
//! [`Prof::span`] is a single branch — the same disabled-mode shape as
//! `Trace::emit`, so instrumented hot paths cost effectively nothing
//! when not profiling.
//!
//! Profiling never feeds back into simulation state: it only reads the
//! wall clock, so fingerprints, audit verdicts, and every other
//! deterministic output are byte-identical with profiling on or off.

#![warn(missing_docs)]

pub mod alloc;
mod span;

pub use span::{
    Prof, Profiler, Report, SampleSummary, SpanGuard, SpanNode, SpanTree, DEFAULT_SPAN_CAP,
};

use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static PROFILER: RefCell<Option<Rc<RefCell<Profiler>>>> = const { RefCell::new(None) };
}

/// Install a fresh profiler (default span-table capacity) on this
/// thread, replacing any previous one.
pub fn install() {
    install_with_capacity(DEFAULT_SPAN_CAP);
}

/// Install a fresh profiler whose span table holds at most `cap` nodes.
/// Entries beyond the cap are counted as dropped/truncated rather than
/// recorded (see [`Report::dropped`] / [`Report::truncated`]).
pub fn install_with_capacity(cap: usize) {
    PROFILER.with(|p| {
        *p.borrow_mut() = Some(Rc::new(RefCell::new(Profiler::new(cap))));
    });
}

/// Remove this thread's profiler and return its report, or `None` when
/// none was installed. Open spans (live guards) are force-closed at the
/// current clock reading so the tree is always consistent.
pub fn take() -> Option<Report> {
    let prof = PROFILER.with(|p| p.borrow_mut().take())?;
    // Guards may still hold clones of the Rc; they become no-ops once
    // the stack has been drained by `finish`.
    Some(match Rc::try_unwrap(prof) {
        Ok(cell) => cell.into_inner().finish(),
        Err(rc) => rc.borrow_mut().finish_in_place(),
    })
}

/// True when this thread currently has a profiler installed.
pub fn enabled() -> bool {
    PROFILER.with(|p| p.borrow().is_some())
}

/// A handle to this thread's profiler — empty (disabled, near-zero
/// cost) when none is installed. Resolve once per run/record loop and
/// reuse; the handle stays bound to the profiler that was installed
/// when it was resolved.
pub fn current() -> Prof {
    Prof::from_shared(PROFILER.with(|p| p.borrow().clone()))
}

/// Open a span against this thread's current profiler. Convenience for
/// cold call sites; hot paths should resolve [`current`] once instead
/// (this form pays a thread-local lookup per call).
pub fn span(name: &'static str) -> SpanGuard {
    current().into_span(name)
}

/// Fold a finished [`Report`] from another thread into this thread's
/// profiler (no-op when none is installed). The sharded coordinator
/// uses this to merge worker-thread span trees into the profiled run's
/// report, so `--profile` attribution covers shard workers too.
pub fn absorb(report: &Report) {
    PROFILER.with(|p| {
        if let Some(rc) = p.borrow().as_ref() {
            rc.borrow_mut().absorb_report(report);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_is_inert() {
        assert!(!enabled());
        assert!(take().is_none());
        let prof = current();
        assert!(!prof.enabled());
        {
            let _g = prof.span("never.recorded");
            let _h = span("also.never");
        }
        assert!(take().is_none());
    }

    #[test]
    fn install_take_roundtrip() {
        install();
        assert!(enabled());
        {
            let _g = span("root");
        }
        let report = take().expect("installed");
        assert!(!enabled());
        assert_eq!(report.tree.roots().len(), 1);
        let root = report.tree.node(report.tree.roots()[0]);
        assert_eq!(root.name, "root");
        assert_eq!(root.count, 1);
    }

    #[test]
    fn absorb_is_inert_when_disabled_and_merges_when_installed() {
        // Build a "worker" report on this thread, then absorb it.
        install();
        {
            let _g = span("superstep");
        }
        let worker = take().expect("installed");

        absorb(&worker); // disabled: must not panic or install anything
        assert!(!enabled());

        install();
        {
            let _g = span("merge");
        }
        absorb(&worker);
        let report = take().expect("installed");
        let names: Vec<&str> = report
            .tree
            .roots()
            .iter()
            .map(|&i| report.tree.node(i).name)
            .collect();
        assert_eq!(names, vec!["merge", "superstep"]);
    }

    #[test]
    fn take_force_closes_live_guards() {
        install();
        let prof = current();
        let guard = prof.span("left.open");
        let report = take().expect("installed");
        let root = report.tree.node(report.tree.roots()[0]);
        assert_eq!(root.count, 1, "open span closed by take()");
        drop(guard); // must be a no-op, not a panic or double-count
    }
}
