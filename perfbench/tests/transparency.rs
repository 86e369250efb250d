//! The timing wrappers are transparent: wrapping a clock, a transport
//! or a trace sink changes no result, only adds measurements.

use lams_dlc_io::{run_transfer, IoConfig, IoSummary, MemTransport};
use monitor::{Monitor, MonitorConfig, MonitorReport};
use perfbench::sim_quick;
use perfbench::wrap::{TimedClock, TimedTransport, TimingSink};
use proto_core::ManualClock;
use std::cell::RefCell;
use std::rc::Rc;

fn io_cfg() -> IoConfig {
    IoConfig {
        sdus: 300,
        payload_len: 256,
        drop_every: 50,
        corrupt_every: 23,
        ..IoConfig::default()
    }
}

/// Every count of a summary, plus its (virtual) duration.
fn summary_counts(s: &IoSummary) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {:?} {:?}",
        s.delivered,
        s.drops_injected,
        s.corruptions_injected,
        s.datagrams_sent,
        s.feedback_sent,
        s.retransmissions,
        s.audit_findings,
        s.audit_records,
        s.counters.entries(),
        s.wall
    )
}

#[test]
fn wrapped_clock_and_transport_change_no_io_summary() {
    let cfg = io_cfg();
    let bare = run_transfer(&cfg, &ManualClock::new(), &mut MemTransport::new())
        .expect("bare transfer completes");
    let clock = TimedClock::new(ManualClock::new());
    let mut link = TimedTransport::new(MemTransport::new());
    let wrapped = run_transfer(&cfg, &clock, &mut link).expect("wrapped transfer completes");
    assert_eq!(summary_counts(&bare), summary_counts(&wrapped));
    assert_eq!(bare.delivered, cfg.sdus);
    // The wrappers saw every call the host made.
    assert_eq!(
        link.times.sends,
        wrapped.datagrams_sent + wrapped.feedback_sent
    );
    assert!(link.times.recvs > link.times.recv_empty);
    assert!(clock.sleeps() > 0);
}

/// Everything a monitor report carries, rendered.
fn report_digest(r: &MonitorReport) -> String {
    let mut s = format!(
        "{} {} {} {:?}\n",
        r.total_findings,
        r.records,
        r.findings.len(),
        r.counters.entries()
    );
    for e in &r.experiments {
        s += &e.to_json().render();
        s += &e.attribution.to_json().render();
    }
    for line in &r.window_lines {
        s += &line.render();
    }
    s
}

#[test]
fn timing_sink_leaves_the_monitor_report_unchanged() {
    let bare = harness::runner::run_experiments(&["e1".to_string()], true)
        .pop()
        .expect("one run");
    assert!(bare.audit.records > 0);

    let mon = Rc::new(RefCell::new(Monitor::new(MonitorConfig::default())));
    let timing = TimingSink::shared(mon.clone());
    let run = sim_quick::run_spliced("e1", timing.clone());
    let report = mon.borrow_mut().take_report();

    assert_eq!(report_digest(&bare.audit), report_digest(&report));
    assert_eq!(
        bare.output.expect("e1 output").to_json().render(),
        run.output.expect("e1 output").to_json().render()
    );
    assert_eq!(timing.borrow().records, report.records);
    assert!(timing.borrow().busy_ns > 0);
}
