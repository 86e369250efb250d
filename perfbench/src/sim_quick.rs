//! `sim_quick`: every quick experiment E1–E18 at one worker and one
//! shard with the live monitor — `repro --quick all`. The experiments
//! pin their own seeds, so this workload ignores the seed argument and
//! its outputs are compared exactly across passes.

use crate::wrap::TimingSink;
use crate::{add_alloc, alloc_since, peak_rss_mb, run_rounds, timed, Best, Layers, Outcome};
use harness::{experiments, metrics, parallel, runner};
use monitor::{Monitor, MonitorConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use telemetry::SharedSink;

/// Which experiments one pass runs.
#[derive(Clone, Debug)]
pub struct Size {
    /// Experiment ids, in run order.
    pub ids: Vec<&'static str>,
}

impl Size {
    /// The whole quick suite.
    pub fn full() -> Size {
        Size {
            ids: experiments::ALL.to_vec(),
        }
    }
}

/// The deterministic result of one experiment: compared exactly across
/// passes and between the untraced and traced runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Print {
    /// The rendered experiment output (tables, traces, notes).
    pub output: String,
    /// SDUs the monitor saw delivered cleanly on audited links.
    pub delivered: u64,
    /// Trace records the monitor observed.
    pub records: u64,
    /// Events popped from the engine queues.
    pub events: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Events cancelled.
    pub cancelled: u64,
    /// Peak queue depth over the experiment's runs.
    pub peak_depth: u64,
}

impl Print {
    fn new(
        out: &experiments::ExperimentOutput,
        audit: &monitor::MonitorReport,
        perf: Option<&(sim_core::QueueProfile, f64, u64)>,
    ) -> Print {
        let mut p = Print {
            output: out.to_json().render(),
            delivered: audit.experiments.iter().map(|e| e.delivered).sum(),
            records: audit.records,
            ..Print::default()
        };
        if let Some((q, _, _)) = perf {
            p.events = q.popped;
            p.scheduled = q.scheduled;
            p.cancelled = q.cancelled;
            p.peak_depth = q.peak_depth as u64;
        }
        p
    }
}

/// One experiment's result in a pass: its print, or why it failed.
pub type ExpResult = Result<Print, String>;

fn check(id: &str, out: Option<&experiments::ExperimentOutput>, findings: u64) -> Option<String> {
    match (out, findings) {
        (None, _) => Some(format!("{id}: no output")),
        (Some(_), 0) => None,
        (Some(_), n) => Some(format!("{id}: {n} audit finding(s)")),
    }
}

/// Run `repro --quick` over `size.ids` exactly as the runner does, one
/// experiment per `run_experiments` call so that each can be timed, and
/// return each experiment's result with its wall and CPU seconds.
pub fn run_pass(size: &Size) -> (Vec<ExpResult>, Vec<(f64, f64)>) {
    parallel::set_workers(1);
    parallel::set_shards(1);
    size.ids
        .iter()
        .map(|&id| {
            let (mut runs, wall_s, cpu_s) =
                timed(|| runner::run_experiments(&[id.to_string()], true));
            let run = runs.pop().expect("one run per id");
            let result = match check(id, run.output.as_ref(), run.audit.total_findings) {
                Some(e) => Err(e),
                None => Ok(Print::new(
                    run.output.as_ref().expect("checked"),
                    &run.audit,
                    run.perf.as_ref(),
                )),
            };
            (result, (wall_s, cpu_s))
        })
        .unzip()
}

/// Count a pass's experiments into `out`, failing any that errored or
/// differs from `reference`.
fn tally(out: &mut Outcome, ids: &[&str], results: &[ExpResult], reference: &[ExpResult]) {
    for ((id, r), want) in ids.iter().zip(results).zip(reference) {
        out.check(match (r, want) {
            (Err(e), _) => Some(e.clone()),
            (Ok(got), Ok(want)) if got != want => {
                Some(format!("{id}: output differs between passes"))
            }
            _ => None,
        });
    }
}

fn delivered(results: &[ExpResult]) -> u64 {
    results.iter().flatten().map(|p| p.delivered).sum()
}

/// Warm-up: the pass's first three experiments.
fn setup(size: &Size) -> Vec<ExpResult> {
    let first = Size {
        ids: size.ids[..size.ids.len().min(3)].to_vec(),
    };
    run_pass(&first).0
}

/// The end-to-end run: quick passes for `seconds`.
pub fn measure(size: &Size, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut reference: Option<Vec<ExpResult>> = None;
    let (mut best, mut rates) = (Best::default(), Vec::new());
    let mut sdus = 0;
    let warm_up = |out: &mut Outcome| {
        let warmup = setup(size);
        tally(out, &size.ids, &warmup, &warmup);
    };
    let (setup_s, passes) = run_rounds(&mut out, seconds, warm_up, |out| {
        let (results, times) = run_pass(size);
        for (i, &(wall_s, cpu_s)) in times.iter().enumerate() {
            best.record(i, wall_s, cpu_s);
        }
        let n = delivered(&results);
        sdus += n;
        rates.push(n as f64 / times.iter().map(|t| t.0).sum::<f64>());
        tally(
            out,
            &size.ids,
            &results,
            reference.as_ref().unwrap_or(&results),
        );
        reference.get_or_insert(results);
    });
    let per_pass = delivered(reference.as_ref().expect("at least one pass")) as f64;
    out.notes.push(crate::spread_note(&rates));
    out.push("setup_s", setup_s, "s");
    out.push("sdu_per_s", per_pass / best.wall_s(), "SDU/s");
    out.push("cpu_us_per_sdu", best.cpu_s() * 1e6 / per_pass, "us");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.push(format!(
        "{passes} pass(es) of {} experiment(s), {sdus} SDUs delivered",
        size.ids.len()
    ));
    out
}

/// Layer timings and counts of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Wall seconds of the whole traced pass.
    pub wall_s: f64,
    /// Wall seconds inside `experiments::run_by_id`.
    pub run_s: f64,
    /// Wall seconds inside `Sim::run`, as the engine reports them.
    pub sim_s: f64,
    /// Wall seconds inside the monitor's `record` calls.
    pub observe_s: f64,
    /// Records the timing sink forwarded to the monitor.
    pub forwarded: u64,
    /// Allocations and bytes requested during `run_by_id`, when the
    /// counting allocator is installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
}

/// One experiment run through [`run_spliced`].
pub struct Spliced {
    /// The experiment's output (`None` for an unknown id).
    pub output: Option<experiments::ExperimentOutput>,
    /// Wall seconds of the `run_by_id` call.
    pub run_s: f64,
    /// Allocations during the call, when the counting allocator is
    /// installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
}

/// Run one quick experiment with `sink` spliced into the telemetry
/// stream the way the runner splices its monitor: installed as the
/// thread's global sink, opened with the `ExperimentStarted` marker,
/// and removed afterwards.
pub fn run_spliced(id: &'static str, sink: SharedSink) -> Spliced {
    let prev = telemetry::install_global(sink);
    telemetry::global_handle("runner").emit(sim_core::Instant::ZERO, || {
        telemetry::TraceEvent::ExperimentStarted { id }
    });
    let a0 = profile::alloc::snapshot();
    let t0 = Instant::now();
    let output = experiments::run_by_id(id, true);
    let run_s = t0.elapsed().as_secs_f64();
    let alloc = alloc_since(a0);
    match prev {
        Some(p) => telemetry::install_global(p),
        None => telemetry::uninstall_global(),
    };
    Spliced {
        output,
        run_s,
        alloc,
    }
}

/// One traced pass: each experiment run through [`run_spliced`] with
/// its monitor wrapped in a [`TimingSink`].
pub fn traced_pass(size: &Size) -> (Vec<ExpResult>, Spans) {
    parallel::set_workers(1);
    parallel::set_shards(1);
    let mut layers = Spans::default();
    let mut alloc = Some(profile::alloc::AllocSnapshot::default());
    let t_pass = Instant::now();
    let results = size
        .ids
        .iter()
        .map(|&id| {
            metrics::perf_take();
            metrics::shard_take();
            let mon = Rc::new(RefCell::new(Monitor::new(MonitorConfig::default())));
            let timing = TimingSink::shared(mon.clone());
            let run = run_spliced(id, timing.clone());
            let audit = mon.borrow_mut().take_report();
            let perf = metrics::perf_take();
            metrics::shard_take();
            layers.run_s += run.run_s;
            alloc = add_alloc(alloc, run.alloc);
            if let Some((_, wall, _)) = &perf {
                layers.sim_s += wall;
            }
            let timing = timing.borrow();
            layers.observe_s += timing.busy_ns as f64 / 1e9;
            layers.forwarded += timing.records;
            match check(id, run.output.as_ref(), audit.total_findings) {
                Some(e) => Err(e),
                None => Ok(Print::new(
                    run.output.as_ref().expect("checked"),
                    &audit,
                    perf.as_ref(),
                )),
            }
        })
        .collect();
    layers.wall_s = t_pass.elapsed().as_secs_f64();
    layers.alloc = alloc;
    (results, layers)
}

/// The traced run: one untraced pass for reference, then one traced
/// pass whose results must match it exactly.
pub fn traced(size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let warmup = setup(size);
    tally(&mut out, &size.ids, &warmup, &warmup);
    let (plain, times) = run_pass(size);
    let plain_wall: f64 = times.iter().map(|t| t.0).sum();
    tally(&mut out, &size.ids, &plain, &plain);
    let (results, layers) = traced_pass(size);
    tally(&mut out, &size.ids, &results, &plain);
    let prints: Vec<&Print> = results.iter().flatten().collect();
    let sum = |f: fn(&Print) -> u64| prints.iter().map(|p| f(p)).sum::<u64>();
    let events = sum(|p| p.events);
    let records = sum(|p| p.records);
    let sdus = sum(|p| p.delivered);
    if records != layers.forwarded {
        out.check(Some(format!(
            "timing sink forwarded {} records, monitor observed {records}",
            layers.forwarded
        )));
    }
    let self_s = layers.sim_s - layers.observe_s;
    out.push_layers(&Layers {
        wall_s: layers.wall_s,
        plain_wall_s: plain_wall,
        entry_s: layers.run_s,
        core_s: self_s,
        core_steps: events,
        sdus,
        alloc: layers.alloc,
    });
    out.detail("harness.run_s", layers.run_s, "s");
    out.detail("harness.outside_sim_s", layers.run_s - layers.sim_s, "s");
    out.detail("netsim.sim_s", layers.sim_s, "s");
    out.detail("netsim.self_s", self_s, "s");
    out.detail(
        "netsim.self_ns_per_event",
        self_s * 1e9 / events as f64,
        "ns",
    );
    out.detail("netsim.events", events as f64, "count");
    out.detail("netsim.scheduled", sum(|p| p.scheduled) as f64, "count");
    out.detail("netsim.cancelled", sum(|p| p.cancelled) as f64, "count");
    let peak = prints.iter().map(|p| p.peak_depth).max().unwrap_or(0);
    out.detail("netsim.peak_depth", peak as f64, "count");
    out.detail("monitor.observe_s", layers.observe_s, "s");
    out.detail("monitor.records", records as f64, "count");
    out.detail(
        "monitor.ns_per_record",
        layers.observe_s * 1e9 / records as f64,
        "ns",
    );
    out.notes.push(format!(
        "traced pass {:.3} s against untraced {plain_wall:.3} s; {sdus} SDUs, {events} events",
        layers.wall_s
    ));
    out
}
