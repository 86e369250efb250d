//! # perfbench
//!
//! The end-to-end and per-layer benchmark of the LAMS-DLC workspace.
//! Four workloads drive the crates' public functions from one process;
//! `BENCHMARK.json` lists the first three ([`LISTED`]):
//!
//! * [`sim_quick`] — every quick experiment E1–E18 on the serial
//!   simulator with the live monitor, as `repro --quick all` runs them;
//! * [`chain_sharded`] — the full-size E18 relay chains on the sharded
//!   runtime, measured at one shard and traced at two;
//! * [`udp_loopback`] — `lams-dlc-io` moving 1 KiB SDUs over real
//!   loopback UDP with every 50th information frame dropped;
//! * [`model_check`] — adversarial schedules through the pure machines.
//!
//! An untraced run measures the end-to-end metrics. A traced run times
//! the calls into each layer with the wrappers in [`wrap`] — a timing
//! trace sink, clock and transport — and reads the counters the crates
//! already export; nothing inside the program is instrumented. Every
//! workload reports the same metrics in its result line (the
//! end-to-end ones, or the per-layer ones of [`Layers`]); what only
//! one workload has, such as the coordinator's superstep counts, goes
//! to its detail lines. Every workload checks its outputs and counts
//! failed operations against attempted ones.

pub mod chain_sharded;
pub mod model_check;
pub mod sim_quick;
pub mod udp_loopback;
pub mod wrap;

use std::time::Instant;

/// The workloads, by their `--workload` names.
pub const WORKLOADS: &[&str] = &["sim_quick", "chain_sharded", "model_check", "udp_loopback"];

/// The workloads `BENCHMARK.json` lists. `udp_loopback` stays out:
/// about one transfer in 750 fails its audit (see `perfbench/NOTES.md`),
/// so its runs would not pass their own checks reliably.
pub const LISTED: &[&str] = &["sim_quick", "chain_sharded", "model_check"];

/// Times the set-up of a run is repeated; `setup_s` is their median.
/// The host's speed changes from one second to the next, so the
/// repetitions must span a few seconds for their median to settle.
pub const SETUP_REPS: usize = 21;

/// One reported metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiments, chains, transfers, schedules).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metrics of the result line, in report order.
    pub metrics: Vec<Metric>,
    /// Metrics only this workload has, printed one per line but kept
    /// out of the result line, whose metrics every workload shares.
    pub details: Vec<Metric>,
    /// Human-readable context printed next to the metrics (sample
    /// counts, operation counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Append one detail metric.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push(Metric { name, value, unit });
    }

    /// Look a metric or detail up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.details)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Append the per-layer metrics every traced run reports.
    pub fn push_layers(&mut self, l: &Layers) {
        self.push("entry.call_s", l.entry_s, "s");
        self.push("core.self_s", l.core_s, "s");
        self.push("core.steps", l.core_steps as f64, "count");
        self.push(
            "core.ns_per_step",
            l.core_s * 1e9 / l.core_steps as f64,
            "ns",
        );
        if let Some(a) = l.alloc {
            let sdus = l.sdus as f64;
            self.push("alloc.count_per_sdu", a.allocs as f64 / sdus, "allocs/SDU");
            self.push("alloc.bytes_per_sdu", a.bytes as f64 / sdus, "B/SDU");
        }
        self.push(
            "bench.trace_overhead_pct",
            overhead_pct(l.wall_s, l.plain_wall_s),
            "%",
        );
        self.push(
            "bench.unexplained_pct",
            100.0 * (l.wall_s - l.entry_s) / l.wall_s,
            "%",
        );
    }

    /// Count one checked operation, failing it with a note when `err`
    /// carries a reason.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.notes.push(format!("FAILED: {e}"));
        }
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        use telemetry::Json;
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// What a traced pass measured, in the terms every workload shares.
///
/// The *entry* calls are the crates' public functions a workload drives
/// (`run_by_id`, `run_chain_lams`, `run_transfer`,
/// `run_schedule_observed`). The *core* is the program's own stepping
/// loop inside them, less what the wrappers attribute elsewhere: the
/// engine's event loop without the monitor (`sim_quick`), the shards'
/// busy time (`chain_sharded`), the host loop without sleeps and
/// socket calls (`udp_loopback`), and the machines with their adversary
/// (`model_check`, where core and entry coincide).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Wall seconds of the traced pass.
    pub wall_s: f64,
    /// Wall seconds of the untraced pass of the same work.
    pub plain_wall_s: f64,
    /// Wall seconds inside the entry calls.
    pub entry_s: f64,
    /// Seconds of the core's own work.
    pub core_s: f64,
    /// The core's units of work: engine events, datagrams moved, or
    /// explorer steps.
    pub core_steps: u64,
    /// SDUs delivered in the traced pass.
    pub sdus: u64,
    /// Allocations during the entry calls, when the counting allocator
    /// is installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
}

/// Sum allocation deltas; `None` as soon as one is missing.
pub fn add_alloc(
    total: Option<profile::alloc::AllocSnapshot>,
    delta: Option<profile::alloc::AllocSnapshot>,
) -> Option<profile::alloc::AllocSnapshot> {
    total
        .zip(delta)
        .map(|(t, d)| profile::alloc::AllocSnapshot {
            allocs: t.allocs + d.allocs,
            bytes: t.bytes + d.bytes,
        })
}

/// Allocations since `a0` (a [`profile::alloc::snapshot`]).
pub fn alloc_since(
    a0: Option<profile::alloc::AllocSnapshot>,
) -> Option<profile::alloc::AllocSnapshot> {
    a0.zip(profile::alloc::snapshot())
        .map(|(a0, a1)| a1.since(&a0))
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload derives its inputs from.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text for command-line mistakes.
pub const USAGE: &str =
    "usage: perfbench --workload <sim_quick|chain_sharded|model_check|udp_loopback> \
--seed <n> --seconds <s> --trace <0|1>";

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// Every flag is required; unknown flags and bad values are errors.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed expects a whole number, got {value:?}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds expects a number, got {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run the requested workload: the end-to-end measurement, or the
/// traced run when `args.trace` is set.
pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    match (args.workload.as_str(), args.trace) {
        ("sim_quick", false) => sim_quick::measure(&sim_quick::Size::full(), args.seconds),
        ("sim_quick", true) => sim_quick::traced(&sim_quick::Size::full()),
        ("chain_sharded", false) => {
            chain_sharded::measure(&chain_sharded::Size::full(), seed, args.seconds)
        }
        ("chain_sharded", true) => chain_sharded::traced(&chain_sharded::Size::full(), seed),
        ("udp_loopback", false) => udp_loopback::measure(&udp_loopback::Size::full(), args.seconds),
        ("udp_loopback", true) => udp_loopback::traced(&udp_loopback::Size::full()),
        ("model_check", false) => {
            model_check::measure(&model_check::Size::full(), seed, args.seconds)
        }
        ("model_check", true) => model_check::traced(&model_check::Size::full(), seed),
        (other, _) => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// Where and how a result was taken: host, toolchain, revision, build
/// profile and the run's own parameters.
pub fn stamp(args: &Args) -> String {
    use telemetry::Json;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    Json::obj([
        ("cpu", Json::from(cpu.as_str())),
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
        ("git_rev", Json::from(git_rev().as_str())),
        ("profile", Json::from(env!("PERFBENCH_PROFILE"))),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
    .render()
}

/// The revision checked out in the working directory, read from
/// `.git` without running git; `"none"` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Process CPU time (user + system, all threads, finished ones
/// included) in seconds. This is the time `/proc/self/stat` reports in
/// 10 ms ticks, read at nanosecond resolution from the
/// `CLOCK_PROCESS_CPUTIME_ID` clock, so that a single operation of a
/// few hundred milliseconds can be costed.
pub fn cpu_seconds() -> f64 {
    // `struct timespec` as the C library declares it on Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the duration of
    // the call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Set up once, then run `round` until its calls have taken `seconds`
/// (at least once), setting up again between rounds until there have
/// been [`SETUP_REPS`] set-ups, spread evenly over the run. Returns the
/// median wall time of the set-ups, in seconds, and the rounds run.
///
/// Each workload's set-up is building its inputs and one warm-up
/// operation. The crates' entry points build their own state (chains,
/// sockets, monitor) inside every call, so the inputs take microseconds
/// and the warm-up dominates: `setup_s` is the time of one warm-up
/// operation, not a set-up cost that can be told apart from it. The
/// host's speed changes over seconds, so set-ups bunched at the start
/// would see only its first few; spread over the run, their median
/// sees what the rounds see.
pub fn run_rounds(
    out: &mut Outcome,
    seconds: f64,
    mut setup: impl FnMut(&mut Outcome),
    mut round: impl FnMut(&mut Outcome),
) -> (f64, u64) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut set_up_until = |due: usize, out: &mut Outcome, setups: &mut Vec<f64>| {
        while setups.len() < due {
            let t0 = Instant::now();
            setup(out);
            setups.push(t0.elapsed().as_secs_f64());
        }
    };
    set_up_until(1, out, &mut setups);
    let (mut measured, mut rounds) = (0.0, 0);
    while rounds == 0 || measured < seconds {
        let t0 = Instant::now();
        round(out);
        measured += t0.elapsed().as_secs_f64();
        rounds += 1;
        let share = (measured / seconds).min(1.0);
        set_up_until(
            1 + ((SETUP_REPS - 1) as f64 * share) as usize,
            out,
            &mut setups,
        );
    }
    set_up_until(SETUP_REPS, out, &mut setups);
    (median(&setups), rounds)
}

/// The least wall and CPU time each component of a round took over a
/// run: a round is one pass of `sim_quick`'s experiments, of
/// `chain_sharded`'s chains, or of `model_check`'s batches, and every
/// round repeats the same components with the same inputs.
///
/// On a shared host other tenants only ever slow an operation down, by
/// tens of percent, in stretches from a second to minutes long, and a
/// stretch can cover a whole run. A component's least time is what the
/// code costs when the host disturbed it least; with every component
/// run some tens of times over a run, each one meets a quiet moment in
/// nearly every run. Summing the least times of the components gives
/// the cost of one round at that speed. The spread of the rounds still
/// goes to the notes ([`spread_note`]).
#[derive(Clone, Debug, Default)]
pub struct Best {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Best {
    /// Note that component `i` took `wall_s` wall and `cpu_s` process
    /// CPU seconds.
    pub fn record(&mut self, i: usize, wall_s: f64, cpu_s: f64) {
        if i >= self.wall_s.len() {
            self.wall_s.resize(i + 1, f64::INFINITY);
            self.cpu_s.resize(i + 1, f64::INFINITY);
        }
        self.wall_s[i] = self.wall_s[i].min(wall_s);
        self.cpu_s[i] = self.cpu_s[i].min(cpu_s);
    }

    /// Wall seconds of a round at every component's least time.
    pub fn wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Process CPU seconds of a round at every component's least time.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_s.iter().sum()
    }
}

/// Run `op`, returning its result with the wall and process CPU
/// seconds it took.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = op();
    let wall_s = t0.elapsed().as_secs_f64();
    (r, wall_s, cpu_seconds() - cpu0)
}

/// A note on the per-operation rates behind a run's figure.
pub fn spread_note(rates: &[f64]) -> String {
    format!(
        "rate over {} operation(s): min {:.6}, quartiles {:.6} / {:.6} / {:.6}, max {:.6}",
        rates.len(),
        quantile(rates, 0.0),
        quantile(rates, 0.25),
        quantile(rates, 0.5),
        quantile(rates, 0.75),
        quantile(rates, 1.0)
    )
}

/// `100 × (traced − untraced) / untraced`.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (traced_s - untraced_s) / untraced_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload model_check --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "model_check".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim_quick --seed -1 --seconds 1 --trace 0",
            "--workload sim_quick --seed 1 --seconds 0 --trace 0",
            "--workload sim_quick --seed 1 --seconds 1 --trace 2",
            "--workload sim_quick --seed 1 --seconds 1",
            "--workload sim_quick --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.check(None);
        o.push("setup_s", 0.25, "s");
        let doc = telemetry::Json::parse(&o.result_json()).expect("valid JSON");
        let telemetry::Json::Obj(members) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&telemetry::Json::Bool(true)));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn proc_readers_report_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
