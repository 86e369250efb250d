//! The experiment runner behind the `repro` binary: CLI parsing,
//! parallel experiment fan-out, and machine-readable report assembly.
//!
//! Splitting this out of `main` makes every piece unit-testable: bad
//! flags are rejected with a usage message (exit code 2 in the binary),
//! experiments fan out across [`crate::parallel::map`] workers and merge
//! deterministically in experiment order, and the `lams-dlc.repro/1`
//! JSON document is built the same way at any worker count.

use crate::experiments::{self, ExperimentOutput};
use crate::metrics;
use crate::parallel;
use crate::profile_report::ExperimentProfile;
use sim_core::QueueProfile;
use telemetry::Json;

/// Usage text printed on `--help`-worthy mistakes.
pub const USAGE: &str = "\
usage: repro [OPTIONS] [EXPERIMENT_ID...]

  repro                      # run every experiment at full size
  repro e1 e5                # run a subset
  repro --quick all          # CI-sized workloads
  repro --list               # show the experiment index
  repro --json report.json   # also write machine-readable results
  repro --trace run.jsonl    # also write a protocol event trace (JSONL)
  repro --metrics m.jsonl    # also write windowed time-series metrics (JSONL)
  repro --profile p.json     # self-profile each experiment (span trees)
  repro --workers 4          # run experiments on 4 worker threads (0 = auto)
  repro --shards 8 e18       # split sharded-family simulations over 8 cores
  repro --shards 3 --timeline t.json e18   # Perfetto superstep timeline

options:
  -q, --quick            shrink workloads for CI
  -l, --list             print the experiment index and exit
      --json <path>      write the lams-dlc.repro/1 JSON document
      --trace <path>     write a JSONL protocol event trace
      --metrics <path>   write windowed per-link metric series (JSONL)
      --profile <path>         write the lams-dlc.profile/1 span-tree document
      --profile-folded <path>  write collapsed stacks for flamegraph tools
      --workers <n>      worker threads for the experiment fan-out (default 1)
      --shards <n>       threads per sharded simulation (default 1; must be >= 1)
      --timeline <path>  write the lams-dlc.timeline/1 Chrome trace-event JSON
                         (superstep spans per shard; open in Perfetto)

Profiling (--profile / --profile-folded) measures wall-clock spans and
prints a per-experiment breakdown; simulated results are byte-identical
with profiling on or off. Within a profiled experiment the inner
simulation fan-out runs serially so span times nest correctly;
experiments themselves still spread across --workers.

--shards splits each simulation of the sharded experiment family (e18)
across conservative parallel-DES threads; results are byte-identical at
any shard count (only the perf block's wall clock differs).

--timeline captures the sharded runtime's superstep accounting as a
Chrome trace-event document (one track per shard, counter tracks for
event rate / queue depth / grant horizon) loadable in Perfetto. Span
placement uses the wall clock; every span argument (grants, critical
cuts, event counts) is deterministic.

Every run is audited live against the LAMS-DLC protocol invariants;
violations are printed to stderr and fail the run (exit 1).
";

/// The experiment index: `(id, title)` in run order.
pub const INDEX: &[(&str, &str)] = &[
    (
        "e1",
        "Retransmission probability & mean periods (P_R, s-bar)",
    ),
    ("e2", "Throughput efficiency vs offered traffic N"),
    ("e3", "Throughput efficiency vs residual BER"),
    ("e4", "Throughput efficiency vs link distance"),
    (
        "e5",
        "Transparent buffer size (B_LAMS finite, B_HDLC = inf)",
    ),
    ("e6", "Sender holding time H_frame vs W_cp"),
    ("e7", "Low-traffic delivery time D_low(N)"),
    ("e8", "Burst-error resilience (Gilbert-Elliott)"),
    ("e9", "Enforced recovery & failure detection"),
    ("e10", "Bounded numbering size"),
    ("e11", "Stop-Go flow control"),
    ("e12", "W_cp x C_depth ablation"),
    ("e13", "Store-and-forward relay chain (end-to-end)"),
    ("e14", "Optimal frame length"),
    ("e15", "Full-duplex operation (no-piggyback cost)"),
    ("e16", "Delay vs offered load (throughput/delay tradeoff)"),
    ("e17", "Go-Back-N baseline collapse"),
    (
        "e18",
        "Sharded relay chain (conservative parallel execution)",
    ),
];

/// Parsed `repro` command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliArgs {
    /// Shrink workloads for CI.
    pub quick: bool,
    /// Print the experiment index and exit.
    pub list: bool,
    /// Path for the JSON report, if requested.
    pub json: Option<String>,
    /// Path for the JSONL trace, if requested.
    pub trace: Option<String>,
    /// Path for the windowed metrics JSONL, if requested.
    pub metrics: Option<String>,
    /// Path for the `lams-dlc.profile/1` span-tree document, if
    /// requested. Either profile flag turns self-profiling on.
    pub profile: Option<String>,
    /// Path for the collapsed-stack flamegraph lines, if requested.
    pub profile_folded: Option<String>,
    /// Worker threads for the experiment fan-out (0 = auto).
    pub workers: usize,
    /// Threads per sharded simulation (≥ 1; the parser rejects 0).
    pub shards: usize,
    /// Path for the `lams-dlc.timeline/1` Chrome trace-event document,
    /// if requested.
    pub timeline: Option<String>,
    /// Explicit experiment ids (empty = all).
    pub ids: Vec<String>,
}

impl CliArgs {
    /// True when any profile output was requested — turns on
    /// self-profiling for the run.
    pub fn profiled(&self) -> bool {
        self.profile.is_some() || self.profile_folded.is_some()
    }
}

/// Parse a `repro` argument list. Unknown flags and flags missing their
/// value are errors (the binary prints the message plus [`USAGE`] and
/// exits non-zero).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut cli = CliArgs {
        workers: 1,
        shards: 1,
        ..CliArgs::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
            match it.next() {
                Some(v) if !v.starts_with('-') => Ok(v.clone()),
                _ => Err(format!("{flag} requires a value")),
            }
        };
        match arg.as_str() {
            "--quick" | "-q" => cli.quick = true,
            "--list" | "-l" => cli.list = true,
            "--json" => cli.json = Some(value("--json", &mut it)?),
            "--trace" => cli.trace = Some(value("--trace", &mut it)?),
            "--metrics" => cli.metrics = Some(value("--metrics", &mut it)?),
            "--profile" => cli.profile = Some(value("--profile", &mut it)?),
            "--profile-folded" => cli.profile_folded = Some(value("--profile-folded", &mut it)?),
            "--timeline" => cli.timeline = Some(value("--timeline", &mut it)?),
            "--workers" => {
                let v = value("--workers", &mut it)?;
                cli.workers = v
                    .parse()
                    .map_err(|_| format!("--workers expects a number, got {v:?}"))?;
            }
            "--shards" => {
                let v = value("--shards", &mut it)?;
                cli.shards = v
                    .parse()
                    .map_err(|_| format!("--shards expects a number, got {v:?}"))?;
                // Unlike --workers, 0 is not "auto": a sharded run's
                // shape is part of its identity contract, so the count
                // must be explicit.
                if cli.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "all" => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            id => cli.ids.push(id.to_string()),
        }
    }
    Ok(cli)
}

/// Fail early when an output path points into a directory that does not
/// exist: a typo'd `--json`/`--trace`/`--metrics` destination should be
/// a usage error before any experiment runs, not an I/O error after
/// minutes of simulation.
pub fn validate_paths(cli: &CliArgs) -> Result<(), String> {
    let targets = [
        ("--json", &cli.json),
        ("--trace", &cli.trace),
        ("--metrics", &cli.metrics),
        ("--profile", &cli.profile),
        ("--profile-folded", &cli.profile_folded),
        ("--timeline", &cli.timeline),
    ];
    for (flag, path) in targets {
        let Some(path) = path else { continue };
        let parent = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or_else(|| std::path::Path::new("."));
        if !parent.is_dir() {
            return Err(format!(
                "{flag} {path}: directory {} does not exist",
                parent.display()
            ));
        }
    }
    Ok(())
}

/// One experiment's outcome: rendered output plus the merged perf
/// accumulator of every simulation it ran.
pub struct ExperimentRun {
    /// The experiment id as requested.
    pub id: String,
    /// The output, or `None` for an unknown id.
    pub output: Option<ExperimentOutput>,
    /// `(merged queue profile, wall seconds, runs)` — `None` when the
    /// experiment ran no simulations (or the id was unknown).
    pub perf: Option<(QueueProfile, f64, u64)>,
    /// The live protocol audit + windowed metrics for this experiment's
    /// simulation runs.
    pub audit: monitor::MonitorReport,
    /// The wall-clock self-profile, when the run was profiled.
    pub profile: Option<ExperimentProfile>,
    /// Superstep accounting + per-run spans — `None` unless the
    /// experiment ran sharded simulations (the e18 family).
    pub shard: Option<metrics::ShardAcc>,
}

/// The `&'static str` form of a known experiment id (trace node labels
/// and [`telemetry::TraceEvent::ExperimentStarted`] ids are interned).
fn static_id(id: &str) -> Option<&'static str> {
    experiments::ALL.iter().copied().find(|s| *s == id)
}

/// Run `ids` through the experiment suite on the configured worker
/// pool, returning results in request order. Each experiment drains its
/// own thread's perf accumulator, so per-experiment perf blocks are
/// identical at any worker count.
///
/// Every experiment runs with a live [`monitor::Monitor`] spliced into
/// the telemetry stream: the thread's current sink (the serial JSONL
/// sink, or the per-item buffer a parallel worker installed) is wrapped
/// in a fan-out that also feeds the monitor, and restored afterwards.
/// The monitor audits the protocol invariants as events arrive and
/// accumulates windowed metric series; both come back in
/// [`ExperimentRun::audit`]. Because one monitor serves exactly one
/// experiment and reports merge in request order, the audit verdicts
/// and metric lines are identical at any worker count.
pub fn run_experiments(ids: &[String], quick: bool) -> Vec<ExperimentRun> {
    run_experiments_with(ids, quick, false)
}

/// [`run_experiments`] with self-profiling optionally enabled. When
/// `profiled`, each experiment installs a thread-local span profiler
/// *before* constructing its monitor (span handles are resolved at
/// construction), wraps the experiment body in a root `"experiment"`
/// span, and drains the profiler into [`ExperimentRun::profile`].
/// Profiling reads only the wall clock, so every simulated output —
/// fingerprints, audit verdicts, attribution — is byte-identical with
/// it on or off.
pub fn run_experiments_with(ids: &[String], quick: bool, profiled: bool) -> Vec<ExperimentRun> {
    use std::cell::RefCell;
    use std::rc::Rc;
    parallel::map(ids.to_vec(), move |id| {
        metrics::perf_take(); // clear any carry-over before the experiment
        metrics::shard_take();
        let alloc0 = if profiled {
            profile::install();
            Some(profile::alloc::snapshot())
        } else {
            None
        };
        // The tree's root (a no-op guard when unprofiled), held across
        // monitor construction and report drain. The wall clock it is
        // judged against starts just before it opens and stops just after
        // it closes, so even microsecond analysis-only experiments meet
        // the span-coverage floor.
        let t0 = std::time::Instant::now();
        let root = profile::span("experiment");
        let mon = Rc::new(RefCell::new(monitor::Monitor::new(
            monitor::MonitorConfig::default(),
        )));
        let prev = telemetry::global_sink();
        let mut sinks: Vec<telemetry::SharedSink> = Vec::new();
        sinks.push(mon.clone());
        sinks.extend(prev.clone());
        telemetry::install_global(Rc::new(RefCell::new(telemetry::FanoutSink::new(sinks))));
        if let Some(sid) = static_id(&id) {
            telemetry::global_handle("runner").emit(sim_core::Instant::ZERO, || {
                telemetry::TraceEvent::ExperimentStarted { id: sid }
            });
        }
        let output = experiments::run_by_id(&id, quick);
        match prev {
            Some(p) => {
                telemetry::install_global(p);
            }
            None => {
                telemetry::uninstall_global();
            }
        }
        let audit = mon.borrow_mut().take_report();
        drop(root);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let profile = alloc0.map(|alloc0| {
            let report = profile::take().unwrap_or_default();
            let alloc =
                profile::alloc::snapshot().map(|now| now.since(&alloc0.unwrap_or_default()));
            ExperimentProfile::from_report(report, wall_ns, alloc)
        });
        ExperimentRun {
            id,
            perf: metrics::perf_take(),
            shard: metrics::shard_take(),
            output,
            audit,
            profile,
        }
    })
}

/// Build the `lams-dlc.repro/1` JSON document over completed runs
/// (unknown ids are skipped; the binary reports them separately).
pub fn report_json(runs: &[ExperimentRun], quick: bool) -> Json {
    let results: Vec<Json> = runs
        .iter()
        .filter_map(|run| {
            let out = run.output.as_ref()?;
            let mut doc = out.to_json();
            let perf = match &run.perf {
                Some((profile, wall, runs)) => {
                    let mut p = metrics::perf_json(profile, *wall);
                    if let Json::Obj(members) = &mut p {
                        members.push(("runs".into(), (*runs).into()));
                    }
                    p
                }
                None => Json::Null,
            };
            let metrics = run
                .audit
                .experiment(&run.id)
                .map(|e| e.to_json())
                .unwrap_or(Json::Null);
            // Integer-only block, so the offline `trace-tools
            // attribution` replay reproduces it byte-for-byte.
            let attribution = run
                .audit
                .experiment(&run.id)
                .map(|e| e.attribution.to_json())
                .unwrap_or(Json::Null);
            // Wall-clock-bearing like perf, so determinism comparisons
            // strip it the same way (see check_repro.py --identical).
            let profile = match &run.profile {
                Some(p) => p.to_json(),
                None => Json::Null,
            };
            // Superstep accounting: deterministic counts plus
            // wall-exempt busy/blocked vectors (see shard_json).
            let shard_profile = match &run.shard {
                Some(acc) => metrics::shard_json(&acc.profile),
                None => Json::Null,
            };
            if let Json::Obj(members) = &mut doc {
                members.push(("perf".into(), perf));
                members.push(("metrics".into(), metrics));
                members.push(("attribution".into(), attribution));
                members.push(("profile".into(), profile));
                members.push(("shard_profile".into(), shard_profile));
            }
            Some(doc)
        })
        .collect();
    Json::obj([
        ("schema", Json::from("lams-dlc.repro/1")),
        ("quick", Json::from(quick)),
        ("experiments", Json::from(results)),
    ])
}

/// Render one experiment's latency budget as a human-readable table:
/// where delivered SDUs spent their time, phase by phase, plus the
/// resolution-vs-analytic-bound verdict. Empty when the experiment
/// attributed nothing (e.g. HDLC-only baselines).
pub fn attribution_table(id: &str, a: &monitor::AttributionAgg) -> String {
    use std::fmt::Write as _;
    if a.sdus == 0 && a.incomplete == 0 && a.reseq.count == 0 {
        return String::new();
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "latency budget [{id}]: {} SDU(s) ({} clean, {} errored, {} incomplete)",
        a.sdus, a.clean, a.errored, a.incomplete
    );
    let _ = writeln!(
        s,
        "  {:<14} {:>7} {:>12} {:>10} {:>10} {:>7}",
        "phase", "sdus", "total ms", "mean ms", "max ms", "share"
    );
    let total = a.latency_total_ns.max(1) as f64;
    for (name, p) in monitor::PHASE_NAMES.iter().zip(a.phases.iter()) {
        if p.count == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<14} {:>7} {:>12.3} {:>10.3} {:>10.3} {:>6.1}%",
            name,
            p.count,
            p.total_ns as f64 / 1e6,
            p.total_ns as f64 / 1e6 / p.count as f64,
            p.max_ns as f64 / 1e6,
            100.0 * p.total_ns as f64 / total,
        );
    }
    if a.reseq.count > 0 {
        let _ = writeln!(
            s,
            "  {:<14} {:>7} {:>12.3} {:>10.3} {:>10.3}   (post-delivery)",
            "reseq_hold",
            a.reseq.count,
            a.reseq.total_ns as f64 / 1e6,
            a.reseq.total_ns as f64 / 1e6 / a.reseq.count as f64,
            a.reseq.max_ns as f64 / 1e6,
        );
    }
    if a.max_nak_repeats > 0 {
        let _ = writeln!(s, "  worst NAK cumulation repeats: {}", a.max_nak_repeats);
    }
    if a.res_cycles > 0 {
        let _ = writeln!(
            s,
            "  resolution: {} NAK cycle(s), worst {:.3} ms {} analytic bound {:.3} ms ({} violation(s))",
            a.res_cycles,
            a.res_max_ns as f64 / 1e6,
            if a.res_violations == 0 { "<=" } else { ">" },
            a.res_bound_ns as f64 / 1e6,
            a.res_violations,
        );
    }
    if a.audit_failures > 0 {
        let _ = writeln!(
            s,
            "  WARNING: {} SDU(s) failed the phase-sum audit",
            a.audit_failures
        );
    }
    s
}

/// Render one experiment's superstep accounting as a human-readable
/// table, printed next to the latency budget when the run was sharded.
/// Efficiency/imbalance read the wall clock; everything else is
/// deterministic. `wall_secs` itself is deliberately *not* printed:
/// at one shard every figure here is a deterministic constant, which
/// keeps default stdout byte-identical across `--workers` counts (the
/// wall clock lives in the JSON report's exempt fields instead).
pub fn shard_table(id: &str, p: &netsim::ShardProfile) -> String {
    use std::fmt::Write as _;
    if p.supersteps == 0 {
        return String::new();
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "shard efficiency [{id}]: {} shard(s), {} superstep(s), {} window(s) ({} null)",
        p.shards, p.supersteps, p.windows, p.null_windows
    );
    let _ = writeln!(
        s,
        "  parallel efficiency {:>6.1}%   load imbalance {:.2}x   lookahead utilization {:>5.1}%",
        100.0 * p.efficiency(),
        p.imbalance(),
        100.0 * p.lookahead_utilization(),
    );
    let _ = writeln!(
        s,
        "  events {}   inbound {}   outbound {}",
        p.events, p.inbound, p.outbound
    );
    if !p.critical_cuts.is_empty() {
        let cuts: Vec<String> = p
            .critical_cuts
            .iter()
            .map(|(link, count)| format!("link{link} x{count}"))
            .collect();
        let _ = writeln!(s, "  critical cuts: {}", cuts.join(", "));
    }
    s
}

/// Build the `lams-dlc.timeline/1` Chrome trace-event document over
/// completed runs: one track group per sharded simulation, labelled
/// `"<id> run <k>"` in run order — the same labels the offline
/// `trace-tools timeline` replay reconstructs from the trace stream.
pub fn timeline_json(runs: &[ExperimentRun]) -> Json {
    let mut groups = Vec::new();
    for run in runs {
        let Some(acc) = &run.shard else { continue };
        for (k, spans) in acc.runs.iter().enumerate() {
            if spans.is_empty() {
                continue;
            }
            groups.push(telemetry::TimelineGroup {
                label: format!("{} run {k}", run.id),
                spans: spans.clone(),
            });
        }
    }
    telemetry::timeline_doc(&groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let cli = parse_args(&args(&[
            "--quick",
            "--json",
            "r.json",
            "--trace",
            "t.jsonl",
            "--metrics",
            "m.jsonl",
            "--workers",
            "4",
            "e1",
            "e13",
        ]))
        .expect("valid");
        assert!(cli.quick);
        assert!(!cli.list);
        assert_eq!(cli.json.as_deref(), Some("r.json"));
        assert_eq!(cli.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.metrics.as_deref(), Some("m.jsonl"));
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.ids, vec!["e1", "e13"]);
    }

    #[test]
    fn all_keyword_and_defaults() {
        let cli = parse_args(&args(&["all"])).expect("valid");
        assert!(cli.ids.is_empty());
        assert_eq!(cli.workers, 1);
        assert_eq!(cli.shards, 1);
        assert!(cli.json.is_none());
    }

    #[test]
    fn parses_shards_and_rejects_bad_counts() {
        let cli = parse_args(&args(&["--shards", "4", "e18"])).expect("valid");
        assert_eq!(cli.shards, 4);
        let err = parse_args(&args(&["--shards", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_args(&args(&["--shards", "many"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = parse_args(&args(&["--shards"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn parses_profile_flags() {
        let cli = parse_args(&args(&["--profile", "p.json"])).expect("valid");
        assert_eq!(cli.profile.as_deref(), Some("p.json"));
        assert!(cli.profile_folded.is_none());
        assert!(cli.profiled());
        let cli = parse_args(&args(&["--profile-folded", "p.folded"])).expect("valid");
        assert_eq!(cli.profile_folded.as_deref(), Some("p.folded"));
        assert!(cli.profiled());
        assert!(!parse_args(&args(&["e1"])).expect("valid").profiled());
    }

    #[test]
    fn rejects_missing_flag_values() {
        for flags in [
            &["--json"][..],
            &["--trace"],
            &["--metrics"],
            &["--profile"],
            &["--profile-folded"],
            &["--workers"],
        ] {
            let err = parse_args(&args(flags)).unwrap_err();
            assert!(err.contains("requires a value"), "{err}");
        }
        // A following flag is not a value.
        let err = parse_args(&args(&["--json", "--quick"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn rejects_non_numeric_workers() {
        let err = parse_args(&args(&["--workers", "many"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn validate_paths_rejects_missing_parent_dirs() {
        for flag in ["--json", "--trace", "--metrics"] {
            let mut cli = CliArgs::default();
            let path = Some("/definitely/not/a/dir/out.jsonl".to_string());
            match flag {
                "--json" => cli.json = path,
                "--trace" => cli.trace = path,
                _ => cli.metrics = path,
            }
            let err = validate_paths(&cli).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("does not exist"), "{err}");
        }
    }

    #[test]
    fn validate_paths_accepts_bare_and_existing_paths() {
        let cli = CliArgs {
            json: Some("report.json".into()), // bare filename → cwd
            trace: Some("/tmp/t.jsonl".into()),
            metrics: None,
            ..CliArgs::default()
        };
        assert!(validate_paths(&cli).is_ok());
    }

    #[test]
    fn attribution_table_renders_phases_and_bound() {
        let mut a = monitor::AttributionAgg::default();
        assert!(
            attribution_table("e9", &a).is_empty(),
            "nothing attributed → no table"
        );
        a.sdus = 2;
        a.clean = 1;
        a.errored = 1;
        a.latency_total_ns = 40_000_000;
        a.phases[0].add(30_000_000);
        a.phases[6].add(10_000_000);
        a.res_cycles = 1;
        a.res_max_ns = 15_000_000;
        a.res_bound_ns = 44_500_000;
        let t = attribution_table("e9", &a);
        assert!(t.contains("latency budget [e9]"), "{t}");
        assert!(t.contains("first_flight"), "{t}");
        assert!(t.contains("retx_flight"), "{t}");
        assert!(!t.contains("nak_wait"), "empty phases are omitted: {t}");
        assert!(t.contains("<= analytic bound 44.500 ms"), "{t}");
    }

    #[test]
    fn report_attribution_block_rides_next_to_metrics() {
        let runs = run_experiments(&args(&["e1"]), true);
        let doc = report_json(&runs, true);
        let exps = doc.get("experiments").and_then(Json::as_arr).expect("arr");
        let attr = exps[0].get("attribution").expect("attribution key");
        assert!(attr.get("phases").is_some(), "{attr:?}");
        assert!(attr.get("resolution").is_some(), "{attr:?}");
    }

    #[test]
    fn profiled_run_records_spans_and_coverage() {
        let runs = run_experiments_with(&args(&["e1"]), true, true);
        let p = runs[0].profile.as_ref().expect("profiled");
        assert!(!p.tree.is_empty(), "spans recorded");
        assert_eq!(p.dropped, 0, "workspace paths fit the default cap");
        let roots: Vec<&str> = p
            .tree
            .roots()
            .iter()
            .map(|&r| p.tree.node(r).name)
            .collect();
        assert!(roots.contains(&"experiment"), "{roots:?}");
        assert!(
            p.coverage() >= 0.9,
            "root spans cover ≥90% of the wall clock, got {:.3}",
            p.coverage()
        );
        // The report block rides next to perf; unprofiled runs get null.
        let doc = report_json(&runs, true);
        let exp = &doc.get("experiments").and_then(Json::as_arr).expect("arr")[0];
        assert!(exp.get("profile").and_then(|p| p.get("spans")).is_some());
        let plain = run_experiments(&args(&["e1"]), true);
        assert!(plain[0].profile.is_none());
        let doc = report_json(&plain, true);
        let exp = &doc.get("experiments").and_then(Json::as_arr).expect("arr")[0];
        assert_eq!(exp.get("profile"), Some(&Json::Null));
    }

    #[test]
    fn parses_timeline_flag() {
        let cli = parse_args(&args(&["--timeline", "t.json", "e18"])).expect("valid");
        assert_eq!(cli.timeline.as_deref(), Some("t.json"));
        assert_eq!(cli.ids, vec!["e18"]);
        let err = parse_args(&args(&["--timeline"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let cli = CliArgs {
            timeline: Some("/definitely/not/a/dir/t.json".into()),
            ..CliArgs::default()
        };
        let err = validate_paths(&cli).unwrap_err();
        assert!(err.contains("--timeline"), "{err}");
    }

    #[test]
    fn sharded_experiment_carries_shard_profile_and_timeline() {
        let runs = run_experiments(&args(&["e18"]), true);
        let acc = runs[0].shard.as_ref().expect("e18 runs sharded sims");
        assert!(acc.profile.events > 0);
        assert_eq!(acc.runs.len(), 2, "quick e18 sweeps two chain lengths");

        let doc = report_json(&runs, true);
        let exp = &doc.get("experiments").and_then(Json::as_arr).expect("arr")[0];
        let sp = exp.get("shard_profile").expect("shard_profile key");
        assert!(sp.get("events").and_then(Json::as_u64).expect("events") > 0);
        assert!(sp.get("efficiency").is_some(), "{sp:?}");
        assert!(sp.get("critical_cuts").is_some(), "{sp:?}");

        let table = shard_table("e18", &acc.profile);
        assert!(table.contains("parallel efficiency"), "{table}");
        assert!(table.contains("superstep(s)"), "{table}");

        let tl = timeline_json(&runs);
        assert_eq!(
            tl.get("schema").and_then(Json::as_str),
            Some(telemetry::TIMELINE_SCHEMA)
        );
        let events = tl.get("traceEvents").and_then(Json::as_arr).expect("arr");
        assert!(!events.is_empty());

        // Non-sharded experiments contribute neither block.
        let plain = run_experiments(&args(&["e1"]), true);
        assert!(plain[0].shard.is_none());
        let doc = report_json(&plain, true);
        let exp = &doc.get("experiments").and_then(Json::as_arr).expect("arr")[0];
        assert_eq!(exp.get("shard_profile"), Some(&Json::Null));
    }

    #[test]
    fn index_covers_every_experiment() {
        let ids: Vec<&str> = INDEX.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, experiments::ALL);
    }

    #[test]
    fn unknown_id_reported_without_output() {
        let runs = run_experiments(&args(&["e999"]), true);
        assert_eq!(runs.len(), 1);
        assert!(runs[0].output.is_none());
        // An unknown id contributes nothing to the JSON document.
        let doc = report_json(&runs, true);
        let experiments = doc.get("experiments").expect("array");
        assert_eq!(format!("{experiments:?}").matches("\"id\"").count(), 0);
    }
}
