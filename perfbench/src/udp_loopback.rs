//! `udp_loopback`: `lams-dlc-io` moving 1 KiB SDUs over real loopback
//! UDP with every 50th information frame dropped. A closed loop: the
//! host offers SDUs as fast as the sender's admission queue takes them,
//! so the benchmark reports the rate delivered. Loss injection is
//! deterministic, so the seed argument has no effect here.
//!
//! `BENCHMARK.json` does not list this workload: about one transfer in
//! 750 fails its audit on a wall-clock timing bound (see
//! `perfbench/NOTES.md`). It runs by name all the same.

use crate::wrap::{TimedClock, TimedTransport};
use crate::{alloc_since, median, peak_rss_mb, run_rounds, timed, Best, Layers, Outcome};
use lams_dlc_io::{run_loopback, run_transfer, IoConfig, IoSummary, UdpTransport};
use proto_core::WallClock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use telemetry::Json;

/// Transfer size.
#[derive(Clone, Debug)]
pub struct Size {
    /// SDUs per transfer.
    pub sdus: u64,
}

impl Size {
    /// The measured transfer: enough SDUs that its p99 latency has 25
    /// samples above it.
    pub fn full() -> Size {
        Size { sdus: 2_500 }
    }
}

/// SDUs in a set-up warm-up transfer.
const WARMUP_SDUS: u64 = 500;

/// The closing `lams-dlc.live/1` document of a transfer, as far as the
/// benchmark reads it.
#[derive(Clone, Debug)]
pub struct LiveFinal {
    /// SDUs delivered in order.
    pub delivered: u64,
    /// Audit findings.
    pub findings: u64,
    /// Delivery-latency samples behind the quantiles.
    pub samples: u64,
    /// Median delivery latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile delivery latency, seconds.
    pub p99_s: f64,
}

/// Directory for the transfers' stats documents: under the cargo
/// target directory, inside the checkout.
fn stats_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("perfbench-stats")
}

/// A fresh stats path for one transfer.
fn stats_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    stats_dir().join(format!("live-{}-{n}.jsonl", std::process::id()))
}

/// The transfer configuration: `sdus` SDUs of 1 KiB, every 50th
/// information frame dropped, and only the closing stats document
/// written to `stats`.
pub fn io_config(sdus: u64, stats: &std::path::Path) -> IoConfig {
    IoConfig {
        sdus,
        payload_len: 1024,
        drop_every: 50,
        corrupt_every: 0,
        timeout: std::time::Duration::from_secs(60),
        stats: Some(stats.to_string_lossy().into_owned()),
        stats_interval: std::time::Duration::from_secs(3600),
        trace: None,
        rx_capacity: None,
    }
}

/// Read and remove the stats file, returning its closing document.
fn read_final(path: &std::path::Path) -> Result<LiveFinal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    let text = text?;
    let last = text.lines().last().ok_or("empty stats file")?;
    let doc = Json::parse(last).map_err(|e| format!("stats document: {e:?}"))?;
    let num = |path: &[&str]| -> Result<f64, String> {
        path.iter()
            .try_fold(&doc, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats document lacks {}", path.join(".")))
    };
    if doc.get("final").and_then(Json::as_bool) != Some(true) {
        return Err("last stats document is not final".into());
    }
    Ok(LiveFinal {
        delivered: num(&["progress", "delivered"])? as u64,
        findings: num(&["audit", "findings"])? as u64,
        samples: num(&["delivery_latency", "count"])? as u64,
        p50_s: num(&["delivery_latency", "p50_s"])?,
        p99_s: num(&["delivery_latency", "p99_s"])?,
    })
}

/// One finished transfer.
#[derive(Clone, Debug)]
pub struct Transfer {
    /// Wall seconds of the call, socket set-up included.
    pub wall_s: f64,
    /// The host's summary.
    pub summary: IoSummary,
    /// The closing live document.
    pub live: LiveFinal,
}

/// Check a transfer's result: `Ok`, every SDU delivered in order, and
/// zero audit findings in both the summary and the closing document.
fn finish(
    sdus: u64,
    wall_s: f64,
    result: Result<IoSummary, String>,
    stats: &std::path::Path,
) -> Result<Transfer, String> {
    let live = read_final(stats);
    let summary = result?;
    let live = live?;
    if summary.delivered != sdus || live.delivered != sdus {
        return Err(format!(
            "delivered {} (stats {}) of {sdus} SDUs",
            summary.delivered, live.delivered
        ));
    }
    if summary.audit_findings != 0 || live.findings != 0 {
        return Err(format!("{} audit finding(s)", summary.audit_findings));
    }
    Ok(Transfer {
        wall_s,
        summary,
        live,
    })
}

/// One transfer through [`run_loopback`], the host as users call it.
pub fn transfer(sdus: u64) -> Result<Transfer, String> {
    std::fs::create_dir_all(stats_dir()).map_err(|e| format!("stats dir: {e}"))?;
    let stats = stats_path();
    let cfg = io_config(sdus, &stats);
    let t0 = Instant::now();
    let result = run_loopback(&cfg);
    finish(sdus, t0.elapsed().as_secs_f64(), result, &stats)
}

/// Layer timings of one traced transfer.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Wall seconds of the `run_transfer` call.
    pub call_s: f64,
    /// Wall seconds in the host's idle sleeps.
    pub sleep_s: f64,
    /// Idle sleeps taken.
    pub sleeps: u64,
    /// Send and receive calls and their wall time.
    pub io: crate::wrap::TransportTimes,
    /// Allocations during the call, when the counting allocator is
    /// installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
}

/// One transfer through [`run_transfer`] with a [`TimedClock`] around
/// the wall clock and a [`TimedTransport`] around the UDP sockets.
pub fn traced_transfer(sdus: u64) -> Result<(Transfer, Spans), String> {
    std::fs::create_dir_all(stats_dir()).map_err(|e| format!("stats dir: {e}"))?;
    let stats = stats_path();
    let cfg = io_config(sdus, &stats);
    let t0 = Instant::now();
    let clock = TimedClock::new(WallClock::new());
    let mut link = TimedTransport::new(UdpTransport::new()?);
    let a0 = profile::alloc::snapshot();
    let t_call = Instant::now();
    let result = run_transfer(&cfg, &clock, &mut link);
    let call_s = t_call.elapsed().as_secs_f64();
    let alloc = alloc_since(a0);
    let wall_s = t0.elapsed().as_secs_f64();
    let layers = Spans {
        call_s,
        sleep_s: clock.sleep_s(),
        sleeps: clock.sleeps(),
        io: link.times,
        alloc,
    };
    Ok((finish(sdus, wall_s, result, &stats)?, layers))
}

/// The end-to-end run: transfers for `seconds`.
pub fn measure(size: &Size, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut rates, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut best = Best::default();
    let mut samples = 0;
    let warm_up = |out: &mut Outcome| out.check(transfer(WARMUP_SDUS).err());
    let (setup_s, transfers) = run_rounds(&mut out, seconds, warm_up, |out| {
        match timed(|| transfer(size.sdus)) {
            (Ok(t), wall_s, cpu_s) => {
                best.record(0, wall_s, cpu_s);
                samples += t.live.samples;
                rates.push(t.summary.delivered as f64 / t.wall_s);
                p50.push(t.live.p50_s * 1e3);
                p99.push(t.live.p99_s * 1e3);
                out.check(None);
            }
            (Err(e), _, _) => out.check(Some(e)),
        }
    });
    out.notes.push(crate::spread_note(&rates));
    out.push("setup_s", setup_s, "s");
    // A closed loop over the wall clock: the program's own sleeps and
    // timers set the pace, so the rate is the median over transfers.
    out.push("sdu_per_s", median(&rates), "SDU/s");
    out.push(
        "cpu_us_per_sdu",
        best.cpu_s() * 1e6 / size.sdus as f64,
        "us",
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    // The monitor's histogram has 1 ms bins, so a transfer's p50 is an
    // interpolation inside the first bin and takes few distinct values;
    // their mean, unlike their median, still moves from run to run.
    out.detail(
        "delivery_p50_ms",
        p50.iter().sum::<f64>() / p50.len() as f64,
        "ms",
    );
    out.detail("delivery_p99_ms", median(&p99), "ms");
    out.notes.push(format!(
        "{transfers} transfer(s) of {} SDUs; p50 is the mean and p99 the median of \
         the per-transfer quantiles, {samples} delivery samples in all",
        size.sdus
    ));
    out
}

/// The traced run: one untraced transfer for reference, then one
/// traced transfer.
pub fn traced(size: &Size) -> Outcome {
    let mut out = Outcome::default();
    out.check(transfer(WARMUP_SDUS).err());
    let plain = transfer(size.sdus);
    let traced = traced_transfer(size.sdus);
    let (plain, (t, layers)) = match (plain, traced) {
        (Ok(p), Ok(t)) => {
            out.check(None);
            out.check(None);
            (p, t)
        }
        (p, t) => {
            out.check(p.err());
            out.check(t.err());
            return out;
        }
    };
    let host_s = t.summary.wall.as_secs_f64();
    let send_s = layers.io.send_ns as f64 / 1e9;
    let recv_s = layers.io.recv_ns as f64 / 1e9;
    let host_self_s = host_s - layers.sleep_s - send_s - recv_s;
    out.push_layers(&Layers {
        wall_s: t.wall_s,
        plain_wall_s: plain.wall_s,
        entry_s: layers.call_s,
        core_s: host_self_s,
        core_steps: layers.io.sends + layers.io.recvs - layers.io.recv_empty,
        sdus: t.summary.delivered,
        alloc: layers.alloc,
    });
    out.detail("io.sleep_s", layers.sleep_s, "s");
    out.detail("io.sleeps", layers.sleeps as f64, "count");
    out.detail("io.send_s", send_s, "s");
    out.detail("io.sends", layers.io.sends as f64, "count");
    out.detail("io.recv_s", recv_s, "s");
    out.detail("io.recvs", layers.io.recvs as f64, "count");
    out.detail(
        "io.recv_empty_share",
        layers.io.recv_empty as f64 / layers.io.recvs as f64,
        "ratio",
    );
    out.detail("io.host_self_s", host_self_s, "s");
    out.detail(
        "io.retransmissions",
        t.summary.retransmissions as f64,
        "count",
    );
    out.detail(
        "io.feedback_datagrams",
        t.summary.feedback_sent as f64,
        "count",
    );
    out.notes.push(format!(
        "traced transfer {:.3} s against untraced {:.3} s; {} delivery samples",
        t.wall_s, plain.wall_s, t.live.samples
    ));
    out
}
