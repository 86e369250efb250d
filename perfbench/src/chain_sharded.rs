//! `chain_sharded`: the full-size E18 shape — LAMS-DLC relay chains of
//! 2/4/8/12 hops, 5,000 SDUs each, residual BER 1e-5 (data) and 1e-6
//! (control) — through `harness::run_chain_lams`, the sharded runtime.
//! The seed argument becomes `ScenarioConfig::seed`. Every chain must
//! deliver every SDU, and must finish at the same instant with the same
//! deliveries and transmissions at one shard and at two.
//!
//! The end-to-end run measures one shard. At two shards on a two-vCPU
//! host every superstep is a cross-thread hand-off, and its wall time
//! swung by 2x between runs of the same seed as the host's load changed
//! (see `perfbench/NOTES.md`), too wide for any bound. The traced run
//! measures the coordinator at two shards against a one-shard
//! reference.

use crate::{add_alloc, alloc_since, peak_rss_mb, run_rounds, timed, Best, Layers, Outcome};
use harness::{metrics, run_chain_lams, RelayConfig, ScenarioConfig};
use netsim::ShardProfile;
use sim_core::{Duration, Instant};
use std::time::Instant as WallInstant;

/// The chains one pass runs.
#[derive(Clone, Debug)]
pub struct Size {
    /// Hop count of each chain, in run order.
    pub hops: Vec<usize>,
    /// SDUs per chain.
    pub sdus: u64,
}

/// Shards each chain is split across in the end-to-end run.
pub const MEASURED_SHARDS: usize = 1;

/// Shards of the traced run's coordinated passes, and of the end-to-end
/// run's cross-shard reference pass.
pub const TRACED_SHARDS: usize = 2;

impl Size {
    /// The full-size E18 sweep: measured at one shard, traced at two.
    pub fn full() -> Size {
        Size {
            hops: harness::experiments::e18_sharded_chain::HOPS.to_vec(),
            sdus: 5_000,
        }
    }
}

/// The E18 chain of `hops` hops carrying `sdus` SDUs under `seed`.
pub fn config(hops: usize, sdus: u64, seed: u64) -> RelayConfig {
    let mut base = ScenarioConfig::paper_default();
    base.seed = seed;
    base.n_packets = sdus;
    base.data_residual_ber = 1e-5;
    base.ctrl_residual_ber = 1e-6;
    base.deadline = Duration::from_secs(600);
    RelayConfig { hops, base }
}

/// What a chain's result must agree on at every shard count: the
/// finish instant, unique deliveries, transmissions and
/// retransmissions — the key `bench::run_shard_sweep` asserts on.
pub type Witness = (Instant, u64, u64, u64);

/// One chain run.
#[derive(Clone, Debug)]
pub struct ChainRun {
    /// The cross-shard identity key.
    pub witness: Witness,
    /// Wall seconds of the `run_chain_lams` call.
    pub wall_s: f64,
    /// Process CPU seconds of the call, every thread's.
    pub cpu_s: f64,
    /// Wall seconds of the coordinated run inside it.
    pub coord_s: f64,
    /// The coordinator's superstep accounting, when sharded.
    pub shard: Option<ShardProfile>,
    /// Allocations during the call, every thread's, when the counting
    /// allocator is installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
    /// Why the run failed its checks, if it did.
    pub error: Option<String>,
}

/// Run one chain and check that every SDU arrived. Drains the harness's
/// per-thread accumulators so repeated runs do not pile up spans.
pub fn run_one(cfg: &RelayConfig, shards: usize) -> ChainRun {
    metrics::perf_take();
    metrics::shard_take();
    let a0 = profile::alloc::snapshot();
    let (r, wall_s, cpu_s) = timed(|| run_chain_lams(cfg, shards));
    let alloc = alloc_since(a0);
    metrics::perf_take();
    let shard = metrics::shard_take().map(|acc| acc.profile);
    let n = cfg.base.n_packets;
    let error = if r.delivered_unique != n || r.lost != 0 || r.link_failed || r.deadline_hit {
        Some(format!(
            "{}-hop chain at {shards} shard(s): delivered {} of {n}, lost {}, link failed {}, deadline hit {}",
            cfg.hops, r.delivered_unique, r.lost, r.link_failed, r.deadline_hit
        ))
    } else {
        None
    };
    ChainRun {
        witness: (
            r.finished_at,
            r.delivered_unique,
            r.transmissions,
            r.retransmissions,
        ),
        wall_s,
        cpu_s,
        coord_s: r.wall_secs,
        shard,
        alloc,
        error,
    }
}

/// Run every chain of `size` at `shards` shards.
pub fn run_pass(size: &Size, seed: u64, shards: usize) -> Vec<ChainRun> {
    size.hops
        .iter()
        .map(|&h| run_one(&config(h, size.sdus, seed), shards))
        .collect()
}

/// Count a pass's chains into `out`, failing any that errored or whose
/// witness differs from `reference`.
fn tally(out: &mut Outcome, size: &Size, pass: &[ChainRun], reference: &[Witness]) {
    for ((run, want), hops) in pass.iter().zip(reference).zip(&size.hops) {
        out.check(run.error.clone().or_else(|| {
            (run.witness != *want).then(|| {
                format!(
                    "{hops}-hop chain: {:?} differs from reference {want:?}",
                    run.witness
                )
            })
        }));
    }
}

fn witnesses(pass: &[ChainRun]) -> Vec<Witness> {
    pass.iter().map(|r| r.witness).collect()
}

/// Warm-up: the pass's longest chain at the measured shard count.
fn setup(size: &Size, seed: u64) -> Option<String> {
    let hops = size.hops.iter().copied().max().expect("at least one chain");
    run_one(&config(hops, size.sdus, seed), MEASURED_SHARDS).error
}

/// The end-to-end run: passes over every chain for `seconds`, then a
/// reference pass at [`TRACED_SHARDS`] every result must match.
pub fn measure(size: &Size, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut reference: Option<Vec<Witness>> = None;
    let (mut best, mut rates) = (Best::default(), Vec::new());
    let mut sdus = 0;
    let warm_up = |out: &mut Outcome| out.check(setup(size, seed));
    let (setup_s, passes) = run_rounds(&mut out, seconds, warm_up, |out| {
        let pass = run_pass(size, seed, MEASURED_SHARDS);
        for (i, run) in pass.iter().enumerate() {
            best.record(i, run.wall_s, run.cpu_s);
        }
        let n: u64 = pass.iter().map(|r| r.witness.1).sum();
        sdus += n;
        rates.push(n as f64 / pass.iter().map(|r| r.wall_s).sum::<f64>());
        let want = reference.get_or_insert_with(|| witnesses(&pass));
        tally(out, size, &pass, want);
    });
    // Read before the reference pass, whose extra threads would count.
    let peak_rss = peak_rss_mb();
    let cross = run_pass(size, seed, TRACED_SHARDS);
    tally(
        &mut out,
        size,
        &cross,
        reference.as_ref().expect("at least one pass"),
    );
    let per_pass = size.sdus as f64 * size.hops.len() as f64;
    out.notes.push(crate::spread_note(&rates));
    out.push("setup_s", setup_s, "s");
    out.push("sdu_per_s", per_pass / best.wall_s(), "SDU/s");
    out.push("cpu_us_per_sdu", best.cpu_s() * 1e6 / per_pass, "us");
    out.push("peak_rss_mb", peak_rss, "MB");
    out.notes.push(format!(
        "{passes} pass(es) of {} chain(s) at {} shards, {sdus} SDUs delivered",
        size.hops.len(),
        MEASURED_SHARDS
    ));
    out
}

/// The traced run: an untraced pass, a traced pass reading the
/// coordinator's superstep accounting per chain, and a one-shard
/// reference pass; all three must agree on every witness.
pub fn traced(size: &Size, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    out.check(setup(size, seed));
    let t0 = WallInstant::now();
    let plain = run_pass(size, seed, TRACED_SHARDS);
    let plain_wall = t0.elapsed().as_secs_f64();
    let reference = witnesses(&plain);
    tally(&mut out, size, &plain, &reference);
    let t0 = WallInstant::now();
    let pass = run_pass(size, seed, TRACED_SHARDS);
    let wall = t0.elapsed().as_secs_f64();
    tally(&mut out, size, &pass, &reference);
    let serial = run_pass(size, seed, 1);
    tally(&mut out, size, &serial, &reference);

    let mut p = ShardProfile::default();
    for run in &pass {
        match &run.shard {
            Some(s) => p.absorb(s),
            None => out.check(Some("sharded run reported no superstep accounting".into())),
        }
    }
    let calls: f64 = pass.iter().map(|r| r.wall_s).sum();
    let coord: f64 = pass.iter().map(|r| r.coord_s).sum();
    let serial_calls: f64 = serial.iter().map(|r| r.wall_s).sum();
    let ns_sum = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
    out.push_layers(&Layers {
        wall_s: wall,
        plain_wall_s: plain_wall,
        entry_s: calls,
        core_s: ns_sum(&p.busy_ns),
        core_steps: p.events,
        sdus: pass.iter().map(|r| r.witness.1).sum(),
        alloc: pass.iter().try_fold(Default::default(), |total, r| {
            add_alloc(Some(total), r.alloc)
        }),
    });
    out.detail("harness.outside_coordinator_s", calls - coord, "s");
    out.detail("coordinator.supersteps", p.supersteps as f64, "count");
    out.detail("coordinator.windows", p.windows as f64, "count");
    out.detail("coordinator.null_windows", p.null_windows as f64, "count");
    out.detail(
        "coordinator.events_per_window",
        p.events as f64 / p.windows as f64,
        "events/window",
    );
    out.detail(
        "coordinator.lookahead_utilization",
        p.lookahead_utilization(),
        "ratio",
    );
    out.detail("coordinator.efficiency", p.efficiency(), "ratio");
    out.detail("coordinator.imbalance", p.imbalance(), "ratio");
    out.detail("coordinator.busy_s", ns_sum(&p.busy_ns), "s");
    out.detail("coordinator.blocked_s", ns_sum(&p.blocked_ns), "s");
    out.detail(
        "coordinator.speedup_vs_1shard",
        serial_calls / calls,
        "ratio",
    );
    out.notes.push(format!(
        "traced pass {wall:.3} s against untraced {plain_wall:.3} s; one shard {serial_calls:.3} s; {} events",
        p.events
    ));
    out
}
