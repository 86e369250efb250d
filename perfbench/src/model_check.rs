//! `model_check`: adversarial schedules through the pure LAMS-DLC
//! machines — no engine, no monitor, no I/O. Schedule `k` of a run is
//! `model_check::Schedule::derive(first_index(seed) + k)`.
//! A declared link failure is a legitimate outcome; an invariant
//! violation fails the schedule. The SDUs a schedule delivers are its
//! whole offer when it completes, and those delivered before the
//! declaration when its link fails.

use crate::{
    add_alloc, alloc_since, peak_rss_mb, quantile, run_rounds, timed, Best, Layers, Outcome,
};
use model_check::{run_schedule_observed, Coverage, Outcome as McOutcome, Schedule};
use std::time::Instant;

/// How many schedules the runs take.
#[derive(Clone, Debug)]
pub struct Size {
    /// Schedules per timed batch of the end-to-end run.
    pub batch: u64,
    /// Distinct batches the end-to-end run cycles through: each round
    /// runs schedules `first..first + batch · batches` once more.
    pub batches: u64,
    /// Schedules in each pass of the traced run.
    pub traced: u64,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            batch: 500,
            batches: 8,
            traced: 5_000,
        }
    }
}

/// The first schedule index of `seed`'s range. Seeds (taken modulo
/// 2³²) own disjoint ranges of 2³² indices; seed 0 is the standard
/// `model-check` sweep.
pub fn first_index(seed: u64) -> u64 {
    (seed & 0xFFFF_FFFF) << 32
}

/// Deterministic totals over a range of schedules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Schedules that delivered everything.
    pub complete: u64,
    /// Schedules ending in a declared link failure.
    pub link_failures: u64,
    /// Schedules that broke an invariant.
    pub violations: u64,
    /// SDUs delivered in order.
    pub sdus: u64,
    /// Explorer steps.
    pub steps: u64,
    /// Sender retransmissions.
    pub retransmissions: u64,
    /// Enforced-recovery NAKs the receivers sent.
    pub enforced_naks: u64,
}

impl Tally {
    fn add(
        &mut self,
        sched: &Schedule,
        result: &Result<McOutcome, model_check::Violation>,
        cov: &Coverage,
    ) {
        match result {
            Ok(McOutcome::Complete { .. }) => {
                self.complete += 1;
                self.sdus += sched.sdus;
            }
            Ok(McOutcome::LinkFailed { delivered }) => {
                self.link_failures += 1;
                self.sdus += delivered;
            }
            Err(_) => self.violations += 1,
        }
        self.steps += cov.steps;
        self.retransmissions += cov.retransmissions;
        self.enforced_naks += cov.enforced_naks;
    }

    fn merge(&mut self, other: &Tally) {
        self.complete += other.complete;
        self.link_failures += other.link_failures;
        self.violations += other.violations;
        self.sdus += other.sdus;
        self.steps += other.steps;
        self.retransmissions += other.retransmissions;
        self.enforced_naks += other.enforced_naks;
    }
}

/// What the traced pass measures around each `run_schedule_observed`
/// call.
#[derive(Debug, Default)]
pub struct Calls {
    /// Wall microseconds of each call.
    pub times_us: Vec<f64>,
    /// Allocations during the calls, when the counting allocator is
    /// installed.
    pub alloc: Option<profile::alloc::AllocSnapshot>,
}

/// Run schedules `first..first + count`, counting each into `out` and
/// `tally`. With `calls`, each call is timed and its allocations
/// counted.
pub fn run_range(
    first: u64,
    count: u64,
    out: &mut Outcome,
    tally: &mut Tally,
    mut calls: Option<&mut Calls>,
) {
    for index in first..first + count {
        let sched = Schedule::derive(index);
        let a0 = profile::alloc::snapshot();
        let t0 = Instant::now();
        let (result, cov) = run_schedule_observed(&sched);
        if let Some(calls) = calls.as_deref_mut() {
            calls.times_us.push(t0.elapsed().as_secs_f64() * 1e6);
            calls.alloc = add_alloc(calls.alloc, alloc_since(a0));
        }
        tally.add(&sched, &result, &cov);
        out.check(result.err().map(|v| format!("schedule {index}: {v}")));
    }
}

/// The end-to-end run: rounds over the seed's first `size.batches`
/// batches for `seconds`; the set-up is a run of its first batch.
pub fn measure(size: &Size, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let first = first_index(seed);
    let (mut best, mut rates) = (Best::default(), Vec::new());
    let mut round = Tally::default();
    let mut tally = Tally::default();
    let warm_up =
        |out: &mut Outcome| run_range(first, size.batch, out, &mut Tally::default(), None);
    let (setup_s, rounds) = run_rounds(&mut out, seconds, warm_up, |out| {
        let mut this_round = Tally::default();
        for k in 0..size.batches {
            let mut batch = Tally::default();
            let start = first + k * size.batch;
            let ((), wall_s, cpu_s) = timed(|| run_range(start, size.batch, out, &mut batch, None));
            best.record(k as usize, wall_s, cpu_s);
            rates.push(batch.sdus as f64 / wall_s);
            this_round.merge(&batch);
        }
        tally.merge(&this_round);
        round = this_round;
    });
    let schedules = (size.batch * size.batches) as f64;
    out.notes.push(crate::spread_note(&rates));
    out.push("setup_s", setup_s, "s");
    out.push("sdu_per_s", round.sdus as f64 / best.wall_s(), "SDU/s");
    out.push(
        "cpu_us_per_sdu",
        best.cpu_s() * 1e6 / round.sdus as f64,
        "us",
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.detail("schedules_per_s", schedules / best.wall_s(), "schedules/s");
    out.notes.push(format!(
        "{rounds} round(s) over schedules {first}..{}: {} complete, {} link failures, \
         {} violations, {} SDUs delivered",
        first + size.batch * size.batches,
        tally.complete,
        tally.link_failures,
        tally.violations,
        tally.sdus
    ));
    out
}

/// The traced run: the seed's first `size.traced` schedules untraced,
/// then again with every `run_schedule_observed` call timed; both
/// passes must give the same tally.
pub fn traced(size: &Size, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let first = first_index(seed);
    run_range(first, size.batch, &mut out, &mut Tally::default(), None);
    let mut plain = Tally::default();
    let t0 = Instant::now();
    run_range(first, size.traced, &mut out, &mut plain, None);
    let plain_wall = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut calls = Calls {
        times_us: Vec::with_capacity(size.traced as usize),
        alloc: Some(Default::default()),
    };
    let t0 = Instant::now();
    run_range(first, size.traced, &mut out, &mut tally, Some(&mut calls));
    let wall = t0.elapsed().as_secs_f64();
    if tally != plain {
        out.check(Some(format!(
            "traced tally {tally:?} differs from untraced {plain:?}"
        )));
    }
    let times = &calls.times_us;
    let calls_s: f64 = times.iter().sum::<f64>() / 1e6;
    out.push_layers(&Layers {
        wall_s: wall,
        plain_wall_s: plain_wall,
        entry_s: calls_s,
        core_s: calls_s,
        core_steps: tally.steps,
        sdus: tally.sdus,
        alloc: calls.alloc,
    });
    out.detail("mc.schedule_us_p50", quantile(times, 0.5), "us");
    out.detail("mc.schedule_us_p99", quantile(times, 0.99), "us");
    out.detail("mc.steps", tally.steps as f64, "count");
    out.detail("mc.ns_per_step", calls_s * 1e9 / tally.steps as f64, "ns");
    out.detail("mc.complete", tally.complete as f64, "count");
    out.detail("mc.link_failures", tally.link_failures as f64, "count");
    out.detail("mc.retransmissions", tally.retransmissions as f64, "count");
    out.detail("mc.enforced_naks", tally.enforced_naks as f64, "count");
    out.notes.push(format!(
        "traced pass {wall:.3} s against untraced {plain_wall:.3} s over {} schedules",
        size.traced
    ));
    out
}
