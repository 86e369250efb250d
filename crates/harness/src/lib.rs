#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! # harness
//!
//! Discrete-event experiment harness for the LAMS-DLC reproduction.
//!
//! * [`node`] — re-export of netsim's generic [`node::Driver`] and the
//!   sans-IO [`node::TxEndpoint`] / [`node::RxEndpoint`] contract it
//!   implements for every protocol machine;
//! * [`link`] / [`traffic`] — re-exports of the netsim channel model
//!   and SDU generators (kept at their historical harness paths);
//! * [`scenario`] / [`duplex`] / [`relay`] — thin topology builders run
//!   as one netsim shard in one window: 2 nodes/1 link each way, 2
//!   duplex nodes/2 links, and an N+1-node store-and-forward chain
//!   (common random numbers across protocols);
//! * [`chain`] — the same relay chain split across threads by netsim's
//!   conservative coordinator (`repro --shards N`);
//! * [`metrics`] — per-run measurement collection and [`metrics::RunReport`];
//! * [`parallel`] / [`runner`] — the experiment runner: worker-thread
//!   fan-out with deterministic merging, CLI parsing, JSON reports;
//! * [`profile_report`] — rendering for `repro --profile` self-profiles
//!   (JSON document, human tables, folded flamegraph stacks);
//! * [`experiments`] — the E1–E18 suite regenerating every table and
//!   figure of the paper (see DESIGN.md for the index);
//! * [`report`] — plain-text table/series rendering.

pub mod chain;
pub mod duplex;
pub mod experiments;
pub mod metrics;
pub mod node;
pub mod parallel;
pub mod passes;
pub mod profile_report;
pub mod relay;
pub mod report;
pub mod runner;
pub mod scenario;

pub use netsim::{link, traffic};

pub use chain::{run_chain, run_chain_lams};
pub use duplex::{run_duplex, run_duplex_lams, run_duplex_sr, DuplexReport};
pub use metrics::{Collector, RunReport};
pub use netsim::link::{Channel, DelayModel, ErrorModel, Fate, Outage};
pub use netsim::traffic::{Pattern, TrafficGen};
pub use passes::{run_multi_pass, run_multi_pass_limited, MultiPassReport, PassSummary};
pub use relay::{run_relay, run_relay_lams, run_relay_sr, RelayConfig};
pub use scenario::{run, run_gbn, run_lams, run_sr, BurstCfg, ScenarioConfig};

#[cfg(test)]
mod tests {
    use crate::runner::run_experiments;

    fn ids(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn experiment_kernel_captures_perf() {
        let run = run_experiments(&ids(&["e1"]), true).remove(0);
        assert!(run.output.is_some());
        assert_eq!(run.audit.total_findings, 0, "e1: protocol audit failed");
        let (q, wall, runs) = run.perf.expect("e1 runs simulations");
        assert!(q.popped > 0);
        assert!(wall > 0.0);
        assert!(runs > 0);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(crate::experiments::run_by_id("e999", true).is_none());
        let run = run_experiments(&ids(&["e999"]), true).remove(0);
        assert!(run.output.is_none());
        assert!(run.perf.is_none(), "an unknown id runs no simulations");
    }

    #[test]
    fn total_absorbs_all_runs() {
        // Fold the per-experiment perf blocks into one quick-all total:
        // queue counters, wall seconds and run counts all add up.
        let runs = run_experiments(&ids(&["e1", "e7"]), true);
        let mut total = sim_core::QueueProfile::default();
        let (mut wall, mut count) = (0.0, 0);
        for (q, w, r) in runs.iter().filter_map(|r| r.perf.as_ref()) {
            total.absorb(q);
            wall += w;
            count += r;
        }
        let (qa, wa, ra) = runs[0].perf.expect("e1 perf");
        let (qb, wb, rb) = runs[1].perf.expect("e7 perf");
        assert_eq!(total.popped, qa.popped + qb.popped);
        assert_eq!(total.scheduled, qa.scheduled + qb.scheduled);
        assert!((wall - (wa + wb)).abs() < 1e-12);
        assert_eq!(count, ra + rb);
    }
}
