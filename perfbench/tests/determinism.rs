//! The deterministic counters are noise-free: two traced runs of each
//! workload at the same seed and a small size report identical counts,
//! and the traced runs simulate exactly what the untraced runs do.
//! `udp_loopback` counts depend on wall-clock timing and are not
//! compared here; `tests/transparency.rs` covers its wrappers.

use perfbench::{chain_sharded, model_check, sim_quick, Outcome};

// The binary's allocator, so the traced runs report `alloc.*` here too.
#[global_allocator]
static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;

fn small_sim() -> sim_quick::Size {
    sim_quick::Size {
        ids: vec!["e1", "e9"],
    }
}

fn small_chain() -> chain_sharded::Size {
    chain_sharded::Size {
        hops: vec![2, 4],
        sdus: 300,
    }
}

fn small_mc() -> model_check::Size {
    model_check::Size {
        batch: 20,
        batches: 2,
        traced: 60,
    }
}

/// The named metrics of `o`, which must all be present.
fn counts(o: &Outcome, names: &[&str]) -> Vec<(String, f64)> {
    names
        .iter()
        .map(|&n| {
            let v = o.get(n).unwrap_or_else(|| panic!("{n} missing from {o:?}"));
            (n.to_string(), v)
        })
        .collect()
}

fn assert_clean(o: &Outcome) {
    assert!(o.correct(), "{:?}", o.notes);
}

#[test]
fn sim_quick_counts_repeat_exactly() {
    const COUNTS: &[&str] = &[
        "netsim.events",
        "netsim.scheduled",
        "netsim.cancelled",
        "netsim.peak_depth",
        "monitor.records",
        "core.steps",
    ];
    let a = sim_quick::traced(&small_sim());
    let b = sim_quick::traced(&small_sim());
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(counts(&a, COUNTS), counts(&b, COUNTS));
    assert!(a.get("netsim.events").expect("present") > 0.0);
    assert!(a.get("alloc.count_per_sdu").expect("counting allocator") > 0.0);
}

#[test]
fn sim_quick_traced_pass_matches_untraced() {
    let (plain, _) = sim_quick::run_pass(&small_sim());
    let (traced, layers) = sim_quick::traced_pass(&small_sim());
    assert!(plain.iter().all(Result::is_ok), "{plain:?}");
    assert_eq!(plain, traced, "timing wrappers changed what was simulated");
    let records: u64 = traced.iter().flatten().map(|p| p.records).sum();
    assert_eq!(layers.forwarded, records);
    assert!(layers.observe_s > 0.0 && layers.observe_s < layers.sim_s);
}

#[test]
fn chain_sharded_counts_repeat_exactly() {
    const COUNTS: &[&str] = &[
        "coordinator.supersteps",
        "coordinator.windows",
        "coordinator.null_windows",
        "coordinator.events_per_window",
        "coordinator.lookahead_utilization",
        "core.steps",
    ];
    let a = chain_sharded::traced(&small_chain(), 11);
    let b = chain_sharded::traced(&small_chain(), 11);
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(counts(&a, COUNTS), counts(&b, COUNTS));
    assert!(a.get("coordinator.supersteps").expect("present") > 0.0);
}

#[test]
fn chain_sharded_seed_reaches_the_simulation() {
    let size = chain_sharded::Size {
        hops: vec![3],
        ..small_chain()
    };
    let a = chain_sharded::run_pass(&size, 1, 2);
    let b = chain_sharded::run_pass(&size, 2, 2);
    let serial = chain_sharded::run_pass(&size, 1, 1);
    assert!(a.iter().chain(&b).all(|r| r.error.is_none()));
    assert_eq!(a[0].witness, serial[0].witness, "one shard and two agree");
    assert_ne!(a[0].witness, b[0].witness, "seeds 1 and 2 simulate alike");
}

#[test]
fn model_check_counts_repeat_exactly() {
    const COUNTS: &[&str] = &[
        "mc.steps",
        "mc.complete",
        "mc.link_failures",
        "mc.retransmissions",
        "mc.enforced_naks",
        "core.steps",
    ];
    let a = model_check::traced(&small_mc(), 5);
    let b = model_check::traced(&small_mc(), 5);
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(counts(&a, COUNTS), counts(&b, COUNTS));
    let c = model_check::traced(&small_mc(), 6);
    assert_ne!(counts(&a, COUNTS), counts(&c, COUNTS), "seed has no effect");
}
