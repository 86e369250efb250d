//! `BENCHMARK.json` is well formed, and it lists exactly the metrics
//! every workload reports: each untraced run reports every end-to-end
//! metric, and each traced run every per-layer metric.

use perfbench::{chain_sharded, model_check, sim_quick, udp_loopback, Outcome, LISTED};
use std::collections::BTreeSet;
use telemetry::Json;

#[global_allocator]
static ALLOC: profile::alloc::CountingAlloc = profile::alloc::CountingAlloc;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("object expected, got {v:?}"),
    }
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` of each metric of one section, checking its keys.
fn section(doc: &Json, key: &str, bounded: bool) -> Vec<(String, String)> {
    let metrics = doc.get(key).and_then(Json::as_arr).expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let want: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(m), want);
            let (name, unit) = (str_of(m, "name"), str_of(m, "unit"));
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(["higher", "lower"].contains(&str_of(m, "better")));
            if bounded {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            }
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let doc = benchmark();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .map(|p| p.as_str().expect("path string"))
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command = doc.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("string argument");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(arg.starts_with("perfbench/"), "{arg} lies outside paths");
        }
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("seconds");
    assert!((1..=60).contains(&run_seconds));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            str_of(w, "name")
        })
        .collect();
    assert_eq!(workloads, LISTED);

    let e2e = section(&doc, "end_to_end", true);
    let layers = section(&doc, "per_layer", false);
    let mut names = BTreeSet::new();
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(names.insert(name.clone()), "{name} listed twice");
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|ms| ms.iter().find(|m| str_of(m, "name") == "setup_s"))
        .expect("setup_s listed");
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let largest = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(bound)
        .fold(0.0, f64::max);
    assert_eq!(bound(setup), largest, "setup_s has the largest bound");
}

/// `(name, unit)` pairs an outcome reports.
fn reported(o: &Outcome) -> BTreeSet<(String, String)> {
    assert!(o.correct(), "{:?}", o.notes);
    o.metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            (m.name.to_string(), m.unit.to_string())
        })
        .collect()
}

#[test]
fn workloads_report_exactly_the_listed_metrics() {
    let sim = sim_quick::Size { ids: vec!["e1"] };
    let chain = chain_sharded::Size {
        hops: vec![2],
        sdus: 200,
    };
    let udp = udp_loopback::Size { sdus: 300 };
    let mc = model_check::Size {
        batch: 20,
        batches: 2,
        traced: 40,
    };
    let untraced = [
        sim_quick::measure(&sim, 0.01),
        chain_sharded::measure(&chain, 3, 0.01),
        udp_loopback::measure(&udp, 0.01),
        model_check::measure(&mc, 3, 0.01),
    ];
    let traced = [
        sim_quick::traced(&sim),
        chain_sharded::traced(&chain, 3),
        udp_loopback::traced(&udp),
        model_check::traced(&mc, 3),
    ];
    let doc = benchmark();
    for (outcomes, key, bounded) in [
        (&untraced, "end_to_end", true),
        (&traced, "per_layer", false),
    ] {
        let listed: BTreeSet<(String, String)> = section(&doc, key, bounded).into_iter().collect();
        for o in outcomes {
            assert_eq!(reported(o), listed, "{key}");
            for d in &o.details {
                assert!(
                    !listed.iter().any(|(name, _)| name == d.name),
                    "{} is both a detail and a listed metric",
                    d.name
                );
            }
        }
    }
    for o in untraced.iter().chain(&traced) {
        for m in &o.metrics {
            assert!(m.value != 0.0, "{} reads 0", m.name);
        }
    }
}
