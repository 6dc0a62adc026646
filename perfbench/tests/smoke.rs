//! A short run of every workload passes its checks and reports exactly
//! the metrics `BENCHMARK.json` names, with their units.
//!
//! Run with `cargo test --release`; a debug build works but is slow.

use perfbench::{run, WorkloadName};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string ends")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    perfbench::exit_on_panic();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WorkloadName::ALL {
        for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(w, 11, 0.2, traced);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} (traced: {traced})", w.label());
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0, "{}: failed operations", w.label());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn bypassed_layers_stay_idle() {
    perfbench::exit_on_panic();
    let value = |w: WorkloadName, name: &str| {
        run(w, 5, 0.2, true)
            .metrics
            .into_iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    // alloc-churn never defers: no deferred free, no grace-period probe.
    assert_eq!(
        value(WorkloadName::AllocChurn, "alloc_api.free_deferred.calls"),
        0.0
    );
    assert_eq!(value(WorkloadName::AllocChurn, "rcu.gp_wait_samples"), 0.0);
    // The epoch backend never scans hazard pointers; hp does.
    assert_eq!(value(WorkloadName::KvUpdate, "reclaim.scans"), 0.0);
    assert!(value(WorkloadName::KvUpdateHp, "reclaim.scans") > 0.0);
}
