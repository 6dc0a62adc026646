//! `bench validate` against every kind of committed result file, and
//! against malformed files it must refuse.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn bench_validate(files: &[PathBuf]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("validate")
        .args(files)
        .output()
        .expect("run bench");
    let text =
        String::from_utf8_lossy(&out.stdout).to_string() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

#[test]
fn committed_result_files_validate() {
    let files: Vec<_> = [
        "BENCH_fig6.json",
        "BENCH_alloc_cost.json",
        "BENCH_server.json",
        "results/figures.json",
    ]
    .iter()
    .map(|f| repo_file(f))
    .collect();
    let (ok, text) = bench_validate(&files);
    assert!(ok, "{text}");
    assert_eq!(text.matches(": OK").count(), 4, "{text}");
}

/// A minimal well-formed run file: one run with meta and one summary.
fn good_file() -> Value {
    serde_json::from_str(
        r#"{"runs": {"a": {
            "meta": {"git_rev": "abc", "nproc": 2, "kernel": "k", "fastpath_engine": "rseq",
                     "fastpath_override": null, "reclaim_backend": "epoch",
                     "reclaim_override": null, "threads": [1, 2]},
            "hit_ns": {"samples": [5.0, 1.0, 4.0, 2.0, 3.0],
                       "median": 3.0, "min": 1.0, "q1": 2.0, "q3": 4.0}}},
           "legacy": {"old": [{"anything": 1}]}}"#,
    )
    .unwrap()
}

/// Applies `edit` to the value at `path` (object keys) inside `root`.
fn edit(mut root: Value, path: &[&str], edit: impl FnOnce(&mut Value)) -> Value {
    let mut at = &mut root;
    for key in path {
        let Value::Map(entries) = at else {
            panic!("not an object at {key}")
        };
        at = &mut entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key present")
            .1;
    }
    edit(at);
    root
}

fn check(dir: &Path, name: &str, value: &Value) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()).unwrap();
    pbs_bench::validate(&path)
}

#[test]
fn malformed_files_are_refused() {
    let dir = std::env::temp_dir().join(format!("pbs-bench-validate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ok = check(&dir, "good.json", &good_file()).expect("the fixture itself is valid");
    assert!(ok.contains("1 runs (1 legacy), 1 summaries"), "{ok}");

    let remove = |key: &'static str| {
        move |v: &mut Value| {
            if let Value::Map(entries) = v {
                entries.retain(|(k, _)| k != key);
            }
        }
    };
    let cases = [
        (
            "no meta",
            edit(good_file(), &["runs", "a"], remove("meta")),
            "missing \"meta\"",
        ),
        (
            "bad meta",
            edit(good_file(), &["runs", "a", "meta"], remove("nproc")),
            "meta:",
        ),
        (
            "no summary",
            edit(good_file(), &["runs", "a"], remove("hit_ns")),
            "records no summary",
        ),
        (
            "few samples",
            edit(good_file(), &["runs", "a", "hit_ns", "samples"], |v| {
                *v = serde_json::from_str("[1.0, 2.0, 3.0]").unwrap();
            }),
            "fewer than 5",
        ),
        (
            "stale median",
            edit(good_file(), &["runs", "a", "hit_ns", "median"], |v| {
                *v = Value::F64(9.0)
            }),
            "do not match",
        ),
        (
            "stray key",
            edit(good_file(), &[], |v| {
                if let Value::Map(entries) = v {
                    entries.push(("figure6".into(), Value::Seq(Vec::new())));
                }
            }),
            "unexpected top-level key",
        ),
        (
            "legacy only",
            edit(good_file(), &[], remove("runs")),
            "missing \"runs\"",
        ),
    ];
    for (what, value, expected) in cases {
        let err = check(&dir, "bad.json", &value).expect_err(what);
        assert!(err.contains(expected), "{what}: {err}");
    }

    // A server run whose report records a violated gate.
    let server: Value =
        serde_json::from_str(&std::fs::read_to_string(repo_file("BENCH_server.json")).unwrap())
            .unwrap();
    let Value::Map(top) = &server else { panic!() };
    let Value::Map(runs) = &top.iter().find(|(k, _)| k == "runs").unwrap().1 else {
        panic!()
    };
    let label = runs[0].0.clone();
    let failed = edit(server.clone(), &["runs", label.as_str()], |run| {
        let Value::Map(fields) = run else { panic!() };
        let Value::Seq(reports) = &mut fields.iter_mut().find(|(k, _)| k == "reports").unwrap().1
        else {
            panic!()
        };
        let Value::Map(report) = &mut reports[0] else {
            panic!()
        };
        report
            .iter_mut()
            .find(|(k, _)| k == "violations")
            .unwrap()
            .1 = serde_json::from_str(r#"["alloc p99.9 over the gate"]"#).unwrap();
    });
    let err = check(&dir, "server.json", &failed).expect_err("violated gate");
    assert!(err.contains("has violations"), "{err}");

    // The binary reports the failure through its exit status.
    let (ok, text) = bench_validate(&[dir.join("good.json"), dir.join("server.json")]);
    assert!(!ok, "{text}");
    assert!(
        text.contains("good.json: 1 runs"),
        "every file is still checked: {text}"
    );
    std::fs::remove_dir_all(dir).unwrap();
}
