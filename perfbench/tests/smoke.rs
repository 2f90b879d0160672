//! A tiny-input run of every workload prints every metric that
//! `BENCHMARK.json` lists, by name and with its unit, and no failures.

use std::process::Command;

use retime_serve::json::{parse, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap()
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = manifest.get(key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{workload}-{trace}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.01",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().unwrap()).unwrap()
}

#[test]
fn smoke_runs_print_every_metric_with_its_unit() {
    let manifest = manifest();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(&manifest, key);
        for workload in ["table4_full", "certify_small", "serve_mix"] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, expected, "{workload} --trace {trace}");
            assert!(metrics
                .iter()
                .all(|(_, m)| m.get("value").and_then(Json::as_f64).is_some()));
        }
    }
}
