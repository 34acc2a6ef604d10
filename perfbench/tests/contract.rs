//! The benchmark's own contract: `BENCHMARK.json` declares exactly the
//! metrics the program emits, every name is well formed, generated inputs
//! are seed-deterministic, and simulated quantities repeat exactly.

use std::path::Path;

use svmsyn_perfbench::bench::{self, Args, Ctx, WORKLOADS};
use svmsyn_perfbench::input_fingerprint;
use svmsyn_perfbench::json::{self, Json};
use svmsyn_perfbench::metrics::{valid_name, Metric, Values, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_program_metrics() {
    let doc = benchmark_json();
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn every_metric_name_is_well_formed() {
    let doc = benchmark_json();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in declared(&doc, key) {
            assert!(valid_name(&name), "{key}: {name}");
        }
    }
}

#[test]
fn generators_are_seed_deterministic() {
    for w in WORKLOADS {
        let a = input_fingerprint(w, 7).unwrap();
        assert_eq!(
            a,
            input_fingerprint(w, 7).unwrap(),
            "{w}: same seed, different inputs"
        );
        assert_ne!(
            a,
            input_fingerprint(w, 8).unwrap(),
            "{w}: different seeds, same inputs"
        );
    }
}

/// Runs every workload briefly in both modes: each emits exactly its
/// declared metrics, passes every output check, and reproduces its
/// simulated quantities and statistics digest exactly.
#[test]
fn every_workload_emits_its_declared_metrics_and_repeats_exactly() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-contract");
    std::fs::create_dir_all(&out).unwrap();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for trace in [false, true] {
            let args = Args {
                workload: w.to_string(),
                seed: 3,
                seconds: 0.0,
                trace,
            };
            let mut ctx = Ctx::new();
            let report = bench::run(&mut ctx, &args, &out).expect("known workload");
            assert_eq!(report.values.problems(trace), Vec::<String>::new(), "{w}");
            assert_eq!(ctx.checks.failed, 0, "{w}: output checks failed");
            assert!(ctx.checks.attempted > 0);
            let line = report
                .values
                .result_line(trace, true, ctx.checks.attempted, 0);
            let parsed = json::parse(&line).expect("result line is JSON");
            let emitted = match parsed.get("metrics") {
                Some(Json::Obj(m)) => m.keys().cloned().collect::<Vec<_>>(),
                _ => panic!("metrics object"),
            };
            let mut want: Vec<String> = Values::declared(trace)
                .iter()
                .map(|m| m.name.to_string())
                .collect();
            want.sort();
            assert_eq!(emitted, want, "{w}");
            runs.push(report);
        }
        assert_eq!(runs[0].fingerprint, runs[1].fingerprint, "{w}: digest");
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                runs[0].values.get(m.name),
                runs[1].values.get(m.name),
                "{w}: {} is a simulated quantity and must repeat",
                m.name
            );
        }
    }
}
