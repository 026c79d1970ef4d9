//! The benchmark's own test: a tiny-budget pass of every workload, untraced
//! and traced, on the development seed. Every pass must exit 0 with
//! `"correct": true` (which includes matching `golden.txt`), and print
//! exactly the metrics `BENCHMARK.json` declares for its mode, with the
//! declared units.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "virtual_cell",
    "virtual_faults",
    "threads_saturate",
    "socket_saturate",
];

/// `(name, unit)` of every metric in one array section of BENCHMARK.json.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        obj[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// `(name, unit)` of every metric in the benchmark's JSON result line.
fn printed(line: &str) -> BTreeMap<String, String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("{\"value\"")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("metric name").to_string();
            let unit = w[1].split("\"unit\": \"").nth(1).expect("unit");
            (name, unit.split('"').next().expect("unit ends").to_string())
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn every_workload_passes_its_checks_and_prints_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let args = [
                "--workload",
                workload,
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--tiny",
            ];
            let (ok, stdout) = run(&args);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
            assert_eq!(printed(last), want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let (ok, stdout) = run(&["--workload", "nope", "--seed", "1"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
