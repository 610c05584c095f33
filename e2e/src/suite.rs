//! Every workload, each run in a fresh child process (so peak RSS and
//! allocator state do not leak from one to the next), collected into
//! one result document that `--compare` reads.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::{json, Map, Value};

use crate::compare::{common_digest, show};
use crate::metrics::{definitions, unit_of, END_TO_END, PER_LAYER};
use crate::run::{ensure_dir, output_dir};
use crate::spec::{Spec, WORKLOADS};
use crate::stats::median;
use crate::Args;

/// What a child run printed, parsed back.
struct Child {
    ok: bool,
    metrics: Vec<(String, f64)>,
    detail: Value,
}

fn spawn(spec: &Spec, args: &Args, seconds: f64, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().expect("re-execute the benchmark for one workload");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut child = Child { ok: output.status.success(), metrics: Vec::new(), detail: Value::Null };
    if let Some(detail) = stdout.lines().find_map(|l| l.strip_prefix("#detail ")) {
        child.detail = serde_json::from_str(detail).unwrap_or(Value::Null);
    }
    match stdout.lines().last().map(serde_json::from_str::<Value>) {
        Some(Ok(result)) => {
            child.ok &= result["correct"].as_bool() == Some(true);
            if let Some(metrics) = result["metrics"].as_object() {
                child.metrics = metrics
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v["value"].as_f64()?)))
                    .collect();
            }
        }
        _ => child.ok = false,
    }
    child
}

fn environment() -> Value {
    let tool = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    json!({
        "cores": (std::thread::available_parallelism().map_or(1, |n| n.get())),
        "simd": (cfg!(feature = "simd")),
        "rustc": (tool("rustc", &["-V"])),
        "commit": (tool("git", &["rev-parse", "--short", "HEAD"])),
    })
}

/// What `name` read in each of `runs`.
fn values_of(runs: &[Child], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|&(_, v)| v)).collect()
}

/// `{name: {unit, values}}` over the runs made, in table order.
fn collect(names: impl Iterator<Item = &'static str>, runs: &[Child]) -> Value {
    let mut out = Map::new();
    for name in names {
        out.insert(
            name.to_string(),
            json!({"unit": (unit_of(name)), "values": (values_of(runs, name))}),
        );
    }
    Value::Object(out)
}

pub fn run(args: &Args) -> bool {
    let out_dir = output_dir();
    ensure_dir(&out_dir);
    let trace = args.trace || args.smoke;
    let mut ok = true;
    let mut workloads = Vec::new();

    for spec in &WORKLOADS {
        let untraced: Vec<Child> =
            (0..args.runs).map(|_| spawn(spec, args, args.seconds, false)).collect();
        // Same seed, again: on closed-loop workloads the decisions
        // must repeat. A quarter-length run is enough to tell.
        let again = spawn(spec, args, (args.seconds / 4.0).max(1.0), false);
        let traced = trace.then(|| spawn(spec, args, args.seconds, true));

        let mut problems = Vec::new();
        let all = untraced.iter().chain([&again]).chain(traced.as_ref());
        if all.clone().any(|c| !c.ok) {
            problems.push("a run failed its checks".to_string());
        }
        if all.clone().any(|c| failed(&c.detail) != 0) {
            problems.push("requests failed (failed_share > 0)".to_string());
        }
        let first = &untraced[0].detail;
        if spec.closed_loop() {
            for other in all.skip(1) {
                let which = if other.detail["trace"].as_bool() == Some(true) {
                    "traced vs untraced"
                } else {
                    "same-seed re-run"
                };
                match common_digest(&first["digests"], &other.detail["digests"]) {
                    Some((_, true)) => {}
                    Some((n, false)) => {
                        problems.push(format!("decisions differ within the first {n} ({which})"));
                    }
                    None => problems.push(format!("no decision digest to compare ({which})")),
                }
            }
        }

        report_workload(spec, &untraced, traced.as_ref());
        for problem in &problems {
            eprintln!("e2e: {}: CHECK FAILED: {problem}", spec.name);
        }
        ok &= problems.is_empty();
        workloads.push(json!({
            "name": (spec.name),
            "closed_loop": (spec.closed_loop()),
            "hosts": (if args.smoke { spec.smoke().hosts() } else { spec.hosts() }),
            "resident": (if args.smoke { spec.smoke().resident } else { spec.resident }),
            "digests": (first["digests"].clone()),
            "checks_passed": (problems.is_empty()),
            "detail": (first.clone()),
            "trace_detail": (traced.as_ref().map_or(Value::Null, |t| t.detail.clone())),
            "end_to_end": (collect(END_TO_END.iter().map(|m| m.name), &untraced)),
            "per_layer": (collect(PER_LAYER.iter().map(|m| m.name), traced.as_slice())),
        }));
    }

    let document = json!({
        "benchmark": "ostro e2e",
        "env": (environment()),
        "seed": (args.seed),
        "seconds": (args.seconds),
        "runs": (args.runs),
        "smoke": (args.smoke),
        "metrics": (definitions()),
        "workloads": workloads,
    });
    let name =
        if args.smoke { "result-smoke.json".into() } else { format!("result-{}.json", args.seed) };
    ok &= write(&out_dir.join(name), &document);
    println!("{}", if ok { "e2e: all checks passed" } else { "e2e: CHECKS FAILED" });
    ok
}

fn failed(detail: &Value) -> u64 {
    ["rejected", "shed", "durability_rejected", "panics", "failed_releases"]
        .iter()
        .map(|k| detail[*k].as_u64().unwrap_or(0))
        .sum()
}

fn write(path: &Path, document: &Value) -> bool {
    let text = serde_json::to_string_pretty(document).expect("serializable") + "\n";
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// One `workload metric value unit` line per metric (the median over
/// the runs made), then the counts behind them.
fn report_workload(spec: &Spec, untraced: &[Child], traced: Option<&Child>) {
    let notes = |detail: &Value| {
        for (k, v) in detail["notes"].as_object().into_iter().flat_map(Map::iter) {
            println!("{} ({k} {})", spec.name, show(v));
        }
    };
    for m in &END_TO_END {
        let value = median(&values_of(untraced, m.name));
        println!("{} {} {value} {}", spec.name, m.name, m.unit);
    }
    let d = &untraced[0].detail;
    println!(
        "{} (placed {} released {} rejected {} shed {} durability_rejected {} panics {} failed_releases {}; decision digests {})",
        spec.name,
        show(&d["placed"]),
        show(&d["released"]),
        show(&d["rejected"]),
        show(&d["shed"]),
        show(&d["durability_rejected"]),
        show(&d["panics"]),
        show(&d["failed_releases"]),
        show(&d["digests"]),
    );
    notes(d);
    if let Some(traced) = traced {
        for (name, value) in &traced.metrics {
            println!("{} {name} {value} {}", spec.name, unit_of(name));
        }
        notes(&traced.detail);
    }
}
