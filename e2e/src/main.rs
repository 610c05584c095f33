//! `e2e`: the repository's end-to-end, layer-attributed benchmark.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! e2e [--seed N] [--seconds S] [--runs K] [--trace]      every workload, each run a child process
//! e2e --smoke                                            tiny fleets, every check, a few seconds
//! e2e --compare A.json B.json                            bounds applied row by row
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how they are expected to interact.

mod check;
mod compare;
mod drive;
mod heap;
mod inputs;
mod metrics;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use serde_json::{json, Value};

use crate::metrics::unit_of;
use crate::run::{RunOptions, RunReport, SETUP_ROUNDS};
use crate::spec::Spec;

/// Arrivals a `--smoke` window stops at.
const SMOKE_ARRIVALS: usize = 64;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub smoke: bool,
    pub compare: Option<(String, String)>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 1,
            seconds: 8.0,
            trace: false,
            runs: 1,
            smoke: false,
            compare: None,
        }
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--runs" => {
                args.runs = value(&mut it, flag)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            // `--trace 0|1` in the contract form, a bare flag otherwise.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b)
    } else if let Some(name) = &args.workload {
        match spec::find(name) {
            Some(spec) => single_run(spec, &args),
            None => {
                eprintln!("e2e: unknown workload {name}");
                return ExitCode::from(2);
            }
        }
    } else {
        suite::run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process. Prints a `workload metric value unit` line
/// per metric, a `#detail` line for the suite, and — last — the result
/// object the acceptance driver reads.
fn single_run(spec: &Spec, args: &Args) -> bool {
    let spec = if args.smoke { spec.smoke() } else { spec.clone() };
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        max_arrivals: if args.smoke { SMOKE_ARRIVALS } else { usize::MAX },
        setup_rounds: if args.smoke { 1 } else { SETUP_ROUNDS },
        out: run::output_dir(),
    };
    let report = run::run(&spec, &opts);
    for error in &report.errors {
        eprintln!("e2e: {}: CHECK FAILED: {error}", spec.name);
    }
    print!("{}", render(&spec, args.trace, &report));
    report.errors.is_empty()
}

fn render(spec: &Spec, trace: bool, report: &RunReport) -> String {
    let mut out = String::new();
    let mut metrics = serde_json::Map::new();
    for &(name, value) in &report.metrics {
        let unit = unit_of(name);
        out.push_str(&format!("{} {name} {value} {unit}\n", spec.name));
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    for (name, value) in &report.notes {
        out.push_str(&format!("{} ({name} {value})\n", spec.name));
    }
    let f = &report.failures;
    let detail = json!({
        "workload": (spec.name),
        "trace": trace,
        "placed": (report.placed),
        "released": (report.released),
        "rejected": (f.rejected),
        "shed": (f.shed),
        "durability_rejected": (f.durability),
        "panics": (f.panics),
        "failed_releases": (f.releases),
        "digests": (Value::Object(
            report.digests.iter().map(|(n, hex)| (n.to_string(), json!(hex))).collect()
        )),
        "notes": (Value::Object(
            report.notes.iter().map(|(k, v)| (k.clone(), json!(*v))).collect()
        )),
    });
    out.push_str(&format!("#detail {}\n", serde_json::to_string(&detail).expect("serializable")));
    let result = json!({
        "correct": (report.errors.is_empty()),
        "attempted": (report.attempted.max(1)),
        "failed": (report.failures.total()),
        "metrics": (Value::Object(metrics)),
    });
    out.push_str(&serde_json::to_string(&result).expect("serializable"));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_and_the_suite_forms() {
        let words = |line: &str| argv(&line.split(' ').collect::<Vec<_>>());
        let a = parse(&words("--workload steady_eg --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("steady_eg"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(parse(&argv(&["--trace", "1", "--seed", "2"])).unwrap().trace);
        let bare = parse(&argv(&["--trace", "--seed", "2"])).unwrap();
        assert!(bare.trace && bare.seed == 2);
        assert!(parse(&argv(&["--trace"])).unwrap().trace);
        assert_eq!(parse(&[]).unwrap(), Args::default());
        let c = parse(&argv(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
        assert!(parse(&argv(&["--compare", "a.json"])).is_err());
        assert!(parse(&argv(&["--seconds", "0"])).is_err());
        assert!(parse(&argv(&["--seed", "x"])).is_err());
        assert!(parse(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            metrics: vec![("setup_s", 0.8127), ("place_p50_ms", 1.2034)],
            attempted: 1000,
            digests: vec![(16, "00ff".into())],
            ..RunReport::default()
        };
        let text = render(&spec::WORKLOADS[0], false, &report);
        let last = text.lines().last().unwrap();
        let v: Value = serde_json::from_str(last).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["place_p50_ms"]["unit"].as_str(), Some("ms"));
        assert!(text.lines().any(|l| l == "steady_eg setup_s 0.8127 s"));
        let detail = text.lines().find_map(|l| l.strip_prefix("#detail ")).unwrap();
        let d: Value = serde_json::from_str(detail).unwrap();
        assert_eq!(d["digests"]["16"].as_str(), Some("00ff"));
    }
}
