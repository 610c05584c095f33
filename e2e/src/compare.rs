//! `e2e --compare A.json B.json`: the end-to-end bounds applied row by
//! row, one row per workload × metric, A the baseline.

use serde_json::Value;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, ratio, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// One input's own run-to-run spread exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn classify(metric: &EndToEnd, baseline: &[f64], change: &[f64]) -> Verdict {
    if spread(baseline).max(spread(change)) > metric.bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(baseline), median(change));
    let worse_by = match metric.better {
        Better::Lower => ratio(b - a, a.abs()),
        Better::Higher => ratio(a - b, a.abs()),
    };
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(workload: &Value, metric: &str) -> Vec<f64> {
    workload["end_to_end"][metric]["values"]
        .as_array()
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Why two result documents must not be compared, if they must not:
/// a different core count or scoring kernel measures something else.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    ["cores", "simd"].into_iter().find(|stamp| a["env"][*stamp] != b["env"][*stamp]).map(|stamp| {
        format!(
            "`{stamp}` differs ({} vs {}): these results do not measure the same thing",
            show(&a["env"][stamp]),
            show(&b["env"][stamp])
        )
    })
}

/// Compares two runs' decision digests at the longest horizon both
/// reached: `(placements, identical)`, or `None` if they share none.
pub fn common_digest(a: &Value, b: &Value) -> Option<(String, bool)> {
    let (a, b) = (a.as_object()?, b.as_object()?);
    a.iter()
        .filter_map(|(horizon, digest)| Some((horizon, digest == b.get(horizon)?)))
        .max_by_key(|(horizon, _)| horizon.parse::<usize>().unwrap_or(0))
        .map(|(horizon, same)| (horizon.clone(), same))
}

pub fn show(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Prints the comparison; false if it was refused or any row is worse.
pub fn compare_files(a_path: &str, b_path: &str) -> bool {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("e2e: {e}");
            }
            return false;
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("e2e: refusing to compare: {why}");
        return false;
    }
    let empty = Vec::new();
    let b_workloads = b["workloads"].as_array().unwrap_or(&empty);
    let mut tally = [0usize; 4];
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in a["workloads"].as_array().unwrap_or(&empty) {
        let name = wa["name"].as_str().unwrap_or("?");
        let Some(wb) = b_workloads.iter().find(|w| w["name"] == wa["name"]) else {
            println!("{name:<14} missing from {b_path}");
            tally[Verdict::Unresolved as usize] += 1;
            continue;
        };
        for metric in &END_TO_END {
            let (va, vb) = (values(wa, metric.name), values(wb, metric.name));
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Unresolved
            } else {
                classify(metric, &va, &vb)
            };
            tally[verdict as usize] += 1;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name:<14} {:<20} {ma:>14.6} {mb:>14.6} {:>+7.1}%  {}",
                metric.name,
                ratio(mb - ma, ma.abs()) * 100.0,
                verdict.as_str(),
            );
        }
        if wa["closed_loop"].as_bool() == Some(true) {
            match common_digest(&wa["digests"], &wb["digests"]) {
                Some((n, true)) => println!("{name:<14} decisions unchanged over the first {n}"),
                Some((n, false)) => println!("{name:<14} decisions CHANGED within the first {n}"),
                None => println!("{name:<14} decisions not comparable (no common horizon)"),
            }
        }
    }
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        tally[Verdict::Better as usize],
        tally[Verdict::Same as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize],
    );
    tally[Verdict::Worse as usize] == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const LATENCY: &EndToEnd =
        &EndToEnd { name: "latency", unit: "ms", better: Better::Lower, bound: 0.10, meaning: "" };
    const RATE: &EndToEnd =
        &EndToEnd { name: "rate", unit: "1/s", better: Better::Higher, bound: 0.10, meaning: "" };

    #[test]
    fn bounds_classify_in_the_metrics_own_direction() {
        let (latency, rate) = (LATENCY, RATE);
        assert_eq!(classify(latency, &[10.0], &[10.9]), Verdict::Same);
        assert_eq!(classify(latency, &[10.0], &[11.2]), Verdict::Worse);
        assert_eq!(classify(latency, &[10.0], &[8.5]), Verdict::Better);
        assert_eq!(classify(rate, &[100.0], &[95.0]), Verdict::Same);
        assert_eq!(classify(rate, &[100.0], &[85.0]), Verdict::Worse);
        assert_eq!(classify(rate, &[100.0], &[115.0]), Verdict::Better);
        // Medians decide, not single runs.
        assert_eq!(classify(latency, &[10.0, 10.1, 9.9], &[10.2, 30.0, 10.0]), Verdict::Unresolved);
        assert_eq!(classify(latency, &[10.0, 10.1, 9.9], &[10.2, 10.3, 10.0]), Verdict::Same);
    }

    #[test]
    fn noisy_inputs_are_unresolved_not_same() {
        let latency = LATENCY;
        // IQR/median of the change far above the 10 % bound.
        let noisy = [8.0, 10.0, 12.0, 14.0, 9.0];
        assert_eq!(classify(latency, &[10.0, 10.0, 10.1], &noisy), Verdict::Unresolved);
        assert_eq!(classify(latency, &noisy, &[10.0, 10.0, 10.1]), Verdict::Unresolved);
    }

    #[test]
    fn digests_compare_at_the_longest_common_horizon() {
        let short = json!({"16": "aa", "32": "bb"});
        let long = json!({"16": "aa", "32": "bb", "64": "cc", "128": "dd"});
        let forked = json!({"16": "aa", "32": "xx", "64": "yy"});
        assert_eq!(common_digest(&short, &long), Some(("32".into(), true)));
        assert_eq!(common_digest(&long, &forked), Some(("64".into(), false)));
        assert_eq!(common_digest(&short, &forked), Some(("32".into(), false)));
        assert_eq!(common_digest(&short, &json!({})), None);
        assert_eq!(common_digest(&Value::Null, &long), None);
    }

    #[test]
    fn differing_stamps_refuse() {
        let doc = |cores: u64, simd: bool| json!({"env": {"cores": cores, "simd": simd}});
        assert!(refusal(&doc(2, false), &doc(2, false)).is_none());
        assert!(refusal(&doc(2, false), &doc(4, false)).unwrap().contains("cores"));
        assert!(refusal(&doc(2, false), &doc(2, true)).unwrap().contains("simd"));
    }
}
