//! `sympl-benchmark compare <a.json> <b.json>`: the before/after table.
//! Each side is one `result.json` or several (comma-separated); with
//! several, medians and quartiles are taken across the runs.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        "lower" => (b - a) / a,
        _ => (a - b) / a,
    }
}

/// The verdict on one (workload, metric) pair. A move is only believed
/// when the run-to-run spread is no wider than the bound; a spread wider
/// than that makes the pair unresolved — not unchanged — unless every run
/// of `b` beats every run of `a`.
pub fn verdict(worse: f64, spread: f64, bound: f64, b_beats_every_a: bool) -> Verdict {
    if spread > bound {
        return if b_beats_every_a {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// One side's view of one metric on one workload.
fn side(runs: &[Json], workload: &str, metric: &str) -> Option<Summary> {
    let cells: Vec<&Json> = runs
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .collect();
    let values: Vec<f64> = cells
        .iter()
        .filter_map(|c| c.get("value")?.as_f64())
        .collect();
    if values.is_empty() {
        return None;
    }
    let mut summary = Summary::of(&values);
    if let [only] = cells[..] {
        // One run: its own within-run quartiles stand in for the spread.
        let q = |k: &str| only.get(k).and_then(Json::as_f64);
        if let (Some(q1), Some(q3)) = (q("q1"), q("q3")) {
            summary.q1 = q1.min(q3);
            summary.q3 = q1.max(q3);
        }
    }
    Some(summary)
}

fn load(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn workload_names(runs: &[Json]) -> Vec<String> {
    let mut names = Vec::new();
    for run in runs {
        for (name, _) in run.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// The problems that make a side unusable as evidence: failed operations,
/// a failed correctness gate, a non-comparable (`--quick`) run.
fn side_problems(label: &str, runs: &[Json], out: &mut Vec<String>) {
    for run in runs {
        if run.get("comparable").and_then(Json::as_bool) == Some(false) {
            out.push(format!("{label}: a --quick run is not comparable"));
        }
        for (name, w) in run.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            if w.get("correct").and_then(Json::as_bool) != Some(true)
                || w.get("failed").and_then(Json::as_f64) != Some(0.0)
            {
                out.push(format!("{label}: {name} failed its correctness gate"));
            }
        }
    }
}

/// Prints the table; `Ok(true)` when nothing regressed and no exact count
/// changed.
pub fn compare(a_list: &str, b_list: &str) -> Result<bool, String> {
    let (a_runs, b_runs) = (load(a_list)?, load(b_list)?);
    let mut problems = Vec::new();
    side_problems("a", &a_runs, &mut problems);
    side_problems("b", &b_runs, &mut problems);

    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse", "spread", "bound"
    );
    for workload in workload_names(&a_runs) {
        let counts = |runs: &[Json]| -> Vec<Json> {
            runs.iter()
                .filter_map(|r| r.get("workloads")?.get(&workload)?.get("counts").cloned())
                .collect()
        };
        let (ca, cb) = (counts(&a_runs), counts(&b_runs));
        if cb.is_empty() {
            problems.push(format!("{workload}: missing from b"));
            continue;
        }
        // Seed-0 counts are pinned and must match across sides; runs on
        // other seeds carry their own inputs, so only same-seed sides can
        // be held to it.
        let seed = |runs: &[Json]| {
            runs.iter()
                .map(|r| r.get("seed").and_then(Json::as_f64))
                .collect::<Vec<_>>()
        };
        if seed(&a_runs) == seed(&b_runs) && ca != cb {
            problems.push(format!("{workload}: exact counts changed"));
        }
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (
                side(&a_runs, &workload, def.name),
                side(&b_runs, &workload, def.name),
            ) else {
                continue;
            };
            let worse = worsening(def, a.median, b.median);
            let spread = a.spread().max(b.spread());
            let b_beats_every_a = match def.better {
                "lower" => b.max < a.min,
                _ => b.min > a.max,
            } && a.n > 1;
            let v = verdict(worse, spread, def.bound, b_beats_every_a);
            if v == Verdict::Regressed {
                problems.push(format!(
                    "{workload}: {} regressed by {:.1} %",
                    def.name,
                    worse * 100.0
                ));
            }
            println!(
                "{:<18} {:<24} {:>14.6} {:>14.6} {:>7.1}% {:>6.1}% {:>5.0}%  {}  [a {:.6}..{:.6} n={}, b {:.6}..{:.6} n={}] {}",
                workload,
                def.name,
                a.median,
                b.median,
                worse * 100.0,
                spread * 100.0,
                def.bound * 100.0,
                v.label(),
                a.q1,
                a.q3,
                a.n,
                b.q1,
                b.q3,
                b.n,
                def.unit,
            );
        }
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.04, 0.02, 0.10, false), Verdict::Within);
        assert_eq!(verdict(-0.04, 0.02, 0.10, false), Verdict::Within);
        assert_eq!(verdict(0.11, 0.02, 0.10, false), Verdict::Regressed);
        assert_eq!(verdict(-0.30, 0.02, 0.10, false), Verdict::Improved);
        // A spread wider than the bound resolves nothing...
        assert_eq!(verdict(0.30, 0.12, 0.10, false), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.12, 0.10, false), Verdict::Unresolved);
        // ...unless every run of b beat every run of a.
        assert_eq!(verdict(-0.30, 0.12, 0.10, true), Verdict::Improved);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), ("lower", "higher"));
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(lower, 0.0, 5.0), 0.0);
    }

    fn result(points_per_s: f64, states: usize, seed: f64) -> Json {
        Json::obj([
            ("seed", Json::Num(seed)),
            ("comparable", Json::Bool(true)),
            (
                "workloads",
                Json::obj([(
                    "tcas_campaign",
                    Json::obj([
                        ("correct", Json::Bool(true)),
                        ("failed", Json::Num(0.0)),
                        (
                            "counts",
                            Json::obj([("states_explored", Json::count(states))]),
                        ),
                        (
                            "metrics",
                            Json::obj([(
                                "points_per_s",
                                Json::obj([
                                    ("value", Json::Num(points_per_s)),
                                    ("q1", Json::Num(points_per_s * 0.99)),
                                    ("q3", Json::Num(points_per_s * 1.01)),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_changed_counts() {
        let dir = crate::run::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, v: &Json| {
            let path = dir.join(name);
            std::fs::write(&path, v.pretty()).unwrap();
            path.display().to_string()
        };
        let base = write("a.json", &result(1000.0, 27_707, 0.0));
        let same = write("b.json", &result(1030.0, 27_707, 0.0));
        let slow = write(
            "c.json",
            &result(1000.0 * (1.0 - END_TO_END[1].bound - 0.05), 27_707, 0.0),
        );
        let other = write("d.json", &result(1000.0, 27_708, 0.0));
        assert_eq!(compare(&base, &same), Ok(true));
        assert_eq!(
            compare(&base, &slow),
            Ok(false),
            "a drop beyond the bound regresses"
        );
        assert_eq!(
            compare(&base, &other),
            Ok(false),
            "a changed exact count fails"
        );
        // Several runs per side: quartiles across runs.
        assert_eq!(
            compare(&format!("{base},{same}"), &format!("{same},{base}")),
            Ok(true)
        );
        assert!(compare(&base, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
