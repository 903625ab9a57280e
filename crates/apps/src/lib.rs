//! # sympl-apps — the SymPLFIED evaluation workloads
//!
//! The programs the paper evaluates, in SymPLFIED generic assembly:
//!
//! * [`factorial`] — Figure 2 (no detectors) and [`factorial_with_detectors`]
//!   — Figure 3 (the two loop detectors).
//! * [`tcas`] — the aircraft collision avoidance application of §6.1–6.3,
//!   hand-translated with a compiler-style calling convention so the
//!   catastrophic return-address scenario of Figure 4 is reproducible.
//! * [`replace`] — the Siemens pattern-substitution program of §6.4, with
//!   the Table-3 functions (`makepat`, `getccl`, `dodash`, `amatch`,
//!   `locate`).
//! * [`sum`], [`bubble_sort`], [`gcd`], [`matmul`] — auxiliary workloads
//!   for tests and benches.
//! * [`spin`] — a synthetic loop-heavy stressor whose per-point searches
//!   are slow enough for the elastic-membership demos to exercise
//!   mid-campaign joins and shard splits.
//!
//! Each workload bundles its program, detectors, a default input, and a
//! watchdog bound that encompasses every correct execution (§5.4).
//!
//! ```
//! let w = sympl_apps::factorial();
//! let final_state = sympl_apps::golden(&w);
//! assert_eq!(final_state.output_ints(), vec![120]); // 5!
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replace_input;
pub mod tcas_input;

use std::sync::OnceLock;

use sympl_asm::{parse_program, Program};
use sympl_detect::DetectorSet;
use sympl_machine::{run_concrete, ExecLimits, MachineState};

mod workload;

pub use workload::Workload;

// Re-parse sources on each call; parsing is microseconds and keeps the
// workloads independent values (callers typically build one per campaign).

/// Figure 2: the factorial program, default input 5.
#[must_use]
pub fn factorial() -> Workload {
    Workload::new(
        "factorial",
        parse_source(include_str!("../asm/factorial.sasm")),
        DetectorSet::new(),
        vec![5],
        2_000,
    )
}

/// Figure 3: factorial with the paper's two detectors.
///
/// Detector 1 (`check ($4 < $3)`) guards the loop counter. Detector 2
/// guards product monotonicity through the snapshot register `$6`: the
/// figure writes its RHS as `$6 * $1`, but under exact integer semantics
/// that expression exceeds the product from the second iteration on
/// (`$2 = $6·$3` with `$3 < $1`), so the detector would fire on
/// error-free runs; the equivalent sound form `$2 >= $6` keeps the
/// figure's structure (a snapshot-based product check that catches errors
/// inflating the counter and misses deflating ones).
#[must_use]
pub fn factorial_with_detectors() -> Workload {
    let detectors = DetectorSet::parse(
        "det(1, $(3), >, ($4))\n\
         det(2, $(2), >=, ($6))",
    )
    .expect("the Figure-3 detectors are well-formed");
    Workload::new(
        "factorial-det",
        parse_source(include_str!("../asm/factorial_det.sasm")),
        detectors,
        vec![5],
        2_000,
    )
}

/// §6.1–6.3: the tcas application, with the upward-advisory input (the
/// golden run prints `1`).
#[must_use]
pub fn tcas() -> Workload {
    Workload::new(
        "tcas",
        parse_source(include_str!("../asm/tcas.sasm")),
        DetectorSet::new(),
        tcas_input::upward_advisory(),
        5_000,
    )
}

/// §6.4: the replace program, with a default input whose pattern `[a-c]x`
/// replaces two occurrences in the line.
#[must_use]
pub fn replace() -> Workload {
    Workload::new(
        "replace",
        parse_source(include_str!("../asm/replace.sasm")),
        DetectorSet::new(),
        replace_input::encode("[a-c]x", "Z", "axbxdx"),
        50_000,
    )
}

/// Auxiliary: sum of 1..n (default n = 10).
#[must_use]
pub fn sum() -> Workload {
    Workload::new(
        "sum",
        parse_source(include_str!("../asm/sum.sasm")),
        DetectorSet::new(),
        vec![10],
        2_000,
    )
}

/// Auxiliary: bubble sort (default: five values).
#[must_use]
pub fn bubble_sort() -> Workload {
    Workload::new(
        "bubble-sort",
        parse_source(include_str!("../asm/bubble.sasm")),
        DetectorSet::new(),
        vec![5, 30, 10, 50, 20, 40],
        5_000,
    )
}

/// Auxiliary: Euclid's gcd (default gcd(54, 24) = 6).
#[must_use]
pub fn gcd() -> Workload {
    Workload::new(
        "gcd",
        parse_source(include_str!("../asm/gcd.sasm")),
        DetectorSet::new(),
        vec![54, 24],
        2_000,
    )
}

/// Auxiliary: dense n x n matrix multiply (default 2x2).
#[must_use]
pub fn matmul() -> Workload {
    Workload::new(
        "matmul",
        parse_source(include_str!("../asm/matmul.sasm")),
        DetectorSet::new(),
        vec![2, 1, 2, 3, 4, 5, 6, 7, 8],
        20_000,
    )
}

/// Auxiliary: a synthetic O(n²) nested counting loop (default n = 60)
/// whose per-point symbolic searches take tens of milliseconds — long
/// enough for elastic-membership events (late joins, shard splits) to
/// land mid-campaign. `symplfied campaign --workload spin` and the
/// `just elastic-demo` CI gate run on it; the paper workloads finish
/// their searches too quickly to exercise network-scale timing.
#[must_use]
pub fn spin() -> Workload {
    Workload::new(
        "spin",
        parse_source(include_str!("../asm/spin.sasm")),
        DetectorSet::new(),
        vec![60],
        20_000,
    )
}

/// A bundled workload's report name and its constructor.
type Bundled = (&'static str, fn() -> Workload);

/// The bundled workloads.
const BUNDLED: [Bundled; 9] = [
    ("factorial", factorial),
    ("factorial-det", factorial_with_detectors),
    ("tcas", tcas),
    ("replace", replace),
    ("sum", sum),
    ("bubble-sort", bubble_sort),
    ("gcd", gcd),
    ("matmul", matmul),
    ("spin", spin),
];

/// Every bundled workload, freshly built, for sweep-style tests and
/// benches.
#[must_use]
pub fn all_workloads() -> Vec<Workload> {
    BUNDLED.iter().map(|(_, build)| build()).collect()
}

/// Resolves a bundled workload by its report name (`"tcas"`,
/// `"replace"`, `"factorial"`, …) — the single lookup behind every
/// distributed-campaign program id, so a `symplfied serve` worker and
/// the `symplfied campaign` coordinator can never resolve the same id to
/// different programs.
///
/// Only the workload asked for is built, once per process, and its
/// program is decoded before it is kept: every later resolve is a clone
/// (a few reference counts) that shares the one parse and the one decode.
#[must_use]
pub fn resolve_workload(name: &str) -> Option<Workload> {
    static RESOLVED: [OnceLock<Workload>; BUNDLED.len()] =
        [const { OnceLock::new() }; BUNDLED.len()];
    let index = BUNDLED.iter().position(|(bundled, _)| *bundled == name)?;
    let workload = RESOLVED[index].get_or_init(|| {
        let workload = BUNDLED[index].1();
        let _ = workload.program.decoded();
        workload
    });
    Some(workload.clone())
}

fn parse_source(src: &str) -> Program {
    parse_program(src).expect("bundled workload sources are well-formed")
}

/// Runs a workload's golden (error-free) execution.
///
/// # Panics
///
/// Panics if the workload does not halt normally — bundled workloads always
/// do on their default inputs.
#[must_use]
pub fn golden(workload: &Workload) -> MachineState {
    let mut state = MachineState::with_input(workload.input.clone());
    run_concrete(
        &mut state,
        &workload.program,
        &workload.detectors,
        &ExecLimits::with_max_steps(workload.max_steps),
    )
    .expect("golden runs are concrete");
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_machine::Status;

    #[test]
    fn factorial_golden_is_120() {
        let w = factorial();
        let s = golden(&w);
        assert_eq!(s.status(), &Status::Halted);
        assert_eq!(s.output_ints(), vec![120]);
        assert_eq!(s.rendered_output(), "Factorial = 120");
    }

    #[test]
    fn factorial_with_detectors_matches_plain() {
        // The detectors must be transparent on error-free runs.
        for n in 1..=8 {
            let mut w = factorial_with_detectors();
            w.input = vec![n];
            let mut plain = factorial();
            plain.input = vec![n];
            assert_eq!(
                golden(&w).output_ints(),
                golden(&plain).output_ints(),
                "n = {n}"
            );
            assert_eq!(golden(&w).status(), &Status::Halted);
        }
    }

    #[test]
    fn tcas_golden_prints_upward_advisory() {
        let w = tcas();
        let s = golden(&w);
        assert_eq!(
            s.status(),
            &Status::Halted,
            "output: {}",
            s.rendered_output()
        );
        assert_eq!(s.output_ints(), vec![1], "expected the upward advisory");
    }

    #[test]
    fn tcas_alternative_inputs() {
        // Downward advisory input prints 2; unresolved input prints 0.
        let mut w = tcas();
        w.input = tcas_input::downward_advisory();
        assert_eq!(golden(&w).output_ints(), vec![2]);
        w.input = tcas_input::unresolved();
        assert_eq!(golden(&w).output_ints(), vec![0]);
        w.input = tcas_input::disabled();
        assert_eq!(golden(&w).output_ints(), vec![0]);
    }

    #[test]
    fn replace_golden_substitutes() {
        let w = replace();
        let s = golden(&w);
        assert_eq!(s.status(), &Status::Halted);
        // "axbxdx" with pattern [a-c]x -> "ZZdx"
        assert_eq!(
            replace_input::decode(&s.output_ints()),
            "ZZdx",
            "raw output: {:?}",
            s.output_ints()
        );
    }

    #[test]
    fn replace_more_patterns() {
        let cases = [
            ("abc", "X", "zabcz", "zXz"),
            ("a?c", "Y", "aXcabc", "YY"),
            ("[0-9]", "N", "a1b22", "aNbNN"),
            ("[^a]", "_", "aba", "a_a"),
            ("q", "Q", "aaa", "aaa"),
            ("a", "AA", "aa", "AAAA"),
        ];
        for (pat, sub, line, expected) in cases {
            let mut w = replace();
            w.input = replace_input::encode(pat, sub, line);
            let s = golden(&w);
            assert_eq!(s.status(), &Status::Halted, "{pat} / {line}");
            assert_eq!(
                replace_input::decode(&s.output_ints()),
                expected,
                "pattern `{pat}` on `{line}`"
            );
        }
    }

    #[test]
    fn sum_and_bubble_golden() {
        assert_eq!(golden(&sum()).output_ints(), vec![55]);
        assert_eq!(
            golden(&bubble_sort()).output_ints(),
            vec![10, 20, 30, 40, 50]
        );
    }

    #[test]
    fn gcd_golden() {
        assert_eq!(golden(&gcd()).output_ints(), vec![6]);
        for (a, b, g) in [(12, 18, 6), (7, 13, 1), (0, 5, 5), (5, 0, 5), (48, 36, 12)] {
            let w = gcd().with_input(vec![a, b]);
            assert_eq!(golden(&w).output_ints(), vec![g], "gcd({a},{b})");
        }
    }

    #[test]
    fn matmul_golden() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        assert_eq!(golden(&matmul()).output_ints(), vec![19, 22, 43, 50]);
        // Identity times anything.
        let w = matmul().with_input(vec![2, 1, 0, 0, 1, 9, 8, 7, 6]);
        assert_eq!(golden(&w).output_ints(), vec![9, 8, 7, 6]);
        // 3x3 against a reference computation.
        let a = [1i64, 2, 3, 4, 5, 6, 7, 8, 9];
        let b = [9i64, 8, 7, 6, 5, 4, 3, 2, 1];
        let mut input = vec![3];
        input.extend(a);
        input.extend(b);
        let mut expected = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                expected.push((0..3).map(|k| a[i * 3 + k] * b[k * 3 + j]).sum::<i64>());
            }
        }
        let w = matmul().with_input(input);
        assert_eq!(golden(&w).output_ints(), expected);
    }

    #[test]
    fn resolve_builds_once_and_matches_a_fresh_build() {
        for (name, build) in BUNDLED {
            assert_eq!(build().name, name, "the table's key is the report name");
        }
        assert!(resolve_workload("no-such-workload").is_none());

        for fresh in [tcas(), replace()] {
            let first = resolve_workload(fresh.name).unwrap();
            let second = resolve_workload(fresh.name).unwrap();
            // Same values as a fresh build…
            assert_eq!(first.program.listing(), fresh.program.listing());
            assert_eq!(first.detectors, fresh.detectors);
            assert_eq!(
                (&first.input, first.max_steps),
                (&fresh.input, fresh.max_steps)
            );
            assert_eq!(second.program.listing(), first.program.listing());
            // …and one decode shared by every resolve, while a fresh
            // build still decodes for itself.
            assert!(std::ptr::eq(
                first.program.decoded(),
                second.program.decoded()
            ));
            assert!(!std::ptr::eq(
                first.program.decoded(),
                fresh.program.decoded()
            ));
        }
    }

    #[test]
    fn all_workloads_halt_on_default_inputs() {
        for w in all_workloads() {
            let s = golden(&w);
            assert_eq!(s.status(), &Status::Halted, "workload {}", w.name);
            assert!(s.steps() < w.max_steps, "watchdog too tight for {}", w.name);
        }
    }
}
