//! The `repro` subcommand: the paper's tables and figures, regenerated
//! from the bundled workloads.
//!
//! Prints, in this order: Table 1 (computation error categories, on
//! tcas), Table 2 (concrete injection into tcas, base and extended
//! campaigns), Table 3 (replace's functions), and Figures 2 & 3 (the §4
//! factorial walkthrough). It takes no arguments and prints no
//! wall-clock value, so its output is a pure function of the code:
//! `crates/core/tests/repro.rs` diffs it byte-for-byte against
//! `crates/core/tests/repro_expected.txt`. That pin also checks the §4.1
//! claim: each Figure 2 row lists at most n + 1 halting outputs for the
//! injected loop counter, never the 2^64 values concrete injection would
//! have to try. `docs/REPRODUCTION.md` sets each section beside the
//! paper's numbers.

use std::fmt::Write as _;

use symplfied::asm::Reg;
use symplfied::check::{Predicate, SearchLimits};
use symplfied::inject::{
    enumerate_points, prepare, run_point, ComputationError, ErrorClass, InjectTarget,
    InjectionPoint,
};
use symplfied::machine::{ExecLimits, Status};
use symplfied::ssim::{run_campaign, CampaignConfig, ConcreteOutcome, SsimReport};

/// The `repro` subcommand. `Err` is a usage error.
pub(crate) fn run(args: &[String]) -> Result<(), String> {
    if let Some(arg) = args.first() {
        return Err(format!("repro takes no arguments, got `{arg}`"));
    }
    table1();
    table2();
    table3();
    figures_2_and_3();
    Ok(())
}

/// Table 1: computation error categories and how SymPLFIED models them.
///
/// Prints the taxonomy (fault origin → modeling procedure) and, for each
/// category, demonstrates the model on tcas by counting the injection
/// points the campaign generator enumerates and the seed states the first
/// activated point produces.
fn table1() {
    let w = symplfied::apps::tcas();
    println!("Table 1: computation error categories (demonstrated on tcas)\n");

    let mut rows = Vec::new();
    for cat in ComputationError::ALL {
        let class = ErrorClass::Computation(cat);
        let points = enumerate_points(&w.program, &class);
        let seeds = points
            .iter()
            .find_map(|pt| {
                let prep = prepare(
                    &w.program,
                    &w.detectors,
                    &w.input,
                    pt,
                    &ExecLimits::with_max_steps(w.max_steps),
                );
                prep.activated.then_some(prep.seeds.len())
            })
            .unwrap_or(0);
        rows.push(vec![
            cat.fault_origin().to_string(),
            cat.to_string(),
            cat.modeling_procedure().to_string(),
            points.len().to_string(),
            seeds.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Fault origin",
                "Error symptom",
                "Modeling procedure",
                "Points",
                "Seeds@1st",
            ],
            &rows
        )
    );
    println!(
        "Model size: {} instructions in tcas, {} error classes, \
         fork rules: comparison (2-way), jr-target (|code|+1-way), \
         load/store pointer (|memory|+1-way), divisor-zero (2-way).",
        w.program.len(),
        ErrorClass::all().len()
    );
}

/// Table 2: concrete (SimpleScalar-substitute) fault injection into tcas.
///
/// The paper injected 6 253 and then 41 082 concrete register faults and
/// never observed the catastrophic outcome `2`. The base campaign here is
/// the paper's recipe (3 extreme + 3 random values per source/destination
/// register of every instruction) on the bundled tcas, which has fewer
/// points than the paper's binary; the extended one injects 37 random
/// values per point. Each caption names the paper's count beside ours.
fn table2() {
    let w = symplfied::apps::tcas();
    let limits = ExecLimits::with_max_steps(w.max_steps);

    let base = run_campaign(
        &w.program,
        &w.detectors,
        &w.input,
        &CampaignConfig::default(),
        &limits,
    );
    println!(
        "{}",
        render_table2(
            &base,
            "Table 2, column 1 (base campaign; the paper ran 6 253)"
        )
    );
    println!();

    let extended = run_campaign(
        &w.program,
        &w.detectors,
        &w.input,
        &CampaignConfig {
            seed: 0xC0FFEE,
            random_per_point: 37,
            ..CampaignConfig::default()
        },
        &limits,
    );
    println!(
        "{}",
        render_table2(
            &extended,
            "Table 2, column 2 (extended campaign; the paper ran 41 082)"
        )
    );

    let saw_two = base.saw_output(&[2]) || extended.saw_output(&[2]);
    println!(
        "\nCatastrophic outcome '2' observed by concrete injection: {}",
        if saw_two {
            "YES (!)"
        } else {
            "no — as in the paper"
        }
    );
}

/// Table 3: the important functions of `replace`, with their entry labels,
/// sizes, and roles — regenerated from the assembled program itself.
fn table3() {
    let w = symplfied::apps::replace();
    let p = &w.program;

    let functions: &[(&str, &str)] = &[
        (
            "makepat",
            "Constructs pattern to be matched from input reg exp",
        ),
        ("getccl", "Called by makepat when scanning a '[' character"),
        (
            "dodash",
            "Called by getccl for any character ranges in pattern",
        ),
        ("amatch", "Returns the position where pattern matched"),
        (
            "locate",
            "Called by amatch to find whether the pattern appears at a string index",
        ),
    ];

    // Function size = distance to the next top-level function label.
    let mut starts: Vec<(usize, &str)> = functions
        .iter()
        .filter_map(|(name, _)| p.label_address(name).map(|a| (a, *name)))
        .collect();
    starts.push((p.label_address("main").unwrap_or(0), "main"));
    starts.sort_unstable();

    let size_of = |name: &str| -> usize {
        let Some(start) = p.label_address(name) else {
            return 0;
        };
        let end = starts
            .iter()
            .map(|&(a, _)| a)
            .filter(|&a| a > start)
            .min()
            .unwrap_or(p.len());
        end - start
    };

    let rows: Vec<Vec<String>> = functions
        .iter()
        .map(|(name, role)| {
            vec![
                (*name).to_string(),
                p.label_address(name).map_or("?".into(), |a| a.to_string()),
                size_of(name).to_string(),
                (*role).to_string(),
            ]
        })
        .collect();

    println!("Table 3: important functions in replace\n");
    println!(
        "{}",
        render_table(&["Function", "Entry", "Instrs", "Role"], &rows)
    );
    println!(
        "replace: {} instructions total, golden output on default input: {:?}",
        p.len(),
        symplfied::apps::golden(&w).output_ints()
    );
}

/// Figures 2 & 3: the factorial walkthrough of paper §4.
///
/// Figure 2: inject `err` into the loop counter `$3` right after the
/// decrement, at every dynamic iteration, and enumerate the outcomes —
/// the paper's 1!, 2!, …, n! prefix products, plus err prints and the
/// watchdog timeout. Figure 3: the same error against the
/// detector-protected program, showing which forks the detectors catch
/// and which escape, with the constraints under which each happens. An
/// iteration the loop never runs (the n-th, for input n) is printed as
/// `not reached`.
fn figures_2_and_3() {
    let n: i64 = 5;
    println!("Figures 2 & 3: factorial under a loop-counter error (input {n})\n");

    // --- Figure 2: unprotected program -------------------------------
    let w = symplfied::apps::factorial().with_input(vec![n]);
    let subi = 7; // `subi $3 $3 #1`, the paper's line 8
    let limits = SearchLimits {
        exec: ExecLimits::with_max_steps(400),
        max_solutions: 100,
        ..SearchLimits::default()
    };

    let mut rows = Vec::new();
    let mut total_states = 0usize;
    for occurrence in 1..=u32::try_from(n).unwrap_or(1) {
        let point =
            InjectionPoint::new(subi, InjectTarget::Register(Reg::r(3))).at_occurrence(occurrence);
        let outcome = run_point(
            &w.program,
            &w.detectors,
            &w.input,
            &point,
            &Predicate::Any,
            &limits,
        );
        if !outcome.activated {
            rows.push(not_reached(occurrence));
            continue;
        }
        total_states += outcome.report.states_explored;
        let mut printed: Vec<String> = outcome
            .report
            .solutions
            .iter()
            .filter(|s| s.state.status() == &Status::Halted)
            .map(|s| s.state.rendered_output())
            .collect();
        printed.sort();
        printed.dedup();
        let hangs = outcome
            .report
            .solutions
            .iter()
            .filter(|s| s.state.status() == &Status::TimedOut)
            .count();
        rows.push(vec![
            occurrence.to_string(),
            printed.join(" | "),
            hangs.to_string(),
            outcome.report.states_explored.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Injected iteration", "Halting outputs", "Hangs", "States"],
            &rows
        )
    );
    println!(
        "All n={n} iterations: {total_states} states explored \
         vs 2^64 candidate concrete values per injection (§4.1).\n"
    );

    // --- Figure 3: with detectors -------------------------------------
    let wd = symplfied::apps::factorial_with_detectors().with_input(vec![n]);
    let subi_det = 10; // `subi $3 $3 #1` in the detector version
    let mut rows = Vec::new();
    for occurrence in 1..=u32::try_from(n).unwrap_or(1) {
        let point = InjectionPoint::new(subi_det, InjectTarget::Register(Reg::r(3)))
            .at_occurrence(occurrence);
        let outcome = run_point(
            &wd.program,
            &wd.detectors,
            &wd.input,
            &point,
            &Predicate::Any,
            &limits,
        );
        if !outcome.activated {
            rows.push(not_reached(occurrence));
            continue;
        }
        let detected = outcome
            .report
            .solutions
            .iter()
            .filter(|s| matches!(s.state.status(), Status::Detected(_)))
            .count();
        let escaped_wrong = outcome
            .report
            .solutions
            .iter()
            .filter(|s| s.state.status() == &Status::Halted && s.state.output_ints() != vec![120])
            .count();
        let constraints: Vec<String> = outcome
            .report
            .solutions
            .iter()
            .find(|s| matches!(s.state.status(), Status::Detected(_)))
            .map(|s| {
                s.state
                    .constraints()
                    .iter()
                    .map(|(loc, set)| format!("{loc}: {set}"))
                    .collect()
            })
            .unwrap_or_default();
        rows.push(vec![
            occurrence.to_string(),
            detected.to_string(),
            escaped_wrong.to_string(),
            constraints.join("; "),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Injected iteration",
                "Detected forks",
                "Escaping wrong outputs",
                "Detection constraints (example)",
            ],
            &rows
        )
    );
    println!(
        "The detected branches carry the constraints under which the \
         detectors fire — the §4.2 explanation of which errors escape."
    );
}

/// A figure row for an iteration the fault never activates at.
fn not_reached(occurrence: u32) -> Vec<String> {
    vec![
        occurrence.to_string(),
        "not reached".into(),
        String::new(),
        String::new(),
    ]
}

/// Renders an ASCII table with a header row.
#[must_use]
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(*w));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:w$} ", h, w = widths[i]);
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// The Table-2 outcome buckets for tcas: printed advisory 0/1/2, any other
/// normal output, crash, hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Table2Bucket {
    /// Printed exactly `0`.
    Zero,
    /// Printed exactly `1` (the correct advisory for the evaluation input).
    One,
    /// Printed exactly `2` (the catastrophic advisory).
    Two,
    /// Halted normally with any other output.
    Other,
    /// Threw an exception.
    Crash,
    /// Watchdog timeout.
    Hang,
}

impl Table2Bucket {
    /// Buckets one concrete outcome.
    #[must_use]
    fn classify(outcome: &ConcreteOutcome) -> Self {
        match outcome {
            ConcreteOutcome::Output(v) if v.as_slice() == [0] => Table2Bucket::Zero,
            ConcreteOutcome::Output(v) if v.as_slice() == [1] => Table2Bucket::One,
            ConcreteOutcome::Output(v) if v.as_slice() == [2] => Table2Bucket::Two,
            ConcreteOutcome::Output(_) => Table2Bucket::Other,
            ConcreteOutcome::Crash(_) => Table2Bucket::Crash,
            // Detections count as crashes for Table 2 purposes: the run
            // stopped before producing an advisory. (tcas has no
            // detectors, so this bucket stays empty there.)
            ConcreteOutcome::Detected(_) => Table2Bucket::Crash,
            ConcreteOutcome::Hang => Table2Bucket::Hang,
        }
    }

    /// The row label used in the paper's Table 2.
    #[must_use]
    fn label(self) -> &'static str {
        match self {
            Table2Bucket::Zero => "0",
            Table2Bucket::One => "1",
            Table2Bucket::Two => "2",
            Table2Bucket::Other => "Other",
            Table2Bucket::Crash => "Crash",
            Table2Bucket::Hang => "Hang",
        }
    }

    /// All buckets in the paper's row order.
    const ALL: [Table2Bucket; 6] = [
        Table2Bucket::Zero,
        Table2Bucket::One,
        Table2Bucket::Two,
        Table2Bucket::Other,
        Table2Bucket::Crash,
        Table2Bucket::Hang,
    ];
}

/// Aggregates an ssim report into Table-2 bucket counts (paper row order).
#[must_use]
fn table2_counts(report: &SsimReport) -> Vec<(Table2Bucket, usize)> {
    Table2Bucket::ALL
        .iter()
        .map(|&bucket| {
            let n = report.count_where(|o| Table2Bucket::classify(o) == bucket);
            (bucket, n)
        })
        .collect()
}

/// Renders Table-2 counts with percentages, like the paper's columns.
#[must_use]
fn render_table2(report: &SsimReport, caption: &str) -> String {
    let total = report.total_runs().max(1);
    let rows: Vec<Vec<String>> = table2_counts(report)
        .into_iter()
        .map(|(bucket, n)| {
            vec![
                bucket.label().to_string(),
                format!("{:.2}% ({n})", 100.0 * n as f64 / total as f64),
            ]
        })
        .collect();
    format!(
        "{caption} — {} faults\n{}",
        report.total_runs(),
        render_table(&["Program Outcome", "Percentage"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use symplfied::machine::Exception;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["xxx".into(), "y".into()], vec!["1".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
        assert_eq!(lines[1], "| a   | bbbb |", "the header row: {t}");
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{t}");
    }

    #[test]
    fn buckets_classify_like_the_paper() {
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Output(vec![1])),
            Table2Bucket::One
        );
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Output(vec![2])),
            Table2Bucket::Two
        );
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Output(vec![7])),
            Table2Bucket::Other
        );
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Output(vec![1, 1])),
            Table2Bucket::Other,
            "two printed values are not a lone advisory"
        );
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Crash(Exception::DivByZero)),
            Table2Bucket::Crash
        );
        assert_eq!(
            Table2Bucket::classify(&ConcreteOutcome::Hang),
            Table2Bucket::Hang
        );
    }

    #[test]
    fn table2_counts_sum_to_total() {
        let mut report = SsimReport::default();
        report.record(ConcreteOutcome::Output(vec![1]));
        report.record(ConcreteOutcome::Output(vec![1]));
        report.record(ConcreteOutcome::Hang);
        let counts = table2_counts(&report);
        let sum: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, report.total_runs());
        let rendered = render_table2(&report, "test");
        assert!(rendered.contains("66.67% (2)"));
    }
}
