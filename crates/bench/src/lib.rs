//! # sympl-bench — shared harness code for the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index); the Criterion benches under
//! `benches/` measure the same workloads. This library holds the shared
//! plumbing: ASCII table rendering and Table-2 outcome bucketing. The
//! §6.2/§6.4 register-error campaigns run as `symplfied campaign`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use sympl_ssim::{ConcreteOutcome, SsimReport};

/// Renders an ASCII table with a header row.
///
/// ```
/// let t = sympl_bench::render_table(
///     &["Outcome", "Count"],
///     &[vec!["1".into(), "3364".into()], vec!["2".into(), "0".into()]],
/// );
/// assert!(t.contains("Outcome"));
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
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
pub enum Table2Bucket {
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
    pub fn classify(outcome: &ConcreteOutcome) -> Self {
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
    pub fn label(self) -> &'static str {
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
    pub const ALL: [Table2Bucket; 6] = [
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
pub fn table2_counts(report: &SsimReport) -> Vec<(Table2Bucket, usize)> {
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
pub fn render_table2(report: &SsimReport, caption: &str) -> String {
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
    use sympl_machine::Exception;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["xxx".into(), "y".into()], vec!["1".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
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
