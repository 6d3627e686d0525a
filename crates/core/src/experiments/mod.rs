//! The derived experiment suite (see DESIGN.md §5): the paper is a
//! position paper with no quantitative evaluation, so each experiment
//! here operationalises one of its figures or claims. Every experiment
//! is a plain function returning [`Table`]s, and every table has one
//! [`Shape`] beside the experiment that produces it: the qualitative
//! claim its verdict in EXPERIMENTS.md makes, stated once as a predicate.
//! `cscw-bench`'s `report` writes the tables and, per shape, how many of
//! [`SHAPE_SEEDS`] have it.

// Scripted experiment drivers, not delivery-path code: a failure aborts
// the experiment by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod access;
pub mod concurrency;
pub mod groups;
pub mod media;
pub mod mobility;
pub mod placement;
pub mod replication;
pub mod schemes;
pub mod sessions;
pub mod workflow;

use std::fmt;

/// A rectangular result table (one per figure/table we regenerate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. `"E3"`.
    pub id: String,
    /// What the table shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Finds the cell at `(row_key, column)` where `row_key` matches the
    /// first cell of a row.
    pub fn cell(&self, row_key: &str, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(row_key))
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }

    /// Parses a cell as f64 (for [`Shape`] predicates).
    pub(crate) fn cell_f64(&self, row_key: &str, column: &str) -> Option<f64> {
        self.cell(row_key, column)?.parse().ok()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.id, self.title)?;
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map(|s| s.len()).unwrap_or(0))
                    .chain([c.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", cell, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Runs every experiment at its default (fast) parameters and returns
/// all tables — the entry point for `EXPERIMENTS.md` regeneration.
pub fn run_all(seed: u64) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(sessions::e1_space_time_matrix(seed));
    out.extend(concurrency::e2_walls_vs_awareness(seed));
    out.extend(concurrency::e3_response_notification(seed));
    out.extend(concurrency::e4_lock_granularity(seed));
    out.extend(access::e5_access_control(seed));
    out.extend(media::e6_qos_streams(seed));
    out.extend(media::e7_media_sync(seed));
    out.extend(groups::e8_group_comm(seed));
    out.extend(placement::e9_placement(seed));
    out.extend(mobility::e10_mobility(seed));
    out.extend(workflow::e11_prescriptiveness());
    out.extend(sessions::e12_transitions(seed));
    out.extend(replication::e13_replicated_workspace(seed));
    out
}

/// The seeds every [`Shape`] is counted on: the report seed (42) and
/// every seed the experiment tests have run the suite on.
pub const SHAPE_SEEDS: [u64; 11] = [0, 1, 3, 5, 7, 11, 13, 21, 29, 42, 99];

/// The qualitative claim one verdict makes about one table.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Id of the table the predicate reads, e.g. `"E7b"`.
    pub table: &'static str,
    /// The claim in one line.
    pub claim: &'static str,
    /// Whether a table has the shape; `None` (a missing or unparsable
    /// cell) counts as not having it.
    pub holds: fn(&Table) -> Option<bool>,
}

impl Shape {
    /// How many of `runs` (one [`run_all`] per seed) have this shape.
    pub fn count(&self, runs: &[Vec<Table>]) -> usize {
        runs.iter()
            .filter(|tables| {
                tables
                    .iter()
                    .find(|t| t.id == self.table)
                    .and_then(self.holds)
                    == Some(true)
            })
            .count()
    }
}

/// Every verdict's shape, one per table, in [`run_all`]'s module order.
pub fn shapes() -> Vec<Shape> {
    [
        sessions::SHAPES,
        concurrency::SHAPES,
        access::SHAPES,
        media::SHAPES,
        groups::SHAPES,
        placement::SHAPES,
        mobility::SHAPES,
        workflow::SHAPES,
        replication::SHAPES,
    ]
    .concat()
}

/// `run_all(42)`, run once per test binary.
#[cfg(test)]
fn report_tables() -> &'static [Table] {
    static REPORT: std::sync::OnceLock<Vec<Table>> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| run_all(42))
}

/// Asserts that `table`'s shape holds on the report seed and fails once
/// the cell at `(row, column)` reads `value`: the shape's known-bad.
#[cfg(test)]
fn assert_detects(table: &str, row: &str, column: &str, value: &str) {
    let shape = shapes()
        .into_iter()
        .find(|s| s.table == table)
        .expect("every table has a shape");
    let mut t = report_tables()
        .iter()
        .find(|t| t.id == table)
        .expect("run_all produces the table")
        .clone();
    assert_eq!((shape.holds)(&t), Some(true), "{table} on seed 42");
    let col = t.columns.iter().position(|c| c == column).expect("column");
    let cells = t
        .rows
        .iter_mut()
        .find(|r| r[0] == row)
        .expect("row in the table");
    cells[col] = value.to_owned();
    assert_ne!(
        (shape.holds)(&t),
        Some(true),
        "{table} still holds with {row}/{column} = {value}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_has_exactly_one_shape() {
        let mut ids: Vec<&str> = report_tables().iter().map(|t| t.id.as_str()).collect();
        let mut read: Vec<&str> = shapes().iter().map(|s| s.table).collect();
        ids.sort();
        read.sort();
        assert_eq!(ids, read);
    }

    #[test]
    fn a_shape_counts_the_runs_that_have_it() {
        let mut t = Table::new("EX", "demo", ["k", "v"]);
        t.push_row(["a", "1"]);
        let positive = Shape {
            table: "EX",
            claim: "a is positive",
            holds: |t| Some(t.cell_f64("a", "v")? > 0.0),
        };
        let mut negative = t.clone();
        negative.rows[0][1] = "-1".into();
        let runs = [vec![t.clone()], vec![negative], vec![], vec![t]];
        assert_eq!(positive.count(&runs), 2, "a run without the table fails");
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("EX", "demo", ["k", "v"]);
        t.push_row(["a", "1.5"]);
        t.push_row(["b", "2"]);
        assert_eq!(t.cell("a", "v"), Some("1.5"));
        assert_eq!(t.cell_f64("b", "v"), Some(2.0));
        assert_eq!(t.cell("c", "v"), None);
        assert_eq!(t.cell("a", "nope"), None);
        let rendered = t.to_string();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("| a"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        let mut t = Table::new("EX", "demo", ["a", "b"]);
        t.push_row(["only one"]);
    }
}
