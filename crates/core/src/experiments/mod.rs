//! The derived experiment suite (see DESIGN.md §5): the paper is a
//! position paper with no quantitative evaluation, so each experiment
//! here operationalises one of its figures or claims. Every experiment
//! is a plain function returning [`Table`]s, so integration tests can
//! assert the qualitative *shapes* and the bench harness can print the
//! rows.

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

    /// Parses a cell as f64 (for shape assertions in tests).
    pub fn cell_f64(&self, row_key: &str, column: &str) -> Option<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
