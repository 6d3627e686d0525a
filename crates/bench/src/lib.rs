#![warn(missing_docs)]
// The report harness: a failed experiment aborts the run by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! # cscw-bench — the evaluation
//!
//! The `report` binary regenerates the evaluation: every
//! derived-experiment table on the fixed [`REPORT_SEED`] and, per verdict
//! shape, how many of `SHAPE_SEEDS` have it ([`Evaluation`]), printed and
//! spliced into EXPERIMENTS.md. Speed is not measured here but by
//! `odpbench` (`bash benchmark/run.sh`).
//!
//! ```text
//! cargo run -p cscw-bench --bin report --release
//! ```

use std::fmt::{self, Write as _};

use cscw_core::experiments::{run_all, shapes, Shape, Table, SHAPE_SEEDS};

/// The seed `report` prints its tables on, so published numbers are
/// reproducible.
pub const REPORT_SEED: u64 = 42;

/// The evaluation document `report` rewrites.
pub const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// The evaluation: every table on [`REPORT_SEED`], and one census line
/// per verdict shape.
#[derive(Debug)]
pub struct Evaluation {
    tables: Vec<Table>,
    /// `(table id, census line)` per shape.
    census: Vec<(&'static str, String)>,
}

impl Evaluation {
    /// Runs every experiment on each of `SHAPE_SEEDS` and counts every
    /// shape; the tables are the run on [`REPORT_SEED`].
    pub fn run() -> Self {
        let runs: Vec<Vec<Table>> = SHAPE_SEEDS.iter().map(|&seed| run_all(seed)).collect();
        let report = SHAPE_SEEDS
            .iter()
            .position(|&seed| seed == REPORT_SEED)
            .expect("SHAPE_SEEDS holds REPORT_SEED");
        Self::new(runs[report].clone(), &shapes(), &runs)
    }

    /// The evaluation of `tables`, with each of `shapes` counted over
    /// `runs` (one `run_all` per seed).
    fn new(tables: Vec<Table>, shapes: &[Shape], runs: &[Vec<Table>]) -> Self {
        let census = shapes
            .iter()
            .map(|s| {
                let line = format!(
                    "- Shape [{}] holds on {} of {} seeds: {}",
                    s.table,
                    s.count(runs),
                    runs.len(),
                    s.claim
                );
                (s.table, line)
            })
            .collect();
        Evaluation { tables, census }
    }

    /// The tables on the report seed.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    fn census_line(&self, id: &str) -> Option<&str> {
        let (_, line) = self.census.iter().find(|(t, _)| *t == id)?;
        Some(line)
    }

    /// What `report` prints: each table followed by its census line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            write!(out, "{table}").expect("string write");
            if let Some(line) = self.census_line(&table.id) {
                writeln!(out, "{line}").expect("string write");
            }
            out.push('\n');
        }
        out
    }

    /// Rewrites every table block (`[En] title` followed by `|` rows) and
    /// every census line (`- Shape [En] …`) of `doc` from this
    /// evaluation, leaving every other line as it is. Each table and each
    /// census line must appear in `doc` exactly once.
    pub fn splice(&self, doc: &str) -> Result<Spliced, SpliceError> {
        let mut text = String::with_capacity(doc.len());
        let mut drift = None;
        let mut seen: Vec<(Block, &str)> = Vec::new();
        let mut lines = doc.split_inclusive('\n').peekable();
        while let Some(line) = lines.next() {
            let block = if let Some(id) = census_id(line) {
                let fresh = self
                    .census_line(id)
                    .ok_or_else(|| SpliceError::Unknown(Block::Census, id.into()))?;
                if drift.is_none() && line.trim_end() != fresh {
                    drift = Some(Drift::new(id, "census", "", line.trim_end(), fresh));
                }
                text.push_str(fresh);
                text.push('\n');
                Some((Block::Census, id))
            } else if let Some(id) =
                table_id(line).filter(|_| lines.peek().is_some_and(|next| next.starts_with('|')))
            {
                let table = self
                    .tables
                    .iter()
                    .find(|t| t.id == id)
                    .ok_or_else(|| SpliceError::Unknown(Block::Table, id.into()))?;
                let mut rows = Vec::new();
                while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
                    rows.push(row);
                }
                if drift.is_none() {
                    drift = Drift::between(table, line, &rows);
                }
                write!(text, "{table}").expect("string write");
                Some((Block::Table, id))
            } else {
                text.push_str(line);
                None
            };
            if let Some(key) = block {
                if seen.contains(&key) {
                    return Err(SpliceError::Duplicate(key.0, key.1.into()));
                }
                seen.push(key);
            }
        }
        let expected = self
            .tables
            .iter()
            .map(|t| (Block::Table, t.id.as_str()))
            .chain(self.census.iter().map(|(id, _)| (Block::Census, *id)));
        for key in expected {
            if !seen.contains(&key) {
                return Err(SpliceError::Missing(key.0, key.1.into()));
            }
        }
        Ok(Spliced { text, drift })
    }
}

/// The id of a `- Shape [En] …` census line.
fn census_id(line: &str) -> Option<&str> {
    table_id(line.strip_prefix("- Shape ")?)
}

/// The id of a line starting `[En]`.
fn table_id(line: &str) -> Option<&str> {
    let (id, _) = line.strip_prefix('[')?.split_once(']')?;
    Some(id)
}

/// The cells of a `| a | b |` row, trimmed.
fn cells(row: &str) -> Vec<&str> {
    let row = row.trim();
    let row = row.strip_prefix('|').unwrap_or(row);
    let row = row.strip_suffix('|').unwrap_or(row);
    row.split('|').map(str::trim).collect()
}

/// A document with the evaluation spliced in.
#[derive(Debug)]
pub struct Spliced {
    /// The rewritten document.
    pub text: String,
    /// The first place where the document disagreed with the evaluation.
    pub drift: Option<Drift>,
}

/// One place where the document disagrees with the evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// The table id (for a census line, the id of the table it reads).
    pub table: String,
    /// The row key (first cell), or `title`, `columns`, `census`.
    pub row: String,
    /// The column, or empty where the whole line differs.
    pub column: String,
    /// What the document says.
    pub document: String,
    /// What the evaluation says.
    pub report: String,
}

impl Drift {
    fn new(table: &str, row: &str, column: &str, document: &str, report: &str) -> Self {
        Drift {
            table: table.into(),
            row: row.into(),
            column: column.into(),
            document: document.into(),
            report: report.into(),
        }
    }

    /// The first difference between `table` and the document's block of
    /// it: its `[En] title` line and its `|` rows.
    fn between(table: &Table, title: &str, rows: &[&str]) -> Option<Drift> {
        let id = table.id.as_str();
        let fresh = format!("[{id}] {}", table.title);
        if title.trim_end() != fresh {
            return Some(Drift::new(id, "title", "", title.trim_end(), &fresh));
        }
        let doc_columns = rows.first().map(|r| cells(r)).unwrap_or_default();
        if doc_columns != table.columns {
            let doc = doc_columns.join(" | ");
            return Some(Drift::new(
                id,
                "columns",
                "",
                &doc,
                &table.columns.join(" | "),
            ));
        }
        // A row only one side has differs from the empty row in its key.
        let doc_rows: Vec<Vec<&str>> = rows.iter().skip(2).map(|r| cells(r)).collect();
        (0..doc_rows.len().max(table.rows.len())).find_map(|i| {
            let doc = doc_rows.get(i).map_or(&[][..], Vec::as_slice);
            let row = table.rows.get(i).map_or(&[][..], Vec::as_slice);
            let at = |c: usize| (doc.get(c).copied(), row.get(c).map(String::as_str));
            let col = (0..doc.len().max(row.len())).find(|&c| at(c).0 != at(c).1)?;
            let (was, now) = at(col);
            let key = at(0).1.or(at(0).0).unwrap_or("");
            let column = table.columns.get(col).map_or("", String::as_str);
            Some(Drift::new(
                id,
                key,
                column,
                was.unwrap_or(""),
                now.unwrap_or(""),
            ))
        })
    }
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] row `{}`", self.table, self.row)?;
        if !self.column.is_empty() {
            write!(f, ", column `{}`", self.column)?;
        }
        write!(
            f,
            ": the document has `{}`, the evaluation `{}`",
            self.document, self.report
        )
    }
}

/// The two kinds of block the splice writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// A `[En] title` line and its `|` rows.
    Table,
    /// A `- Shape [En] holds on k of N seeds: …` line.
    Census,
}

/// Why a document cannot take the evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpliceError {
    /// The evaluation has a block the document lacks.
    Missing(Block, String),
    /// The document has a block the evaluation does not produce.
    Unknown(Block, String),
    /// The document has a block twice.
    Duplicate(Block, String),
}

impl fmt::Display for SpliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, block, id) = match self {
            SpliceError::Missing(b, id) => ("the document lacks", b, id),
            SpliceError::Unknown(b, id) => ("the evaluation does not produce", b, id),
            SpliceError::Duplicate(b, id) => ("the document repeats", b, id),
        };
        let kind = match block {
            Block::Table => "table",
            Block::Census => "the census line of",
        };
        write!(f, "{what} {kind} [{id}]")
    }
}

impl std::error::Error for SpliceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::new("EX", "demo", ["k", "v"]);
        t.push_row(["a", "1"]);
        t
    }

    #[test]
    fn report_renders_every_experiment() {
        let tables = run_all(REPORT_SEED);
        let report = Evaluation::new(tables.clone(), &shapes(), &[tables]).render();
        for id in ["[E1]", "[E4]", "[E8]", "[E12]"] {
            assert!(report.contains(id), "missing {id}");
            assert!(
                report.contains(&format!("- Shape {id} holds on 1 of 1 seeds")),
                "missing census line for {id}"
            );
        }
    }

    #[test]
    fn a_false_shape_holds_on_no_seed() {
        let never = Shape {
            table: "EX",
            claim: "never",
            holds: |_| Some(false),
        };
        let runs = vec![vec![demo()]; 3];
        let eval = Evaluation::new(vec![demo()], &[never], &runs);
        assert!(eval
            .render()
            .contains("- Shape [EX] holds on 0 of 3 seeds: never\n"));
    }

    #[test]
    fn splicing_rewrites_tables_and_census_and_keeps_the_prose() {
        let always = Shape {
            table: "EX",
            claim: "always",
            holds: |_| Some(true),
        };
        let eval = Evaluation::new(vec![demo()], &[always], &[vec![demo()]]);
        let doc = "Prose.\n\n[EX] demo\n| k | v |\n| - | - |\n| a | 2 |\n\nVerdict.\n\n\
                   - Shape [EX] holds on 0 of 1 seeds: always\n";
        let spliced = eval.splice(doc).expect("splices");
        assert_eq!(
            spliced.text,
            format!(
                "Prose.\n\n{}\nVerdict.\n\n- Shape [EX] holds on 1 of 1 seeds: always\n",
                demo()
            )
        );
        assert_eq!(
            spliced.drift,
            Some(Drift::new("EX", "a", "v", "2", "1")),
            "the first difference is the edited cell"
        );
        let again = eval.splice(&spliced.text).expect("splices");
        assert_eq!((again.text, again.drift), (spliced.text, None));
        let no_rows = "[EX] demo\n| k | v |\n| - | - |\n\n- Shape [EX] always\n";
        assert_eq!(
            eval.splice(no_rows).expect("splices").drift,
            Some(Drift::new("EX", "a", "k", "", "a")),
            "a row the document lacks is named by its key"
        );
    }
}
