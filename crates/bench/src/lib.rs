//! The paper reproduction: every table and figure of the evaluation as
//! rows of one ledger, `REPRO.json` at the repository root.
//!
//! An artefact (`tab3`, `fig10`, `headline`, ...) is a function that
//! appends rows `(artefact, metric, paper, here, note)`, every value a
//! string at the precision its table prints; [`ARTEFACTS`] maps the
//! names to the functions. `repro` prints every table and rewrites the
//! ledger, `repro fig10 tab3` prints only those two, and
//! `tests/ledger.rs` recomputes the ledger and compares it with the
//! committed file row by row — a model change that moves a number fails
//! a test naming the row.
//!
//! Absolute numbers come from the machine model, so only the *shape*
//! (who wins, by what rough factor, where fusion fails) is comparable
//! with the paper. A row with a `paper` value carries a note; the gaps
//! are explained in DESIGN.md "Where the reproduction differs from the
//! paper". Nothing here times the program (`benchmark/` does): the
//! wall-clock rows of Tab. VIII are printed, never recorded.
//! `ext_machine` records one probe FFN compiled on every machine of
//! [`machine_sweep`]; `tests/machine_sweep.rs` runs the numeric oracle
//! on the same machines.

mod artefacts;
pub mod baselines;
pub mod e2e;
pub mod ffn_share;
mod microbench;
mod roofline;
mod tile_graph;
mod topology;

use artefacts::Inputs;
pub use artefacts::{machine_sweep, ARTEFACTS};

use flashfuser_core::json::escape;

/// One ledger row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Registry name of the artefact (`"fig10"`).
    pub artefact: &'static str,
    /// What the value measures, unique within the artefact.
    pub metric: String,
    /// The paper's value; empty when the paper reports none.
    pub paper: String,
    /// This reproduction's value.
    pub here: String,
    /// Why `here` agrees with or differs from `paper`.
    pub note: String,
    /// `false` for wall-clock and scan-interleaving diagnostics, which
    /// are printed but never written to the ledger.
    pub recorded: bool,
}

/// The rows the artefacts append.
#[derive(Default)]
struct Rows {
    artefact: &'static str,
    rows: Vec<Row>,
}

impl Rows {
    /// A value the paper does not report.
    fn here(&mut self, metric: impl Into<String>, here: impl Into<String>) {
        self.row(metric, "", here, "");
    }

    /// A value, the paper's counterpart (or `""`) and a note.
    fn row(&mut self, metric: impl Into<String>, paper: &str, here: impl Into<String>, note: &str) {
        self.rows.push(Row {
            artefact: self.artefact,
            metric: metric.into(),
            paper: paper.to_string(),
            here: here.into(),
            note: note.to_string(),
            recorded: true,
        });
    }

    /// A wall-clock or interleaving-dependent value: printed only.
    fn timed(&mut self, metric: String, paper: &str, here: String, note: &str) {
        self.row(metric, paper, here, note);
        self.rows.last_mut().expect("a row was just added").recorded = false;
    }
}

/// A named table or figure and the function computing its rows.
pub struct Artefact {
    /// Registry name, as `repro` takes it on the command line.
    pub name: &'static str,
    /// The table's heading.
    pub title: &'static str,
    rows: fn(&Inputs, &mut Rows),
}

impl Artefact {
    const fn new(name: &'static str, title: &'static str, rows: fn(&Inputs, &mut Rows)) -> Self {
        Artefact { name, title, rows }
    }
}

/// Computes the rows of `artefacts` in order; what several of them read
/// (the baseline suite, one compiler's plan cache) is shared.
pub fn compute<'a>(artefacts: impl IntoIterator<Item = &'a Artefact>) -> Vec<Row> {
    let (inputs, mut out) = (Inputs::default(), Rows::default());
    for artefact in artefacts {
        out.artefact = artefact.name;
        (artefact.rows)(&inputs, &mut out);
    }
    out.rows
}

/// The rows of `artefact` as a text table under its title.
pub fn table(artefact: &Artefact, rows: &[Row]) -> String {
    let mut out = format!("== {}: {} ==\n", artefact.name, artefact.title);
    out += &format!("{:<40} {:>12} {:>10}  note\n", "metric", "paper", "here");
    for r in rows.iter().filter(|r| r.artefact == artefact.name) {
        let mark = if r.recorded { "" } else { "(not recorded) " };
        let line = format!(
            "{:<40} {:>12} {:>10}  {mark}{}",
            r.metric, r.paper, r.here, r.note
        );
        out += line.trim_end();
        out.push('\n');
    }
    out
}

/// The ledger document: every recorded row, one per line.
pub fn ledger_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .filter(|r| r.recorded)
        .map(|r| {
            format!(
                "    {{\"artefact\": \"{}\", \"metric\": \"{}\", \"paper\": \"{}\", \"here\": \"{}\", \"note\": \"{}\"}}",
                r.artefact,
                escape(&r.metric),
                escape(&r.paper),
                escape(&r.here),
                escape(&r.note)
            )
        })
        .collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", lines.join(",\n"))
}

/// Geometric mean of an iterator of ratios (NaN when empty).
fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.into_iter().map(f64::ln).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }
}
