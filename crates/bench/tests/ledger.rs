//! The golden ledger: the committed `REPRO.json` is exactly what the
//! reproduction computes, every paper value carries a note, and the
//! `repro` binary prints a selection without writing anything.

use flashfuser_bench::{compute, ledger_json, ARTEFACTS};
use flashfuser_core::json::{parse, JsonValue};
use std::process::Command;

const COMMITTED: &str = include_str!("../../../REPRO.json");
const DESIGN: &str = include_str!("../../../DESIGN.md");
const LEDGER_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.json");

/// `[artefact, metric, paper, here, note]` of every committed row.
fn committed() -> Vec<[String; 5]> {
    let doc = parse(COMMITTED).expect("REPRO.json is JSON");
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("a rows array");
    let field = |row: &JsonValue, key: &str| {
        let value = row.get(key).and_then(JsonValue::as_str);
        value
            .unwrap_or_else(|| panic!("REPRO.json row without a string {key}: {row:?}"))
            .to_string()
    };
    let keys = ["artefact", "metric", "paper", "here", "note"];
    rows.iter().map(|row| keys.map(|k| field(row, k))).collect()
}

#[test]
fn committed_ledger_is_what_the_reproduction_computes() {
    let rows = compute(ARTEFACTS);
    let computed: Vec<[String; 5]> = rows
        .iter()
        .filter(|r| r.recorded)
        .map(|r| {
            let cells = [r.artefact, &r.metric, &r.paper, &r.here, &r.note];
            cells.map(str::to_string)
        })
        .collect();
    let committed = committed();
    let find = |rows: &[[String; 5]], row: &[String; 5]| -> Option<[String; 5]> {
        rows.iter().find(|r| r[..2] == row[..2]).cloned()
    };
    let mut diff = Vec::new();
    for row in &computed {
        let [artefact, metric, paper, here, note] = row;
        match find(&committed, row) {
            None => diff.push(format!("{artefact} / {metric}: new row, here {here:?}")),
            Some(old) if &old != row => diff.push(format!(
                "{artefact} / {metric}: committed (paper {:?}, here {:?}, note {:?}), computed (paper {paper:?}, here {here:?}, note {note:?})",
                old[2], old[3], old[4]
            )),
            Some(_) => {}
        }
    }
    for row in &committed {
        if find(&computed, row).is_none() {
            diff.push(format!("{} / {}: row gone", row[0], row[1]));
        }
    }
    assert!(
        diff.is_empty(),
        "REPRO.json differs from the reproduction in {} row(s); if the change is intended, \
         regenerate it with `cargo run --release -p flashfuser-bench --bin repro`:\n{}",
        diff.len(),
        diff.join("\n")
    );
    assert!(
        ledger_json(&rows) == COMMITTED,
        "same rows but a different order or layout: regenerate REPRO.json with `repro`"
    );
}

#[test]
fn every_paper_value_has_a_note_and_design_notes_name_real_headings() {
    let headings: Vec<&str> = DESIGN
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim())
        .collect();
    let rows = committed();
    assert!(rows.iter().any(|r| r[4].starts_with("DESIGN.md: ")));
    for [artefact, metric, paper, _, note] in rows {
        if !paper.is_empty() {
            assert!(
                !note.is_empty(),
                "{artefact} / {metric}: a paper value needs a note"
            );
        }
        if let Some(heading) = note.strip_prefix("DESIGN.md: ") {
            assert!(
                headings.contains(&heading),
                "{artefact} / {metric}: DESIGN.md has no heading {heading:?}"
            );
        }
    }
}

#[test]
fn repro_prints_a_selection_and_writes_nothing() {
    let before = std::fs::read(LEDGER_PATH).expect("REPRO.json at the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("tab4")
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.starts_with("== tab4: Table IV"), "{stdout}");
    assert!(stdout.contains("all schedules"), "{stdout}");
    assert_eq!(
        stdout.matches("== ").count(),
        1,
        "only the named table: {stdout}"
    );
    let after = std::fs::read(LEDGER_PATH).expect("REPRO.json at the repository root");
    assert!(before == after, "a selection must not rewrite REPRO.json");

    let unknown = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("run repro");
    assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
}
