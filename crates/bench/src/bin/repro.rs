//! Reproduces the paper's tables and figures.
//!
//! `repro` prints every table and rewrites `REPRO.json`, the ledger at
//! the repository root; `repro fig10 tab3` prints only the named tables
//! and writes nothing. An unknown name is a usage error (exit 2).

use flashfuser_bench::{compute, ledger_json, table, ARTEFACTS};

/// The committed ledger, resolved from this crate's manifest directory.
const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.json");

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for name in &names {
        let Some(artefact) = ARTEFACTS.iter().find(|a| a.name == *name) else {
            let known: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
            eprintln!("usage: repro [ARTEFACT ...]; one of {}", known.join(" "));
            std::process::exit(2);
        };
        selected.push(artefact);
    }
    if names.is_empty() {
        selected = ARTEFACTS.iter().collect();
    }
    let rows = compute(selected.iter().copied());
    for artefact in &selected {
        println!("{}", table(artefact, &rows));
    }
    if names.is_empty() {
        std::fs::write(LEDGER, ledger_json(&rows)).expect("write REPRO.json");
        println!("wrote REPRO.json");
    }
}
