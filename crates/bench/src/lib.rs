//! Shared helpers for the table/figure report binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper and prints the same rows/series the paper reports, in plain
//! text. Absolute numbers come from the machine model, so only the
//! *shape* (who wins, by what rough factor, where fusion fails) is
//! comparable with the paper. The one exception is `bench_machine`,
//! the machine-descriptor sensitivity sweep. Nothing here times the
//! program: that is `benchmark/`'s job (see `BENCHMARK.json`).

use flashfuser_baselines::{Baseline, BaselineResult};
use flashfuser_core::MachineDescriptor;
use flashfuser_workloads::Workload;

/// Runs every system of `suite` on every workload, returning
/// `results[workload][system]`.
pub fn run_matrix(workloads: &[Workload], suite: &[Box<dyn Baseline>]) -> Vec<Vec<BaselineResult>> {
    workloads
        .iter()
        .map(|w| suite.iter().map(|s| s.run(&w.chain)).collect())
        .collect()
}

/// Prints a speedup table normalised to the `norm_idx`-th system
/// (PyTorch in the paper's Fig. 10), one row per workload plus a
/// geometric-mean row.
pub fn print_speedup_table(
    title: &str,
    workloads: &[Workload],
    systems: &[&str],
    results: &[Vec<BaselineResult>],
    norm_idx: usize,
) {
    println!("== {title} (speedup vs {}) ==", systems[norm_idx]);
    print!("{:<6}", "id");
    for s in systems {
        print!("{s:>14}");
    }
    println!();
    let mut geo = vec![0.0f64; systems.len()];
    for (w, row) in workloads.iter().zip(results) {
        print!("{:<6}", w.id);
        let norm = row[norm_idx].seconds;
        for (i, r) in row.iter().enumerate() {
            let s = norm / r.seconds;
            geo[i] += s.ln();
            print!("{s:>14.2}");
        }
        println!();
    }
    print!("{:<6}", "geo");
    for g in &geo {
        print!("{:>14.2}", (g / results.len() as f64).exp());
    }
    println!();
}

/// Geometric mean of an iterator of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (sum / n as f64).exp()
}

/// The default evaluation machine.
pub fn h100() -> MachineDescriptor {
    MachineDescriptor::h100_sxm()
}

/// `true` when `FLASHFUSER_QUICK=1`: `tab8_search_time` restricts itself
/// to the smallest chain and `bench_machine` to a reduced sweep written
/// to `BENCH_machine.quick.json` (the verify-gate mode).
pub fn quick_mode() -> bool {
    std::env::var("FLASHFUSER_QUICK").is_ok_and(|v| v == "1")
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
