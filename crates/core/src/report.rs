//! Text rendering of experiment results: the figure/table surrogates the
//! bench harness prints, including the paper's Table 1 solver summary.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use fecim_hwcost::AnnealerKind;

use crate::experiment::ExperimentOutcome;

/// Render an aligned text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<String>, widths: &[usize], out: &mut String| {
        for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    render_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(row.clone(), &widths, &mut out);
    }
    out
}

/// Engineering-notation formatting for joules/seconds.
fn format_si(value: f64, unit: &str) -> String {
    let abs = value.abs();
    let (scaled, prefix) = if abs == 0.0 {
        (0.0, "")
    } else if abs >= 1.0 {
        (value, "")
    } else if abs >= 1e-3 {
        (value * 1e3, "m")
    } else if abs >= 1e-6 {
        (value * 1e6, "µ")
    } else if abs >= 1e-9 {
        (value * 1e9, "n")
    } else {
        (value * 1e12, "p")
    };
    format!("{scaled:.2} {prefix}{unit}")
}

/// Render the Fig. 8(a)/9(a)/10 summary of an experiment outcome.
pub fn format_outcome(outcome: &ExperimentOutcome) -> String {
    let headers = [
        "group",
        "n",
        "iters",
        "ours cut",
        "ours succ",
        "base cut",
        "base succ",
        "E ratio FPGA",
        "E ratio ASIC",
        "t ratio FPGA",
        "t ratio ASIC",
    ];
    let e_fpga = outcome.energy_ratios(AnnealerKind::CimFpga);
    let e_asic = outcome.energy_ratios(AnnealerKind::CimAsic);
    let t_fpga = outcome.time_ratios(AnnealerKind::CimFpga);
    let t_asic = outcome.time_ratios(AnnealerKind::CimAsic);
    let rows: Vec<Vec<String>> = outcome
        .groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            vec![
                format!("{:?}", g.group),
                g.spins.to_string(),
                g.iterations.to_string(),
                format!("{:.3}", g.in_situ.mean_normalized_cut),
                format!("{:.0}%", g.in_situ.success_rate * 100.0),
                format!("{:.3}", g.baseline.mean_normalized_cut),
                format!("{:.0}%", g.baseline.success_rate * 100.0),
                format!("{:.0}x", e_fpga[i].1),
                format!("{:.0}x", e_asic[i].1),
                format!("{:.2}x", t_fpga[i].1),
                format!("{:.2}x", t_asic[i].1),
            ]
        })
        .collect();
    format_table(&headers, &rows)
}

/// One row of the paper's Table 1 (solver summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverRow {
    /// Citation / name.
    pub reference: String,
    /// COP class evaluated.
    pub cop: String,
    /// Per-iteration complexity.
    pub complexity: String,
    /// Whether an `eˣ` unit is required.
    pub exp_computation: bool,
    /// Crossbar / hardware substrate.
    pub hardware: String,
    /// Largest problem size demonstrated.
    pub problem_size: String,
    /// Time to solution (as reported).
    pub time_to_solution: String,
    /// Energy to solution (as reported).
    pub energy_to_solution: String,
    /// Average success rate, percent (`None` when unreported).
    pub success_rate: Option<f64>,
}

/// The literature rows of Table 1 (constants transcribed from the paper).
fn literature_rows() -> Vec<SolverRow> {
    vec![
        SolverRow {
            reference: "[39] memristor Hopfield".into(),
            cop: "Max-Cut".into(),
            complexity: "O(n^2)".into(),
            exp_computation: true,
            hardware: "memristor".into(),
            problem_size: "60 node".into(),
            time_to_solution: "6.6 us".into(),
            energy_to_solution: "0.07 uJ".into(),
            success_rate: Some(65.0),
        },
        SolverRow {
            reference: "[7] FeFET CiM".into(),
            cop: "Max-Cut/coloring".into(),
            complexity: "O(n^2)".into(),
            exp_computation: true,
            hardware: "FeFET".into(),
            problem_size: "21 node".into(),
            time_to_solution: "5.1 us".into(),
            energy_to_solution: "0.2 uJ".into(),
            success_rate: None,
        },
        SolverRow {
            reference: "[13] ReRAM SA".into(),
            cop: "Knapsack".into(),
            complexity: "O(n^2)".into(),
            exp_computation: true,
            hardware: "RRAM".into(),
            problem_size: "10 node".into(),
            time_to_solution: "3.8 us".into(),
            energy_to_solution: "-".into(),
            success_rate: Some(92.4),
        },
        SolverRow {
            reference: "[15] HyCiM".into(),
            cop: "Quadratic knapsack".into(),
            complexity: "O(n^2)".into(),
            exp_computation: true,
            hardware: "FeFET".into(),
            problem_size: "100 node".into(),
            time_to_solution: "1.3 ms".into(),
            energy_to_solution: "2.1 uJ".into(),
            success_rate: Some(98.54),
        },
        SolverRow {
            reference: "[14] C-Nash".into(),
            cop: "Nash equilibrium".into(),
            complexity: "O(n^2)".into(),
            exp_computation: true,
            hardware: "FeFET".into(),
            problem_size: "104 node".into(),
            time_to_solution: "0.08 s".into(),
            energy_to_solution: "-".into(),
            success_rate: Some(81.9),
        },
    ]
}

/// Build the "This Work" row from measured experiment data.
///
/// Time/energy-to-solution use the measured mean iterations-to-target of
/// successful runs (Table 1's definition); when no run of the largest
/// group succeeded, the full-budget cost is reported instead.
pub fn this_work_row(outcome: &ExperimentOutcome) -> SolverRow {
    let largest = outcome
        .groups
        .iter()
        .max_by_key(|g| g.spins)
        // audit:allow(panic-path): `run_experiment` always emits one group per problem size and sizes are never empty; an empty outcome is a harness bug
        .expect("nonempty outcome");
    let ours = largest
        .hardware
        .iter()
        .find(|h| h.kind == AnnealerKind::InSitu)
        // audit:allow(panic-path): every experiment group records hardware cost rows for both annealer kinds, InSitu included, by construction
        .expect("in-situ cost present");
    // Fraction of the iteration budget actually needed to reach the
    // target, on average over successful runs.
    let to_solution_fraction = largest
        .in_situ
        .mean_iterations_to_target
        .map(|iters| iters / largest.iterations as f64)
        .unwrap_or(1.0);
    SolverRow {
        reference: "This Work".into(),
        cop: "Max-Cut".into(),
        complexity: "O(n)".into(),
        exp_computation: false,
        hardware: "DG FeFET".into(),
        problem_size: format!("{} node", largest.spins),
        time_to_solution: format_si(ours.time * to_solution_fraction, "s"),
        energy_to_solution: format_si(ours.energy * to_solution_fraction, "J"),
        success_rate: Some(outcome.in_situ_mean_success() * 100.0),
    }
}

/// Render Table 1: literature rows plus the measured "This Work" row.
pub fn format_table1(outcome: &ExperimentOutcome) -> String {
    let mut rows = literature_rows();
    rows.push(this_work_row(outcome));
    let headers = [
        "solver",
        "COP",
        "complexity",
        "e^x",
        "hardware",
        "size",
        "time",
        "energy",
        "success",
    ];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.reference.clone(),
                r.cop.clone(),
                r.complexity.clone(),
                if r.exp_computation { "yes" } else { "no" }.into(),
                r.hardware.clone(),
                r.problem_size.clone(),
                r.time_to_solution.clone(),
                r.energy_to_solution.clone(),
                r.success_rate
                    .map(|s| format!("{s:.1}%"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    format_table(&headers, &cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_separator() {
        let t = format_table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = format_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn si_formatting() {
        assert_eq!(format_si(0.9e-6, "J"), "900.00 nJ");
        assert_eq!(format_si(2.1e-6, "J"), "2.10 µJ");
        assert_eq!(format_si(4.6e-3, "s"), "4.60 ms");
        assert_eq!(format_si(2.5e-12, "J"), "2.50 pJ");
        assert_eq!(format_si(1.5, "s"), "1.50 s");
        assert_eq!(format_si(0.0, "J"), "0.00 J");
    }

    #[test]
    fn literature_rows_match_paper_count() {
        // Table 1 has five literature solvers plus this work.
        assert_eq!(literature_rows().len(), 5);
        assert!(literature_rows().iter().all(|r| r.exp_computation));
    }
}
