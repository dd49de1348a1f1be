//! Turning activity counts into energy/time reports — the accounting layer
//! behind the paper's Figs. 8–9.

use std::fmt;

use serde::{Deserialize, Serialize};

use fecim_crossbar::ActivityStats;

use crate::components::{CostModel, ExpUnit};

/// Per-component energy breakdown of a run, joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// ADC conversions.
    pub adc: f64,
    /// Exponential-unit evaluations.
    pub exp: f64,
    /// Row/column wire switching.
    pub wires: f64,
    /// Back-gate DAC updates.
    pub bg: f64,
    /// Digital periphery (shift-add, buffers, annealing logic).
    pub digital: f64,
}

impl EnergyReport {
    /// Total energy, joules.
    pub fn total(&self) -> f64 {
        self.adc + self.exp + self.wires + self.bg + self.digital
    }

    /// Scale every component (e.g. per-iteration → per-run).
    pub fn scaled(&self, factor: f64) -> EnergyReport {
        EnergyReport {
            adc: self.adc * factor,
            exp: self.exp * factor,
            wires: self.wires * factor,
            bg: self.bg * factor,
            digital: self.digital * factor,
        }
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.3e} J (adc {:.3e}, exp {:.3e}, wires {:.3e}, bg {:.3e}, digital {:.3e})",
            self.total(),
            self.adc,
            self.exp,
            self.wires,
            self.bg,
            self.digital
        )
    }
}

/// Per-component latency breakdown of a run, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeReport {
    /// Serialized ADC conversion slots.
    pub adc: f64,
    /// Exponential-unit evaluations (on the iteration critical path).
    pub exp: f64,
    /// Row settling (overlapped conversions excluded).
    pub array: f64,
    /// Digital annealing logic.
    pub digital: f64,
}

impl TimeReport {
    /// Total latency, seconds.
    pub fn total(&self) -> f64 {
        self.adc + self.exp + self.array + self.digital
    }

    /// Scale every component.
    pub fn scaled(&self, factor: f64) -> TimeReport {
        TimeReport {
            adc: self.adc * factor,
            exp: self.exp * factor,
            array: self.array * factor,
            digital: self.digital * factor,
        }
    }
}

impl fmt::Display for TimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.3e} s (adc {:.3e}, exp {:.3e}, array {:.3e}, digital {:.3e})",
            self.total(),
            self.adc,
            self.exp,
            self.array,
            self.digital
        )
    }
}

/// Convert activity counts into an energy report.
///
/// `exp_unit` selects which `eˣ` implementation prices the
/// `exp_evaluations` (irrelevant when the count is zero, as for the
/// in-situ annealer).
pub fn energy_of(stats: &ActivityStats, model: &CostModel, exp_unit: ExpUnit) -> EnergyReport {
    let exp_cost = model.exp_unit(exp_unit);
    EnergyReport {
        adc: stats.adc_conversions as f64 * model.adc_conversion.energy,
        exp: stats.exp_evaluations as f64 * exp_cost.energy,
        wires: stats.rows_driven as f64 * model.row_toggle.energy
            + stats.columns_driven as f64 * model.column_precharge.energy,
        bg: stats.bg_updates as f64 * model.bg_update.energy,
        digital: stats.shift_add_ops as f64 * model.shift_add.energy
            + stats.buffer_writes as f64 * model.buffer_write.energy
            + stats.array_ops as f64 * model.anneal_logic.energy,
    }
}

/// Convert activity counts into a latency report.
///
/// ADC time uses the *serialized slot* count (parallel ADCs overlap);
/// wire/array settling is charged once per row pass.
pub fn time_of(stats: &ActivityStats, model: &CostModel, exp_unit: ExpUnit) -> TimeReport {
    let exp_cost = model.exp_unit(exp_unit);
    TimeReport {
        adc: stats.adc_slots as f64 * model.adc_conversion.latency,
        exp: stats.exp_evaluations as f64 * exp_cost.latency,
        array: stats.row_passes as f64 * model.row_toggle.latency,
        digital: stats.array_ops as f64 * model.anneal_logic.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ActivityStats {
        ActivityStats {
            array_ops: 10,
            row_passes: 20,
            adc_conversions: 100,
            adc_slots: 50,
            cells_activated: 500,
            rows_driven: 200,
            columns_driven: 40,
            bg_updates: 10,
            shift_add_ops: 100,
            buffer_writes: 10,
            tiles_activated: 10,
            exp_evaluations: 5,
        }
    }

    #[test]
    fn adc_dominates_paper_energy_profile() {
        // Paper Sec. 4.1: "the major energy consumption are from the ADC
        // and the exponential function implementation".
        let model = CostModel::paper_22nm(1000, 4);
        let e = energy_of(&stats(), &model, ExpUnit::Asic);
        assert!(e.adc + e.exp > 0.5 * e.total(), "{e}");
    }

    #[test]
    fn fpga_exp_costs_more_than_asic() {
        let model = CostModel::paper_22nm(1000, 4);
        let fpga = energy_of(&stats(), &model, ExpUnit::Fpga);
        let asic = energy_of(&stats(), &model, ExpUnit::Asic);
        assert!(fpga.exp > asic.exp * 100.0);
        assert_eq!(fpga.adc, asic.adc);
    }

    #[test]
    fn time_uses_slots_not_conversions() {
        let model = CostModel::paper_22nm(1000, 4);
        let t = time_of(&stats(), &model, ExpUnit::Asic);
        assert!((t.adc - 50.0 * 25e-9).abs() < 1e-15);
    }

    #[test]
    fn scaling_and_merging() {
        let model = CostModel::paper_22nm(100, 4);
        let e = energy_of(&stats(), &model, ExpUnit::Asic);
        let scaled = e.scaled(2.0);
        assert!((scaled.total() - 2.0 * e.total()).abs() < 1e-20);
    }

    #[test]
    fn zero_stats_zero_cost() {
        let model = CostModel::paper_22nm(100, 4);
        let e = energy_of(&ActivityStats::new(), &model, ExpUnit::Fpga);
        assert_eq!(e.total(), 0.0);
        let t = time_of(&ActivityStats::new(), &model, ExpUnit::Fpga);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn display_contains_total() {
        let model = CostModel::paper_22nm(100, 4);
        let e = energy_of(&stats(), &model, ExpUnit::Asic);
        assert!(e.to_string().contains("total"));
        let t = time_of(&stats(), &model, ExpUnit::Asic);
        assert!(t.to_string().contains("total"));
    }
}
