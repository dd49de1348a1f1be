//! Component-level energy/latency database at the 22 nm node.
//!
//! Sources mirrored from the paper's evaluation setup (Sec. 4):
//!
//! * **ADC** — 13-bit 40 MS/s SAR ADC of ref [36], scaled to 22 nm:
//!   ≈2.5 pJ/conversion, 25 ns/conversion (8-to-1 multiplexed).
//! * **Exponential unit** — the `eˣ` hardware of ref [18]: an FPGA
//!   implementation (tens of nJ per evaluation) and an ASIC implementation
//!   (tens of pJ per evaluation).
//! * **Wires** — CV² line energies derived from the DESTINY-style
//!   geometry model in `fecim-crossbar` (ref [37]).
//! * **Digital periphery** — shift-and-add, comparators, RNG, buffers:
//!   sub-pJ events at 22 nm.
//!
//! Absolute joules are model-calibrated (no silicon here); the reproduction
//! targets of Figs. 8–9 are the *ratios* between annealers, which are
//! driven by activity counts times these shared constants.

use serde::{Deserialize, Serialize};

use fecim_crossbar::{ArrayWires, WireParams};

/// Energy and latency of one event of a component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventCost {
    /// Energy per event, joules.
    pub energy: f64,
    /// Latency per event, seconds (0 when fully pipelined/hidden).
    pub latency: f64,
}

/// Which exponential-function hardware the baseline annealer uses
/// (paper ref \[18\] provides both variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExpUnit {
    /// FPGA soft implementation — energy-hungry.
    Fpga,
    /// Dedicated ASIC block.
    Asic,
}

/// The full per-event cost model shared by all annealers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One SAR ADC conversion.
    pub adc_conversion: EventCost,
    /// One `eˣ` evaluation on the FPGA implementation of ref \[18\].
    pub exp_fpga: EventCost,
    /// One `eˣ` evaluation on the ASIC implementation of ref \[18\].
    pub exp_asic: EventCost,
    /// Toggling one row (FG) line.
    pub row_toggle: EventCost,
    /// Precharging one physical column (DL/SL pair) for a read.
    pub column_precharge: EventCost,
    /// One back-gate DAC update (the in-situ temperature encoder).
    pub bg_update: EventCost,
    /// One digital shift-and-add step.
    pub shift_add: EventCost,
    /// One output-buffer write.
    pub buffer_write: EventCost,
    /// Per-iteration digital annealing logic (compare, RNG, spin update).
    pub anneal_logic: EventCost,
    /// Static/leakage power of the array and periphery, watts.
    pub static_power: f64,
}

impl CostModel {
    /// Cost model for an `n`-spin, `k`-bit crossbar at 22 nm, with wire
    /// energies derived from the physical array geometry.
    pub fn paper_22nm(n: usize, quant_bits: u8) -> CostModel {
        CostModel::at_22nm_geometry(n, quant_bits)
    }

    /// Cost model for the same matrix mapped onto `tile_rows`-row tiles:
    /// row/column events are priced at *tile* line lengths (tiles abut
    /// with low-resistance straps), which is how tiling makes array
    /// energy scale with activated tiles instead of whole-array `n`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn paper_22nm_tiled(n: usize, quant_bits: u8, tile_rows: usize) -> CostModel {
        assert!(tile_rows > 0, "tile_rows must be positive");
        CostModel::at_22nm_geometry(tile_rows.min(n), quant_bits)
    }

    /// Shared 22 nm database with wire events priced for a
    /// `rows × (rows·k·2)` physical array segment.
    fn at_22nm_geometry(rows: usize, quant_bits: u8) -> CostModel {
        let physical_cols = rows * quant_bits as usize * 2; // two polarity planes
        let wires = ArrayWires::new(rows.max(1), physical_cols.max(1), WireParams::node_22nm());
        CostModel {
            adc_conversion: EventCost {
                energy: 2.5e-12,
                latency: 25e-9,
            },
            exp_fpga: EventCost {
                energy: 26e-9,
                latency: 30e-9,
            },
            exp_asic: EventCost {
                energy: 80e-12,
                latency: 16e-9,
            },
            row_toggle: EventCost {
                energy: wires.row_drive_energy(),
                latency: wires.row_delay(),
            },
            column_precharge: EventCost {
                energy: wires.col_drive_energy(),
                latency: 0.0, // overlapped with row settling
            },
            bg_update: EventCost {
                energy: 1.0e-12,
                latency: 0.0, // applied while spins update
            },
            shift_add: EventCost {
                energy: 0.1e-12,
                latency: 0.0, // pipelined behind conversions
            },
            buffer_write: EventCost {
                energy: 0.05e-12,
                latency: 0.0,
            },
            anneal_logic: EventCost {
                energy: 0.5e-12,
                latency: 2e-9,
            },
            static_power: 0.0,
        }
    }

    /// Cost of one `eˣ` evaluation on the selected implementation.
    pub fn exp_unit(&self, unit: ExpUnit) -> EventCost {
        match unit {
            ExpUnit::Fpga => self.exp_fpga,
            ExpUnit::Asic => self.exp_asic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_orders_of_magnitude() {
        let m = CostModel::paper_22nm(1000, 4);
        assert!(m.adc_conversion.energy > 1e-12 && m.adc_conversion.energy < 1e-11);
        assert!(m.exp_fpga.energy > m.exp_asic.energy * 100.0);
        // Wire events are well below an ADC conversion.
        assert!(m.column_precharge.energy < m.adc_conversion.energy);
    }

    #[test]
    fn wire_costs_grow_with_array_size() {
        let small = CostModel::paper_22nm(100, 4);
        let large = CostModel::paper_22nm(3000, 4);
        assert!(large.row_toggle.energy > small.row_toggle.energy);
        assert!(large.column_precharge.energy > small.column_precharge.energy);
    }

    #[test]
    fn exp_unit_selector() {
        let m = CostModel::paper_22nm(100, 4);
        assert_eq!(m.exp_unit(ExpUnit::Fpga), m.exp_fpga);
        assert_eq!(m.exp_unit(ExpUnit::Asic), m.exp_asic);
    }
}
