//! Wire parasitics of the crossbar array, in the style of the DESTINY
//! modeling tool the paper extracts its wiring numbers from (ref [37]):
//! per-µm RC from the technology node, line lengths from the array
//! geometry, Elmore delay and CV² switching energy, plus a first-order
//! IR-drop attenuation along the source lines.

use serde::{Deserialize, Serialize};

/// Technology-level wire parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireParams {
    /// Wire resistance per micrometre, ohms.
    pub res_per_um: f64,
    /// Wire capacitance per micrometre, farads.
    pub cap_per_um: f64,
    /// Cell pitch along both axes, micrometres.
    pub cell_pitch_um: f64,
    /// Line swing voltage, volts.
    pub swing_v: f64,
    /// Effective on-resistance of one conducting cell, ohms (sets the
    /// IR-drop scale).
    pub cell_on_res: f64,
}

impl WireParams {
    /// 22 nm intermediate-layer wire values (DESTINY-class defaults):
    /// ≈ 3.3 Ω/µm, 0.2 fF/µm, 0.15 µm cell pitch, 1 V swing, 50 kΩ cell.
    pub fn node_22nm() -> WireParams {
        WireParams {
            res_per_um: 3.3,
            cap_per_um: 0.2e-15,
            cell_pitch_um: 0.15,
            swing_v: 1.0,
            cell_on_res: 5.0e4,
        }
    }
}

impl Default for WireParams {
    fn default() -> WireParams {
        WireParams::node_22nm()
    }
}

/// Derived parasitics of a concrete `rows × cols` array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayWires {
    rows: usize,
    cols: usize,
    params: WireParams,
}

impl ArrayWires {
    /// Build for an array of physical dimensions `rows × cols` cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: WireParams) -> ArrayWires {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        ArrayWires { rows, cols, params }
    }

    /// Word-line (row) length in µm.
    fn row_length_um(&self) -> f64 {
        self.cols as f64 * self.params.cell_pitch_um
    }

    /// Bit-line (column) length in µm.
    pub(crate) fn col_length_um(&self) -> f64 {
        self.rows as f64 * self.params.cell_pitch_um
    }

    /// Total capacitance of one row line, farads.
    fn row_capacitance(&self) -> f64 {
        self.row_length_um() * self.params.cap_per_um
    }

    /// Total capacitance of one column line, farads.
    fn col_capacitance(&self) -> f64 {
        self.col_length_um() * self.params.cap_per_um
    }

    /// CV² energy of toggling one row line once, joules.
    pub fn row_drive_energy(&self) -> f64 {
        self.row_capacitance() * self.params.swing_v * self.params.swing_v
    }

    /// CV² energy of toggling one column line once, joules.
    pub fn col_drive_energy(&self) -> f64 {
        self.col_capacitance() * self.params.swing_v * self.params.swing_v
    }

    /// Elmore delay of a row line (distributed RC ≈ RC/2), seconds.
    pub fn row_delay(&self) -> f64 {
        let r = self.row_length_um() * self.params.res_per_um;
        let c = self.row_capacitance();
        0.5 * r * c
    }

    /// First-order IR-drop attenuation seen by the cell at `row` when its
    /// current returns along the shared source line: cells far from the
    /// sense amp lose a fraction of their signal.
    ///
    /// Returns a factor in `(0, 1]`; 1 means no attenuation.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn ir_attenuation(&self, row: usize) -> f64 {
        assert!(row < self.rows, "row out of range");
        let r_line_to_cell = (row + 1) as f64 * self.params.cell_pitch_um * self.params.res_per_um;
        // Voltage divider between the line segment and the cell resistance.
        self.params.cell_on_res / (self.params.cell_on_res + r_line_to_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(rows: usize, cols: usize) -> ArrayWires {
        ArrayWires::new(rows, cols, WireParams::node_22nm())
    }

    #[test]
    fn lengths_scale_with_geometry() {
        let w = wires(100, 800);
        assert!((w.row_length_um() - 120.0).abs() < 1e-9);
        assert!((w.col_length_um() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn energies_are_physical_femtojoules() {
        let w = wires(1000, 8000);
        // A 1.2 mm row at 0.2 fF/µm = 240 fF → 240 fJ at 1 V.
        let e = w.row_drive_energy();
        assert!(e > 1e-14 && e < 1e-12, "row energy {e}");
    }

    #[test]
    fn bigger_arrays_have_bigger_delay() {
        assert!(wires(2000, 2000).row_delay() > wires(100, 100).row_delay());
    }

    #[test]
    fn ir_attenuation_monotone_and_bounded() {
        let w = wires(3000, 3000);
        let near = w.ir_attenuation(0);
        let far = w.ir_attenuation(2999);
        assert!(near > far, "farther cells see more drop");
        assert!(far > 0.9, "22nm 3000-row line keeps >90% signal, got {far}");
        assert!(near <= 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dimension_rejected() {
        let _ = wires(0, 10);
    }
}
