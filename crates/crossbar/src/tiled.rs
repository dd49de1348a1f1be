//! The programmed DG FeFET crossbar (paper Fig. 6d), composed of
//! fixed-size tiles.
//!
//! Real FeFET arrays are fixed-size: the experimental FeCiM annealer
//! demonstrates small arrays only, and scaled systems compose fixed
//! in-memory tiles (LIMO-style). [`TiledCrossbar`] maps an `n × n`
//! coupling matrix onto a grid of `R × R`-block physical tiles of
//! `tile_rows` rows × `tile_rows` column groups each (`tile_rows · k`
//! physical columns per polarity plane). Each coupling `J_ij` occupies a
//! 1×k bit-sliced subarray of cells. The monolithic `n × (n·k)` array of
//! the paper is the one-tile case, `TiledCrossbar::program(c, cfg, n)`.
//!
//! * **Column stripes** partition the column groups. Each stripe owns its
//!   own bank of `mux_ratio`-to-1 SAR ADCs, so stripes convert in
//!   parallel and their de-quantized partial sums are aggregated
//!   digitally — exactly the digital per-column combination a single
//!   array already performs.
//! * **Row bands** partition the rows. Tiles stacked in one stripe abut
//!   vertically and chain their bit lines: the partial currents of the
//!   activated row bands sum in analog on the shared line before the
//!   stripe ADC converts once. The ADC full scale therefore spans the
//!   full chained column (the one-tile full scale, partitioned
//!   consistently across the stripes' banks).
//!
//! That composition makes [`Fidelity::Ideal`] reads **bit-identical for
//! any tile size**, including sizes that do not divide `n` and the single
//! tile — same global quantization, same per-column analog sums in the
//! same accumulation order, same single ADC quantization point. The
//! `tiled_equivalence` proptests pin every tile size against an
//! independent signal-chain oracle.
//!
//! Three reads share one signal chain — positive/negative input phases,
//! per-bit-slice column currents, multiplexed SAR ADC conversion, digital
//! shift-and-add, sign recombination — and one private sense driver:
//!
//! * [`TiledCrossbar::incremental_form`] — the proposed in-situ read
//!   `σ_rᵀ J σ_c · f(T)`: only the column groups of flipped spins convert,
//!   and the annealing factor enters through the shared back gate;
//! * [`TiledCrossbar::vmv`] — the conventional direct-E read `σᵀJσ` of
//!   the baseline annealers (whole array);
//! * [`TiledCrossbar::mvm`] — the full product `Jσ`, one output per
//!   column (the simulated-bifurcation step).
//!
//! Activity accounting reflects the physical partition: only tiles whose
//! row range holds a driven row *and* whose stripe holds a selected
//! column group activate ([`ActivityStats::tiles_activated`]), row
//! segments toggle per activated tile, and ADC serialization is the
//! worst stripe rather than the whole-array bank.
//!
//! ## Cell store and the single sweep
//!
//! The cells live in one column-major store over global rows: per column
//! group, its nonzero entries (row, magnitude code, polarity plane)
//! ascending by row, plus each entry's programmed threshold offset. A
//! tile holds no cells; it is the model of its own wires. In
//! [`Fidelity::DeviceAccurate`] mode each tile owns its device story: a
//! variation map drawn from a per-tile seed derived deterministically
//! from the config seed (drawn tile-major, then by local column, then by
//! row, and scattered into the store), and tile-local wire parasitics
//! (shorter lines than one big array — the classic tiling benefit of
//! bounded IR drop).
//!
//! A read visits each sensed column's entries once: every driven entry
//! goes to its sign pass's per-(plane, bit slice) line, and a row
//! conducts in at most one pass, so one sweep serves both passes.
//!
//! * **Ideal mode counts.** Every conducting cell carries the same
//!   current, the annealing factor, so a line current is an integer
//!   count of conducting cells times that factor. One table add per
//!   entry counts it into all of its bit slices, and the ADC output per
//!   count comes from a table: `adc.quantize(c)` for `c ∈ 0..=n` at
//!   factor 1, built at programming time, or `factor` added to itself
//!   `c` times for a scaled factor, built per read. That is exactly the
//!   sum the per-cell accumulation forms, since each of its addends is
//!   `factor` or `+0.0`.
//! * **Device-accurate mode sums currents.** Each driven entry's own
//!   DG FeFET current is accumulated per line in row order. Everything
//!   but the entry is fixed per read: the back-gate bias (the bisection
//!   for the factor, memoized on the factor's bits, since a schedule
//!   holds each factor for a plateau of reads) and the channel's
//!   threshold-independent terms. An entry pays only for its own
//!   threshold offset, IR attenuation and noise draw.
//!
//! A read's bookkeeping does not scale with `n` beyond vectorized byte
//! scans: rows map to their sign pass through a constant drive-code
//! table, and the incremental read finds its flipped columns 32 at a
//! time.
//!
//! ## Full reads are differential
//!
//! A dSB step drives every column with the spins of the last step, of
//! which only a few percent changed, so an Ideal read of every column
//! group at factor 1 (`mvm`, `vmv`, and an incremental read whose `σ_c`
//! has no zero) pays only for what changed. The array keeps these reads
//! per drive plane. A bSB step drives one sign plane per bit of its
//! input code, and [`TiledCrossbar::mvm_plane`] reads bit `b` through
//! plane `b`: plane `b` of one step differs from plane `b` of the last
//! only where bit `b` of a position changed, far less than one bit plane
//! differs from the next. `mvm`, `vmv` and full incremental reads use
//! plane 0.
//!
//! From its second full read on, a plane keeps the line counts of every
//! column and the drive of every row. A read finds the rows whose drive
//! changed (32 at a time), moves their entries from the old sign pass's
//! count lanes to the new one's, re-converts only the columns whose
//! counts moved, and hands out every column's kept terms in the sweep's
//! order. A [`Coupling`] is symmetric, so column `i`'s entries are row
//! `i`'s and the store is its own row-major index. The counts are
//! integers and the conversion is a table lookup, so every output bit
//! and every [`ActivityStats`] field equals a fresh sweep. When the moves
//! would cost more count adds than a recount's share per sweep thread (a
//! fresh drive, or a low bit plane whose bits churn), the read recounts:
//! the sweep at its speed and fan-out, writing the counts it keeps. A
//! plane costs its row drives, line counts and conversions, about 150
//! bytes per column; the planes share one update scratch. An array that
//! never makes a second full read — the in-situ anneal reads one
//! calibration `vmv` — keeps nothing, and device-accurate reads, whose
//! currents carry noise, always sweep.
//!
//! Converting a column's counts is a fixed-width loop: one match on the
//! slice width `k` picks a loop over `k` slices with constant weights
//! `2^b` and four independent (pass, plane) accumulators. Each
//! accumulator adds in the order of the generic shift-and-add, which
//! device-accurate reads keep, so the two agree bit for bit.
//!
//! ## Parallel sensing
//!
//! Column stripes convert on physically independent SAR ADC banks, so the
//! simulator mirrors that independence in wall-clock: large reads fan the
//! per-stripe sensing work out across threads ([`SensingMode`]). The unit
//! of parallel work is a *(stripe, column chunk)* — a chained column
//! sense spans every row-band tile of its stripe as one analog sum with a
//! single quantization point, so it cannot be split further without
//! changing the physics. Determinism is by construction, not by luck:
//! every chunk's per-column term pairs are computed independently and
//! then handed out on the calling thread in exactly the sequential order
//! (sign pass, then stripe-ascending, then column-ascending), so results
//! are **bit-identical at any thread count**. Activity counters are
//! likewise accumulated on the owner thread — no locks or atomics
//! serialize the hot sensing loop. [`SensingMode::Auto`] fans out only
//! reads whose sensed entries repay the thread spawn.
//!
//! Read noise parallelizes too: the multiplicative noise of
//! [`Fidelity::DeviceAccurate`] reads comes from a counter-based
//! generator ([`fecim_device::ReadNoise`]), so every draw is a pure
//! function of `(noise key, read ordinal, row, column)` rather than of
//! the traversal order. The array bumps one monotonic `read_ordinal`
//! per read and any thread can evaluate any cell's draw independently —
//! noisy device-accurate sensing takes the same fan-out as Ideal mode
//! and stays bit-identical at every thread count.

use rayon::prelude::*;

use fecim_device::{DgFefet, ReadNoise, StoredBit, VariationSampler};
use fecim_ising::Coupling;

use crate::adc::{MuxAssignment, SarAdc};
use crate::array::{ideal_cell_factor, vbg_for_factor, CellRead, CrossbarConfig, Fidelity};
use crate::parasitics::ArrayWires;
use crate::quant::QuantStep;
use crate::stats::ActivityStats;

/// Smallest sensing work, in Ideal entries, for which
/// [`SensingMode::Auto`] fans a sweep out. Each fan-out pays the rayon
/// shim's per-call thread spawn (~0.1 ms on a 2-CPU host); the count
/// kernel senses an Ideal entry in 2–3 ns. Measured there on swept Ideal
/// MVMs, the sequential read won at 76k entries and the parallel one won
/// by 1.5× at 236k, so the break-even lies near this threshold. Only
/// sweeps consult it: first full reads, recounts (the dense n = 896
/// array's fan out) and scaled or partial reads. The in-situ incremental
/// read (`t ≈ 2` columns) and sparse G-set sweeps stay on the calling
/// thread, and a differential full read always does.
const AUTO_PARALLEL_MIN_WORK: usize = 1 << 17;

/// Sensing cost of one device-accurate entry in Ideal entries. Measured
/// sequentially on the dense n = 896 `vmv` (2-CPU host), a noisy entry
/// (DG FeFET current from the per-read constants plus the noise draw)
/// takes ~130 ns and an Ideal entry ~2.8 ns. The n = 800 dSB MVM
/// (~16k entries at degree 20) therefore fans out, while an in-situ read
/// (`t = 2` columns, ~40 entries) stays on the calling thread.
const DEVICE_ENTRY_WORK: usize = 48;

/// Floor on columns per parallel work chunk: small enough to
/// load-balance stripes of uneven occupancy, large enough that a chunk
/// amortizes its dispatch. The actual chunk adapts upward so a read
/// produces only a few chunks per worker (see `TiledCrossbar::sense`).
const PARALLEL_COLUMN_CHUNK: usize = 32;

/// How [`TiledCrossbar`] schedules per-stripe sensing across threads.
///
/// Whatever the mode, results are bit-identical: the parallel reduction
/// replays the sequential accumulation order. The mode only trades
/// wall-clock for thread dispatch overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensingMode {
    /// Sense every stripe on the calling thread, in stripe order.
    Sequential,
    /// Fan out across threads when the read senses enough stored entries
    /// to amortize the dispatch cost (the default).
    #[default]
    Auto,
    /// Fan out for every parallelizable read regardless of size
    /// (benchmarking and adversarial determinism tests).
    Parallel,
}

/// One fixed-size physical tile, kept for its wire model: the block of
/// couplings with rows in `[row_start, row_start + tile_rows)` and column
/// groups in its stripe sees IR drop along its own, tile-local lines. The
/// cells themselves live in the array's column-major store.
#[derive(Debug, Clone)]
struct Tile {
    /// First global row held by this tile.
    row_start: usize,
    /// Tile-local wire parasitics (lines span only the tile).
    wires: ArrayWires,
}

/// One stored coupling entry: the nonzero magnitude code of `J_ij`, the
/// polarity plane that holds it, and its global row `i`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    row: u32,
    code: u8,
    /// `0` for the positive plane, `1` for the negative plane.
    plane: u8,
}

/// A coupling matrix mapped onto a grid of fixed-size DG FeFET tiles —
/// one tile of `n` rows for the monolithic array.
///
/// See the module docs for the composition rules and the equivalence
/// guarantee.
#[derive(Debug, Clone)]
pub struct TiledCrossbar {
    config: CrossbarConfig,
    tile_rows: usize,
    /// Bands per axis: `ceil(n / tile_rows)`.
    bands: usize,
    /// Matrix dimension `n`.
    n: usize,
    /// Global quantization step (J units per code LSB), shared by every
    /// tile.
    scale: f64,
    adc: SarAdc,
    /// ADC output of one (plane, bit slice) line carrying `c` unit cell
    /// currents, for every `c ∈ 0..=n`: the Ideal conversion at factor 1.
    unit_levels: Vec<f64>,
    /// Per column stripe: the stripe's own multiplexed ADC bank.
    stripe_mux: Vec<MuxAssignment>,
    /// Tiles in row-band-major order: `tiles[band_r * bands + band_c]`.
    tiles: Vec<Tile>,
    /// Column-major cell store over global rows: column group `j` holds
    /// `cells[col_start[j]..col_start[j + 1]]`, ascending by row.
    col_start: Vec<usize>,
    cells: Vec<Cell>,
    /// Programmed threshold offset per entry of `cells`, drawn per tile
    /// (device-accurate mode; empty for Ideal arrays, which never read
    /// them).
    vth_offsets: Vec<f32>,
    cell: DgFefet,
    full_scale_current: f64,
    /// Counter-based multiplicative read noise, keyed per array.
    noise: ReadNoise,
    /// Monotonic read counter: one bump per read, addressing the noise
    /// draws of that read.
    read_ordinal: u64,
    /// One-entry memo of [`vbg_for_factor`]: the last device read's
    /// factor (exact bits; seeded with factor 0) and its back-gate bias.
    /// An annealing schedule holds each factor for a plateau of reads.
    vbg_memo: (u64, f64),
    /// ADC slots of one sign pass of a read over every column group.
    full_read_slots: usize,
    /// Per drive plane, grown on first use: the plane's last Ideal full
    /// read at factor 1, once there have been two.
    full_reads: Vec<FullReads>,
    update_scratch: UpdateScratch,
    sensing: SensingMode,
    stats: ActivityStats,
}

/// Read-level sensing context shared by every column sense of one read.
#[derive(Debug, Clone, Copy)]
struct SenseContext<'a> {
    /// Row drive; [`DRIVE_CODE`] maps each input to its sign pass.
    rows: &'a [i8],
    /// Ideal mode: the ADC output per conducting-cell count at this
    /// read's annealing factor.
    levels: &'a [f64],
    /// Device mode: the cell bias and normalization the annealing
    /// factor implies; `None` for Ideal reads.
    device: Option<CellRead>,
    /// The read's noise-counter ordinal.
    ordinal: u64,
}

/// The row drive of the two sign passes every read makes: the crossbar
/// accepts non-negative inputs only, so `+1` rows conduct first, then
/// `−1` rows.
const SIGNS: [i8; 2] = [1, -1];

/// Drive code of a row that conducts in neither sign pass.
const UNDRIVEN: u8 = 2;

/// Per row input (as its byte): the sign pass it conducts in (index into
/// [`SIGNS`]), or [`UNDRIVEN`]. A read looks its rows up in place, so
/// it never builds an `n`-long drive vector.
static DRIVE_CODE: [u8; 256] = {
    let mut table = [UNDRIVEN; 256];
    table[SIGNS[0] as u8 as usize] = 0;
    table[SIGNS[1] as u8 as usize] = 1;
    table
};

/// The sign pass row `row` conducts in, or [`UNDRIVEN`].
fn drive(rows: &[i8], row: usize) -> u8 {
    DRIVE_CODE[usize::from(rows[row] as u8)]
}

/// Rows driven in each sign pass: branch-free byte-wide counts per
/// block of 255 rows, which vectorize.
fn pass_row_counts(rows: &[i8]) -> [u64; 2] {
    SIGNS.map(|sign| {
        rows.chunks(u8::MAX as usize)
            .map(|block| u64::from(block.iter().fold(0u8, |c, &r| c + u8::from(r == sign))))
            .sum()
    })
}

/// Column groups of nonzero digital weight, ascending. The weights are
/// tested 32 columns (one 256-bit word) at a time, so an in-situ read
/// pays one test per 32 columns plus its few flipped columns.
fn nonzero_columns(weights: &[i8]) -> Vec<usize> {
    let (words, _) = weights.as_chunks::<32>();
    let mut active = Vec::new();
    for (w, word) in words.iter().enumerate() {
        if word.iter().fold(0, |any, &v| any | v) != 0 {
            active.extend((32 * w..32 * w + 32).filter(|&j| weights[j] != 0));
        }
    }
    active.extend((32 * words.len()..weights.len()).filter(|&j| weights[j] != 0));
    active
}

/// Per magnitude code: bit slice `b` of the code as the count it adds to
/// line `b`, so one 8-lane add counts a cell into all of its conducting
/// bit lines, and a differential read moves it between sign passes with
/// one subtract and one add.
static SLICE_COUNTS: [[u32; 8]; 256] = slice_counts();

const fn slice_counts() -> [[u32; 8]; 256] {
    let mut table = [[0u32; 8]; 256];
    let mut code = 0;
    while code < 256 {
        let mut b = 0;
        while b < 8 {
            table[code][b] = ((code >> b) & 1) as u32;
            b += 1;
        }
        code += 1;
    }
    table
}

/// Conducting cells on each (sign pass, plane, bit slice) line of one
/// column group.
type LineCounts = [[[u32; 8]; 2]; 2];

/// One sensed column group before its digital weight: per sign pass the
/// shift-and-added plane difference `pos − neg`, and the cells it
/// activated.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnRead {
    lines: [f64; 2],
    cells: u64,
}

/// The digital side of a column sense: the stripe ADC converts the first
/// `k` bit-slice lines of every (sign pass, plane) once, the periphery
/// shift-and-adds each plane's slices and subtracts the planes.
fn shift_add<T: Copy>(
    lines: &[[[T; 8]; 2]; 2],
    k: usize,
    mut convert: impl FnMut(T) -> f64,
) -> [f64; 2] {
    lines.map(|[pos, neg]| {
        let mut pos_val = 0.0;
        let mut neg_val = 0.0;
        for (b, (&p, &q)) in pos.iter().zip(&neg).take(k).enumerate() {
            let weight = (1u64 << b) as f64;
            pos_val += weight * convert(p);
            neg_val += weight * convert(q);
        }
        pos_val - neg_val
    })
}

/// The Ideal conversion of one column group's line counts: a line of `c`
/// conducting cells converts to `levels[c]`. Every Ideal read, swept or
/// differential, converts through here, at the slice width `k` the one
/// match picks.
fn convert_counts(counts: &LineCounts, levels: &[f64], k: usize) -> ColumnRead {
    match k {
        1 => convert_slices::<1>(counts, levels),
        2 => convert_slices::<2>(counts, levels),
        3 => convert_slices::<3>(counts, levels),
        4 => convert_slices::<4>(counts, levels),
        5 => convert_slices::<5>(counts, levels),
        6 => convert_slices::<6>(counts, levels),
        7 => convert_slices::<7>(counts, levels),
        8 => convert_slices::<8>(counts, levels),
        _ => unreachable!("programming checks quant_bits in 1..=8"),
    }
}

/// [`shift_add`] over `K` slices of counts: the four (pass, plane)
/// accumulators are independent, so each slice's four lookups overlap,
/// and each accumulator adds `2^b · levels[count]` for `b = 0..K` in
/// the order `shift_add` does, which keeps every bit.
fn convert_slices<const K: usize>(counts: &LineCounts, levels: &[f64]) -> ColumnRead {
    let mut sums = [[0.0f64; 2]; 2];
    let mut cells = 0u64;
    for b in 0..K {
        let weight = (1u64 << b) as f64;
        for (sums, lines) in sums.iter_mut().zip(counts) {
            for (sum, line) in sums.iter_mut().zip(lines) {
                cells += u64::from(line[b]);
                *sum += weight * levels[line[b] as usize];
            }
        }
    }
    ColumnRead {
        lines: sums.map(|[pos, neg]| pos - neg),
        cells,
    }
}

/// Hand every sensed column's weighted term to `sink` in the sequential
/// order — each column's first-pass term, then each column's second-pass
/// term — and return the cells the columns activated.
fn emit<'c>(
    columns: impl Iterator<Item = (usize, &'c ColumnRead)> + Clone,
    weight: impl Fn(usize) -> f64,
    sink: &mut impl FnMut(usize, f64),
) -> u64 {
    for (pass, sign) in SIGNS.into_iter().enumerate() {
        for (j, column) in columns.clone() {
            sink(j, f64::from(sign) * weight(j) * column.lines[pass]);
        }
    }
    columns.map(|(_, column)| column.cells).sum()
}

/// What an Ideal array keeps of its full reads at factor 1 on one drive
/// plane (see the module docs, "Full reads are differential").
#[derive(Debug, Clone, Default)]
enum FullReads {
    /// No full read yet.
    #[default]
    None,
    /// One full read, swept and not kept.
    One,
    /// The line counts of the last full read.
    Kept(Box<KeptRead>),
}

/// The last full read: its row drive and, per column group, its line
/// counts and their conversion.
#[derive(Debug, Clone)]
struct KeptRead {
    rows: Vec<i8>,
    counts: Vec<LineCounts>,
    columns: Vec<ColumnRead>,
}

/// The scratch of an update, shared by every plane's kept read: the rows
/// whose drive changed, whether each column's counts moved, and those
/// columns in the order they first moved.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    changed_rows: Vec<usize>,
    dirty: Vec<bool>,
    dirty_columns: Vec<usize>,
}

/// One read as the sense driver sees it: the row drive, the column
/// groups that convert, the digital weight each column's output
/// carries, and the read's digital-side accounting.
#[derive(Debug, Clone, Copy)]
struct Read<'a> {
    /// Row drive (`σ_r` or `σ`).
    rows: &'a [i8],
    /// Converted column groups, ascending.
    active: &'a [usize],
    /// Per-column digital weight (`σ_c` or `σ`); `None` weights every
    /// column by 1 (the MVM keeps each output).
    weights: Option<&'a [i8]>,
    /// Back-gate annealing factor.
    factor: f64,
    /// The drive plane whose kept full read serves the read.
    plane: usize,
    /// Whether the stripes' partial sums meet in one cross-stripe
    /// digital adder (the scalar reads).
    cross_stripe_sum: bool,
    /// Digital outputs leaving the array: 1 for a scalar, `n` for the
    /// MVM.
    buffer_writes: u64,
}

/// Whether [`SensingMode::Auto`] fans out a read that senses `touched`
/// stored entries: only when the sensing work repays the thread spawn.
fn auto_fans_out(touched: usize, device: bool) -> bool {
    touched * if device { DEVICE_ENTRY_WORK } else { 1 } >= AUTO_PARALLEL_MIN_WORK
}

/// The splitmix64 finalizer: the one bit-mixing primitive behind every
/// derived seed in this crate (per-tile variation maps here, per-trial
/// silicon seeds in `batch`), so the avalanche behavior can only ever
/// change in one place.
pub(crate) fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-tile seed: a splitmix64 finalizer over the config
/// seed and the tile's grid coordinates, so every tile draws an
/// independent — but fully reproducible — variation map.
fn tile_seed(base: u64, band_r: usize, band_c: usize) -> u64 {
    splitmix64_finalize(base ^ ((band_r as u64) << 32) ^ (band_c as u64) ^ 0x9E37_79B9_7F4A_7C15)
}

/// The column-major cell store of `coupling` quantized to `bits`-bit
/// codes: per column group its entries with a nonzero code, ascending by
/// row, and the column starts. A [`Coupling`] is symmetric and visits a
/// row in ascending column order, so column `j`'s entries are row `j`'s
/// and the store is read straight off the rows: one pass for the full
/// scale, one for the codes, no per-column buffers. The store equals
/// [`QuantizedCoupling::from_coupling`](crate::QuantizedCoupling::from_coupling)'s columns (debug builds assert
/// the contract it rests on).
fn column_store<C: Coupling>(coupling: &C, bits: u8) -> (Vec<usize>, Vec<Cell>, QuantStep) {
    let n = coupling.dimension();
    let (mut max_abs, mut entries) = (0.0f64, 0usize);
    for i in 0..n {
        coupling.for_each_in_row(i, |_, v| {
            max_abs = max_abs.max(v.abs());
            entries += 1;
        });
    }
    let step = QuantStep::new(max_abs, bits);
    let mut col_start = Vec::with_capacity(n + 1);
    let mut cells = Vec::with_capacity(entries);
    col_start.push(0);
    for j in 0..n {
        let mut next_row = 0;
        coupling.for_each_in_row(j, |i, v| {
            debug_assert!(i >= next_row, "row {j} of the coupling is not ascending");
            debug_assert!(
                coupling.get(i, j).to_bits() == v.to_bits(),
                "the coupling is not symmetric at ({i}, {j})"
            );
            next_row = i + 1;
            let code = step.code(v);
            if code > 0 {
                let plane = if v > 0.0 { 0 } else { 1 };
                cells.push(Cell {
                    row: i as u32,
                    code,
                    plane,
                });
            }
        });
        col_start.push(cells.len());
    }
    (col_start, cells, step)
}

impl TiledCrossbar {
    /// Program a coupling matrix onto a grid of `tile_rows`-row tiles.
    ///
    /// Quantization is global (one `max|J|` full scale shared by every
    /// tile — the same codes the monolithic array would hold). The codes
    /// go to one column-major store, read straight off the coupling's
    /// rows; in device-accurate mode each tile then samples the variation
    /// of its own block of cells from a seed derived from `config.seed`
    /// and its grid position.
    ///
    /// # Panics
    ///
    /// Panics if the coupling is empty, `tile_rows == 0` or
    /// `config.quant_bits` is outside `1..=8`.
    pub fn program<C: Coupling>(
        coupling: &C,
        config: CrossbarConfig,
        tile_rows: usize,
    ) -> TiledCrossbar {
        let n = coupling.dimension();
        assert!(n > 0, "empty coupling matrix");
        assert!(tile_rows > 0, "tile_rows must be positive");
        let (col_start, cells, step) = column_store(coupling, config.quant_bits);
        let bands = n.div_ceil(tile_rows);
        // The stripe ADC converts the full chained column: same full
        // scale as the monolithic array, which is what keeps Ideal-mode
        // reads bit-identical.
        let adc = SarAdc::new(config.adc_bits, n as f64);
        let k = config.quant_bits as usize;
        let band = |b: usize| b * tile_rows..((b + 1) * tile_rows).min(n);

        let stripe_mux = (0..bands)
            .map(|band_c| {
                let col_count = band(band_c).len();
                if config.interleaved_mux {
                    MuxAssignment::interleaved(col_count, config.mux_ratio)
                } else {
                    MuxAssignment::blocked(col_count, config.mux_ratio)
                }
            })
            .collect();
        let mut tiles = Vec::with_capacity(bands * bands);
        for band_r in 0..bands {
            for band_c in 0..bands {
                tiles.push(Tile {
                    row_start: band(band_r).start,
                    wires: ArrayWires::new(
                        band(band_r).len(),
                        band(band_c).len() * k,
                        config.wires,
                    ),
                });
            }
        }
        // Per-tile variation maps (write-verify pass per tile), drawn
        // tile-major, then local column, then row — each tile's block of
        // a column is a contiguous row range of that column's entries.
        let mut vth_offsets = Vec::new();
        if config.fidelity == Fidelity::DeviceAccurate {
            vth_offsets = vec![0.0f32; cells.len()];
            for band_r in 0..bands {
                let rows = band(band_r);
                for band_c in 0..bands {
                    let mut sampler = VariationSampler::new(
                        config.variation,
                        tile_seed(config.seed, band_r, band_c),
                    );
                    for j in band(band_c) {
                        let column = &cells[col_start[j]..col_start[j + 1]];
                        let first = column.partition_point(|c| (c.row as usize) < rows.start);
                        let last = column.partition_point(|c| (c.row as usize) < rows.end);
                        for offset in &mut vth_offsets[col_start[j] + first..col_start[j] + last] {
                            *offset = (sampler.d2d_vth_offset() + sampler.c2c_vth_offset()) as f32;
                        }
                    }
                }
            }
        }

        let mut cell = DgFefet::new(config.device);
        cell.program(StoredBit::One);
        let full_scale_current = cell.full_scale_current();
        let vbg_memo = (
            0.0f64.to_bits(),
            vbg_for_factor(&cell, full_scale_current, 0.0),
        );
        let noise = ReadNoise::new(
            config.seed ^ 0x9E37_79B9_7F4A_7C15,
            config.variation.read_noise_rel,
        );
        let mut array = TiledCrossbar {
            config,
            tile_rows,
            bands,
            n,
            scale: step.scale,
            unit_levels: (0..=n).map(|c| adc.quantize(c as f64)).collect(),
            adc,
            stripe_mux,
            tiles,
            col_start,
            cells,
            vth_offsets,
            cell,
            full_scale_current,
            noise,
            read_ordinal: 0,
            vbg_memo,
            full_read_slots: 0,
            full_reads: Vec::new(),
            update_scratch: UpdateScratch::default(),
            sensing: SensingMode::default(),
            stats: ActivityStats::new(),
        };
        let all: Vec<usize> = (0..n).collect();
        array.full_read_slots = array.slots(&all, &array.stripe_partition(&all));
        array
    }

    /// Override how sensing work is scheduled across threads (results are
    /// bit-identical in every mode; see [`SensingMode`]).
    pub fn with_sensing_mode(mut self, mode: SensingMode) -> TiledCrossbar {
        self.sensing = mode;
        self
    }

    /// Matrix dimension `n` (spins).
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// The configured tile height (rows per tile).
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Tile grid as `(row_bands, column_stripes)`.
    pub fn tile_grid(&self) -> (usize, usize) {
        (self.bands, self.bands)
    }

    /// Total number of physical tiles instantiated.
    pub fn tile_count(&self) -> usize {
        self.bands * self.bands
    }

    /// The global quantization step (J units per code LSB) shared by
    /// every tile — the same step the monolithic array would use.
    pub fn quant_scale(&self) -> f64 {
        self.scale
    }

    /// The configuration used to build this array.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Accumulated activity since construction or the last
    /// [`TiledCrossbar::reset_stats`].
    pub fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    /// Clear the activity counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Normalized ideal-cell current at back-gate voltage `vbg` — the
    /// hardware annealing factor (shared back-gate DAC drives every
    /// activated tile's plane).
    pub fn cell_factor(&self, vbg: f64) -> f64 {
        ideal_cell_factor(&self.cell, self.full_scale_current, vbg)
    }

    /// The back-gate bias of a device read at annealing `factor`:
    /// [`vbg_for_factor`] through the one-entry memo, so a read that
    /// repeats the previous factor skips the bisection.
    fn vbg_for(&mut self, factor: f64) -> f64 {
        if self.vbg_memo.0 != factor.to_bits() {
            let vbg = vbg_for_factor(&self.cell, self.full_scale_current, factor);
            self.vbg_memo = (factor.to_bits(), vbg);
        }
        self.vbg_memo.1
    }

    /// The in-situ incremental-E read `σ_rᵀ J σ_c · factor`: only the
    /// stripes holding flipped-spin column groups and the row bands
    /// holding driven rows activate, and each selected column's output
    /// carries the digital weight `σ_c[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths differ from the array dimension.
    pub fn incremental_form(&mut self, sigma_r: &[i8], sigma_c: &[i8], factor: f64) -> f64 {
        let n = self.dimension();
        assert_eq!(sigma_r.len(), n, "sigma_r length mismatch");
        assert_eq!(sigma_c.len(), n, "sigma_c length mismatch");
        let active = nonzero_columns(sigma_c);
        let mut total = 0.0f64;
        let activated = self.sense(
            Read {
                rows: sigma_r,
                active: &active,
                weights: Some(sigma_c),
                factor,
                plane: 0,
                cross_stripe_sum: true,
                buffer_writes: 1,
            },
            |_, term| total += term,
        );
        // The BG DAC refresh reaches each activated tile's back-gate
        // plane (one update when the read activates nothing).
        self.stats.bg_updates += activated.max(1);
        self.scale * total
    }

    /// The conventional direct-E read `σᵀJσ`: every stripe activates and
    /// converts on its own ADC bank, and column `j`'s output carries the
    /// digital weight `σ[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma.len()` differs from the array dimension.
    pub fn vmv(&mut self, sigma: &[i8]) -> f64 {
        let n = self.dimension();
        assert_eq!(sigma.len(), n, "sigma length mismatch");
        let active: Vec<usize> = (0..n).collect();
        let mut total = 0.0f64;
        self.sense(
            Read {
                rows: sigma,
                active: &active,
                weights: Some(sigma),
                factor: 1.0,
                plane: 0,
                cross_stripe_sum: true,
                buffer_writes: 1,
            },
            |_, term| total += term,
        );
        self.scale * total
    }

    /// The full matrix-vector read: drive every row with `σ` and return
    /// the per-column digital outputs `(Jσ)_j` in coupling units — one
    /// array read regardless of `n`, the synchronous update primitive
    /// of the simulated-bifurcation engines.
    ///
    /// Every stripe activates and converts on its own ADC bank; each
    /// chained column quantizes once per (plane, bit slice) exactly as
    /// in [`TiledCrossbar::vmv`], so Ideal-mode outputs are
    /// **bit-identical per column** for any tile size and any
    /// [`SensingMode`]. Unlike `vmv` there is no cross-stripe digital
    /// aggregation — each output column lives in exactly one stripe —
    /// and the whole vector leaves the array digitally
    /// (`buffer_writes += n`).
    ///
    /// # Panics
    ///
    /// Panics if `sigma.len()` differs from the array dimension.
    pub fn mvm(&mut self, sigma: &[i8]) -> Vec<f64> {
        self.mvm_plane(sigma, 0)
    }

    /// [`TiledCrossbar::mvm`] as plane `plane` of a bit-serial drive: the
    /// same read, outputs and accounting, but an Ideal array keeps it as
    /// that plane's full read, so the next read of the plane pays only
    /// for the rows whose drive changed since then (module docs, "Full
    /// reads are differential"). `mvm`, `vmv` and full incremental reads
    /// keep plane 0. Each plane in use keeps its own read, `n` row
    /// drives and `n` columns of line counts.
    ///
    /// # Panics
    ///
    /// Panics if `sigma.len()` differs from the array dimension.
    pub fn mvm_plane(&mut self, sigma: &[i8], plane: usize) -> Vec<f64> {
        let n = self.dimension();
        assert_eq!(sigma.len(), n, "sigma length mismatch");
        let active: Vec<usize> = (0..n).collect();
        let mut out = vec![0.0f64; n];
        self.sense(
            Read {
                rows: sigma,
                active: &active,
                weights: None,
                factor: 1.0,
                plane,
                cross_stripe_sum: false,
                buffer_writes: n as u64,
            },
            |j, term| out[j] += term,
        );
        for value in &mut out {
            *value *= self.scale;
        }
        out
    }

    /// Contiguous per-stripe ranges over the (sorted) active column list:
    /// `(stripe, start..end)` index ranges into `active`, ascending — the
    /// single partition both the activation count and the read reuse.
    fn stripe_partition(&self, active: &[usize]) -> Vec<(usize, std::ops::Range<usize>)> {
        if active.len() == self.n {
            // Every column group: the stripes are the bands.
            return (0..self.bands)
                .map(|s| {
                    (
                        s,
                        s * self.tile_rows..((s + 1) * self.tile_rows).min(self.n),
                    )
                })
                .collect();
        }
        let mut parts: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for (idx, &j) in active.iter().enumerate() {
            let s = j / self.tile_rows;
            match parts.last_mut() {
                Some((stripe, range)) if *stripe == s => range.end = idx + 1,
                _ => parts.push((s, idx..idx + 1)),
            }
        }
        parts
    }

    /// Row bands holding at least one nonzero row input.
    fn driven_band_count(&self, rows: &[i8]) -> u64 {
        rows.chunks(self.tile_rows)
            .filter(|band| band.iter().any(|&v| v != 0))
            .count() as u64
    }

    /// Stored entries of column group `j`.
    fn column(&self, j: usize) -> std::ops::Range<usize> {
        self.col_start[j]..self.col_start[j + 1]
    }

    /// Ideal ADC output per conducting-cell count at a scaled annealing
    /// factor, for counts `0..=longest`. Every conducting cell carries
    /// exactly `factor`, so a line of `c` cells holds `factor` added to
    /// itself `c` times — the very sum the per-cell accumulation forms.
    fn factor_levels(&self, factor: f64, longest: usize) -> Vec<f64> {
        let mut current = 0.0f64;
        let mut levels = Vec::with_capacity(longest + 1);
        levels.push(self.adc.quantize(current));
        for _ in 0..longest {
            current += factor;
            levels.push(self.adc.quantize(current));
        }
        levels
    }

    /// The one sense driver behind every read: each column group is
    /// sensed through its stripe's chained bit lines for both sign passes
    /// at once, and its outputs are weighted digitally and handed to
    /// `sink(column, term)` in the sequential order (sign pass, then
    /// stripe-ascending, then column-ascending) — whichever
    /// [`SensingMode`] ran it, and whether the read swept or updated its
    /// kept full read. Columns of weight 0 are not sensed.
    ///
    /// Returns the number of tiles the read activated: tiles whose
    /// stripe holds an active column group *and* whose row band holds a
    /// driven row.
    fn sense(&mut self, read: Read<'_>, mut sink: impl FnMut(usize, f64)) -> u64 {
        let stripes = self.stripe_partition(read.active);
        let activated = self.account(&read, &stripes);
        let Read {
            rows,
            active,
            weights,
            factor,
            plane,
            ..
        } = read;
        let device = (self.config.fidelity == Fidelity::DeviceAccurate)
            .then(|| self.vbg_for(factor))
            .map(|vbg| CellRead::new(&self.cell, self.full_scale_current, vbg));
        // Every read gets its own noise-counter ordinal; within one read
        // each driven cell is sensed exactly once (a row conducts in only
        // one sign pass), so `(ordinal, row, col)` addresses every noise
        // draw no matter which thread evaluates it.
        let ordinal = self.read_ordinal;
        self.read_ordinal += 1;

        let weight = |j: usize| weights.map_or(1.0, |w| f64::from(w[j]));
        let full = device.is_none() && factor == 1.0 && active.len() == self.n;
        let kept = full && self.refresh_full_read(rows, plane, &stripes);
        let cells = match self.full_reads.get(plane) {
            Some(FullReads::Kept(read)) if kept => emit(
                (0..self.n)
                    .filter(|&j| weight(j) != 0.0)
                    .map(|j| (j, &read.columns[j])),
                weight,
                &mut sink,
            ),
            _ => {
                let this: &TiledCrossbar = self;
                // The stored entries the read senses decide whether a
                // fan-out pays; the longest sensed column bounds every
                // per-slice count.
                let (touched, longest) = active
                    .iter()
                    .filter(|&&j| weight(j) != 0.0)
                    .map(|&j| this.column(j).len())
                    .fold((0, 0), |(sum, max), len| (sum + len, max.max(len)));
                let scaled_levels;
                let levels: &[f64] = if device.is_some() {
                    &[]
                } else if factor == 1.0 {
                    &this.unit_levels
                } else {
                    scaled_levels = this.factor_levels(factor, longest);
                    &scaled_levels
                };
                let ctx = SenseContext {
                    rows,
                    levels,
                    device,
                    ordinal,
                };
                let mut columns = vec![ColumnRead::default(); active.len()];
                this.sweep(
                    &stripes,
                    active,
                    touched,
                    device.is_some(),
                    (&mut columns, &mut vec![(); active.len()]),
                    |stripe, j, column, ()| {
                        if weight(j) != 0.0 {
                            *column = this.sense_column(stripe, j, ctx);
                        }
                    },
                );
                emit(
                    active
                        .iter()
                        .zip(&columns)
                        .filter(|&(&j, _)| weight(j) != 0.0)
                        .map(|(&j, column)| (j, column)),
                    weight,
                    &mut sink,
                )
            }
        };
        self.stats.cells_activated += cells;
        activated
    }

    /// A read's activity accounting — every counter but the activated
    /// cells, which its sensed columns report — and the tiles it
    /// activates. Counters accumulate on the calling thread, so
    /// [`ActivityStats`] stays a plain struct and no lock sits inside the
    /// sensing loop.
    fn account(&mut self, read: &Read<'_>, stripes: &[(usize, std::ops::Range<usize>)]) -> u64 {
        let k = self.config.quant_bits as usize;
        let active = read.active;
        let activated = stripes.len() as u64 * self.driven_band_count(read.rows);
        self.stats.array_ops += 1;
        self.stats.tiles_activated += activated;
        // Both sign passes convert the same active groups, so they
        // serialize on the same busiest stripe's slots.
        let slots = if active.len() == self.n {
            self.full_read_slots
        } else {
            self.slots(active, stripes)
        };
        for driven_count in pass_row_counts(read.rows) {
            self.stats.row_passes += 1;
            // Row segments toggle once per activated stripe.
            self.stats.rows_driven += driven_count * stripes.len() as u64;
            self.stats.columns_driven += active.len() as u64;
            // Conversions: every active group, both polarity planes, k bit
            // slices. Polarity planes have independent ADCs, and stripe
            // banks convert in parallel, so the pass serializes on the
            // busiest stripe's slots.
            self.stats.adc_conversions += (active.len() * 2 * k) as u64;
            self.stats.adc_slots += slots as u64;
            self.stats.shift_add_ops += (active.len() * 2 * k) as u64;
            if read.cross_stripe_sum {
                // Cross-stripe digital aggregation of the partial sums.
                self.stats.shift_add_ops += stripes.len().saturating_sub(1) as u64;
            }
        }
        self.stats.buffer_writes += read.buffer_writes;
        activated
    }

    /// ADC slots one sign pass of a read over `active` serializes on: the
    /// busiest stripe bank's.
    fn slots(&self, active: &[usize], stripes: &[(usize, std::ops::Range<usize>)]) -> usize {
        let k = self.config.quant_bits as usize;
        let mut slots = 0usize;
        let mut local_scratch: Vec<usize> = Vec::new();
        for (s, range) in stripes {
            local_scratch.clear();
            local_scratch.extend(
                active[range.clone()]
                    .iter()
                    .map(|&j| j - s * self.tile_rows),
            );
            slots = slots.max(self.stripe_mux[*s].slots_for(&local_scratch, k));
        }
        slots
    }

    /// Sense each of `active`'s column groups into its slots of `out`
    /// through `sense(stripe, column, slots)`, one work item per (stripe,
    /// column chunk) in the sequential visiting order. A read that senses
    /// `touched` stored entries fans out when its [`SensingMode`] says
    /// so; see the module docs for the determinism argument.
    fn sweep<A: Send, B: Send>(
        &self,
        stripes: &[(usize, std::ops::Range<usize>)],
        active: &[usize],
        touched: usize,
        device: bool,
        out: (&mut [A], &mut [B]),
        sense: impl Fn(usize, usize, &mut A, &mut B) + Sync,
    ) {
        let fan_out = self.fans_out(touched, device, active.len());
        // A fanned-out read splits stripes into chunks that grow with the
        // read, so each worker sees only a handful of dispatches; chunk
        // boundaries never affect results, because every column is sensed
        // independently into its own slot.
        let chunk_cols = if fan_out {
            PARALLEL_COLUMN_CHUNK.max(active.len().div_ceil(4 * rayon::current_num_threads()))
        } else {
            active.len()
        };
        let mut items = Vec::new();
        let (mut rest_a, mut rest_b) = out;
        for (stripe, range) in stripes {
            let mut start = range.start;
            while start < range.end {
                let end = (start + chunk_cols).min(range.end);
                let (a, tail_a) = std::mem::take(&mut rest_a).split_at_mut(end - start);
                let (b, tail_b) = std::mem::take(&mut rest_b).split_at_mut(end - start);
                items.push((*stripe, &active[start..end], a, b));
                (rest_a, rest_b) = (tail_a, tail_b);
                start = end;
            }
        }
        let sense_chunk = |(stripe, columns, a, b): (usize, &[usize], &mut [A], &mut [B])| {
            for ((&j, a), b) in columns.iter().zip(a).zip(b) {
                sense(stripe, j, a, b);
            }
        };
        if fan_out {
            items.into_par_iter().for_each(sense_chunk);
        } else {
            items.into_iter().for_each(sense_chunk);
        }
    }

    /// Whether a sweep over `columns` column groups that senses `touched`
    /// stored entries fans out across threads. Noise draws are
    /// counter-addressed, so every fidelity — noisy device-accurate
    /// included — may fan out; only the dispatch economics decide.
    fn fans_out(&self, touched: usize, device: bool, columns: usize) -> bool {
        let wanted = match self.sensing {
            SensingMode::Sequential => false,
            SensingMode::Auto => auto_fans_out(touched, device),
            SensingMode::Parallel => columns > 0,
        };
        wanted && rayon::current_num_threads() > 1
    }

    /// Bring plane `plane`'s kept full read up to the drive `rows` (an
    /// Ideal read of every column group at factor 1), or return `false`
    /// when the plane keeps none and the read sweeps: the plane's first
    /// full read. Its second full read recounts into a fresh kept read;
    /// later ones update it, or recount when that is cheaper.
    fn refresh_full_read(
        &mut self,
        rows: &[i8],
        plane: usize,
        stripes: &[(usize, std::ops::Range<usize>)],
    ) -> bool {
        if self.full_reads.len() <= plane {
            self.full_reads.resize_with(plane + 1, FullReads::default);
        }
        let kept = match std::mem::take(&mut self.full_reads[plane]) {
            FullReads::None => {
                self.full_reads[plane] = FullReads::One;
                return false;
            }
            FullReads::One => {
                // Updates take row `i`'s entries from column `i`, which
                // the symmetric coupling contract guarantees.
                debug_assert!(self.store_is_symmetric(), "asymmetric cell store");
                let n = self.n;
                let mut kept = Box::new(KeptRead {
                    rows: vec![0; n],
                    counts: vec![LineCounts::default(); n],
                    columns: vec![ColumnRead::default(); n],
                });
                self.recount(rows, stripes, &mut kept);
                kept
            }
            FullReads::Kept(mut kept) => {
                let mut scratch = std::mem::take(&mut self.update_scratch);
                if !self.update(rows, &mut kept, &mut scratch) {
                    self.recount(rows, stripes, &mut kept);
                }
                self.update_scratch = scratch;
                kept
            }
        };
        self.full_reads[plane] = FullReads::Kept(kept);
        true
    }

    /// Whether entry `(i, j)` of the cell store holds the code and plane
    /// of entry `(j, i)` for every pair, so column `i`'s entries are also
    /// row `i`'s (a debug check of the [`Coupling`] symmetry contract).
    /// Columns are visited in ascending order, so the entries a column's
    /// cursor must meet arrive in the order they are stored: one pass
    /// with one cursor per column checks every pair.
    fn store_is_symmetric(&self) -> bool {
        let mut cursor = self.col_start[..self.n].to_vec();
        for j in 0..self.n {
            for cell in &self.cells[self.column(j)] {
                let i = cell.row as usize;
                let p = cursor[i];
                if p == self.col_start[i + 1] {
                    return false;
                }
                let mirror = self.cells[p];
                if mirror.row as usize != j
                    || mirror.code != cell.code
                    || mirror.plane != cell.plane
                {
                    return false;
                }
                cursor[i] += 1;
            }
        }
        true
    }

    /// Sweep every column group's line counts under the drive `rows` into
    /// `kept` — the read the sweep would make, at its speed and fan-out.
    fn recount(
        &self,
        rows: &[i8],
        stripes: &[(usize, std::ops::Range<usize>)],
        kept: &mut KeptRead,
    ) {
        let k = self.config.quant_bits as usize;
        let all: Vec<usize> = (0..self.n).collect();
        self.sweep(
            stripes,
            &all,
            self.cells.len(),
            false,
            (&mut kept.columns, &mut kept.counts),
            |_, j, column, counts| {
                *counts = self.ideal_line_counts(j, rows);
                *column = convert_counts(counts, &self.unit_levels, k);
            },
        );
        kept.rows.copy_from_slice(rows);
    }

    /// Move the entries of every row whose drive changed from their old
    /// sign pass's lines to their new one's, then re-convert the columns
    /// whose counts moved. Row `i`'s entries are column `i`'s (the store
    /// is symmetric). Returns `false`, changing nothing, when a recount
    /// costs less.
    ///
    /// Both paths are priced in one unit, an 8-lane count add or
    /// subtract: a move subtracts an entry from its old pass's lines if
    /// it was driven and adds it to its new pass's if it is driven, and a
    /// recount adds every stored entry once, split over the threads its
    /// sweep fans out to. The per-column conversion both paths pay is
    /// left out. Measured on a 2-CPU host (dense n = 896 array), an
    /// update op takes 2.7–3.4 ns and a sequential sweep entry 2.2–3.7 ns,
    /// and a dSB step (1.5 % of the rows flip) updates 5–10× faster than
    /// it recounts.
    fn update(&self, rows: &[i8], kept: &mut KeptRead, scratch: &mut UpdateScratch) -> bool {
        // Changed rows, found 32 at a time: one 32-byte compare per word.
        scratch.changed_rows.clear();
        let mut ops = 0;
        for (w, (new, old)) in rows.chunks(32).zip(kept.rows.chunks(32)).enumerate() {
            if new != old {
                for (i, (&a, &b)) in (32 * w..).zip(new.iter().zip(old)) {
                    let (to, from) = (
                        DRIVE_CODE[usize::from(a as u8)],
                        DRIVE_CODE[usize::from(b as u8)],
                    );
                    if to != from {
                        scratch.changed_rows.push(i);
                        let lanes = usize::from(from != UNDRIVEN) + usize::from(to != UNDRIVEN);
                        ops += lanes * self.column(i).len();
                    }
                }
            }
        }
        let recount_threads = if self.fans_out(self.cells.len(), false, self.n) {
            rayon::current_num_threads()
        } else {
            1
        };
        if ops * recount_threads > self.cells.len() {
            return false;
        }
        scratch.dirty.resize(self.n, false);
        for &i in &scratch.changed_rows {
            let (old, new) = (drive(&kept.rows, i), drive(rows, i));
            for cell in &self.cells[self.column(i)] {
                let j = cell.row as usize;
                let slices = &SLICE_COUNTS[usize::from(cell.code)];
                let plane = usize::from(cell.plane);
                let counts = &mut kept.counts[j];
                // An undriven row's entries sit on no line.
                if let Some(lines) = counts.get_mut(usize::from(old)) {
                    for (count, slice) in lines[plane].iter_mut().zip(slices) {
                        *count -= slice;
                    }
                }
                if let Some(lines) = counts.get_mut(usize::from(new)) {
                    for (count, slice) in lines[plane].iter_mut().zip(slices) {
                        *count += slice;
                    }
                }
                if !std::mem::replace(&mut scratch.dirty[j], true) {
                    scratch.dirty_columns.push(j);
                }
            }
        }
        kept.rows.copy_from_slice(rows);
        let k = self.config.quant_bits as usize;
        for j in scratch.dirty_columns.drain(..) {
            scratch.dirty[j] = false;
            kept.columns[j] = convert_counts(&kept.counts[j], &self.unit_levels, k);
        }
        true
    }

    /// Sense one column group through the stripe's chained bit lines, for
    /// both sign passes at once: every driven entry adds its current to
    /// its pass's per-(plane, bit slice) line, the stripe ADC converts
    /// each line once and the digital side shift-and-adds — one
    /// quantization point per (pass, plane, bit slice), exactly like the
    /// monolithic array.
    ///
    /// Takes `&self` so stripe banks can sense concurrently: the noise
    /// draws are counter-addressed through `ctx.ordinal` (no mutable
    /// generator anywhere), and the caller accumulates the returned
    /// activated-cell count into the stats.
    fn sense_column(&self, stripe: usize, j: usize, ctx: SenseContext<'_>) -> ColumnRead {
        match ctx.device {
            Some(read) => self.device_column(stripe, j, read, ctx),
            None => convert_counts(
                &self.ideal_line_counts(j, ctx.rows),
                ctx.levels,
                self.config.quant_bits as usize,
            ),
        }
    }

    /// Ideal column lines: every conducting cell carries the same
    /// current, so a line's current is its count of conducting cells.
    /// One table add per entry counts it into every bit slice of its
    /// (pass, plane) at once.
    fn ideal_line_counts(&self, j: usize, rows: &[i8]) -> LineCounts {
        // Counts per (drive, plane); undriven entries land in the spare
        // drive rows and are never read. Two interleaved count sets halve
        // the add-to-memory dependency chain.
        let mut even = [[[0u32; 8]; 2]; 4];
        let mut odd = [[[0u32; 8]; 2]; 4];
        let count_into = |counts: &mut [[[u32; 8]; 2]; 4], cell: &Cell| {
            let drive = usize::from(drive(rows, cell.row as usize) & 3);
            let line = &mut counts[drive][usize::from(cell.plane & 1)];
            for (count, slice) in line.iter_mut().zip(&SLICE_COUNTS[usize::from(cell.code)]) {
                *count += slice;
            }
        };
        let pairs = self.cells[self.column(j)].chunks_exact(2);
        let tail = pairs.remainder();
        for pair in pairs {
            count_into(&mut even, &pair[0]);
            count_into(&mut odd, &pair[1]);
        }
        for cell in tail {
            count_into(&mut even, cell);
        }
        [0, 1].map(|pass| {
            [0, 1].map(|plane| {
                let mut line = even[pass][plane];
                for (count, odd) in line.iter_mut().zip(odd[pass][plane]) {
                    *count += odd;
                }
                line
            })
        })
    }

    /// Device-accurate column lines: each driven entry's own DG FeFET
    /// current (programmed variation, tile-local IR drop, read noise) is
    /// accumulated per (pass, plane, bit slice) in row order, then
    /// converted once.
    fn device_column(
        &self,
        stripe: usize,
        j: usize,
        read: CellRead,
        ctx: SenseContext<'_>,
    ) -> ColumnRead {
        let k = self.config.quant_bits as usize;
        let span = self.column(j);
        let mut sums = [[[0.0f64; 8]; 2]; 2];
        let mut activated = 0u64;
        for (cell, &offset) in self.cells[span.clone()].iter().zip(&self.vth_offsets[span]) {
            let row = cell.row as usize;
            let pass = drive(ctx.rows, row);
            if pass == UNDRIVEN {
                continue;
            }
            let tile = &self.tiles[row / self.tile_rows * self.bands + stripe];
            // Programmed variation, source-line IR attenuation, then the
            // counter-derived read-noise gain `1 + rel·N(0,1)` (exactly 1.0
            // when silent), applied branch-free so every read shares one
            // path.
            let cell_current = read.factor(f64::from(offset))
                * tile.wires.ir_attenuation(row - tile.row_start)
                * self.noise.gain(ctx.ordinal, row, j);
            for (b, sum) in sums[usize::from(pass)][usize::from(cell.plane)]
                .iter_mut()
                .take(k)
                .enumerate()
            {
                *sum += cell_current * f64::from((cell.code >> b) & 1);
            }
            activated += u64::from(cell.code.count_ones());
        }
        ColumnRead {
            lines: shift_add(&sums, k, |sum| self.adc.quantize(sum)),
            cells: activated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedCoupling;
    use fecim_device::VariationConfig;
    use fecim_ising::{Coupling, CsrCoupling, DenseCoupling, FlipMask, SpinVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.4, 1.0, &mut rng)
    }

    fn config(bits: u8) -> CrossbarConfig {
        CrossbarConfig {
            quant_bits: bits,
            adc_bits: 13,
            ..CrossbarConfig::paper_defaults()
        }
    }

    /// The monolithic array: one tile spanning every row.
    fn monolithic(m: &DenseCoupling, config: CrossbarConfig) -> TiledCrossbar {
        TiledCrossbar::program(m, config, m.dimension())
    }

    /// A random sparse coupling whose magnitudes span three decades, so
    /// low-resolution codes round many entries to zero.
    fn sparse(n: usize, seed: u64) -> CsrCoupling {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for _ in 0..4 * n {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let magnitude = 10f64.powi(rng.gen_range(-2..=0));
            if i != j {
                triplets.push((i, j, rng.gen_range(-1.0..1.0) * magnitude));
            }
        }
        CsrCoupling::from_triplets(n, &triplets).unwrap()
    }

    /// The programmed store, column by column, as the reference's
    /// `(row, pos_code, neg_code)` entries.
    fn programmed_columns(xb: &TiledCrossbar) -> Vec<Vec<(u32, u8, u8)>> {
        (0..xb.n)
            .map(|j| {
                xb.cells[xb.col_start[j]..xb.col_start[j + 1]]
                    .iter()
                    .map(|c| match c.plane {
                        0 => (c.row, c.code, 0),
                        _ => (c.row, 0, c.code),
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_programs_the_reference<C: Coupling>(coupling: &C, label: &str) {
        let n = coupling.dimension();
        for bits in [1u8, 2, 4, 8] {
            let reference = QuantizedCoupling::from_coupling(coupling, bits);
            let columns: Vec<_> = (0..n).map(|j| reference.column(j).to_vec()).collect();
            for tile_rows in [1, 3, 7, n, n + 5] {
                for fidelity in [Fidelity::Ideal, Fidelity::DeviceAccurate] {
                    let config = CrossbarConfig {
                        fidelity,
                        ..config(bits)
                    };
                    let xb = TiledCrossbar::program(coupling, config, tile_rows);
                    let case = format!("{label} bits={bits} tile_rows={tile_rows} {fidelity:?}");
                    assert_eq!(
                        xb.quant_scale().to_bits(),
                        reference.scale().to_bits(),
                        "{case}"
                    );
                    assert_eq!(programmed_columns(&xb), columns, "{case}");
                    assert_eq!(xb.cells.len(), reference.nonzero_cell_count(), "{case}");
                }
            }
        }
    }

    #[test]
    fn programmed_store_equals_the_quantized_reference() {
        for (n, seed) in [(1, 1), (13, 2), (40, 3)] {
            let dense = dense(n, seed);
            assert_programs_the_reference(&dense, "dense");
            assert_programs_the_reference(&CsrCoupling::from_dense(&dense), "dense as CSR");
            let sparse = sparse(n.max(2), seed);
            assert_programs_the_reference(&sparse, "sparse");
        }
        // Zero codes are dropped, not stored: at one bit, every entry
        // under half the largest magnitude rounds to zero.
        let sparse = sparse(40, 9);
        let xb = TiledCrossbar::program(&sparse, config(1), 7);
        assert!(xb.cells.len() < 2 * sparse.coupling_count());
        assert!(!xb.cells.is_empty());
        // An all-zero coupling programs an empty store at unit scale.
        let xb = TiledCrossbar::program(&DenseCoupling::zeros(5), config(4), 2);
        assert!(xb.cells.is_empty());
        assert_eq!(xb.quant_scale(), 1.0);
    }

    #[test]
    fn ideal_vmv_is_bit_identical_for_dividing_and_non_dividing_tiles() {
        let n = 24;
        let m = dense(n, 3);
        let mut mono = monolithic(&m, config(4));
        let mut rng = StdRng::seed_from_u64(4);
        for tile_rows in [3usize, 4, 5, 7, 8, 24, 100] {
            let mut tiled = TiledCrossbar::program(&m, config(4), tile_rows);
            for _ in 0..5 {
                let s = SpinVector::random(n, &mut rng);
                let a = mono.vmv(s.as_slice());
                let b = tiled.vmv(s.as_slice());
                assert_eq!(a, b, "tile_rows={tile_rows}");
            }
        }
    }

    #[test]
    fn ideal_incremental_is_bit_identical_including_scaled_factor() {
        let n = 20;
        let m = dense(n, 7);
        let mut mono = monolithic(&m, config(6));
        let mut rng = StdRng::seed_from_u64(8);
        for tile_rows in [4usize, 6, 7, 20] {
            let mut tiled = TiledCrossbar::program(&m, config(6), tile_rows);
            for t in [1usize, 2, 4] {
                let s = SpinVector::random(n, &mut rng);
                let mask = FlipMask::random(t, n, &mut rng);
                let s_new = s.flipped_by(&mask);
                let r = s_new.rest_vector(&mask);
                let c = s_new.changed_vector(&mask);
                for factor in [1.0f64, 0.37] {
                    let a = mono.incremental_form(&r, &c, factor);
                    let b = tiled.incremental_form(&r, &c, factor);
                    assert_eq!(a, b, "tile_rows={tile_rows} t={t} factor={factor}");
                }
            }
        }
    }

    #[test]
    fn single_tile_degenerates_to_monolithic_stats() {
        // One tile is the monolithic array: a single interleaved mux
        // bank over all n groups, no cross-stripe adder, one tile and
        // one back-gate refresh per read.
        let (n, k) = (16, 4);
        let m = dense(n, 11);
        let mut tiled = monolithic(&m, config(4));
        assert_eq!(tiled.tile_count(), 1);
        let mut rng = StdRng::seed_from_u64(12);
        let s = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let _ = tiled.incremental_form(&r, &c, 1.0);
        let _ = tiled.vmv(s.as_slice());
        let mux = MuxAssignment::interleaved(n, 8);
        let all: Vec<usize> = (0..n).collect();
        let slots = 2 * mux.slots_for(mask.indices(), k) + 2 * mux.slots_for(&all, k);
        let stats = tiled.stats();
        assert_eq!(stats.array_ops, 2);
        assert_eq!(stats.tiles_activated, 2);
        assert_eq!(stats.bg_updates, 1);
        assert_eq!(stats.row_passes, 4);
        assert_eq!(stats.rows_driven, (n - 2 + n) as u64);
        assert_eq!(stats.columns_driven, (2 * 2 + 2 * n) as u64);
        assert_eq!(
            stats.adc_conversions,
            (2 * 2 * 2 * k + 2 * n * 2 * k) as u64
        );
        assert_eq!(stats.shift_add_ops, stats.adc_conversions);
        assert_eq!(stats.adc_slots, slots as u64);
        assert_eq!(stats.buffer_writes, 2);
    }

    #[test]
    fn activated_tile_count_tracks_flip_locality() {
        // 16 spins, 4-row tiles → a 4×4 grid. One flipped spin selects one
        // stripe; a dense σ_r drives all four row bands → 4 tiles.
        let n = 16;
        let m = dense(n, 13);
        let mut tiled = TiledCrossbar::program(&m, config(4), 4);
        assert_eq!(tiled.tile_grid(), (4, 4));
        let s = SpinVector::all_up(n);
        let mask = FlipMask::new(vec![5], n);
        let s_new = s.flipped_by(&mask);
        let _ =
            tiled.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        assert_eq!(tiled.stats().tiles_activated, 4);
        tiled.reset_stats();
        // Two flips in distinct stripes → 8 tiles.
        let mask = FlipMask::new(vec![1, 9], n);
        let s_new = s.flipped_by(&mask);
        let _ =
            tiled.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        assert_eq!(tiled.stats().tiles_activated, 8);
        tiled.reset_stats();
        // Direct read activates the whole grid.
        let _ = tiled.vmv(s.as_slice());
        assert_eq!(tiled.stats().tiles_activated, 16);
    }

    #[test]
    fn per_stripe_adc_banks_avoid_cross_stripe_collisions() {
        // Groups 0 and 16 share a monolithic interleaved ADC
        // (16 mod 8 == 0 mod 8), so the in-situ read serializes 2·k per
        // pass; in 16-group stripes they live on different stripes' banks
        // and convert fully in parallel (k per pass). Full reads stay
        // equal: the banks partition the same total ADC count.
        let n = 64;
        let m = dense(n, 15);
        let mut mono = monolithic(&m, config(4));
        let mut tiled = TiledCrossbar::program(&m, config(4), 16);
        let s = SpinVector::all_up(n);
        let mask = FlipMask::new(vec![0, 16], n);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let _ = mono.incremental_form(&r, &c, 1.0);
        let _ = tiled.incremental_form(&r, &c, 1.0);
        assert_eq!(mono.stats().adc_slots, 2 * 2 * 4, "collision serializes");
        assert_eq!(
            tiled.stats().adc_slots,
            2 * 4,
            "stripes convert in parallel"
        );
        mono.reset_stats();
        tiled.reset_stats();
        let _ = mono.vmv(s.as_slice());
        let _ = tiled.vmv(s.as_slice());
        assert_eq!(mono.stats().adc_conversions, tiled.stats().adc_conversions);
        assert_eq!(mono.stats().adc_slots, tiled.stats().adc_slots);
    }

    #[test]
    fn device_accurate_tiling_is_deterministic_and_close_to_ideal() {
        let n = 24;
        let m = dense(n, 17);
        let mut cfg = config(8);
        cfg.adc_bits = 14;
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        let mut a = TiledCrossbar::program(&m, cfg.clone(), 7);
        let mut b = TiledCrossbar::program(&m, cfg.clone(), 7);
        let mut ideal = TiledCrossbar::program(&m, config(8), 7);
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..5 {
            let s = SpinVector::random(n, &mut rng);
            let mask = FlipMask::random(2, n, &mut rng);
            let s_new = s.flipped_by(&mask);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            let va = a.incremental_form(&r, &c, 1.0);
            let vb = b.incremental_form(&r, &c, 1.0);
            assert_eq!(va, vb, "same seed, same tiles, same read");
            let vi = ideal.incremental_form(&r, &c, 1.0);
            if vi.abs() > 2.0 {
                assert_eq!(va.signum(), vi.signum(), "va={va} vi={vi}");
            }
        }
    }

    #[test]
    fn tiles_draw_distinct_variation_maps() {
        // Same coupling block programmed at different grid positions must
        // see different offsets (per-tile seeds differ).
        assert_ne!(tile_seed(1, 0, 0), tile_seed(1, 0, 1));
        assert_ne!(tile_seed(1, 0, 0), tile_seed(1, 1, 0));
        assert_ne!(tile_seed(1, 1, 0), tile_seed(2, 1, 0));
    }

    #[test]
    fn non_divisible_remainder_band_holds_the_tail_rows() {
        let n = 10;
        let m = dense(n, 19);
        let tiled = TiledCrossbar::program(&m, config(4), 4);
        assert_eq!(tiled.tile_grid(), (3, 3));
        // The remainder band's bit lines span its 2 rows, half a full
        // band's 4.
        let (full, tail) = (&tiled.tiles[0], &tiled.tiles[2 * 3 + 2]);
        assert_eq!(tail.row_start, 8);
        assert_eq!(2.0 * tail.wires.col_length_um(), full.wires.col_length_um());
    }

    #[test]
    fn parallel_sensing_is_bit_identical_to_sequential_and_monolithic() {
        let n = 96;
        let m = dense(n, 23);
        let mut mono = monolithic(&m, config(4));
        let mut seq =
            TiledCrossbar::program(&m, config(4), 16).with_sensing_mode(SensingMode::Sequential);
        let mut par =
            TiledCrossbar::program(&m, config(4), 16).with_sensing_mode(SensingMode::Parallel);
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..4 {
            let s = SpinVector::random(n, &mut rng);
            let e_mono = mono.vmv(s.as_slice());
            assert_eq!(seq.vmv(s.as_slice()), e_mono);
            assert_eq!(par.vmv(s.as_slice()), e_mono);
            let mask = FlipMask::random(3, n, &mut rng);
            let s_new = s.flipped_by(&mask);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            let i_mono = mono.incremental_form(&r, &c, 0.37);
            assert_eq!(seq.incremental_form(&r, &c, 0.37), i_mono);
            assert_eq!(par.incremental_form(&r, &c, 0.37), i_mono);
        }
        // The accounting is schedule-independent too.
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn noisy_device_reads_parallelize_bit_identically() {
        // DeviceAccurate with read noise takes the same fan-out as Ideal
        // mode: noise draws are counter-addressed, so forced parallel and
        // sequential sensing read identically — the tentpole contract.
        let n = 48;
        let mut cfg = config(6);
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        assert!(
            cfg.variation.read_noise_rel > 0.0,
            "typical config is noisy"
        );
        let m = dense(n, 25);
        let mut seq =
            TiledCrossbar::program(&m, cfg.clone(), 8).with_sensing_mode(SensingMode::Sequential);
        let mut par = TiledCrossbar::program(&m, cfg, 8).with_sensing_mode(SensingMode::Parallel);
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..3 {
            let s = SpinVector::random(n, &mut rng);
            assert_eq!(seq.vmv(s.as_slice()), par.vmv(s.as_slice()));
            let mask = FlipMask::random(3, n, &mut rng);
            let s_new = s.flipped_by(&mask);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            assert_eq!(
                seq.incremental_form(&r, &c, 0.63),
                par.incremental_form(&r, &c, 0.63)
            );
        }
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn read_ordinal_advances_the_noise_stream() {
        // Repeating the same noisy read must not repeat the same draws:
        // the per-read ordinal advances the counter stream, modeling a
        // fresh physical noise realization per sense.
        let n = 24;
        let mut cfg = config(6);
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        let m = dense(n, 29);
        let mut tiled = TiledCrossbar::program(&m, cfg, 8);
        let s = SpinVector::all_up(n);
        let first = tiled.vmv(s.as_slice());
        let second = tiled.vmv(s.as_slice());
        assert_ne!(first, second, "noise must vary across reads");
    }

    #[test]
    fn noiseless_device_accurate_reads_parallelize_bit_identically() {
        // Variation without read noise draws nothing at read time, so the
        // parallel fan-out is allowed and must not change results.
        let n = 64;
        let mut cfg = config(6);
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0;
        let m = dense(n, 27);
        let mut seq =
            TiledCrossbar::program(&m, cfg.clone(), 16).with_sensing_mode(SensingMode::Sequential);
        let mut par = TiledCrossbar::program(&m, cfg, 16).with_sensing_mode(SensingMode::Parallel);
        let mut rng = StdRng::seed_from_u64(28);
        for _ in 0..3 {
            let s = SpinVector::random(n, &mut rng);
            assert_eq!(seq.vmv(s.as_slice()), par.vmv(s.as_slice()));
        }
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn ideal_mvm_is_bit_identical_to_monolithic_per_column() {
        let n = 24;
        let m = dense(n, 33);
        let mut mono = monolithic(&m, config(4));
        let mut rng = StdRng::seed_from_u64(34);
        for tile_rows in [3usize, 5, 7, 24, 100] {
            let mut tiled = TiledCrossbar::program(&m, config(4), tile_rows);
            for _ in 0..3 {
                let s = SpinVector::random(n, &mut rng);
                let a = mono.mvm(s.as_slice());
                let b = tiled.mvm(s.as_slice());
                assert_eq!(a, b, "tile_rows={tile_rows}");
            }
        }
    }

    #[test]
    fn parallel_mvm_is_bit_identical_to_sequential_including_noisy() {
        let n = 96;
        let m = dense(n, 35);
        for noisy in [false, true] {
            let mut cfg = config(4);
            if noisy {
                cfg.fidelity = Fidelity::DeviceAccurate;
                cfg.variation = VariationConfig::typical();
            }
            let mut seq = TiledCrossbar::program(&m, cfg.clone(), 16)
                .with_sensing_mode(SensingMode::Sequential);
            let mut par =
                TiledCrossbar::program(&m, cfg, 16).with_sensing_mode(SensingMode::Parallel);
            let mut rng = StdRng::seed_from_u64(36);
            for _ in 0..3 {
                let s = SpinVector::random(n, &mut rng);
                assert_eq!(
                    seq.mvm(s.as_slice()),
                    par.mvm(s.as_slice()),
                    "noisy={noisy}"
                );
            }
            assert_eq!(seq.stats(), par.stats());
        }
    }

    #[test]
    fn mvm_handles_zero_entries_and_single_tile_matches_monolithic_stats() {
        // Bit-plane drives carry zeros for absent bits: a zero row must
        // conduct in neither sign pass, every tiling must read the same
        // columns, and a single-tile grid accounts like the monolithic
        // array — one tile, every group converted in both passes, n
        // buffered outputs.
        let (n, k) = (16, 4);
        let m = dense(n, 37);
        let mut mono = monolithic(&m, config(4));
        let mut tiled = TiledCrossbar::program(&m, config(4), 5);
        let mut sigma = vec![0i8; n];
        for (i, v) in sigma.iter_mut().enumerate() {
            *v = match i % 3 {
                0 => 1,
                1 => -1,
                _ => 0,
            };
        }
        let a = mono.mvm(&sigma);
        let b = tiled.mvm(&sigma);
        assert_eq!(a, b);
        let all: Vec<usize> = (0..n).collect();
        let stats = mono.stats();
        assert_eq!(stats.array_ops, 1);
        assert_eq!(stats.tiles_activated, 1);
        assert_eq!(stats.row_passes, 2);
        assert_eq!(
            stats.rows_driven,
            sigma.iter().filter(|&&v| v != 0).count() as u64
        );
        assert_eq!(stats.columns_driven, 2 * n as u64);
        assert_eq!(stats.adc_conversions, (2 * n * 2 * k) as u64);
        assert_eq!(stats.shift_add_ops, stats.adc_conversions);
        assert_eq!(
            stats.adc_slots,
            2 * MuxAssignment::interleaved(n, 8).slots_for(&all, k) as u64
        );
        assert_eq!(stats.buffer_writes, n as u64);
        // Zero rows contribute nothing: the exact product over the
        // nonzero rows bounds the quantized read.
        for (j, value) in a.iter().enumerate() {
            let exact: f64 = (0..n).map(|i| m.get(i, j) * f64::from(sigma[i])).sum();
            let tol = n as f64 * m.max_abs() / 255.0 + 0.5;
            assert!((value - exact).abs() <= tol, "col {j}: {value} vs {exact}");
        }
    }

    /// The per-entry device evaluation every read used before the
    /// per-read constants were hoisted: a fresh DG FeFET per entry,
    /// programmed with the entry's offset, read through `sl_current`.
    fn reference_cell_current(
        xb: &TiledCrossbar,
        vth_offset: f32,
        vbg: f64,
        attenuation: f64,
        noise_gain: f64,
    ) -> f64 {
        let mut programmed = DgFefet::new(xb.config.device);
        programmed.program(StoredBit::One);
        programmed.set_vth_offset(f64::from(vth_offset));
        let i = programmed.sl_current(true, true, vbg);
        let leak = xb.config.device.front.i_leak;
        let base = ((i - leak) / xb.full_scale_current).max(0.0);
        base * attenuation * noise_gain
    }

    /// Reference device read of the next read ordinal, entry by entry:
    /// per sensed column (ascending), its weighted term per sign pass.
    fn reference_terms(
        xb: &TiledCrossbar,
        rows: &[i8],
        weights: Option<&[i8]>,
        factor: f64,
    ) -> Vec<(usize, [f64; 2])> {
        let k = xb.config.quant_bits as usize;
        let vbg = vbg_for_factor(&xb.cell, xb.full_scale_current, factor);
        let ordinal = xb.read_ordinal;
        let mut out = Vec::new();
        for j in 0..xb.n {
            let w = weights.map_or(1.0, |w| f64::from(w[j]));
            if w == 0.0 {
                continue;
            }
            let stripe = j / xb.tile_rows;
            let mut sums = [[[0.0f64; 8]; 2]; 2];
            for idx in xb.column(j) {
                let cell = xb.cells[idx];
                let row = cell.row as usize;
                let Some(pass) = SIGNS.iter().position(|&sign| sign == rows[row]) else {
                    continue;
                };
                let tile = &xb.tiles[row / xb.tile_rows * xb.bands + stripe];
                let current = reference_cell_current(
                    xb,
                    xb.vth_offsets[idx],
                    vbg,
                    tile.wires.ir_attenuation(row - tile.row_start),
                    xb.noise.gain(ordinal, row, j),
                );
                for (b, sum) in sums[pass][usize::from(cell.plane)]
                    .iter_mut()
                    .take(k)
                    .enumerate()
                {
                    *sum += current * f64::from((cell.code >> b) & 1);
                }
            }
            let mut terms = [0.0; 2];
            for ((term, [pos, neg]), sign) in terms.iter_mut().zip(&sums).zip(SIGNS) {
                let (mut pos_val, mut neg_val) = (0.0, 0.0);
                for b in 0..k {
                    let weight = (1u64 << b) as f64;
                    pos_val += weight * xb.adc.quantize(pos[b]);
                    neg_val += weight * xb.adc.quantize(neg[b]);
                }
                *term = f64::from(sign) * w * (pos_val - neg_val);
            }
            out.push((j, terms));
        }
        out
    }

    /// A scalar read's total: every column's first-pass term, then every
    /// column's second-pass term.
    fn reference_scalar(xb: &TiledCrossbar, terms: &[(usize, [f64; 2])]) -> f64 {
        let mut total = 0.0f64;
        for pass in 0..SIGNS.len() {
            for (_, t) in terms {
                total += t[pass];
            }
        }
        xb.scale * total
    }

    #[test]
    fn device_reads_match_the_per_entry_reference_bit_for_bit() {
        let n = 24;
        let m = dense(n, 41);
        let mut rng = StdRng::seed_from_u64(42);
        for noise in [0.0, VariationConfig::typical().read_noise_rel] {
            let mut cfg = config(6);
            cfg.fidelity = Fidelity::DeviceAccurate;
            cfg.variation = VariationConfig::typical();
            cfg.variation.read_noise_rel = noise;
            for tile_rows in [8, 7] {
                for mode in [SensingMode::Sequential, SensingMode::Parallel] {
                    let label = format!("noise={noise} tile_rows={tile_rows} {mode:?}");
                    let mut xb =
                        TiledCrossbar::program(&m, cfg.clone(), tile_rows).with_sensing_mode(mode);
                    let s = SpinVector::random(n, &mut rng);
                    let expected = reference_terms(&xb, s.as_slice(), Some(s.as_slice()), 1.0);
                    let vmv = xb.vmv(s.as_slice());
                    assert_eq!(
                        vmv.to_bits(),
                        reference_scalar(&xb, &expected).to_bits(),
                        "{label}"
                    );

                    let expected = reference_terms(&xb, s.as_slice(), None, 1.0);
                    let mut columns = vec![0.0f64; n];
                    for pass in 0..SIGNS.len() {
                        for (j, t) in &expected {
                            columns[*j] += t[pass];
                        }
                    }
                    let mvm = xb.mvm(s.as_slice());
                    for (got, want) in mvm.iter().zip(&columns) {
                        assert_eq!(got.to_bits(), (want * xb.scale).to_bits(), "{label}");
                    }

                    let mask = FlipMask::random(3, n, &mut rng);
                    let s_new = s.flipped_by(&mask);
                    let r = s_new.rest_vector(&mask);
                    let c = s_new.changed_vector(&mask);
                    for factor in [1.0, 0.41, 0.41, 0.0] {
                        let expected = reference_terms(&xb, &r, Some(&c), factor);
                        let got = xb.incremental_form(&r, &c, factor);
                        assert_eq!(
                            got.to_bits(),
                            reference_scalar(&xb, &expected).to_bits(),
                            "{label} factor={factor}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vbg_memo_matches_a_fresh_bisection_and_reads_still_advance_the_noise() {
        let n = 24;
        let mut cfg = config(6);
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        let m = dense(n, 43);
        let mut xb = TiledCrossbar::program(&m, cfg, 8);
        let max = xb.cell_factor(xb.config.device.vbg_max);
        for factor in [0.41, 0.41, 0.63, 0.41, 0.0, max, 2.0 * max] {
            let fresh = vbg_for_factor(&xb.cell, xb.full_scale_current, factor);
            assert_eq!(
                xb.vbg_for(factor).to_bits(),
                fresh.to_bits(),
                "factor={factor}"
            );
            assert_eq!(xb.vbg_memo, (factor.to_bits(), fresh));
        }
        // A memo hit reads at the same bias but a fresh noise ordinal.
        let s = SpinVector::all_up(n);
        let mask = FlipMask::new(vec![2, 13], n);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let ordinal = xb.read_ordinal;
        let first = xb.incremental_form(&r, &c, 0.41);
        let second = xb.incremental_form(&r, &c, 0.41);
        assert_eq!(xb.read_ordinal, ordinal + 2);
        assert_ne!(first, second, "noise must vary across reads at one factor");
    }

    #[test]
    fn auto_fan_out_keeps_in_situ_reads_on_the_calling_thread() {
        // device_noisy shapes: the n = 800, degree-20 dSB MVM senses ~16k
        // entries, an in-situ read two columns of ~20 entries each.
        assert!(auto_fans_out(800 * 20, true));
        assert!(!auto_fans_out(2 * 20, true));
        // Sparse Ideal G-set MVMs stay sequential.
        assert!(!auto_fans_out(800 * 48, false));
    }

    #[test]
    fn drive_codes_and_counts_follow_the_sign_passes() {
        let rows: Vec<i8> = (0..600).map(|i| [1, -1, 0, 2, -7][i % 5]).collect();
        assert_eq!(pass_row_counts(&rows), [120, 120]);
        for (i, &r) in rows.iter().enumerate() {
            let expected = SIGNS
                .iter()
                .position(|&s| s == r)
                .map_or(UNDRIVEN, |p| p as u8);
            assert_eq!(drive(&rows, i), expected, "row input {r}");
        }
        // Hits in full 32-column words and in the tail.
        let hits = [0, 7, 31, 32, 63, 64, 69];
        let mut weights = vec![0i8; 70];
        for j in hits {
            weights[j] = if j % 2 == 0 { 1 } else { -1 };
        }
        assert_eq!(nonzero_columns(&weights), hits);
        assert!(nonzero_columns(&[0; 80]).is_empty());
    }

    #[test]
    fn full_reads_are_kept_from_the_second_on_ideal_arrays_only() {
        let n = 12;
        let m = dense(n, 45);
        let mut rng = StdRng::seed_from_u64(46);
        let s = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let s_new = s.flipped_by(&mask);
        let (r, c) = (s_new.rest_vector(&mask), s_new.changed_vector(&mask));
        // The first full read keeps nothing, partial reads never count,
        // the second full read keeps its line counts — all on plane 0.
        let mut xb = monolithic(&m, config(4));
        let _ = xb.vmv(s.as_slice());
        assert!(matches!(xb.full_reads[..], [FullReads::One]));
        let _ = xb.incremental_form(&r, &c, 1.0);
        assert!(matches!(xb.full_reads[..], [FullReads::One]));
        let _ = xb.mvm(s.as_slice());
        assert!(matches!(xb.full_reads[..], [FullReads::Kept(_)]));
        // Every other drive plane keeps its own read through the same
        // steps, and a plane never read keeps nothing.
        let flipped = s_new.as_slice();
        let _ = xb.mvm_plane(flipped, 2);
        assert!(matches!(
            xb.full_reads[..],
            [FullReads::Kept(_), FullReads::None, FullReads::One]
        ));
        let _ = xb.mvm_plane(flipped, 2);
        let [FullReads::Kept(zero), FullReads::None, FullReads::Kept(two)] = &xb.full_reads[..]
        else {
            panic!("planes 0 and 2 keep a read, plane 1 none");
        };
        assert_eq!(zero.rows, s.as_slice());
        assert_eq!(two.rows, flipped);
        // A plane-0 read updates plane 0 only.
        let _ = xb.vmv(flipped);
        let [FullReads::Kept(zero), _, FullReads::Kept(two)] = &xb.full_reads[..] else {
            panic!("planes 0 and 2 still keep a read");
        };
        assert_eq!(zero.rows, flipped);
        assert_eq!(two.rows, flipped);
        // Device-accurate arrays never keep a read, on any plane.
        let mut cfg = config(4);
        cfg.fidelity = Fidelity::DeviceAccurate;
        let mut device = monolithic(&m, cfg);
        for plane in [0, 1, 3] {
            for _ in 0..3 {
                let _ = device.mvm_plane(s.as_slice(), plane);
            }
        }
        let _ = device.vmv(s.as_slice());
        assert!(device.full_reads.is_empty());
    }

    /// Random line counts as an array of `n` rows could hold them.
    fn random_counts(rng: &mut StdRng, n: u32) -> LineCounts {
        use rand::Rng;
        [0, 1].map(|_| [0, 1].map(|_| [0; 8].map(|_: u32| rng.gen_range(0..=n))))
    }

    #[test]
    fn fixed_width_conversion_equals_the_shift_add_reference() {
        let mut rng = StdRng::seed_from_u64(47);
        for n in [1usize, 7, 300, 4000] {
            use rand::Rng;
            let adc = SarAdc::new(13, n as f64);
            let quantized: Vec<f64> = (0..=n).map(|c| adc.quantize(c as f64)).collect();
            let arbitrary: Vec<f64> = (0..=n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            for (k, levels) in (1..=8).flat_map(|k| [(k, &quantized), (k, &arbitrary)]) {
                for _ in 0..500 {
                    let counts = random_counts(&mut rng, n as u32);
                    let mut cells = 0u64;
                    let lines = shift_add(&counts, k, |count| {
                        cells += u64::from(count);
                        levels[count as usize]
                    });
                    let got = convert_counts(&counts, levels, k);
                    assert_eq!(
                        got.lines.map(f64::to_bits),
                        lines.map(f64::to_bits),
                        "k={k}"
                    );
                    assert_eq!(got.cells, cells, "k={k}");
                }
            }
        }
    }

    #[test]
    fn zero_flip_mask_returns_zero_and_activates_nothing() {
        // A tile with no driven row or no selected column does not
        // activate — also on the one-tile (monolithic) array. Two drives
        // hit that rule: an empty σ_c incremental read converts nothing
        // and drives no row segment, and an all-zero MVM/VMV plane (bSB's
        // bit-serial drive issues them) converts but activates no tile.
        let n = 10;
        let m = dense(n, 21);
        for tile_rows in [4, n] {
            let mut tiled = TiledCrossbar::program(&m, config(4), tile_rows);
            let zeros = vec![0i8; n];
            let s = SpinVector::all_up(n);
            assert_eq!(tiled.incremental_form(s.as_slice(), &zeros, 1.0), 0.0);
            assert_eq!(tiled.stats().tiles_activated, 0);
            assert_eq!(tiled.stats().adc_conversions, 0);
            assert_eq!(tiled.stats().rows_driven, 0);
            assert_eq!(tiled.stats().bg_updates, 1);
            tiled.reset_stats();
            assert_eq!(tiled.mvm(&zeros), vec![0.0; n]);
            assert_eq!(tiled.vmv(&zeros), 0.0);
            assert_eq!(tiled.stats().tiles_activated, 0, "tile_rows={tile_rows}");
            assert_eq!(tiled.stats().rows_driven, 0);
            assert_eq!(tiled.stats().cells_activated, 0);
        }
    }
}
