//! Sparse per-dimension wavelet smoothing (Algorithm 3 of the paper).
//!
//! The dense WaveCluster transform convolves the full `M^d` grid; AdaWave
//! instead applies the same low-pass filter + downsample **directly on the
//! sparse grid's occupied cells** in scatter form: every occupied cell
//! contributes `kernel[t] · density` to the half-resolution output cell it
//! overlaps. The work depends on the `m` occupied cells, never on the dense
//! grid volume — this is what makes the paper's `O(nm)` total complexity
//! and its memory frugality possible.
//!
//! ## Cost
//!
//! The transform runs on one of two paths with the same output, chosen per
//! grid by [`TransformPath::choose`] from the codec's key width `b`, the
//! `m` occupied cells and the cell budget:
//!
//! * **Sorted cells**, for any grid. The cells travel through every level
//!   and per-dimension pass as one flat `(key, density)` vector, the grid's
//!   own representation: the input grid's cells are copied in and the last
//!   pass's vector is the output grid. Each pass sorts the vector once so
//!   that every *line* along the pass's dimension (the cells sharing all
//!   other coordinates) is contiguous in ascending coordinate, then
//!   scatters the kernel within each line through a scratch buffer bounded
//!   by that line's own cells. That is `O(d · m log m)` time per level for
//!   an `l`-tap kernel, and `O(l · m)` memory: the scatter can grow the
//!   vector by at most `l` per cell before the cell budget prunes it back.
//! * **Dense lanes**, for a grid that fills its key space: the `2^b` slots
//!   are at most [`TransformPath::DENSE_SLOTS_PER_CELL`] per occupied cell,
//!   and the first pass's output key space (the largest of any pass) is
//!   within the cell budget, so the budget could never prune. The grid is
//!   spread over a flat `f64` lane indexed by packed key plus an occupancy
//!   byte per slot, and each pass gathers every output slot from the input
//!   slots of its line, `O(l · 2^b)` time per level without a sort. The
//!   first pass, the largest, holds its input and output lanes:
//!   `9 · (2^b + 2^b')` bytes for the `b' ≤ b` key bits it writes, so at
//!   most `108 · m` under the rule when halving the first dimension drops
//!   a bit (more than 2 intervals) and `144 · m` when it does not. The
//!   sorted path's largest pass holds 32 bytes per input and output cell,
//!   about as much at one cell in 8 slots: `BENCH_kernels.json`'s
//!   occupancy sweep, which sets the bound, records both.
//!
//! ## Bit-identical summation order
//!
//! Floating-point addition is not associative, and for wavelets with
//! irrational taps (db2/db3) a different summation order rounds
//! differently. So every output cell starts from `0.0` and adds its
//! contributions `kernel[t] · density` in one fixed order: ascending input
//! coordinate along its own line, then ascending tap. The order depends on
//! the grid *content* only, never on how it is stored, which is what lets
//! a streamed accumulator refit bit-identically to a freshly quantized
//! grid (and two `fit` calls agree with each other).
//!
//! Both paths keep that order: the dense lanes walk each output slot's
//! `(input coordinate, tap)` pairs in it, listed once per pass from the
//! same `output_coordinate` rule the scatter uses. An absent input slot
//! holds `0.0` and the lanes add its `±0.0` product instead of branching:
//! a sum that starts at `+0.0` is never `−0.0`, and adding a zero to any
//! other value returns that value, so the bits are those of the scatter,
//! which skips the slot. A slot exists only if an occupied input reaches
//! it through a nonzero tap, as in the scatter. The dense path also
//! returns its cells in the sorted path's order (line by line, ascending
//! coordinate along the last pass's dimension), so the two paths return
//! equal vectors.

use adawave_grid::{prune_to_top, GridError, KeyCodec, Result as GridResult, SparseGrid};
use adawave_wavelet::BoundaryMode;

/// Apply `levels` full decomposition levels: each level smooths and halves
/// every dimension in turn (Algorithm 3). Returns the transformed grid and
/// its codec; zero levels return the input unchanged.
pub fn sparse_wavelet_smooth(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    levels: u32,
) -> GridResult<(SparseGrid, KeyCodec)> {
    sparse_wavelet_smooth_budgeted(grid, codec, kernel, boundary, levels, usize::MAX)
}

/// [`sparse_wavelet_smooth`] with a cap on the number of occupied cells kept
/// after each per-dimension pass.
///
/// The scatter of an `l`-tap kernel can multiply the number of occupied
/// cells by up to `ceil(l/2) + 1` once per dimension, which in high
/// dimensions turns a sparse grid into an exponentially large one. After
/// each dimension the lowest-magnitude cells beyond `cell_budget` are
/// discarded ([`prune_to_top`]); the densest cells — the ones the
/// clustering step keeps anyway — always survive. Pass `usize::MAX` to
/// disable the guard.
///
/// The path is [`TransformPath::choose`]'s (see the module docs); both
/// return the same cells in the same order. On the sorted path a copy of
/// the grid's cells is the working buffer, and the last pass's output
/// vector becomes the returned grid as it is ([`SparseGrid::from_cells`]).
/// Every pass reads its input by line, so the result does not depend on
/// the order `grid` holds its cells in (at zero levels the grid passes
/// through as it is).
pub fn sparse_wavelet_smooth_budgeted(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    levels: u32,
    cell_budget: usize,
) -> GridResult<(SparseGrid, KeyCodec)> {
    let path = TransformPath::choose(codec, grid.occupied_cells(), cell_budget);
    sparse_wavelet_smooth_on(path, grid, codec, kernel, boundary, levels)
}

/// The two implementations of the transform (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformPath {
    /// One `(key, density)` vector sorted by line once per pass, pruned
    /// to `cell_budget` cells after each pass; runs on any grid.
    SortedCells {
        /// The cap on the cells kept after each pass ([`prune_to_top`]).
        cell_budget: usize,
    },
    /// Flat lanes over the codec's whole key space. They never prune, so
    /// they return the sorted path's cells whenever no pass outgrows its
    /// budget, which [`choose`](Self::choose) checks before picking them.
    DenseLanes,
}

impl TransformPath {
    /// The most key-space slots the dense lanes may spend per occupied
    /// cell. `BENCH_kernels.json` records the occupancy sweep that sets
    /// it: the dense lanes were faster than the sorted cells at every
    /// occupancy swept, down to one cell in 256 slots, so memory bounds
    /// it, and at one cell in 8 their largest pass holds about as many
    /// bytes as the sorted path's.
    pub const DENSE_SLOTS_PER_CELL: usize = 8;

    /// The path for a grid of `occupied_cells` cells under `codec`:
    /// [`DenseLanes`](Self::DenseLanes) when the codec's key space is at
    /// most [`DENSE_SLOTS_PER_CELL`](Self::DENSE_SLOTS_PER_CELL) times the
    /// occupied cells and the first pass's output key space, the largest
    /// any pass writes, is at most `cell_budget` (so pruning could never
    /// fire); [`SortedCells`](Self::SortedCells) otherwise.
    ///
    /// ```
    /// use adawave_core::transform::TransformPath;
    /// use adawave_grid::KeyCodec;
    ///
    /// let codec = KeyCodec::uniform(2, 64).unwrap(); // 4,096 slots
    /// assert_eq!(TransformPath::choose(&codec, 512, usize::MAX), TransformPath::DenseLanes);
    /// assert_eq!(
    ///     TransformPath::choose(&codec, 511, usize::MAX),
    ///     TransformPath::SortedCells { cell_budget: usize::MAX }
    /// );
    /// ```
    pub fn choose(codec: &KeyCodec, occupied_cells: usize, cell_budget: usize) -> Self {
        let fits = |codec: &KeyCodec, limit: u128| key_space(codec).is_some_and(|n| n <= limit);
        let lanes = Self::DENSE_SLOTS_PER_CELL as u128 * occupied_cells as u128;
        let dense = fits(codec, lanes)
            && halve(codec, 0).is_ok_and(|first| fits(&first, cell_budget as u128));
        if dense {
            Self::DenseLanes
        } else {
            Self::SortedCells { cell_budget }
        }
    }
}

/// [`sparse_wavelet_smooth_budgeted`] on a given path, for callers that
/// time or test one path against the other; every other caller lets
/// [`TransformPath::choose`] pick. The dense lanes allocate nine bytes per
/// slot of the codec's key space, and fail with
/// [`GridError::InvalidData`] when that space exceeds the address space
/// or a cell's key lies outside it.
pub fn sparse_wavelet_smooth_on(
    path: TransformPath,
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    levels: u32,
) -> GridResult<(SparseGrid, KeyCodec)> {
    if levels == 0 {
        return Ok((grid.clone(), codec.clone()));
    }
    let mut codec = codec.clone();
    match path {
        TransformPath::SortedCells { cell_budget } => {
            let mut cells: Vec<(u128, f64)> = grid.iter().collect();
            let mut next = Vec::with_capacity(cells.len());
            for _ in 0..levels {
                for dim in 0..codec.dims() {
                    let halved = halve(&codec, dim)?;
                    lowpass_dimension(
                        &mut cells, &mut next, &codec, &halved, dim, kernel, boundary,
                    );
                    std::mem::swap(&mut cells, &mut next);
                    prune_to_top(&mut cells, cell_budget);
                    codec = halved;
                }
            }
            Ok((SparseGrid::from_cells(cells), codec))
        }
        TransformPath::DenseLanes => {
            let mut lanes = Lanes::of_grid(grid, &codec)?;
            for _ in 0..levels {
                for dim in 0..codec.dims() {
                    let halved = halve(&codec, dim)?;
                    lanes = lanes.lowpass(&codec, &halved, dim, kernel, boundary);
                    codec = halved;
                }
            }
            let cells = lanes.into_cells(&codec, codec.dims() - 1);
            Ok((SparseGrid::from_cells(cells), codec))
        }
    }
}

/// `codec` with dimension `dim` halved: the codec a pass along `dim`
/// writes.
fn halve(codec: &KeyCodec, dim: usize) -> GridResult<KeyCodec> {
    let mut intervals = codec.all_intervals().to_vec();
    intervals[dim] = intervals[dim].div_ceil(2).max(1);
    KeyCodec::new(&intervals)
}

/// The number of slots in `codec`'s key space, `2^key_bits`, or `None` for
/// a 128-bit codec.
fn key_space(codec: &KeyCodec) -> Option<u128> {
    1u128.checked_shl(codec.key_bits())
}

/// One per-dimension pass: apply the low-pass filter along `dim`, halving
/// it, and write the cells of the `halved` grid to `out`. The kernel is
/// centered (offset `(l-1)/2`), so an input coordinate `c` lands mainly in
/// output coordinate `c >> 1`, matching the lookup-table mapping used to
/// label points later.
///
/// `cells` must hold distinct keys; the pass consumes it as scratch. The
/// cells written to `out` have distinct keys too: every line has its own
/// key prefix and emits each output coordinate once.
fn lowpass_dimension(
    cells: &mut [(u128, f64)],
    out: &mut Vec<(u128, f64)>,
    codec: &KeyCodec,
    halved: &KeyCodec,
    dim: usize,
    kernel: &[f64],
    boundary: BoundaryMode,
) {
    let old_m = codec.intervals(dim) as isize;
    let new_m = halved.intervals(dim) as isize;
    let offset = (kernel.len() as isize - 1) / 2;
    // Move `dim`'s bits below all the others, so one key sort orders the
    // cells by line (every other coordinate), then by coordinate along it.
    let field = codec.bit_range(dim);
    let width = field.end - field.start;
    let below = !(u128::MAX << field.start);
    let above = u128::MAX.checked_shl(field.end).unwrap_or(0);
    let along = !(u128::MAX << width);
    // Where the dimensions after `dim` start in the halved layout.
    let halved_above = halved.bit_range(dim).end;
    for cell in cells.iter_mut() {
        let key = cell.0;
        cell.0 = (key & above) | ((key & below) << width) | ((key >> field.start) & along);
    }
    cells.sort_unstable_by_key(|&(key, _)| key);

    out.clear();
    // `(output coordinate, contribution)` pairs of the current line, in
    // scatter order: ascending input coordinate, then ascending tap.
    let mut scatter: Vec<(u32, f64)> = Vec::new();
    for line in cells.chunk_by(|a, b| a.0 >> width == b.0 >> width) {
        scatter.clear();
        for &(key, density) in line {
            let c = (key & along) as isize;
            // Input index c appears at kernel tap t of output i when
            // 2i - offset + t = c  =>  i = (c + offset - t) / 2.
            for (t, &h) in kernel.iter().enumerate() {
                if h == 0.0 {
                    continue;
                }
                if let Some(i) = output_coordinate(c + offset - t as isize, old_m, new_m, boundary)
                {
                    scatter.push((i, h * density));
                }
            }
        }
        // A stable sort groups each output's contributions and keeps them
        // in scatter order, so each sum adds in the documented order.
        scatter.sort_by_key(|&(i, _)| i);
        // The line's other coordinates, back in the halved codec's layout
        // with `dim` at 0; each output coordinate is OR-ed in.
        let rest = line[0].0 >> width;
        let base = (rest >> field.start).checked_shl(halved_above).unwrap_or(0) | (rest & below);
        for group in scatter.chunk_by(|a, b| a.0 == b.0) {
            let density = group.iter().fold(0.0, |sum, &(_, v)| sum + v);
            out.push((base | (u128::from(group[0].0) << field.start), density));
        }
    }
}

/// A grid spread over its codec's whole key space: slot `key` holds the
/// density of cell `key` and whether that cell is occupied. An unoccupied
/// slot holds `0.0`.
struct Lanes {
    values: Vec<f64>,
    occupied: Vec<bool>,
}

impl Lanes {
    /// `slots` unoccupied slots.
    fn empty(slots: usize) -> Self {
        Self {
            values: vec![0.0; slots],
            occupied: vec![false; slots],
        }
    }

    /// The cells of `grid`, whose keys `codec` packed, in their slots.
    fn of_grid(grid: &SparseGrid, codec: &KeyCodec) -> GridResult<Self> {
        let outside = |what: &str| GridError::InvalidData {
            context: format!("{what} does not fit dense transform lanes"),
        };
        let slots = key_space(codec)
            .and_then(|slots| usize::try_from(slots).ok())
            .ok_or_else(|| outside("the codec's key space"))?;
        let mut lanes = Self::empty(slots);
        for (key, density) in grid.iter() {
            let slot = usize::try_from(key)
                .ok()
                .filter(|&slot| slot < slots)
                .ok_or_else(|| outside("a cell key"))?;
            lanes.values[slot] = density;
            lanes.occupied[slot] = true;
        }
        Ok(lanes)
    }

    /// The dense twin of [`lowpass_dimension`]: the lanes of the `halved`
    /// grid a pass along `dim` writes.
    ///
    /// Dimension `dim` holds key bits `s..s + w`, so the slots form blocks
    /// of `2^w` runs of `2^s` consecutive slots, one run per coordinate
    /// along `dim`; the `2^s` slots of a run belong to `2^s` different
    /// lines, which is what lets the sums run over whole runs at once.
    fn lowpass(
        &self,
        codec: &KeyCodec,
        halved: &KeyCodec,
        dim: usize,
        kernel: &[f64],
        boundary: BoundaryMode,
    ) -> Self {
        let field = codec.bit_range(dim);
        let run = 1usize << field.start;
        let along = 1usize << (field.end - field.start);
        let out_along = 1usize << halved.bit_range(dim).len();
        let gathers = gathers(
            along,
            codec.intervals(dim),
            halved.intervals(dim),
            kernel,
            boundary,
        );
        let mut out = Self::empty(self.values.len() / along * out_along);
        let blocks = self
            .values
            .chunks_exact(run * along)
            .zip(self.occupied.chunks_exact(run * along))
            .zip(
                out.values
                    .chunks_exact_mut(run * out_along)
                    .zip(out.occupied.chunks_exact_mut(run * out_along)),
            );
        for ((values, occupied), (out_values, out_occupied)) in blocks {
            if run == 1 {
                // Along the lowest dimension a run is one slot: index it
                // directly instead of slicing one-slot runs.
                let outputs = out_values.iter_mut().zip(out_occupied.iter_mut());
                for ((sum, hit), pairs) in outputs.zip(&gathers) {
                    for &(c, h) in pairs {
                        *sum += h * values[c];
                        *hit |= occupied[c];
                    }
                }
                continue;
            }
            let outputs = out_values
                .chunks_exact_mut(run)
                .zip(out_occupied.chunks_exact_mut(run));
            for ((sums, reached), pairs) in outputs.zip(&gathers) {
                for &(c, h) in pairs {
                    let inputs = values[c * run..(c + 1) * run]
                        .iter()
                        .zip(&occupied[c * run..(c + 1) * run]);
                    for ((sum, hit), (&density, &present)) in
                        sums.iter_mut().zip(reached.iter_mut()).zip(inputs)
                    {
                        *sum += h * density;
                        *hit |= present;
                    }
                }
            }
        }
        out
    }

    /// The occupied cells of the lanes of `codec`, in the order the sorted
    /// path's last pass (along `dim`) emits them: line by line in
    /// ascending key without `dim`'s bits, each line in ascending
    /// coordinate along `dim`.
    fn into_cells(self, codec: &KeyCodec, dim: usize) -> Vec<(u128, f64)> {
        let field = codec.bit_range(dim);
        let run = 1usize << field.start;
        let along = 1usize << (field.end - field.start);
        let mut cells = Vec::with_capacity(self.occupied.iter().filter(|&&o| o).count());
        for block in (0..self.values.len()).step_by(run * along) {
            for line in block..block + run {
                for slot in (line..line + run * along).step_by(run) {
                    if self.occupied[slot] {
                        cells.push((slot as u128, self.values[slot]));
                    }
                }
            }
        }
        cells
    }
}

/// For each output coordinate of a pass along a dimension of `old_m`
/// intervals halved to `new_m`, the `(input coordinate, tap)` pairs that
/// reach it, in scatter order: ascending input coordinate, then ascending
/// tap. Input coordinates run over all `along` slots of a lane, so a pass
/// reads every slot exactly as the sorted path's scatter would.
fn gathers(
    along: usize,
    old_m: u32,
    new_m: u32,
    kernel: &[f64],
    boundary: BoundaryMode,
) -> Vec<Vec<(usize, f64)>> {
    let offset = (kernel.len() as isize - 1) / 2;
    let mut gathers = vec![Vec::new(); new_m as usize];
    for c in 0..along {
        for (t, &h) in kernel.iter().enumerate() {
            if h == 0.0 {
                continue;
            }
            let numerator = c as isize + offset - t as isize;
            if let Some(i) = output_coordinate(numerator, old_m as isize, new_m as isize, boundary)
            {
                gathers[i as usize].push((c, h));
            }
        }
    }
    gathers
}

/// The output coordinate that receives tap `t` of input coordinate `c`,
/// given `numerator = c + offset - t`, or `None` when the contribution
/// falls off the grid.
fn output_coordinate(
    numerator: isize,
    old_m: isize,
    new_m: isize,
    boundary: BoundaryMode,
) -> Option<u32> {
    if boundary == BoundaryMode::Periodic {
        // Periodic extension wraps *input* coordinates, so reduce modulo
        // `old_m` before halving. Reducing modulo `2 * new_m` instead —
        // which equals `old_m + 1` when `old_m` is odd — would send
        // boundary mass to a phantom input coordinate that does not exist
        // on the ring. `2i ≡ numerator (mod old_m)` has a solution with
        // `i < new_m` exactly when the wrapped position is even.
        let wrapped = numerator.rem_euclid(old_m);
        return (wrapped % 2 == 0).then_some((wrapped / 2) as u32);
    }
    // Zero boundary handling: out-of-range contributions (negative, odd,
    // or beyond the halved extent) are dropped.
    (numerator >= 0 && numerator % 2 == 0 && numerator / 2 < new_m)
        .then_some((numerator / 2) as u32)
}

/// The hash-map scatter this module replaced, kept as the reference the
/// vector transform must match bit for bit.
#[cfg(test)]
mod hash_reference {
    use std::collections::{HashMap, HashSet};

    use adawave_grid::KeyCodec;
    use adawave_wavelet::BoundaryMode;

    /// One per-dimension pass: scatter in sorted-key order into a fresh
    /// map, every output cell starting from 0.0.
    fn lowpass_dimension(
        map: &HashMap<u128, f64>,
        codec: &KeyCodec,
        dim: usize,
        kernel: &[f64],
        boundary: BoundaryMode,
    ) -> (HashMap<u128, f64>, KeyCodec) {
        let old_m = codec.intervals(dim);
        let new_m = old_m.div_ceil(2).max(1);
        let mut new_intervals: Vec<u32> = codec.all_intervals().to_vec();
        new_intervals[dim] = new_m;
        let new_codec = KeyCodec::new(&new_intervals).unwrap();
        let offset = (kernel.len() as isize - 1) / 2;
        let mut entries: Vec<(u128, f64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut out = HashMap::with_capacity(map.len());
        for (key, density) in entries {
            let c = codec.coordinate(key, dim) as isize;
            let base = codec.remap(key, &new_codec, 0, Some((dim, 0)));
            for (t, &h) in kernel.iter().enumerate() {
                if h == 0.0 {
                    continue;
                }
                let numerator = c + offset - t as isize;
                if boundary == BoundaryMode::Periodic {
                    let wrapped = numerator.rem_euclid(old_m as isize);
                    if wrapped % 2 != 0 {
                        continue;
                    }
                    let i = (wrapped / 2) as u32;
                    *out.entry(base | new_codec.pack_coord(dim, i))
                        .or_insert(0.0) += h * density;
                    continue;
                }
                if numerator < 0 || numerator % 2 != 0 {
                    continue;
                }
                let i = numerator / 2;
                if i >= new_m as isize {
                    continue;
                }
                *out.entry(base | new_codec.pack_coord(dim, i as u32))
                    .or_insert(0.0) += h * density;
            }
        }
        (out, new_codec)
    }

    /// The map prune: find the budget-th largest magnitude with a select,
    /// keep everything above it, then fill the remaining slots with the
    /// smallest-key ties.
    fn prune_to_top(map: &mut HashMap<u128, f64>, budget: usize) {
        if map.len() <= budget {
            return;
        }
        if budget == 0 {
            map.clear();
            return;
        }
        let mut magnitudes: Vec<f64> = map.values().map(|v| v.abs()).collect();
        let cut_index = magnitudes.len() - budget;
        let (_, cutoff, _) = magnitudes.select_nth_unstable_by(cut_index, |a, b| a.total_cmp(b));
        let cutoff = *cutoff;
        let above = map.values().filter(|v| v.abs() > cutoff).count();
        let mut ties: Vec<u128> = map
            .iter()
            .filter(|(_, v)| v.abs() == cutoff)
            .map(|(&k, _)| k)
            .collect();
        ties.sort_unstable();
        ties.truncate(budget - above);
        let keep: HashSet<u128> = map
            .iter()
            .filter(|(_, v)| v.abs() > cutoff)
            .map(|(&k, _)| k)
            .chain(ties)
            .collect();
        map.retain(|k, _| keep.contains(k));
    }

    /// The old `sparse_wavelet_smooth_budgeted`.
    pub(super) fn smooth_budgeted(
        map: &HashMap<u128, f64>,
        codec: &KeyCodec,
        kernel: &[f64],
        boundary: BoundaryMode,
        levels: u32,
        cell_budget: usize,
    ) -> (HashMap<u128, f64>, KeyCodec) {
        let mut current = map.clone();
        let mut current_codec = codec.clone();
        for _ in 0..levels {
            for dim in 0..current_codec.dims() {
                let (mut next, next_codec) =
                    lowpass_dimension(&current, &current_codec, dim, kernel, boundary);
                prune_to_top(&mut next, cell_budget);
                current = next;
                current_codec = next_codec;
            }
        }
        (current, current_codec)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use adawave_wavelet::Wavelet;
    use proptest::prelude::*;

    fn kernel() -> Vec<f64> {
        Wavelet::Cdf22.density_smoothing_kernel()
    }

    /// One level; on a 1-d codec that is exactly one per-dimension pass.
    fn one_level(
        grid: &SparseGrid,
        codec: &KeyCodec,
        kernel: &[f64],
        boundary: BoundaryMode,
    ) -> (SparseGrid, KeyCodec) {
        sparse_wavelet_smooth(grid, codec, kernel, boundary, 1).unwrap()
    }

    /// A cell's density, 0.0 if the grid does not hold it.
    fn density(grid: &SparseGrid, key: u128) -> f64 {
        grid.iter()
            .find(|&(k, _)| k == key)
            .map_or(0.0, |(_, density)| density)
    }

    /// A grid's cells as sorted `(key, density bits)` pairs, so equality is
    /// bit equality.
    fn bits(grid: &SparseGrid) -> Vec<(u128, u64)> {
        let mut cells: Vec<(u128, u64)> = grid.iter().map(|(k, v)| (k, v.to_bits())).collect();
        cells.sort_unstable();
        cells
    }

    /// A transform's output as `(codec, sorted (key, density bits))`.
    type Output = (KeyCodec, Vec<(u128, u64)>);

    /// The vector transform's and the hash reference's outputs, for a
    /// bitwise comparison.
    fn vector_and_reference(
        grid: &SparseGrid,
        codec: &KeyCodec,
        kernel: &[f64],
        boundary: BoundaryMode,
        levels: u32,
        budget: usize,
    ) -> (Output, Output) {
        let (got, got_codec) =
            sparse_wavelet_smooth_budgeted(grid, codec, kernel, boundary, levels, budget).unwrap();
        let (want, want_codec) = hash_reference::smooth_budgeted(
            &grid.iter().collect(),
            codec,
            kernel,
            boundary,
            levels,
            budget,
        );
        let want: SparseGrid = want.into_iter().collect();
        ((got_codec, bits(&got)), (want_codec, bits(&want)))
    }

    #[test]
    fn single_dimension_halves_coordinates() {
        let codec = KeyCodec::uniform(1, 16).unwrap();
        let grid: SparseGrid = [(codec.pack(&[10]), 4.0)].into_iter().collect();
        let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        assert_eq!(out_codec.intervals(0), 8);
        // The dominant contribution of input 10 is output 5.
        let mut best = (0u32, f64::MIN);
        for (k, v) in out.iter() {
            if v > best.1 {
                best = (out_codec.coordinate(k, 0), v);
            }
        }
        assert_eq!(best.0, 5);
    }

    #[test]
    fn level_halves_every_dimension() {
        let codec = KeyCodec::new(&[16, 8, 4]).unwrap();
        let grid: SparseGrid = [(codec.pack(&[3, 3, 3]), 1.0)].into_iter().collect();
        let (_, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        assert_eq!(out_codec.all_intervals(), &[8, 4, 2]);
    }

    #[test]
    fn dense_block_keeps_its_level_and_aligns_with_halved_coords() {
        // An 8x8 block of density 10 at [16..24)^2 in a 32x32 grid maps to
        // [8..12)^2 after one level, with interior density preserved.
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let mut cells = Vec::new();
        for x in 16..24u32 {
            for y in 16..24u32 {
                cells.push((codec.pack(&[x, y]), 10.0));
            }
        }
        let grid: SparseGrid = cells.into_iter().collect();
        let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        assert_eq!(out_codec.all_intervals(), &[16, 16]);
        let interior = density(&out, out_codec.pack(&[10, 10]));
        assert!((interior - 10.0).abs() < 1e-9, "interior {interior}");
        let far_away = density(&out, out_codec.pack(&[4, 4]));
        assert!(far_away.abs() < 1e-9);
    }

    #[test]
    fn isolated_noise_cell_is_attenuated_relative_to_blocks() {
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut cells = Vec::new();
        // Dense 4x4 block of 5s and one isolated cell of 5.
        for x in 10..14u32 {
            for y in 10..14u32 {
                cells.push((codec.pack(&[x, y]), 5.0));
            }
        }
        cells.push((codec.pack(&[40, 40]), 5.0));
        let grid: SparseGrid = cells.into_iter().collect();
        let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        let block_center = density(&out, out_codec.pack(&[6, 6]));
        let noise = density(&out, out_codec.pack(&[20, 20]));
        assert!(
            block_center > 2.0 * noise,
            "block {block_center} vs noise {noise}"
        );
    }

    #[test]
    fn density_level_is_preserved_and_mass_scales_with_downsampling() {
        // A unit-sum kernel preserves the *density level* of a flat block;
        // since every dimension is halved, the total mass of the block drops
        // by roughly 2^d (modulo edge effects).
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut cells = Vec::new();
        for x in 20..28u32 {
            for y in 20..28u32 {
                cells.push((codec.pack(&[x, y]), 3.0));
            }
        }
        let grid: SparseGrid = cells.into_iter().collect();
        let before = grid.total_mass();
        let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        let after = out.total_mass();
        assert!(
            after > 0.15 * before && after < 0.4 * before,
            "mass {before} -> {after} (expected ~1/4)"
        );
        // Interior density level is unchanged.
        let interior = density(&out, out_codec.pack(&[12, 12]));
        assert!((interior - 3.0).abs() < 1e-9, "interior {interior}");
    }

    #[test]
    fn multi_level_reduces_resolution_geometrically() {
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let grid: SparseGrid = [(codec.pack(&[32, 32]), 1.0)].into_iter().collect();
        let (_, c1) =
            sparse_wavelet_smooth(&grid, &codec, &kernel(), BoundaryMode::Zero, 1).unwrap();
        let (_, c3) =
            sparse_wavelet_smooth(&grid, &codec, &kernel(), BoundaryMode::Zero, 3).unwrap();
        assert_eq!(c1.all_intervals(), &[32, 32]);
        assert_eq!(c3.all_intervals(), &[8, 8]);
    }

    #[test]
    fn occupied_cells_stay_proportional_to_input_cells() {
        // Sparsity: the output never has more than (kernel support) times
        // the input cells, far below the dense grid volume.
        let codec = KeyCodec::uniform(3, 64).unwrap();
        let mut cells = Vec::new();
        let mut state = 12345u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) as u32 % 64;
            let y = (state >> 22) as u32 % 64;
            let z = (state >> 11) as u32 % 64;
            cells.push((codec.pack(&[x, y, z]), 1.0));
        }
        let grid: SparseGrid = cells.into_iter().collect();
        let (out, _) = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        assert!(out.occupied_cells() <= grid.occupied_cells() * 27);
        assert!(out.occupied_cells() < 64 * 64 * 64 / 8);
    }

    #[test]
    fn cell_budget_keeps_the_densest_cells_and_bounds_memory() {
        // A dense 6x6 block plus many isolated unit cells: with a tight
        // budget only the neighbourhood of the block survives.
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut cells = Vec::new();
        for x in 10..16u32 {
            for y in 10..16u32 {
                cells.push((codec.pack(&[x, y]), 20.0));
            }
        }
        let mut state = 99u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = 32 + (state >> 33) as u32 % 32;
            let y = 32 + (state >> 22) as u32 % 32;
            cells.push((codec.pack(&[x, y]), 1.0));
        }
        let grid: SparseGrid = cells.into_iter().collect();
        let budget = 16;
        let (out, out_codec) =
            sparse_wavelet_smooth_budgeted(&grid, &codec, &kernel(), BoundaryMode::Zero, 1, budget)
                .unwrap();
        assert!(out.occupied_cells() <= budget);
        // The interior of the block survives at full density.
        let interior = density(&out, out_codec.pack(&[6, 6]));
        assert!(interior > 10.0, "interior {interior}");
    }

    #[test]
    fn unlimited_budget_matches_the_unbudgeted_transform() {
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let mut cells = Vec::new();
        for x in 4..12u32 {
            for y in 4..12u32 {
                cells.push((codec.pack(&[x, y]), (x + y) as f64));
            }
        }
        let grid: SparseGrid = cells.into_iter().collect();
        let plain = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero);
        let budgeted = sparse_wavelet_smooth_budgeted(
            &grid,
            &codec,
            &kernel(),
            BoundaryMode::Zero,
            1,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(plain.0, budgeted.0);
    }

    #[test]
    fn periodic_boundary_wraps_contributions() {
        // Use the Haar kernel (non-negative taps) so total mass is a valid
        // proxy for "contributions kept": with periodic wrapping no tap of a
        // boundary cell is dropped, with zero padding some are.
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let codec = KeyCodec::uniform(1, 8).unwrap();
        let grid: SparseGrid = [(codec.pack(&[0]), 1.0), (codec.pack(&[7]), 1.0)]
            .into_iter()
            .collect();
        let zero = one_level(&grid, &codec, &haar, BoundaryMode::Zero).0;
        let periodic = one_level(&grid, &codec, &haar, BoundaryMode::Periodic).0;
        assert!(periodic.total_mass() >= zero.total_mass() - 1e-12);

        // With a wider kernel that has negative taps the periodic transform
        // must still produce at least as many occupied cells near the edges.
        let zero = one_level(&grid, &codec, &kernel(), BoundaryMode::Zero).0;
        let periodic = one_level(&grid, &codec, &kernel(), BoundaryMode::Periodic).0;
        assert!(periodic.occupied_cells() >= zero.occupied_cells());
    }

    #[test]
    fn periodic_wrap_on_odd_dimension_reaches_the_last_cell_not_a_phantom() {
        // Regression for the negative-numerator wrap branch: with
        // `old_m = 7` (odd), `new_m = 4` and the Haar kernel
        // `[0.5, 0.5]` (offset 0), the cell at input coordinate 0 feeds
        // output 0 (tap 0) and — through the periodic wrap `-1 ≡ 6
        // (mod 7)` — output 3 (tap 1): `output[3] = (in[6] + in[7 mod 7 =
        // 0]) / 2`. The old code reduced modulo `2 * new_m = 8`, landing
        // the wrap on the phantom input coordinate 7 and dropping it.
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let codec = KeyCodec::new(&[7]).unwrap();
        let grid: SparseGrid = [(codec.pack(&[0]), 1.0)].into_iter().collect();
        let (out, out_codec) = one_level(&grid, &codec, &haar, BoundaryMode::Periodic);
        assert_eq!(out_codec.intervals(0), 4);
        assert!((density(&out, out_codec.pack(&[0])) - 0.5).abs() < 1e-15);
        assert!((density(&out, out_codec.pack(&[3])) - 0.5).abs() < 1e-15);
        assert!((out.total_mass() - 1.0).abs() < 1e-15, "no tap was lost");
    }

    #[test]
    fn periodic_wrap_on_odd_dimension_matches_direct_convolution() {
        // Regression for the overflowing-index wrap branch: with the
        // 5-tap CDF(2,2) kernel (offset 2) over `old_m = 7`, the cell at
        // input coordinate 6 produces `numerator = 8` at tap 0 — the old
        // code wrapped the *output* index modulo `new_m`, adding a
        // spurious `-0.125` at output 0. The direct periodic convolution
        // `output[i] = Σ_t h[t] · input[(2i + t - 2) mod 7]` says input 6
        // feeds exactly outputs {0: 0.25, 2: -0.125, 3: 0.75}.
        let codec = KeyCodec::new(&[7]).unwrap();
        let grid: SparseGrid = [(codec.pack(&[6]), 1.0)].into_iter().collect();
        let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Periodic);
        let expected = [(0u32, 0.25), (2, -0.125), (3, 0.75)];
        assert_eq!(out.occupied_cells(), expected.len());
        for (coord, value) in expected {
            let got = density(&out, out_codec.pack(&[coord]));
            assert!((got - value).abs() < 1e-15, "output {coord}: {got}");
        }
        // Exhaustive cross-check over every input cell of the odd ring:
        // scatter output == gather (direct convolution) output.
        for c in 0..7u32 {
            let grid: SparseGrid = [(codec.pack(&[c]), 1.0)].into_iter().collect();
            let (out, out_codec) = one_level(&grid, &codec, &kernel(), BoundaryMode::Periodic);
            let k = kernel();
            for i in 0..4u32 {
                let direct: f64 = k
                    .iter()
                    .enumerate()
                    .map(|(t, &h)| {
                        let pos = (2 * i as i64 + t as i64 - 2).rem_euclid(7);
                        if pos == c as i64 {
                            h
                        } else {
                            0.0
                        }
                    })
                    .sum();
                let got = density(&out, out_codec.pack(&[i]));
                assert!(
                    (got - direct).abs() < 1e-15,
                    "input {c} output {i}: scatter {got} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn haar_kernel_gives_exact_pairwise_average() {
        let codec = KeyCodec::uniform(1, 8).unwrap();
        let grid: SparseGrid = [(codec.pack(&[2]), 4.0), (codec.pack(&[3]), 6.0)]
            .into_iter()
            .collect();
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let (out, out_codec) = one_level(&grid, &codec, &haar, BoundaryMode::Zero);
        assert!((density(&out, out_codec.pack(&[1])) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn full_width_keys_match_the_hash_reference() {
        // Four dimensions of u32::MAX intervals use all 128 key bits; cells
        // sit at both ends of every axis so the boundary paths run too.
        let codec = KeyCodec::uniform(4, u32::MAX).unwrap();
        let mut cells = Vec::new();
        let top = u32::MAX - 1;
        let mut state = 0x5eedu64;
        for n in 0..120u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = |shift: u32| match (state >> shift) % 4 {
                0 => (state >> (shift + 2)) as u32 % 3,
                1 => top - (state >> (shift + 2)) as u32 % 3,
                _ => (state >> (shift + 8)) as u32,
            };
            let coords = [pick(0), pick(12), pick(24), pick(36)];
            cells.push((codec.pack(&coords), f64::from(n % 7) - 1.5));
        }
        let grid: SparseGrid = cells.into_iter().collect();
        for boundary in [BoundaryMode::Zero, BoundaryMode::Periodic] {
            for levels in 0..3 {
                for budget in [usize::MAX, 150, 7] {
                    let (got, want) =
                        vector_and_reference(&grid, &codec, &kernel(), boundary, levels, budget);
                    assert_eq!(got, want, "{boundary:?}, levels {levels}, budget {budget}");
                }
            }
        }
    }

    #[test]
    fn huge_interval_counts_fit_without_a_per_line_buffer() {
        // At scale 4e9 a line spans 4e9 coordinates: a line buffer indexed
        // by coordinate would take 16 GB or more, while the line scratch
        // holds a few cells. The fit completes and its transform matches
        // the reference.
        use crate::{AdaWave, AdaWaveConfig};
        use adawave_api::PointMatrix;
        use adawave_grid::BoundingBox;

        let mut points = PointMatrix::new(2);
        for i in 0..200u32 {
            let t = f64::from(i) / 200.0;
            points.push_row(&[t, (t * 7.0).sin()]);
            points.push_row(&[0.3 + t * 1e-9, 0.2]);
        }
        let config = AdaWaveConfig::builder().scale(4_000_000_000).build();
        let adawave = AdaWave::new(config.clone());
        let result = adawave.fit(points.view()).unwrap();
        assert_eq!(result.len(), points.len());

        let bounds = BoundingBox::from_points(points.view()).unwrap();
        let quantizer = adawave.quantizer_for(&bounds).unwrap();
        assert_eq!(quantizer.codec().all_intervals(), &[4_000_000_000; 2]);
        let (grid, _) = quantizer.quantize(points.view());
        let kernel = config.wavelet.density_smoothing_kernel();
        let (got, want) = vector_and_reference(
            &grid,
            quantizer.codec(),
            &kernel,
            config.boundary,
            config.levels,
            config.max_transformed_cells,
        );
        assert_eq!(got, want);
    }

    /// A grid's cells in the order it holds them, densities as bits.
    fn raw(grid: &SparseGrid) -> Vec<(u128, u64)> {
        grid.iter().map(|(k, v)| (k, v.to_bits())).collect()
    }

    #[test]
    fn the_path_rule_reads_occupancy_budget_and_key_width() {
        use TransformPath::DenseLanes;
        let sorted = |cell_budget| TransformPath::SortedCells { cell_budget };
        // 12 key bits: 4,096 slots, so 512 cells reach the bound exactly.
        let codec = KeyCodec::uniform(3, 16).unwrap();
        let at_bound = 4096 / TransformPath::DENSE_SLOTS_PER_CELL;
        assert_eq!(at_bound, 512);
        for (cells, path) in [
            (at_bound - 1, sorted(usize::MAX)),
            (at_bound, DenseLanes),
            (at_bound + 1, DenseLanes),
            (0, sorted(usize::MAX)),
        ] {
            assert_eq!(
                TransformPath::choose(&codec, cells, usize::MAX),
                path,
                "{cells} cells"
            );
        }
        // The first pass writes [8, 16, 16]: 11 bits, 2,048 slots.
        assert_eq!(TransformPath::choose(&codec, 4096, 2048), DenseLanes);
        assert_eq!(TransformPath::choose(&codec, 4096, 2047), sorted(2047));
        // Halving 2 intervals to 1 saves no bit: the first pass writes as
        // many slots (512) as it reads.
        let narrow = KeyCodec::new(&[2, 16, 16]).unwrap();
        assert_eq!(TransformPath::choose(&narrow, 512, 512), DenseLanes);
        assert_eq!(TransformPath::choose(&narrow, 512, 511), sorted(511));
        // A 128-bit codec's key space is no u128: no shift may overflow.
        let wide = KeyCodec::uniform(4, u32::MAX).unwrap();
        assert_eq!(wide.key_bits(), 128);
        assert_eq!(
            TransformPath::choose(&wide, usize::MAX, usize::MAX),
            sorted(usize::MAX)
        );
        let just_below = KeyCodec::new(&[u32::MAX, u32::MAX, u32::MAX, 1 << 31]).unwrap();
        assert_eq!(just_below.key_bits(), 127);
        assert_eq!(
            TransformPath::choose(&just_below, usize::MAX, usize::MAX),
            sorted(usize::MAX)
        );
    }

    #[test]
    fn an_empty_grid_transforms_to_an_empty_grid_on_both_paths() {
        let codec = KeyCodec::uniform(2, 8).unwrap();
        let empty = SparseGrid::new();
        for path in [
            TransformPath::DenseLanes,
            TransformPath::SortedCells {
                cell_budget: usize::MAX,
            },
        ] {
            let (out, out_codec) =
                sparse_wavelet_smooth_on(path, &empty, &codec, &kernel(), BoundaryMode::Zero, 2)
                    .unwrap();
            assert_eq!(out.occupied_cells(), 0, "{path:?}");
            assert_eq!(out_codec.all_intervals(), &[2, 2]);
        }
    }

    #[test]
    fn dense_lanes_reject_a_key_outside_the_codec() {
        // 5 intervals take 3 bits, so key 8 sets a bit above the codec.
        let codec = KeyCodec::new(&[5]).unwrap();
        let grid = SparseGrid::from_cells(vec![(8, 1.0)]);
        let err = sparse_wavelet_smooth_on(
            TransformPath::DenseLanes,
            &grid,
            &codec,
            &kernel(),
            BoundaryMode::Zero,
            1,
        )
        .unwrap_err();
        assert!(err.to_string().contains("cell key"), "{err}");
    }

    #[test]
    fn dense_lanes_match_sorted_cells_where_the_grid_fills_its_key_space() {
        // Small 2–4-d key spaces filled at every occupancy, so the rule
        // picks each path in a good share of the cases: 1–3-interval axes
        // and odd periodic rings, where a 4- or 6-tap kernel wraps onto
        // the same output more than once; exact zeros and −0.0 among the
        // densities, which occupy a slot with nothing to add. Every case
        // matches the hash reference, and where the rule picks the dense
        // lanes, they return the sorted path's vector, order included.
        let mut rng = proptest::test_runner::TestRng::from_name("transform::dense_lanes");
        let mut below = |n: u64| (rng.next_u64() % n) as u32;
        let (mut dense, mut sorted) = (0, 0);
        for case in 0..768 {
            let dims = 2 + below(3) as usize;
            let intervals: Vec<u32> = (0..dims)
                .map(|_| match below(4) {
                    0 => 1 + below(3),
                    1 => 3 + 2 * below(3),
                    _ => 1 + below(8),
                })
                .collect();
            let codec = KeyCodec::new(&intervals).unwrap();
            let fill = below(1000);
            let mut cells = Vec::new();
            for key in 0..1u128 << codec.key_bits() {
                if !codec.contains(key) || below(1000) >= fill {
                    continue;
                }
                let value = f64::from(below(1 << 30)) / f64::from(1 << 24) - 20.0;
                let density = match below(6) {
                    0 => value.abs().round(),
                    1 => 0.0,
                    2 => -0.0,
                    3 => -value.abs(),
                    _ => value,
                };
                cells.push((key, density));
            }
            let grid = SparseGrid::from_cells(cells);
            let kernel = [Wavelet::Daubechies2, Wavelet::Daubechies3, Wavelet::Cdf22]
                [below(3) as usize]
                .density_smoothing_kernel();
            let boundary = BoundaryMode::ALL[below(3) as usize];
            let levels = 1 + below(3);
            let budget = match below(4) {
                0 => 1 + below(2 * grid.occupied_cells().max(1) as u64) as usize,
                _ => usize::MAX,
            };
            let (got, want) =
                vector_and_reference(&grid, &codec, &kernel, boundary, levels, budget);
            assert_eq!(
                got, want,
                "case {case}: {intervals:?} {boundary:?} levels {levels}"
            );
            let path = TransformPath::choose(&codec, grid.occupied_cells(), budget);
            if path == TransformPath::DenseLanes {
                dense += 1;
                let on = |path| {
                    let (out, out_codec) =
                        sparse_wavelet_smooth_on(path, &grid, &codec, &kernel, boundary, levels)
                            .unwrap();
                    (out_codec, raw(&out))
                };
                let cell_budget = budget;
                assert_eq!(
                    on(path),
                    on(TransformPath::SortedCells { cell_budget }),
                    "case {case}: {intervals:?} {boundary:?} levels {levels}"
                );
            } else {
                sorted += 1;
            }
        }
        assert!(
            dense >= 150 && sorted >= 150,
            "dense {dense}, sorted {sorted}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn vector_transform_is_bit_identical_to_the_hash_scatter(
            dims in 1usize..6,
            raw_intervals in prop::collection::vec((0u8..4, 1u32..71), 5),
            raw_cells in prop::collection::vec(
                (prop::collection::vec(0u32..1000, 5), 0u8..4, -20.0f64..40.0),
                0..60,
            ),
            wavelet in 0usize..5,
            boundary in 0usize..3,
            levels in 0u32..4,
            raw_budget in 0usize..1000,
        ) {
            // A quarter of the axes get 1–3 intervals, where a periodic 5-
            // or 6-tap kernel wraps onto the same output more than once.
            let intervals: Vec<u32> = raw_intervals[..dims]
                .iter()
                .map(|&(small, m)| if small == 0 { 1 + m % 3 } else { m })
                .collect();
            let codec = KeyCodec::new(&intervals).unwrap();
            let mut map = HashMap::new();
            for (coords, kind, value) in &raw_cells {
                let coords: Vec<u32> =
                    coords[..dims].iter().zip(&intervals).map(|(c, m)| c % m).collect();
                // Counts, exact zeros, negatives and arbitrary reals.
                let density = match kind {
                    0 => value.abs().round(),
                    1 => 0.0,
                    2 => -value.abs(),
                    _ => *value,
                };
                map.insert(codec.pack(&coords), density);
            }
            let grid: SparseGrid = map.into_iter().collect();
            // Budgets from 1 to twice the cell count, or none at all.
            let budget = if raw_budget % 8 == 0 {
                usize::MAX
            } else {
                1 + raw_budget % (2 * grid.occupied_cells()).max(1)
            };
            let (got, want) = vector_and_reference(
                &grid,
                &codec,
                &Wavelet::ALL[wavelet].density_smoothing_kernel(),
                BoundaryMode::ALL[boundary],
                levels,
                budget,
            );
            prop_assert_eq!(got, want);
        }
    }
}
