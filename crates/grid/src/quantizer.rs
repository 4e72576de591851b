//! Space quantization (Algorithm 2 of the paper): assign every data point
//! to a grid cell and record the per-cell point counts.

use adawave_api::{PayloadReader, PointsView, Precision};
use adawave_runtime::Runtime;

use crate::{BoundingBox, CellTable, GridError, KeyCodec, Result, SparseGrid};

/// Rows per task of [`fill_row_keys`]. Every key depends only on its own
/// row, so the chunk size bounds the work in one task and cannot change
/// any result.
const QUANTIZE_CHUNK_ROWS: usize = 8_192;

/// Rows per key block of [`Quantizer::quantize_cells`]: the keys of one
/// block, 1 MiB of them, are filled and counted before the next block's
/// are filled into the same buffer. The grid, its cell order and every
/// index are those of counting every key at once, so the block size
/// cannot change any result.
const KEY_BLOCK_ROWS: usize = 1 << 16;

/// Write `key(row i)` into `out[i]` for every row of `points`, in fixed
/// 8192-row chunks fanned out over `runtime`: the one key pass behind
/// both quantization lanes and streaming ingestion. Each slot depends
/// only on its own row, so `out` is identical for every thread count.
///
/// # Panics
/// Panics if `out` and `points` differ in length.
pub fn fill_row_keys<T: Send>(
    points: PointsView<'_>,
    runtime: Runtime,
    out: &mut [T],
    key: impl Fn(&[f64]) -> T + Sync,
) {
    assert_eq!(out.len(), points.len(), "fill_row_keys: length mismatch");
    runtime.par_chunks_mut(out, QUANTIZE_CHUNK_ROWS, |chunk, slots| {
        let first = chunk * QUANTIZE_CHUNK_ROWS;
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = key(points.row(first + i));
        }
    });
}

/// Precomputed state for the opt-in single-precision quantization lane:
/// per-dimension lower bounds and inverse interval widths, both narrowed
/// to `f32`. Built once per quantizer by [`Quantizer::f32_lane`] and reused
/// across every point (and every serving query) so the hot loop is a
/// subtract, a multiply, and a floor per coordinate.
#[derive(Debug, Clone)]
pub struct F32Lane {
    mins: Vec<f32>,
    inv_widths: Vec<f32>,
}

/// Maps points to grid cells.
///
/// The feature-space domain `B_j` of every dimension is divided into
/// `intervals_j` right-open intervals `[l, h)`; a point belongs to the cell
/// whose interval contains it in every dimension. Coordinates on or beyond
/// the fitted upper bound are clamped into the last interval so the maximum
/// point still belongs to a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    bounds: BoundingBox,
    codec: KeyCodec,
    /// Interval width of every dimension, `extent / intervals` computed
    /// once; infinite for a dimension of zero extent, whose every
    /// coordinate then divides to 0 or NaN, both cell 0.
    widths: Vec<f64>,
}

impl Quantizer {
    /// Fit a quantizer to a dataset with the same `scale` (number of
    /// intervals) in every dimension. `scale = 128` is the paper's default.
    ///
    /// The dimensionality comes from the view itself, so an empty point
    /// set is a clean [`GridError::InvalidData`] (no `points[0]` panic).
    pub fn fit(points: PointsView<'_>, scale: u32) -> Result<Self> {
        let bounds = BoundingBox::from_points(points)?;
        Self::with_bounds(bounds, &vec![scale; points.dims()])
    }

    /// Fit a quantizer with per-dimension interval counts.
    pub fn fit_with_intervals(points: PointsView<'_>, intervals: &[u32]) -> Result<Self> {
        let bounds = BoundingBox::from_points(points)?;
        Self::with_bounds(bounds, intervals)
    }

    /// Build a quantizer from explicit bounds and interval counts.
    pub fn with_bounds(bounds: BoundingBox, intervals: &[u32]) -> Result<Self> {
        if bounds.dims() != intervals.len() {
            return Err(GridError::InvalidData {
                context: format!(
                    "bounds have {} dimensions but {} interval counts were given",
                    bounds.dims(),
                    intervals.len()
                ),
            });
        }
        let codec = KeyCodec::new(intervals)?;
        Ok(Self::from_parts(bounds, codec))
    }

    /// The quantizer of `bounds` and `codec`, which agree on the
    /// dimensions.
    fn from_parts(bounds: BoundingBox, codec: KeyCodec) -> Self {
        let widths = (0..codec.dims())
            .map(|j| {
                let extent = bounds.extent(j);
                if extent > 0.0 {
                    extent / codec.intervals(j) as f64
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Self {
            bounds,
            codec,
            widths,
        }
    }

    /// The key codec describing the quantized space.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// The bounding box used for quantization.
    pub fn bounds(&self) -> &BoundingBox {
        &self.bounds
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.codec.dims()
    }

    /// Cell index of one coordinate in dimension `j`.
    #[inline]
    fn cell_coord(&self, j: usize, v: f64) -> u32 {
        // Right-open intervals [l, h): index = floor((v - min)/width).
        // The maximum coordinate (and anything beyond the fitted
        // bounds) is clamped into the boundary cells. Truncation gives
        // the floor's cell after the clamp for every f64: they differ
        // only on (-1, 0), and -0, NaN and the saturated infinities cast
        // alike. It avoids `floor`, a libm call on baseline x86-64.
        let c = ((v - self.bounds.min()[j]) / self.widths[j]) as i64;
        c.clamp(0, i64::from(self.codec.intervals(j) - 1)) as u32
    }

    /// Cell coordinates of a single point. Points outside the fitted bounds
    /// are clamped to the boundary cells.
    ///
    /// # Panics
    /// Panics if the point dimensionality does not match the quantizer.
    pub fn cell_coords(&self, point: &[f64]) -> Vec<u32> {
        assert_eq!(
            point.len(),
            self.dims(),
            "cell_coords: dimensionality mismatch"
        );
        point
            .iter()
            .enumerate()
            .map(|(j, &v)| self.cell_coord(j, v))
            .collect()
    }

    /// Packed cell key of a single point (the `getGridID` of Algorithm 2).
    /// Streams the coordinates straight into the packed key — no
    /// intermediate coordinate vector, so quantizing a dataset performs no
    /// per-point allocation.
    ///
    /// # Panics
    /// Panics if the point dimensionality does not match the quantizer.
    pub fn cell_key(&self, point: &[f64]) -> u128 {
        assert_eq!(
            point.len(),
            self.dims(),
            "cell_key: dimensionality mismatch"
        );
        point.iter().enumerate().fold(0u128, |key, (j, &v)| {
            key | self.codec.pack_coord(j, self.cell_coord(j, v))
        })
    }

    /// Centre of a cell in the original feature space.
    pub fn cell_center(&self, key: u128) -> Vec<f64> {
        let coords = self.codec.unpack(key);
        coords
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let m = self.codec.intervals(j) as f64;
                let extent = self.bounds.extent(j);
                self.bounds.min()[j] + (c as f64 + 0.5) / m * extent
            })
            .collect()
    }

    /// Append the quantizer to an artifact payload: its bounding box
    /// followed by its codec's interval counts. Both components are
    /// bit-exact, so a restored quantizer assigns every point to the same
    /// cell key as the original.
    pub fn serialize_into(&self, out: &mut String) {
        self.bounds.serialize_into(out);
        self.codec.serialize_into(out);
    }

    /// Read a quantizer written by [`serialize_into`](Self::serialize_into),
    /// re-running the full construction validation (bounds ordering, codec
    /// interval counts and key-width limits).
    pub fn deserialize_from(reader: &mut PayloadReader<'_>) -> std::result::Result<Self, String> {
        let bounds = BoundingBox::deserialize_from(reader)?;
        let codec = KeyCodec::deserialize_from(reader, bounds.dims())?;
        Ok(Self::from_parts(bounds, codec))
    }

    /// Precompute the opt-in single-precision quantization lane.
    ///
    /// The f32 lane trades the f64 lane's bit-for-bit contract for speed:
    /// coordinates are narrowed to `f32` and the per-dimension division is
    /// replaced by a multiplication with the precomputed inverse interval
    /// width (a rewrite that is *not* bit-identical in general, which is
    /// why the default f64 path keeps its division untouched). Within
    /// itself the lane is fully deterministic: the same inputs produce the
    /// same cells on every run and every thread count.
    pub fn f32_lane(&self) -> F32Lane {
        let dims = self.dims();
        let mut mins = Vec::with_capacity(dims);
        let mut inv_widths = Vec::with_capacity(dims);
        for j in 0..dims {
            mins.push(self.bounds.min()[j] as f32);
            let extent = self.bounds.extent(j);
            inv_widths.push(if extent > 0.0 {
                (self.codec.intervals(j) as f64 / extent) as f32
            } else {
                0.0
            });
        }
        F32Lane { mins, inv_widths }
    }

    /// Cell index of one coordinate in dimension `j` through the f32 lane,
    /// truncated as in [`cell_coord`](Self::cell_coord).
    #[inline]
    fn cell_coord_f32(&self, lane: &F32Lane, j: usize, v: f64) -> u32 {
        let c = ((v as f32 - lane.mins[j]) * lane.inv_widths[j]) as i64;
        c.clamp(0, i64::from(self.codec.intervals(j) - 1)) as u32
    }

    /// Packed cell key of a single point through the f32 lane — the
    /// single-precision counterpart of [`cell_key`](Self::cell_key).
    ///
    /// # Panics
    /// Panics if the point dimensionality does not match the quantizer.
    pub fn cell_key_f32(&self, lane: &F32Lane, point: &[f64]) -> u128 {
        assert_eq!(
            point.len(),
            self.dims(),
            "cell_key_f32: dimensionality mismatch"
        );
        point.iter().enumerate().fold(0u128, |key, (j, &v)| {
            key | self.codec.pack_coord(j, self.cell_coord_f32(lane, j, v))
        })
    }

    /// The key of a point's cell after `levels` decompositions, in
    /// `target`'s layout (the transformed codec), through the f32 `lane`
    /// when given: [`KeyCodec::remap`] of the point's
    /// [`cell_key`](Self::cell_key) (or [`cell_key_f32`](Self::cell_key_f32)),
    /// with each coordinate shifted and clamped into `target` as it is
    /// computed ([`KeyCodec::pack_downsampled`]) instead of packed into a
    /// key that is then unpacked again.
    ///
    /// # Panics
    /// Panics if the point dimensionality does not match the quantizer.
    pub fn transformed_key(
        &self,
        lane: Option<&F32Lane>,
        point: &[f64],
        target: &KeyCodec,
        levels: u32,
    ) -> u128 {
        assert_eq!(
            point.len(),
            self.dims(),
            "transformed_key: dimensionality mismatch"
        );
        point.iter().enumerate().fold(0u128, |key, (j, &v)| {
            let c = match lane {
                None => self.cell_coord(j, v),
                Some(lane) => self.cell_coord_f32(lane, j, v),
            };
            key | target.pack_downsampled(j, c, levels)
        })
    }

    /// Quantize a whole dataset: returns the sparse grid of per-cell counts
    /// and, for every point, the key of the cell it fell into (the lookup
    /// table input for step 6 of Algorithm 1). Runs sequentially; see
    /// [`quantize_with`](Self::quantize_with) for the parallel form.
    pub fn quantize(&self, points: PointsView<'_>) -> (SparseGrid, Vec<u128>) {
        self.quantize_with(points, Runtime::sequential())
    }

    /// [`quantize_with`](Self::quantize_with) through the opt-in f32 lane:
    /// every cell assignment uses [`cell_key_f32`](Self::cell_key_f32).
    /// Deterministic across thread counts, but *not* bit-comparable to the
    /// f64 lane.
    pub fn quantize_f32_with(
        &self,
        points: PointsView<'_>,
        runtime: Runtime,
    ) -> (SparseGrid, Vec<u128>) {
        self.quantize_keys(points, Precision::F32, runtime)
    }

    /// [`quantize`](Self::quantize) fanned out over `runtime`: the keys are
    /// computed in parallel straight into the returned vector
    /// ([`fill_row_keys`]), then counted in one sequential pass that
    /// indexes a flat array when the codec's keys are at most
    /// [`CellTable::DENSE_KEY_BITS`] wide and hashes wider ones. The result
    /// is identical for every thread count.
    pub fn quantize_with(
        &self,
        points: PointsView<'_>,
        runtime: Runtime,
    ) -> (SparseGrid, Vec<u128>) {
        self.quantize_keys(points, Precision::F64, runtime)
    }

    /// Quantize a whole dataset through the `precision` lane for a caller
    /// that labels points by cell: the grid of [`quantize_with`]
    /// (or [`quantize_f32_with`]) and, for every point, its cell's index in
    /// that grid's cells, 4 bytes where a key takes 16. The keys are
    /// filled ([`fill_row_keys`]) and counted a block of 2^16 rows at a
    /// time through one reused 1 MiB buffer, so no key a point is ever
    /// held: the grid, its cell order and every index are those of
    /// counting all the keys at once.
    ///
    /// [`quantize_with`]: Self::quantize_with
    /// [`quantize_f32_with`]: Self::quantize_f32_with
    ///
    /// # Panics
    /// Panics if the grid holds more than 2^32 cells.
    pub fn quantize_cells(
        &self,
        points: PointsView<'_>,
        precision: Precision,
        runtime: Runtime,
    ) -> (SparseGrid, Vec<u32>) {
        let mut table = CellTable::with_capacity(&self.codec, points.len().min(1 << 16));
        let mut grid = SparseGrid::new();
        let mut cells = Vec::with_capacity(points.len());
        let mut keys = vec![0; points.len().min(KEY_BLOCK_ROWS)];
        for first in (0..points.len()).step_by(KEY_BLOCK_ROWS) {
            let block = points.slice(first..points.len().min(first + KEY_BLOCK_ROWS));
            let keys = &mut keys[..block.len()];
            self.fill_keys(block, precision, runtime, keys);
            count_keys(keys, &mut table, &mut grid, |index| {
                cells.push(u32::try_from(index).expect("a grid holds at most 2^32 cells"));
            });
        }
        (grid, cells)
    }

    /// Every row's cell key through the `precision` lane, and the grid of
    /// those keys counted in one pass.
    fn quantize_keys(
        &self,
        points: PointsView<'_>,
        precision: Precision,
        runtime: Runtime,
    ) -> (SparseGrid, Vec<u128>) {
        let mut keys = vec![0; points.len()];
        self.fill_keys(points, precision, runtime, &mut keys);
        let mut table = CellTable::with_capacity(&self.codec, keys.len().min(1 << 16));
        let mut grid = SparseGrid::new();
        count_keys(&keys, &mut table, &mut grid, |_| {});
        (grid, keys)
    }

    /// Write every row's cell key through the `precision` lane into `out`
    /// ([`fill_row_keys`]).
    fn fill_keys(
        &self,
        points: PointsView<'_>,
        precision: Precision,
        runtime: Runtime,
        out: &mut [u128],
    ) {
        match precision {
            Precision::F64 => fill_row_keys(points, runtime, out, |p| self.cell_key(p)),
            Precision::F32 => {
                let lane = self.f32_lane();
                fill_row_keys(points, runtime, out, |p| self.cell_key_f32(&lane, p));
            }
        }
    }
}

/// Keys first, count once: one pass adding each key to its cell of `grid`
/// ([`SparseGrid::add_interned`]) through `table`, a [`CellTable`] that
/// indexes a flat array when the codec's keys are at most
/// [`CellTable::DENSE_KEY_BITS`] wide and hashes them otherwise, handing
/// `index` each key's cell index in turn. The cells come out in the order
/// their first point arrived, so counting the keys a block at a time into
/// one table and grid counts them as a single pass does.
fn count_keys(
    keys: &[u128],
    table: &mut CellTable,
    grid: &mut SparseGrid,
    mut index: impl FnMut(usize),
) {
    for &key in keys {
        index(grid.add_interned(table, key, 1.0));
    }
}

/// The per-point hash count [`count_keys`] replaced, kept as the
/// reference both sides of the [`CellTable`] must match.
#[cfg(test)]
pub(crate) mod hash_reference {
    use std::collections::HashMap;

    use super::*;

    /// Keys first, then one hash update per key.
    pub(crate) fn count_keys(
        points: PointsView<'_>,
        runtime: Runtime,
        key: impl Fn(&[f64]) -> u128 + Sync,
    ) -> (HashMap<u128, f64>, Vec<u128>) {
        let mut keys = vec![0; points.len()];
        fill_row_keys(points, runtime, &mut keys, key);
        let mut grid = HashMap::with_capacity(points.len().min(1 << 16));
        for &key in &keys {
            *grid.entry(key).or_insert(0.0) += 1.0;
        }
        (grid, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::PointMatrix;
    use proptest::prelude::*;

    /// The cell coordinate of the floor formula `cell_coord` replaced.
    fn floor_coord(min: f64, extent: f64, m: u32, v: f64) -> u32 {
        let c = if extent > 0.0 {
            let width = extent / m as f64;
            ((v - min) / width).floor() as i64
        } else {
            0
        };
        c.clamp(0, (m - 1) as i64) as u32
    }

    /// The f32 lane's cell coordinate by the floor formula it replaced.
    fn floor_coord_f32(min: f32, inv_width: f32, m: u32, v: f64) -> u32 {
        let c = ((v as f32 - min) * inv_width).floor() as i64;
        c.clamp(0, (m - 1) as i64) as u32
    }

    /// Values at the edges of the f64 line: signed zeros, the smallest
    /// subnormal and normal, the largest finite, the infinities and NaN.
    const EDGES: [f64; 18] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        0.5,
        -0.5,
        1.0,
        -1.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Truncating by a width computed once gives the floor formula's
        /// cell for adversarial values in both lanes: the edges of the f64
        /// line, cell boundaries and their neighbouring floats, over
        /// domains of zero, subnormal, ordinary and overflowing extent.
        /// The transformed key equals the re-encoded cell key at levels
        /// 0-3 (33 saturates every coordinate).
        #[test]
        fn truncated_cells_match_the_floor_formula(
            (domain, lo, m) in (0u32..4, 0usize..EDGES.len(), 1u32..600),
            picks in proptest::collection::vec((0usize..EDGES.len() + 3, 0u32..700, 0u32..3), 1..48),
            levels in 0u32..5,
        ) {
            let lo = if EDGES[lo].is_finite() { EDGES[lo] } else { 0.0 };
            let (min, max) = match domain {
                0 => (lo, lo),
                1 => (0.0, f64::from_bits(1 + u64::from(m % 7))),
                2 => (lo.clamp(-1e300, 1e300), lo.clamp(-1e300, 1e300) + 0.37 * f64::from(m)),
                _ => (f64::MIN, f64::MAX),
            };
            let q = Quantizer::with_bounds(BoundingBox::from_bounds(vec![min], vec![max]), &[m])
                .unwrap();
            let lane = q.f32_lane();
            let levels = if levels == 4 { 33 } else { levels };
            let target = q.codec().downsampled(levels).unwrap();
            let extent = max - min;
            for &(pick, k, ulps) in &picks {
                let v = match pick {
                    i if i < EDGES.len() => EDGES[i],
                    i => {
                        // Near the boundary of cell k: below, on or above.
                        let boundary = min + f64::from(k) * (extent / f64::from(m));
                        let step = [-1i64, 0, 1][ulps as usize] * (i - EDGES.len()) as i64;
                        f64::from_bits(boundary.to_bits().wrapping_add_signed(step))
                    }
                };
                let context = format!("[{min:e}, {max:e}] in {m}, v = {v:e}");
                let want = floor_coord(min, extent, m, v);
                prop_assert_eq!(q.cell_coords(&[v]), vec![want], "{}", context);
                let want32 = floor_coord_f32(lane.mins[0], lane.inv_widths[0], m, v);
                prop_assert_eq!(q.cell_key_f32(&lane, &[v]), u128::from(want32), "f32 {}", context);
                let remapped = q.codec().remap(q.cell_key(&[v]), &target, levels, None);
                prop_assert_eq!(q.transformed_key(None, &[v], &target, levels), remapped, "{}", context);
                let remapped = q.codec().remap(q.cell_key_f32(&lane, &[v]), &target, levels, None);
                prop_assert_eq!(
                    q.transformed_key(Some(&lane), &[v], &target, levels),
                    remapped,
                    "f32 {}", context
                );
            }
        }
    }

    fn matrix(rows: Vec<Vec<f64>>) -> PointMatrix {
        PointMatrix::from_rows(rows).unwrap()
    }

    fn unit_square_points() -> PointMatrix {
        matrix(vec![
            vec![0.0, 0.0],
            vec![0.99, 0.99],
            vec![0.5, 0.5],
            vec![0.51, 0.49],
            vec![1.0, 1.0],
        ])
    }

    #[test]
    fn fit_and_quantize_counts_points() {
        let pts = unit_square_points();
        let q = Quantizer::fit(pts.view(), 4).unwrap();
        let (grid, assignment) = q.quantize(pts.view());
        assert_eq!(assignment.len(), pts.len());
        assert_eq!(grid.total_mass(), pts.len() as f64);
        // (0,0) and (1,1)/(0.99,0.99) must land in different cells
        assert_ne!(assignment[0], assignment[1]);
        // max coordinate is clamped into the last cell, same as 0.99
        assert_eq!(assignment[1], assignment[4]);
    }

    #[test]
    fn empty_input_is_an_error_not_a_panic() {
        // The dimension used to come from `points[0]`; the view carries it,
        // so an empty set must surface as InvalidData from every fit path.
        let empty = PointMatrix::new(2);
        assert!(Quantizer::fit(empty.view(), 8).is_err());
        assert!(Quantizer::fit_with_intervals(empty.view(), &[8, 8]).is_err());
    }

    #[test]
    fn cell_coords_respect_scale() {
        let pts = matrix(vec![vec![0.0], vec![10.0]]);
        let q = Quantizer::fit(pts.view(), 10).unwrap();
        assert_eq!(q.cell_coords(&[0.0]), vec![0]);
        assert_eq!(q.cell_coords(&[5.0]), vec![5]);
        assert_eq!(q.cell_coords(&[9.99]), vec![9]);
        assert_eq!(q.cell_coords(&[10.0]), vec![9]);
    }

    #[test]
    fn out_of_bounds_points_are_clamped() {
        let pts = matrix(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let q = Quantizer::fit(pts.view(), 8).unwrap();
        assert_eq!(q.cell_coords(&[-5.0, 0.5]), vec![0, 4]);
        assert_eq!(q.cell_coords(&[2.0, 0.5])[0], 7);
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let pts = matrix(vec![vec![0.0, 0.0], vec![8.0, 4.0]]);
        let q = Quantizer::fit(pts.view(), 8).unwrap();
        let key = q.cell_key(&[3.1, 2.2]);
        let center = q.cell_center(key);
        assert_eq!(q.cell_key(&center), key);
    }

    #[test]
    fn same_cell_for_nearby_points() {
        let pts = matrix(vec![vec![0.0, 0.0], vec![100.0, 100.0]]);
        let q = Quantizer::fit(pts.view(), 10).unwrap();
        assert_eq!(q.cell_key(&[12.0, 12.0]), q.cell_key(&[13.0, 17.0]));
        assert_ne!(q.cell_key(&[12.0, 12.0]), q.cell_key(&[32.0, 12.0]));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let bounds = BoundingBox::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(Quantizer::with_bounds(bounds, &[4]).is_err());
    }

    #[test]
    fn per_dimension_intervals() {
        let pts = matrix(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let q = Quantizer::fit_with_intervals(pts.view(), &[4, 16]).unwrap();
        assert_eq!(q.codec().intervals(0), 4);
        assert_eq!(q.codec().intervals(1), 16);
    }

    #[test]
    fn quantize_is_order_insensitive() {
        // The paper's "input-order insensitive" property: grid contents do
        // not depend on the order points are presented.
        let mut pts = unit_square_points();
        let q = Quantizer::fit(pts.view(), 8).unwrap();
        let (grid_a, _) = q.quantize(pts.view());
        pts.reverse_rows();
        let (grid_b, _) = q.quantize(pts.view());
        assert_eq!(grid_a, grid_b);
    }

    #[test]
    fn parallel_quantize_matches_sequential() {
        // Enough rows to cross the chunk size so the parallel path is
        // actually exercised.
        let mut pts = PointMatrix::new(2);
        let mut x = 0.123_f64;
        for _ in 0..20_000 {
            x = (x * 97.0 + 0.31).fract();
            pts.push_row(&[x, (x * 13.0).fract()]);
        }
        let q = Quantizer::fit(pts.view(), 64).unwrap();
        let (grid_seq, keys_seq) = q.quantize(pts.view());
        for threads in [2, 3, 8] {
            let (grid_par, keys_par) = q.quantize_with(pts.view(), Runtime::with_threads(threads));
            assert_eq!(grid_seq, grid_par, "threads = {threads}");
            assert_eq!(keys_seq, keys_par, "threads = {threads}");
        }
    }

    #[test]
    fn degenerate_dimension_all_in_one_cell() {
        let pts = matrix(vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]);
        let q = Quantizer::fit(pts.view(), 8).unwrap();
        let coords: Vec<u32> = pts.rows().map(|p| q.cell_coords(p)[1]).collect();
        assert!(coords.iter().all(|&c| c == coords[0]));
    }

    #[test]
    fn serde_round_trip_preserves_cell_assignment() {
        let pts = lcg_points(500);
        let q = Quantizer::fit_with_intervals(pts.view(), &[64, 16]).unwrap();
        let mut payload = String::new();
        q.serialize_into(&mut payload);
        let mut reader = PayloadReader::new(&payload);
        let back = Quantizer::deserialize_from(&mut reader).unwrap();
        assert_eq!(back, q);
        for p in pts.rows() {
            assert_eq!(back.cell_key(p), q.cell_key(p));
        }
    }

    #[test]
    fn serde_rejects_box_codec_dimension_mismatch() {
        // A 2-d box followed by a 1-interval line: the codec read expects
        // exactly bounds.dims() counts.
        let b = BoundingBox::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let mut payload = String::new();
        b.serialize_into(&mut payload);
        payload.push_str("intervals 8\n");
        let mut reader = PayloadReader::new(&payload);
        assert!(Quantizer::deserialize_from(&mut reader).is_err());
    }

    /// A pseudo-random point cloud large enough to cross the chunk size.
    fn lcg_points(rows: usize) -> PointMatrix {
        let mut pts = PointMatrix::new(2);
        let mut x = 0.123_f64;
        for _ in 0..rows {
            x = (x * 97.0 + 0.31).fract();
            pts.push_row(&[x, (x * 13.0).fract()]);
        }
        pts
    }

    #[test]
    fn f32_lane_is_deterministic_across_thread_counts() {
        let pts = lcg_points(20_000);
        let q = Quantizer::fit(pts.view(), 64).unwrap();
        let (grid_seq, keys_seq) = q.quantize_f32_with(pts.view(), Runtime::sequential());
        for threads in [1, 2, 4, 8] {
            let (grid_par, keys_par) =
                q.quantize_f32_with(pts.view(), Runtime::with_threads(threads));
            assert_eq!(grid_seq, grid_par, "threads = {threads}");
            assert_eq!(keys_seq, keys_par, "threads = {threads}");
        }
    }

    /// Every key must be its own row's key and the grid a per-row tally.
    fn assert_keys_match_rows(
        pts: &PointMatrix,
        (grid, keys): (SparseGrid, Vec<u128>),
        key_of: impl Fn(&[f64]) -> u128,
        context: &str,
    ) {
        assert_eq!(keys.len(), pts.len(), "{context}");
        for (i, (p, &key)) in pts.rows().zip(&keys).enumerate() {
            assert_eq!(key, key_of(p), "{context}: row {i}");
        }
        let tally: SparseGrid = keys.iter().map(|&key| (key, 1.0)).collect();
        assert_eq!(grid, tally, "{context}");
    }

    /// The cell-index form against the key form: the same grid, cell for
    /// cell in the same order, and each row's index naming the cell of
    /// its own key.
    fn assert_cells_match_keys(
        (grid, cells): (SparseGrid, Vec<u32>),
        (want_grid, keys): &(SparseGrid, Vec<u128>),
        context: &str,
    ) {
        let listed: Vec<(u128, f64)> = grid.iter().collect();
        assert_eq!(listed, want_grid.iter().collect::<Vec<_>>(), "{context}");
        assert_eq!(cells.len(), keys.len(), "{context}");
        for (i, (&cell, &key)) in cells.iter().zip(keys).enumerate() {
            assert_eq!(listed[cell as usize].0, key, "{context}: row {i}");
        }
    }

    #[test]
    fn every_key_matches_its_own_row_across_chunk_boundaries() {
        // A sequential runtime runs the same chunk closure as a parallel
        // one, so comparing the two cannot catch a wrong chunk offset;
        // every key is checked against its own row instead. The row
        // counts straddle both the key pass's chunks and the key blocks
        // `quantize_cells` counts one at a time.
        let bounds = BoundingBox::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let q = Quantizer::with_bounds(bounds, &[64, 64]).unwrap();
        let lane = q.f32_lane();
        let chunk = QUANTIZE_CHUNK_ROWS;
        let block = KEY_BLOCK_ROWS;
        for rows in [
            0,
            1,
            chunk - 1,
            chunk,
            chunk + 1,
            3 * chunk + 5,
            block - 1,
            block,
            block + 1,
            3 * block + 5,
        ] {
            let pts = lcg_points(rows);
            for threads in [1, 2, 4] {
                let rt = Runtime::with_threads(threads);
                let context = format!("{rows} rows, {threads} threads");
                let f64_lane = q.quantize_with(pts.view(), rt);
                let cells = q.quantize_cells(pts.view(), Precision::F64, rt);
                assert_cells_match_keys(cells, &f64_lane, &context);
                assert_keys_match_rows(&pts, f64_lane, |p| q.cell_key(p), &context);
                let f32_lane = q.quantize_f32_with(pts.view(), rt);
                let cells = q.quantize_cells(pts.view(), Precision::F32, rt);
                assert_cells_match_keys(cells, &f32_lane, &format!("f32 {context}"));
                assert_keys_match_rows(&pts, f32_lane, |p| q.cell_key_f32(&lane, p), &context);
            }
        }
    }

    #[test]
    fn f32_lane_agrees_with_f64_away_from_cell_boundaries() {
        // The lanes may legitimately disagree for points within an ulp of
        // a cell boundary; on a grid whose boundaries are well separated
        // from the sample positions they must agree everywhere.
        let pts = lcg_points(5_000);
        let q = Quantizer::fit(pts.view(), 16).unwrap();
        let lane = q.f32_lane();
        let (_, keys64) = q.quantize(pts.view());
        let mut disagreements = 0usize;
        for (p, &k64) in pts.rows().zip(keys64.iter()) {
            if q.cell_key_f32(&lane, p) != k64 {
                disagreements += 1;
            }
        }
        // Boundary-straddling points are possible in principle but must be
        // vanishingly rare on generic data.
        assert!(disagreements * 1000 < pts.len(), "{disagreements} of 5000");
    }

    #[test]
    fn f32_lane_clamps_and_handles_degenerate_extent() {
        let pts = matrix(vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]);
        let q = Quantizer::fit(pts.view(), 8).unwrap();
        let lane = q.f32_lane();
        for p in pts.rows() {
            // The zero-extent dimension collapses into interval 0 in both
            // lanes, and every key stays decodable.
            assert_eq!(q.cell_key_f32(&lane, p), q.cell_key(p));
        }
        // Coordinates at the upper bound clamp into the last interval.
        let square = unit_square_points();
        let q = Quantizer::fit(square.view(), 4).unwrap();
        let lane = q.f32_lane();
        assert_eq!(q.cell_key_f32(&lane, &[1.0, 1.0]), q.cell_key(&[1.0, 1.0]));
    }
}
