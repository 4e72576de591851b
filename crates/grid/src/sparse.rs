//! The sparse grid: the occupied cells of a quantized space and their
//! densities as one `(key, density)` vector, which realizes the paper's
//! "only store the grids with non-zero density" strategy.

use adawave_api::{f64_from_hex, parse_hex, push_hex, PayloadReader};

use crate::CellTable;

/// A sparse grid: the occupied cells as `(packed key, density)` pairs with
/// distinct keys.
///
/// Densities start as point counts during quantization and become real
/// valued after the wavelet transform. The cells live in one vector, in an
/// unspecified order: arrival order when counted through
/// [`add_interned`](Self::add_interned) (the `i`-th cell is the one the
/// caller's [`CellTable`] maps to `i`), pass order after the transform.
/// Nothing read from a grid depends on that order: equality, the dump and
/// [`total_mass`](Self::total_mass) go by ascending key, and the other
/// statistics are order-free.
#[derive(Debug, Clone, Default)]
pub struct SparseGrid {
    cells: Vec<(u128, f64)>,
}

impl SparseGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// The grid of `cells`, kept in the given order. The keys must be
    /// distinct, which is not checked: this wraps a vector whose producer
    /// guarantees it (the wavelet transform's output), where
    /// [`FromIterator`] would sort and sum.
    pub fn from_cells(cells: Vec<(u128, f64)>) -> Self {
        Self { cells }
    }

    /// Number of occupied (stored) cells — the `m` in the paper's `O(nm)`.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Add `density` to the cell `key`, which becomes the grid's next cell
    /// on first sight; returns the cell's index. `table` maps each cell's
    /// key to its index, so this is one table probe: the counting step of
    /// Algorithm 2 (lines 7/10) for quantization and streaming ingestion.
    /// `table` must hold exactly the grid's cells, which starting both
    /// empty guarantees.
    ///
    /// # Panics
    /// As [`CellTable::insert`].
    #[inline]
    pub fn add_interned(&mut self, table: &mut CellTable, key: u128, density: f64) -> usize {
        let index = table.get_or_insert(key, self.cells.len());
        if index == self.cells.len() {
            self.cells.push((key, 0.0));
        }
        self.cells[index].1 += density;
        index
    }

    /// Iterate over `(key, density)` pairs in the grid's order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, f64)> + '_ {
        self.cells.iter().copied()
    }

    /// The cells in ascending key order.
    fn sorted(&self) -> Vec<(u128, f64)> {
        let mut sorted = self.cells.clone();
        sorted.sort_unstable_by_key(|&(key, _)| key);
        sorted
    }

    /// Total mass (sum of densities).
    pub fn total_mass(&self) -> f64 {
        // Densities are summed in ascending key order: float addition is
        // not associative, so a sum in the grid's order could differ in
        // the last bits between two grids with the same cells.
        self.sorted().into_iter().map(|(_, v)| v).sum()
    }

    /// Maximum density over stored cells (0.0 for an empty grid).
    pub fn max_density(&self) -> f64 {
        self.cells.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Densities sorted in descending order — the curve that the adaptive
    /// threshold (Fig. 6 / Algorithm 4) is fitted to.
    pub fn sorted_densities(&self) -> Vec<f64> {
        let mut d: Vec<f64> = self.cells.iter().map(|&(_, v)| v).collect();
        d.sort_by(|a, b| b.total_cmp(a));
        d
    }

    /// Remove every cell with density strictly below `threshold`; returns
    /// the number of removed cells.
    pub fn filter_below(&mut self, threshold: f64) -> usize {
        let before = self.cells.len();
        self.cells.retain(|&(_, v)| v >= threshold);
        before - self.cells.len()
    }

    /// Remove every cell whose |density| is below `epsilon` (the
    /// "remove wavelet coefficients close to zero" step).
    pub fn drop_near_zero(&mut self, epsilon: f64) -> usize {
        let before = self.cells.len();
        self.cells.retain(|&(_, v)| v.abs() >= epsilon);
        before - self.cells.len()
    }

    /// Append the grid to an artifact payload: a `cells N` line followed
    /// by one `<key> <density-hex>` line per occupied cell in ascending
    /// key order, each key as `key_digits` hex digits (its codec's
    /// [`key_hex_digits`](crate::KeyCodec::key_hex_digits)). Sorting makes
    /// the dump canonical — two grids with equal cells serialize to
    /// identical bytes whatever order they hold them in — and the hex
    /// densities make the round trip through
    /// [`deserialize_from`](Self::deserialize_from) bit-exact.
    ///
    /// Returns where each cell landed: the `i`-th cell of
    /// [`iter`](Self::iter) is the dump's `positions[i]`-th cell line.
    pub fn serialize_into(&self, out: &mut String, key_digits: u32) -> Vec<usize> {
        out.reserve(self.serialized_len(key_digits));
        out.push_str(&format!("cells {}\n", self.cells.len()));
        // Each cell carries its density and index through the sort, so the
        // lines are written from one sequential pass over the sorted copy.
        let mut sorted: Vec<(u128, f64, usize)> = self
            .cells
            .iter()
            .enumerate()
            .map(|(index, &(key, density))| (key, density, index))
            .collect();
        sorted.sort_unstable_by_key(|&(key, _, _)| key);
        let mut positions = vec![0; sorted.len()];
        for (position, &(key, density, index)) in sorted.iter().enumerate() {
            push_hex(out, key, key_digits);
            out.push(' ');
            push_hex(out, u128::from(density.to_bits()), 16);
            out.push('\n');
            positions[index] = position;
        }
        positions
    }

    /// An upper bound on the bytes [`serialize_into`](Self::serialize_into)
    /// appends with `key_digits`-digit keys: the `cells N` line plus a key,
    /// a space, 16 density digits and a newline per cell, so a caller can
    /// size a payload buffer that holds the dump once.
    pub fn serialized_len(&self, key_digits: u32) -> usize {
        32 + (key_digits as usize + 18) * self.cells.len()
    }

    /// Read a grid dump written by [`serialize_into`](Self::serialize_into)
    /// with `key_digits`-digit keys, the cells in the order listed and
    /// every density verbatim. A key of any other width, or not in
    /// lowercase hex, is rejected. Nothing here checks that the keys are
    /// distinct: a caller that indexes them rejects a repeated key itself,
    /// as a stream restore does through its cell table.
    pub fn deserialize_from(
        reader: &mut PayloadReader<'_>,
        key_digits: u32,
    ) -> Result<Self, String> {
        let count: usize = reader.scalar("cells")?;
        // The count is untrusted: it bounds the pre-allocation, never more.
        let mut cells: Vec<(u128, f64)> = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let line = reader.line()?;
            let (key_hex, density_hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad cell line '{line}'"))?;
            let key = parse_hex(key_hex, key_digits).ok_or_else(|| {
                format!("bad cell key '{key_hex}' (expected {key_digits} hex digits)")
            })?;
            let density = f64_from_hex(density_hex)
                .ok_or_else(|| format!("bad cell density bits '{density_hex}'"))?;
            cells.push((key, density));
        }
        Ok(Self { cells })
    }
}

impl PartialEq for SparseGrid {
    /// The same cells with the same densities, in whatever order each grid
    /// holds them.
    fn eq(&self, other: &Self) -> bool {
        self.cells.len() == other.cells.len() && self.sorted() == other.sorted()
    }
}

impl FromIterator<(u128, f64)> for SparseGrid {
    /// Build from `(key, density)` pairs, summing the densities of a
    /// repeated key in the order given, from 0.0. The cells come out in
    /// ascending key order.
    fn from_iter<T: IntoIterator<Item = (u128, f64)>>(iter: T) -> Self {
        let mut pairs: Vec<(u128, f64)> = iter.into_iter().collect();
        // Stable: a repeated key's densities stay in the order given.
        pairs.sort_by_key(|&(key, _)| key);
        let cells = pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().fold(0.0, |sum, &(_, v)| sum + v)))
            .collect();
        Self { cells }
    }
}

/// Keep only the `budget` cells with the highest |density|, removing the
/// rest; returns the number of removed cells.
///
/// `cells` holds a sparse grid's `(key, density)` pairs with distinct keys,
/// in any order; the survivors are left in unspecified order. Ties at the
/// cut-off magnitude are resolved by key (smallest first), so the surviving
/// set is a pure function of the cells, not of their order.
///
/// This is the memory guard of the sparse per-dimension wavelet transform:
/// in high dimensions the scatter of the smoothing kernel can otherwise
/// multiply the number of occupied cells by the kernel support once per
/// dimension. Pruning keeps the densest cells, which is exactly the part of
/// the feature space the clustering step cares about.
pub fn prune_to_top(cells: &mut Vec<(u128, f64)>, budget: usize) -> usize {
    let removed = cells.len().saturating_sub(budget);
    if removed == 0 {
        return 0;
    }
    if budget > 0 {
        // Largest magnitude first, then ascending key: a total order over
        // distinct keys, so the first `budget` cells are well defined.
        cells.select_nth_unstable_by(budget - 1, |a, b| {
            b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0))
        });
    }
    cells.truncate(budget);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::f64_to_hex;

    /// A cell's density, 0.0 if the grid does not hold it.
    fn density(grid: &SparseGrid, key: u128) -> f64 {
        grid.iter()
            .find(|&(k, _)| k == key)
            .map_or(0.0, |(_, density)| density)
    }

    /// Whether the grid holds a cell.
    fn contains(grid: &SparseGrid, key: u128) -> bool {
        grid.iter().any(|(k, _)| k == key)
    }

    #[test]
    fn add_and_density() {
        // Both sides of the cell table: a 12-bit codec indexes the array,
        // a 24-bit one hashes.
        for scale in [64, 4096] {
            let codec = crate::KeyCodec::uniform(2, scale).unwrap();
            let mut table = CellTable::new(&codec);
            let mut g = SparseGrid::new();
            assert_eq!(g.occupied_cells(), 0);
            assert_eq!(g.add_interned(&mut table, 42, 1.0), 0);
            assert_eq!(g.add_interned(&mut table, 42, 1.0), 0);
            assert_eq!(g.add_interned(&mut table, 7, 2.5), 1);
            assert_eq!(density(&g, 42), 2.0);
            assert_eq!(density(&g, 7), 2.5);
            assert_eq!(density(&g, 999), 0.0);
            assert_eq!(g.occupied_cells(), 2);
            assert!(contains(&g, 42));
            assert!(!contains(&g, 999));
            // Cells keep the order their keys were interned in.
            assert_eq!(g.iter().collect::<Vec<_>>(), [(42, 2.0), (7, 2.5)]);
            assert_eq!(table.get(7), Some(1));
        }
    }

    #[test]
    fn total_mass_and_max() {
        let g: SparseGrid = [(1u128, 3.0), (2, 5.0), (3, 1.0)].into_iter().collect();
        assert_eq!(g.total_mass(), 9.0);
        assert_eq!(g.max_density(), 5.0);
    }

    #[test]
    fn empty_grid_statistics() {
        let g = SparseGrid::new();
        assert_eq!(g.total_mass(), 0.0);
        assert_eq!(g.max_density(), 0.0);
        assert!(g.sorted_densities().is_empty());
    }

    #[test]
    fn sorted_densities_descending() {
        let g: SparseGrid = [(1u128, 3.0), (2, 5.0), (3, 1.0), (4, 4.0)]
            .into_iter()
            .collect();
        assert_eq!(g.sorted_densities(), vec![5.0, 4.0, 3.0, 1.0]);
    }

    #[test]
    fn filter_below_removes_and_counts() {
        let mut g: SparseGrid = [(1u128, 3.0), (2, 5.0), (3, 1.0), (4, 4.0)]
            .into_iter()
            .collect();
        let removed = g.filter_below(3.5);
        assert_eq!(removed, 2);
        assert_eq!(g.occupied_cells(), 2);
        assert!(contains(&g, 2));
        assert!(contains(&g, 4));
        // threshold equal to a density keeps that cell (>= comparison)
        let mut g2: SparseGrid = [(1u128, 3.0)].into_iter().collect();
        assert_eq!(g2.filter_below(3.0), 0);
    }

    #[test]
    fn drop_near_zero_uses_absolute_value() {
        let mut g: SparseGrid = [(1u128, 0.001), (2, -0.002), (3, 1.0), (4, -2.0)]
            .into_iter()
            .collect();
        let removed = g.drop_near_zero(0.01);
        assert_eq!(removed, 2);
        assert!(contains(&g, 3));
        assert!(contains(&g, 4));
    }

    #[test]
    fn duplicate_keys_sum() {
        let g = SparseGrid::from_iter([(9u128, 1.0), (9, 2.0), (9, 3.0)]);
        assert_eq!(g.occupied_cells(), 1);
        assert_eq!(density(&g, 9), 6.0);
    }

    #[test]
    fn serde_round_trip_is_bit_exact_and_canonical() {
        let g = SparseGrid::from_cells(vec![
            (u128::MAX, -0.0),
            (0, 1.0e-300),
            (42, 3.5),
            (7, f64::MAX),
        ]);
        let mut payload = String::new();
        // Each cell's position in the dump, in the grid's order.
        assert_eq!(g.serialize_into(&mut payload, 32), vec![3, 0, 2, 1]);
        // Canonical: keys ascend, so equal grids dump identical bytes.
        assert!(payload.starts_with("cells 4\n"));
        let keys: Vec<&str> = payload
            .lines()
            .skip(1)
            .map(|l| l.split_once(' ').unwrap().0)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        let back = SparseGrid::deserialize_from(&mut PayloadReader::new(&payload), 32).unwrap();
        assert_eq!(back.occupied_cells(), 4);
        for (key, want) in g.iter() {
            assert_eq!(density(&back, key).to_bits(), want.to_bits(), "{key}");
        }
        // A second serialization of the restored grid is byte-identical.
        let mut again = String::new();
        back.serialize_into(&mut again, 32);
        assert_eq!(again, payload);
        assert!(payload.len() <= g.serialized_len(32));
    }

    #[test]
    fn serde_writes_keys_at_the_given_width() {
        let g = SparseGrid::from_cells(vec![(0x3f, 2.0), (0, 1.0)]);
        let mut payload = String::new();
        assert_eq!(g.serialize_into(&mut payload, 2), vec![1, 0]);
        assert_eq!(
            payload,
            format!("cells 2\n00 {}\n3f {}\n", f64_to_hex(1.0), f64_to_hex(2.0))
        );
        assert!(payload.len() <= g.serialized_len(2));
        let back = SparseGrid::deserialize_from(&mut PayloadReader::new(&payload), 2).unwrap();
        assert_eq!(back, g);
        // The width is part of the format: the same keys read at another
        // width are rejected.
        let err = SparseGrid::deserialize_from(&mut PayloadReader::new(&payload), 3).unwrap_err();
        assert!(
            err.contains("bad cell key '00' (expected 3 hex digits)"),
            "{err}"
        );
    }

    #[test]
    fn serde_rejects_malformed_payloads() {
        for (payload, needle) in [
            ("", "truncated"),
            ("cells banana\n", "banana"),
            (
                "cells 2\n00000000000000000000000000000000 3ff0000000000000\n",
                "truncated",
            ),
            ("cells 1\nnospace\n", "bad cell line"),
            ("cells 1\nzz 3ff0000000000000\n", "bad cell key"),
            ("cells 1\n1 3ff0000000000000\n", "bad cell key"),
            (
                "cells 1\n0000000000000000000000000000000A 3ff0000000000000\n",
                "bad cell key",
            ),
            ("cells 1\n00000000000000000000000000000001 zz\n", "density"),
        ] {
            let err =
                SparseGrid::deserialize_from(&mut PayloadReader::new(payload), 32).unwrap_err();
            assert!(err.contains(needle), "{payload:?} -> {err}");
        }
    }

    /// The surviving keys of a pruned cell vector, ascending.
    fn kept_keys(cells: &[(u128, f64)]) -> Vec<u128> {
        let mut keys: Vec<u128> = cells.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn prune_to_top_keeps_the_densest_cells() {
        let mut cells: Vec<(u128, f64)> = (0u128..100).map(|k| (k, k as f64)).collect();
        let removed = prune_to_top(&mut cells, 10);
        assert_eq!(removed, 90);
        assert_eq!(kept_keys(&cells), (90u128..100).collect::<Vec<_>>());
    }

    #[test]
    fn prune_to_top_is_a_noop_within_budget() {
        let mut cells = vec![(1u128, 1.0), (2, 2.0)];
        assert_eq!(prune_to_top(&mut cells, 5), 0);
        assert_eq!(prune_to_top(&mut cells, 2), 0);
        assert_eq!(cells, [(1u128, 1.0), (2, 2.0)]);
    }

    #[test]
    fn prune_to_top_handles_ties_exactly() {
        // 20 cells of identical density: exactly `budget` must survive,
        // and which ones is determined by key order (smallest first), not
        // by the order the cells arrive in.
        let mut cells: Vec<(u128, f64)> = (0u128..20).rev().map(|k| (k, 1.0)).collect();
        assert_eq!(prune_to_top(&mut cells, 7), 13);
        assert_eq!(kept_keys(&cells), (0u128..7).collect::<Vec<_>>());
    }

    #[test]
    fn prune_to_top_uses_magnitude_for_negative_coefficients() {
        let mut cells = vec![(1u128, -5.0), (2, 0.1), (3, 4.0), (4, -0.2)];
        prune_to_top(&mut cells, 2);
        assert_eq!(kept_keys(&cells), [1, 3]);
    }

    #[test]
    fn prune_to_top_zero_budget_clears() {
        let mut cells = vec![(1u128, 1.0), (2, 2.0)];
        assert_eq!(prune_to_top(&mut cells, 0), 2);
        assert!(cells.is_empty());
    }
}
