//! The sparse `{grid id: density}` map that realizes the paper's
//! "only store the grids with non-zero density" strategy.

use std::collections::HashMap;

use adawave_api::{f64_from_hex, push_hex, PayloadReader};

/// A sparse grid: packed cell key → density (or smoothed coefficient).
///
/// Densities start as point counts during quantization and become real
/// valued after the wavelet transform.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseGrid {
    cells: HashMap<u128, f64>,
}

impl SparseGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self {
            cells: HashMap::new(),
        }
    }

    /// An empty grid with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            cells: HashMap::with_capacity(capacity),
        }
    }

    /// Number of occupied (stored) cells — the `m` in the paper's `O(nm)`.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is stored.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Add `density` to a cell (inserting it if absent).
    pub fn add(&mut self, key: u128, density: f64) {
        *self.cells.entry(key).or_insert(0.0) += density;
    }

    /// Increment a cell's count by one (Algorithm 2, line 7/10).
    pub fn increment(&mut self, key: u128) {
        self.add(key, 1.0);
    }

    /// Overwrite a cell's density.
    pub fn set(&mut self, key: u128, density: f64) {
        self.cells.insert(key, density);
    }

    /// Append the grid to an artifact payload: a `cells N` line followed
    /// by one `<key:032x> <density-hex>` line per occupied cell in
    /// ascending key order ([`serialize_cells_into`]). Sorting makes the
    /// dump canonical — two grids with equal contents serialize to
    /// identical bytes regardless of hash map iteration order — and the hex
    /// densities make the round trip through [`deserialize_cells_from`]
    /// bit-exact.
    pub fn serialize_into(&self, out: &mut String) {
        // audit:allow(nondeterministic-iteration) cells are collected and sorted on the next line
        let mut sorted: Vec<(u128, f64)> = self.cells.iter().map(|(&k, &v)| (k, v)).collect();
        sorted.sort_unstable_by_key(|&(key, _)| key);
        serialize_cells_into(&sorted, out);
    }

    /// The canonical payload text of [`serialize_into`](Self::serialize_into)
    /// on its own.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.serialize_into(&mut out);
        out
    }

    /// Density of a cell, 0.0 if not stored.
    pub fn density(&self, key: u128) -> f64 {
        self.cells.get(&key).copied().unwrap_or(0.0)
    }

    /// Whether a cell is stored.
    pub fn contains(&self, key: u128) -> bool {
        self.cells.contains_key(&key)
    }

    /// Remove a cell, returning its density if it was stored.
    pub fn remove(&mut self, key: u128) -> Option<f64> {
        self.cells.remove(&key)
    }

    /// Iterate over `(key, density)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, f64)> + '_ {
        // audit:allow(nondeterministic-iteration) documented unspecified-order accessor; result-path consumers sort or accumulate per key
        self.cells.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterate over stored keys.
    pub fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        // audit:allow(nondeterministic-iteration) documented unspecified-order accessor; result-path consumers sort or accumulate per key
        self.cells.keys().copied()
    }

    /// Total mass (sum of densities).
    pub fn total_mass(&self) -> f64 {
        // Densities are summed in ascending key order: float addition is
        // not associative, so a hash-order sum could differ in the last
        // bits from run to run.
        // audit:allow(nondeterministic-iteration) collected and sorted by key before the order-sensitive float sum
        let mut keyed: Vec<(u128, f64)> = self.cells.iter().map(|(&k, &v)| (k, v)).collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        keyed.into_iter().map(|(_, v)| v).sum()
    }

    /// Maximum density over stored cells (0.0 for an empty grid).
    pub fn max_density(&self) -> f64 {
        // audit:allow(nondeterministic-iteration) max over finite densities is order-insensitive
        self.cells.values().cloned().fold(0.0, f64::max)
    }

    /// Densities sorted in descending order — the curve that the adaptive
    /// threshold (Fig. 6 / Algorithm 4) is fitted to.
    pub fn sorted_densities(&self) -> Vec<f64> {
        // audit:allow(nondeterministic-iteration) collected then fully sorted on the next line
        let mut d: Vec<f64> = self.cells.values().cloned().collect();
        d.sort_by(|a, b| b.total_cmp(a));
        d
    }

    /// Remove every cell with density strictly below `threshold`; returns
    /// the number of removed cells.
    pub fn filter_below(&mut self, threshold: f64) -> usize {
        let before = self.cells.len();
        self.cells.retain(|_, v| *v >= threshold);
        before - self.cells.len()
    }

    /// Remove every cell whose |density| is below `epsilon` (the
    /// "remove wavelet coefficients close to zero" step).
    pub fn drop_near_zero(&mut self, epsilon: f64) -> usize {
        let before = self.cells.len();
        self.cells.retain(|_, v| v.abs() >= epsilon);
        before - self.cells.len()
    }

    /// Add every cell of `other` into this grid, summing the densities of
    /// shared cells.
    ///
    /// The sparse grid is an additive, order-insensitive sufficient
    /// statistic of the data (per-cell point counts), so merging the grids
    /// of two disjoint point sets yields exactly the grid of their union —
    /// this is what the parallel quantization shards and the streaming
    /// ingestion layer (`adawave-stream`) rely on.
    pub fn merge(&mut self, other: &SparseGrid) {
        self.cells.reserve(other.cells.len());
        // audit:allow(nondeterministic-iteration) per-key additive accumulation; every key is touched exactly once, any order
        for (&key, &density) in &other.cells {
            *self.cells.entry(key).or_insert(0.0) += density;
        }
    }

    /// Keep only cells present in `keys` (used when mapping clusters back).
    pub fn retain_keys(&mut self, keys: &std::collections::HashSet<u128>) {
        self.cells.retain(|k, _| keys.contains(k));
    }
}

/// Append the grid dump of `sorted`, cells in ascending key order: a
/// `cells N` line, then one `<key:032x> <density-hex>` line per cell. The
/// one writer of the format, behind [`SparseGrid::serialize_into`] and any
/// caller that keeps its cells in a vector.
pub fn serialize_cells_into(sorted: &[(u128, f64)], out: &mut String) {
    out.reserve(serialized_cells_len(sorted.len()));
    out.push_str(&format!("cells {}\n", sorted.len()));
    for &(key, density) in sorted {
        push_hex(out, key, 32);
        out.push(' ');
        push_hex(out, u128::from(density.to_bits()), 16);
        out.push('\n');
    }
}

/// An upper bound on the bytes [`serialize_cells_into`] appends for
/// `cells` cells: the `cells N` line plus 50 bytes per cell, so a caller
/// can size its payload buffer once.
pub fn serialized_cells_len(cells: usize) -> usize {
    32 + 50 * cells
}

/// Read the cells of a grid dump written by [`serialize_cells_into`], in
/// the order listed and with every density verbatim. Nothing here checks
/// that the keys are distinct or ascending: a caller that indexes them
/// rejects a repeated key itself.
pub fn deserialize_cells_from(reader: &mut PayloadReader<'_>) -> Result<Vec<(u128, f64)>, String> {
    let count: usize = reader.scalar("cells")?;
    // The count is untrusted: it bounds the pre-allocation, never more.
    let mut cells = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let line = reader.line()?;
        let (key_hex, density_hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad cell line '{line}'"))?;
        let key =
            u128::from_str_radix(key_hex, 16).map_err(|_| format!("bad cell key '{key_hex}'"))?;
        let density = f64_from_hex(density_hex)
            .ok_or_else(|| format!("bad cell density bits '{density_hex}'"))?;
        cells.push((key, density));
    }
    Ok(cells)
}

impl FromIterator<(u128, f64)> for SparseGrid {
    /// Build from `(key, density)` pairs, summing duplicates.
    fn from_iter<T: IntoIterator<Item = (u128, f64)>>(iter: T) -> Self {
        let mut grid = Self::new();
        for (key, density) in iter {
            grid.add(key, density);
        }
        grid
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

    #[test]
    fn add_and_density() {
        let mut g = SparseGrid::new();
        assert!(g.is_empty());
        g.increment(42);
        g.increment(42);
        g.add(7, 2.5);
        assert_eq!(g.density(42), 2.0);
        assert_eq!(g.density(7), 2.5);
        assert_eq!(g.density(999), 0.0);
        assert_eq!(g.occupied_cells(), 2);
        assert!(g.contains(42));
        assert!(!g.contains(999));
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
        assert!(g.contains(2));
        assert!(g.contains(4));
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
        assert!(g.contains(3));
        assert!(g.contains(4));
    }

    #[test]
    fn duplicate_keys_sum() {
        let g = SparseGrid::from_iter([(9u128, 1.0), (9, 2.0), (9, 3.0)]);
        assert_eq!(g.occupied_cells(), 1);
        assert_eq!(g.density(9), 6.0);
    }

    #[test]
    fn merge_sums_shared_cells_and_adopts_new_ones() {
        let mut a: SparseGrid = [(1u128, 2.0), (2, 3.0)].into_iter().collect();
        let b: SparseGrid = [(2u128, 4.0), (5, 1.5)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.occupied_cells(), 3);
        assert_eq!(a.density(1), 2.0);
        assert_eq!(a.density(2), 7.0);
        assert_eq!(a.density(5), 1.5);
        // Merging an empty grid is a no-op, and into an empty grid a copy.
        a.merge(&SparseGrid::new());
        assert_eq!(a.occupied_cells(), 3);
        let mut empty = SparseGrid::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn merge_of_disjoint_partitions_reproduces_the_whole() {
        // Counts are integers, so any partition of the increments merges
        // back to exactly the one-shot grid.
        let keys: Vec<u128> = (0..50).map(|i| (i * 7) % 23).collect();
        let mut whole = SparseGrid::new();
        for &k in &keys {
            whole.increment(k);
        }
        let mut left = SparseGrid::new();
        let mut right = SparseGrid::new();
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                left.increment(k);
            } else {
                right.increment(k);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn remove_and_retain() {
        let mut g: SparseGrid = [(1u128, 1.0), (2, 2.0), (3, 3.0)].into_iter().collect();
        assert_eq!(g.remove(2), Some(2.0));
        assert_eq!(g.remove(2), None);
        let keep: std::collections::HashSet<u128> = [3u128].into_iter().collect();
        g.retain_keys(&keep);
        assert_eq!(g.occupied_cells(), 1);
        assert!(g.contains(3));
    }

    #[test]
    fn set_overwrites() {
        let mut g = SparseGrid::new();
        g.add(5, 2.0);
        g.set(5, 10.0);
        assert_eq!(g.density(5), 10.0);
    }

    #[test]
    fn serde_round_trip_is_bit_exact_and_canonical() {
        let mut g = SparseGrid::new();
        g.set(u128::MAX, -0.0);
        g.set(0, 1.0e-300);
        g.set(42, 3.5);
        g.set(7, f64::MAX);
        let payload = g.serialize();
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
        let mut back = SparseGrid::new();
        for (key, density) in deserialize_cells_from(&mut PayloadReader::new(&payload)).unwrap() {
            back.set(key, density);
        }
        assert_eq!(back.occupied_cells(), 4);
        for (key, density) in g.iter() {
            assert_eq!(back.density(key).to_bits(), density.to_bits(), "{key}");
        }
        // A second serialization of the restored grid is byte-identical.
        assert_eq!(back.serialize(), payload);
    }

    #[test]
    fn serde_rejects_malformed_payloads() {
        for (payload, needle) in [
            ("", "truncated"),
            ("cells banana\n", "banana"),
            ("cells 2\n0000 3ff0000000000000\n", "truncated"),
            ("cells 1\nnospace\n", "bad cell line"),
            ("cells 1\nzz 3ff0000000000000\n", "bad cell key"),
            ("cells 1\n00000000000000000000000000000001 zz\n", "density"),
        ] {
            let err = deserialize_cells_from(&mut PayloadReader::new(payload)).unwrap_err();
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
