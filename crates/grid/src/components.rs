//! Connected components over the occupied cells of a sparse grid
//! (Algorithm 1, step 4: "find the connected components (clusters) in the
//! subbands of the transformed feature space").

use std::collections::HashMap;

use crate::{CellTable, Connectivity, KeyCodec, SparseGrid};

/// A disjoint-set (union-find) structure with path compression and union by
/// rank, over indices `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Find the representative of `x`, compressing paths along the way.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The result of labeling occupied cells with cluster ids.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Cell key → cluster id (0-based, contiguous), over the labeling
    /// codec.
    cells: CellTable,
    /// Number of distinct clusters.
    cluster_count: usize,
    /// Total density of each cluster.
    cluster_mass: Vec<f64>,
    /// Number of cells in each cluster.
    cluster_cells: Vec<usize>,
}

impl ComponentLabels {
    /// Cluster id of a cell key, if the cell was part of the labeled grid:
    /// one [`CellTable`] probe.
    #[inline]
    pub fn cluster_of(&self, key: u128) -> Option<usize> {
        self.cells.get(key)
    }

    /// Number of clusters found.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Total density of cluster `id`.
    pub fn cluster_mass(&self, id: usize) -> f64 {
        self.cluster_mass.get(id).copied().unwrap_or(0.0)
    }

    /// Number of grid cells in cluster `id`.
    pub fn cluster_cells(&self, id: usize) -> usize {
        self.cluster_cells.get(id).copied().unwrap_or(0)
    }

    /// Iterate over `(key, cluster id)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, usize)> + '_ {
        self.cells.iter()
    }

    /// Number of labeled cells.
    pub fn labeled_cells(&self) -> usize {
        self.cells.len()
    }
}

/// Group the occupied cells of `grid` into connected components under the
/// given connectivity, assigning each cell a contiguous 0-based cluster id.
///
/// Cluster ids are ordered by decreasing total density (cluster 0 is the
/// heaviest), and the cells are visited in ascending key order, so the
/// output does not depend on the order the grid holds its cells in. One
/// [`CellTable`] over `codec` maps each occupied cell first to its index,
/// for the neighbor probes here, then to its cluster id, for every later
/// [`ComponentLabels::cluster_of`].
///
/// # Panics
/// Panics if a cell of `grid` is not a key of `codec`.
pub fn connected_components(
    grid: &SparseGrid,
    codec: &KeyCodec,
    connectivity: Connectivity,
) -> ComponentLabels {
    // Index the occupied cells in ascending key order.
    let mut cells: Vec<(u128, f64)> = grid.iter().collect();
    cells.sort_unstable_by_key(|&(key, _)| key);
    let mut table = CellTable::with_capacity(codec, cells.len());
    for (i, &(key, _)) in cells.iter().enumerate() {
        table.insert(key, i);
    }

    let mut uf = UnionFind::new(cells.len());
    for (i, &(key, _)) in cells.iter().enumerate() {
        for neighbor in connectivity.neighbors(codec, key) {
            if let Some(j) = table.get(neighbor) {
                uf.union(i, j);
            }
        }
    }

    // Gather components and their masses.
    let mut root_to_component: HashMap<usize, usize> = HashMap::new();
    let mut mass: Vec<f64> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut provisional: Vec<usize> = Vec::with_capacity(cells.len());
    for (i, &(_, density)) in cells.iter().enumerate() {
        let root = uf.find(i);
        let next_id = root_to_component.len();
        let comp = *root_to_component.entry(root).or_insert(next_id);
        if comp == mass.len() {
            mass.push(0.0);
            sizes.push(0);
        }
        mass[comp] += density;
        sizes[comp] += 1;
        provisional.push(comp);
    }

    // Re-rank components by decreasing mass for deterministic ids.
    let mut order: Vec<usize> = (0..mass.len()).collect();
    order.sort_by(|&a, &b| {
        mass[b]
            .total_cmp(&mass[a])
            .then_with(|| sizes[b].cmp(&sizes[a]))
            .then_with(|| a.cmp(&b))
    });
    let mut remap = vec![0usize; mass.len()];
    for (new_id, &old_id) in order.iter().enumerate() {
        remap[old_id] = new_id;
    }

    for (&(key, _), &comp) in cells.iter().zip(&provisional) {
        table.insert(key, remap[comp]);
    }
    let cluster_mass: Vec<f64> = order.iter().map(|&old| mass[old]).collect();
    let cluster_cells: Vec<usize> = order.iter().map(|&old| sizes[old]).collect();

    ComponentLabels {
        cells: table,
        cluster_count: mass.len(),
        cluster_mass,
        cluster_cells,
    }
}

/// The hash-map labeling [`connected_components`] replaced, kept as the
/// reference both sides of the [`CellTable`] must match.
#[cfg(test)]
pub(crate) mod hash_reference {
    use super::*;

    /// Cell key → cluster id, with the cells indexed by a hash map.
    pub(crate) fn labels(
        map: &HashMap<u128, f64>,
        codec: &KeyCodec,
        connectivity: Connectivity,
    ) -> HashMap<u128, usize> {
        let mut keys: Vec<u128> = map.keys().copied().collect();
        keys.sort_unstable();
        let index: HashMap<u128, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut uf = UnionFind::new(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            for neighbor in connectivity.neighbors(codec, key) {
                if let Some(&j) = index.get(&neighbor) {
                    uf.union(i, j);
                }
            }
        }
        let mut root_to_component: HashMap<usize, usize> = HashMap::new();
        let mut mass: Vec<f64> = Vec::new();
        let mut cells: Vec<usize> = Vec::new();
        let mut provisional = Vec::with_capacity(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            let next_id = root_to_component.len();
            let comp = *root_to_component.entry(uf.find(i)).or_insert(next_id);
            if comp == mass.len() {
                mass.push(0.0);
                cells.push(0);
            }
            mass[comp] += map[&key];
            cells[comp] += 1;
            provisional.push(comp);
        }
        let mut order: Vec<usize> = (0..mass.len()).collect();
        order.sort_by(|&a, &b| {
            mass[b]
                .total_cmp(&mass[a])
                .then_with(|| cells[b].cmp(&cells[a]))
                .then_with(|| a.cmp(&b))
        });
        let mut remap = vec![0usize; mass.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            remap[old_id] = new_id;
        }
        keys.iter()
            .zip(&provisional)
            .map(|(&key, &comp)| (key, remap[comp]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyCodec;

    fn grid_from_coords(codec: &KeyCodec, coords: &[(&[u32], f64)]) -> SparseGrid {
        coords.iter().map(|(c, d)| (codec.pack(c), *d)).collect()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_find_transitive_closure() {
        let mut uf = UnionFind::new(10);
        for i in 0..9 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, 9));
    }

    #[test]
    fn two_separate_blobs_are_two_clusters() {
        let codec = KeyCodec::uniform(2, 16).unwrap();
        let grid = grid_from_coords(
            &codec,
            &[
                (&[1, 1], 5.0),
                (&[1, 2], 4.0),
                (&[2, 1], 3.0),
                (&[10, 10], 2.0),
                (&[10, 11], 1.0),
            ],
        );
        let labels = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(labels.cluster_count(), 2);
        // Heaviest cluster (mass 12) gets id 0.
        assert_eq!(labels.cluster_of(codec.pack(&[1, 1])), Some(0));
        assert_eq!(labels.cluster_of(codec.pack(&[10, 10])), Some(1));
        assert_eq!(labels.cluster_mass(0), 12.0);
        assert_eq!(labels.cluster_mass(1), 3.0);
        assert_eq!(labels.cluster_cells(0), 3);
        assert_eq!(labels.cluster_cells(1), 2);
        assert_eq!(labels.labeled_cells(), 5);
    }

    #[test]
    fn diagonal_cells_connect_only_under_moore() {
        let codec = KeyCodec::uniform(2, 8).unwrap();
        let grid = grid_from_coords(&codec, &[(&[2, 2], 1.0), (&[3, 3], 1.0)]);
        let face = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(face.cluster_count(), 2);
        let moore = connected_components(&grid, &codec, Connectivity::Moore);
        assert_eq!(moore.cluster_count(), 1);
    }

    #[test]
    fn empty_grid_has_no_clusters() {
        let codec = KeyCodec::uniform(2, 8).unwrap();
        let grid = SparseGrid::new();
        let labels = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(labels.cluster_count(), 0);
        assert_eq!(labels.labeled_cells(), 0);
        assert_eq!(labels.cluster_of(0), None);
    }

    #[test]
    fn ring_shape_is_one_cluster() {
        // An 8-cell ring with a hole in the middle must be a single cluster:
        // the "shape-insensitive" property.
        let codec = KeyCodec::uniform(2, 8).unwrap();
        let ring: Vec<(&[u32], f64)> = vec![
            (&[2, 2], 1.0),
            (&[2, 3], 1.0),
            (&[2, 4], 1.0),
            (&[3, 4], 1.0),
            (&[4, 4], 1.0),
            (&[4, 3], 1.0),
            (&[4, 2], 1.0),
            (&[3, 2], 1.0),
        ];
        let grid = grid_from_coords(&codec, &ring);
        let labels = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(labels.cluster_count(), 1);
        // centre cell is not labeled (it is empty)
        assert_eq!(labels.cluster_of(codec.pack(&[3, 3])), None);
    }

    #[test]
    fn three_dimensional_connectivity() {
        let codec = KeyCodec::uniform(3, 8).unwrap();
        let grid = grid_from_coords(
            &codec,
            &[(&[1, 1, 1], 1.0), (&[1, 1, 2], 1.0), (&[5, 5, 5], 1.0)],
        );
        let labels = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(labels.cluster_count(), 2);
    }

    #[test]
    fn deterministic_ids_by_mass() {
        let codec = KeyCodec::uniform(2, 16).unwrap();
        // Lighter cluster appears "first" in key order but must get id 1.
        let grid = grid_from_coords(&codec, &[(&[0, 0], 1.0), (&[9, 9], 100.0)]);
        let labels = connected_components(&grid, &codec, Connectivity::Face);
        assert_eq!(labels.cluster_of(codec.pack(&[9, 9])), Some(0));
        assert_eq!(labels.cluster_of(codec.pack(&[0, 0])), Some(1));
    }
}
