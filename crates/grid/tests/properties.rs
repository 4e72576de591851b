//! Property-based tests for the grid-labeling data structure.

use adawave_api::PointMatrix;
use adawave_grid::{
    connected_components, prune_to_top, Connectivity, KeyCodec, Quantizer, SparseGrid, UnionFind,
};
use adawave_runtime::Runtime;
use proptest::prelude::*;

fn points_strategy(dims: usize) -> impl Strategy<Value = PointMatrix> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dims), 2..80)
        .prop_map(|rows| PointMatrix::from_rows(rows).expect("constant-width rows"))
}

proptest! {
    #[test]
    fn key_pack_unpack_roundtrip(
        coords in prop::collection::vec(0u32..128, 1..10),
    ) {
        let intervals: Vec<u32> = coords.iter().map(|_| 128).collect();
        let codec = KeyCodec::new(&intervals).unwrap();
        let key = codec.pack(&coords);
        prop_assert_eq!(codec.unpack(key), coords);
    }

    #[test]
    fn key_packing_is_injective(
        a in prop::collection::vec(0u32..64, 4),
        b in prop::collection::vec(0u32..64, 4),
    ) {
        let codec = KeyCodec::uniform(4, 64).unwrap();
        let ka = codec.pack(&a);
        let kb = codec.pack(&b);
        prop_assert_eq!(ka == kb, a == b);
    }

    #[test]
    fn quantizer_total_mass_equals_point_count(points in points_strategy(3)) {
        let quantizer = Quantizer::fit(points.view(), 16).unwrap();
        let (grid, assignment) = quantizer.quantize(points.view());
        prop_assert_eq!(assignment.len(), points.len());
        prop_assert!((grid.total_mass() - points.len() as f64).abs() < 1e-9);
        prop_assert!(grid.occupied_cells() <= points.len());
    }

    #[test]
    fn quantizer_cells_are_in_range(points in points_strategy(2)) {
        let quantizer = Quantizer::fit(points.view(), 32).unwrap();
        for p in points.rows() {
            let coords = quantizer.cell_coords(p);
            for (j, &c) in coords.iter().enumerate() {
                prop_assert!(c < quantizer.codec().intervals(j));
            }
        }
    }

    #[test]
    fn quantizer_is_order_insensitive(points in points_strategy(2), seed in 0u64..1000) {
        let quantizer = Quantizer::fit(points.view(), 16).unwrap();
        let (grid_a, _) = quantizer.quantize(points.view());
        // Deterministic shuffle derived from the seed.
        let mut shuffled = points.clone();
        let n = shuffled.len();
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state as usize) % (i + 1);
            shuffled.swap_rows(i, j);
        }
        let (grid_b, _) = quantizer.quantize(shuffled.view());
        prop_assert_eq!(grid_a, grid_b);
    }

    #[test]
    fn quantize_is_thread_count_invariant(
        points in points_strategy(2),
        threads in 1usize..9,
        tile in 1usize..3,
    ) {
        // Tile the random rows so some cases cross the parallel chunk size
        // while others fit in one chunk — both must agree with the
        // sequential runtime exactly.
        let mut tiled = PointMatrix::new(2);
        for rep in 0..(tile * 200) {
            let jitter = rep as f64 * 1e-3;
            for row in points.rows() {
                tiled.push_row(&[row[0] + jitter, row[1] - jitter]);
            }
        }
        let quantizer = Quantizer::fit(tiled.view(), 16).unwrap();
        let (grid_seq, keys_seq) = quantizer.quantize_with(tiled.view(), Runtime::sequential());
        let (grid_par, keys_par) =
            quantizer.quantize_with(tiled.view(), Runtime::with_threads(threads));
        prop_assert_eq!(grid_seq, grid_par);
        prop_assert_eq!(keys_seq, keys_par);
    }

    #[test]
    fn union_find_component_count_decreases_monotonically(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..100),
    ) {
        let mut uf = UnionFind::new(30);
        let mut prev = uf.component_count();
        for (a, b) in edges {
            uf.union(a, b);
            let now = uf.component_count();
            prop_assert!(now <= prev);
            prop_assert!(now >= 1);
            prev = now;
        }
    }

    #[test]
    fn union_find_connected_is_equivalence(
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..60),
        probe in (0usize..20, 0usize..20, 0usize..20),
    ) {
        let mut uf = UnionFind::new(20);
        for (a, b) in edges {
            uf.union(a, b);
        }
        let (x, y, z) = probe;
        // Reflexive, symmetric, transitive.
        prop_assert!(uf.connected(x, x));
        prop_assert_eq!(uf.connected(x, y), uf.connected(y, x));
        if uf.connected(x, y) && uf.connected(y, z) {
            prop_assert!(uf.connected(x, z));
        }
    }

    #[test]
    fn components_partition_the_cells(
        coords in prop::collection::vec((0u32..12, 0u32..12), 1..60),
    ) {
        let codec = KeyCodec::uniform(2, 12).unwrap();
        let grid: SparseGrid = coords
            .iter()
            .map(|&(x, y)| (codec.pack(&[x, y]), 1.0))
            .collect();
        for conn in Connectivity::ALL {
            let labels = connected_components(&grid, &codec, conn);
            // Every occupied cell is labeled with a valid id.
            prop_assert_eq!(labels.labeled_cells(), grid.occupied_cells());
            for (key, id) in labels.iter() {
                prop_assert!(grid.contains(key));
                prop_assert!(id < labels.cluster_count());
            }
            // Cluster masses sum to the grid mass.
            let mass_sum: f64 = (0..labels.cluster_count())
                .map(|c| labels.cluster_mass(c))
                .sum();
            prop_assert!((mass_sum - grid.total_mass()).abs() < 1e-9);
            // Cluster cell counts sum to the number of occupied cells.
            let cell_sum: usize = (0..labels.cluster_count())
                .map(|c| labels.cluster_cells(c))
                .sum();
            prop_assert_eq!(cell_sum, grid.occupied_cells());
        }
    }

    #[test]
    fn moore_never_more_clusters_than_face(
        coords in prop::collection::vec((0u32..10, 0u32..10), 1..50),
    ) {
        let codec = KeyCodec::uniform(2, 10).unwrap();
        let grid: SparseGrid = coords
            .iter()
            .map(|&(x, y)| (codec.pack(&[x, y]), 1.0))
            .collect();
        let face = connected_components(&grid, &codec, Connectivity::Face);
        let moore = connected_components(&grid, &codec, Connectivity::Moore);
        prop_assert!(moore.cluster_count() <= face.cluster_count());
    }

    #[test]
    fn neighbors_are_in_range_and_adjacent(
        x in 0u32..16, y in 0u32..16, z in 0u32..16,
    ) {
        let codec = KeyCodec::uniform(3, 16).unwrap();
        let key = codec.pack(&[x, y, z]);
        for conn in Connectivity::ALL {
            for nk in conn.neighbors(&codec, key) {
                let nc = codec.unpack(nk);
                let mut max_delta = 0i64;
                let mut sum_delta = 0i64;
                for (a, b) in nc.iter().zip([x, y, z].iter()) {
                    let d = (*a as i64 - *b as i64).abs();
                    max_delta = max_delta.max(d);
                    sum_delta += d;
                    prop_assert!(*a < 16);
                }
                match conn {
                    Connectivity::Face => prop_assert_eq!(sum_delta, 1),
                    Connectivity::Moore => {
                        prop_assert!(max_delta == 1 && sum_delta >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_grid_filter_below_keeps_only_high(
        cells in prop::collection::vec((0u128..1000, 0.0f64..20.0), 1..50),
        threshold in 0.0f64..20.0,
    ) {
        let mut grid: SparseGrid = cells.into_iter().collect();
        grid.filter_below(threshold);
        for (_, density) in grid.iter() {
            prop_assert!(density >= threshold);
        }
    }
}

/// Generated `(key, density)` pairs with duplicate keys summed, the
/// distinct-key cell vector [`prune_to_top`] expects.
fn distinct(cells: Vec<(u128, f64)>) -> Vec<(u128, f64)> {
    let grid: SparseGrid = cells.into_iter().collect();
    let mut cells: Vec<(u128, f64)> = grid.iter().collect();
    cells.sort_unstable_by_key(|&(key, _)| key);
    cells
}

/// Densities in descending order.
fn densities(cells: &[(u128, f64)]) -> Vec<f64> {
    let mut d: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
    d.sort_by(|a, b| b.total_cmp(a));
    d
}

proptest! {
    #[test]
    fn prune_to_top_never_exceeds_the_budget_and_keeps_the_max(
        cells in prop::collection::vec((0u128..10_000, -50.0f64..50.0), 1..200),
        budget in 1usize..64,
    ) {
        let mut cells = distinct(cells);
        let max_before = cells.iter().map(|(_, d)| d.abs()).fold(0.0f64, f64::max);
        let before = cells.len();
        let removed = prune_to_top(&mut cells, budget);
        prop_assert_eq!(before - cells.len(), removed);
        prop_assert!(cells.len() <= budget.min(before));
        if before > budget {
            prop_assert_eq!(cells.len(), budget);
        }
        // The highest-magnitude cell always survives.
        let max_after = cells.iter().map(|(_, d)| d.abs()).fold(0.0f64, f64::max);
        prop_assert!((max_after - max_before).abs() < 1e-12);
    }

    #[test]
    fn prune_to_top_is_idempotent(
        cells in prop::collection::vec((0u128..10_000, 0.0f64..50.0), 1..200),
        budget in 1usize..64,
    ) {
        let mut cells = distinct(cells);
        prune_to_top(&mut cells, budget);
        cells.sort_unstable_by_key(|&(key, _)| key);
        let snapshot = cells.clone();
        prop_assert_eq!(prune_to_top(&mut cells, budget), 0);
        cells.sort_unstable_by_key(|&(key, _)| key);
        prop_assert_eq!(cells, snapshot);
    }

    #[test]
    fn prune_to_top_keeps_a_superset_of_any_smaller_budget(
        cells in prop::collection::vec((0u128..10_000, 0.0f64..50.0), 1..150),
        small in 1usize..20,
        extra in 0usize..20,
    ) {
        let cells = distinct(cells);
        let mut small_cells = cells.clone();
        prune_to_top(&mut small_cells, small);
        let mut large_cells = cells;
        large_cells.reverse();
        prune_to_top(&mut large_cells, small + extra);
        // Ties by key make the survivors nested exactly: every cell the
        // small budget keeps, the large budget keeps too, whatever order
        // the cells arrive in.
        prop_assert!(small_cells.len() <= large_cells.len());
        for cell in &small_cells {
            prop_assert!(large_cells.contains(cell), "{:?} dropped", cell);
        }
        let small_min = densities(&small_cells).last().copied().unwrap_or(0.0);
        let large_min = densities(&large_cells).last().copied().unwrap_or(0.0);
        prop_assert!(small_min >= large_min - 1e-12);
    }
}

/// [`KeyCodec::remap`] spelled out the allocating way: unpack, shift,
/// replace, clamp, pack.
fn remap_reference(
    from: &KeyCodec,
    key: u128,
    to: &KeyCodec,
    levels: u32,
    set: Option<(usize, u32)>,
) -> u128 {
    let mut coords: Vec<u32> = from
        .unpack(key)
        .iter()
        .map(|&c| c.checked_shr(levels).unwrap_or(0))
        .collect();
    if let Some((dim, c)) = set {
        coords[dim] = c;
    }
    for (j, c) in coords.iter_mut().enumerate() {
        *c = (*c).min(to.intervals(j) - 1);
    }
    to.pack(&coords)
}

/// A codec of 1–4 dimensions with interval counts of every bit width up
/// to 32, plus one cell key in it.
fn codec_and_key() -> impl Strategy<Value = (KeyCodec, u128)> {
    prop::collection::vec((0u32..32, 1u32..u32::MAX, 0u32..u32::MAX), 1..5).prop_map(|dims| {
        let intervals: Vec<u32> = dims.iter().map(|&(s, m, _)| (m >> s).max(1)).collect();
        let codec = KeyCodec::new(&intervals).expect("at most 4 x 32 bits");
        let coords: Vec<u32> = dims
            .iter()
            .zip(&intervals)
            .map(|(&(_, _, c), &m)| c % m)
            .collect();
        let key = codec.pack(&coords);
        (codec, key)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn remap_equals_unpack_map_pack(
        (codec, key) in codec_and_key(),
        (other, _) in codec_and_key(),
        levels in 0u32..41,
        set in prop::option::weighted(0.4, (0usize..4, 0u32..u32::MAX)),
    ) {
        let set = set.map(|(dim, c)| (dim % codec.dims(), c));
        // Into the downsampled space (how labeling uses it)...
        let down = codec.downsampled(levels).unwrap();
        prop_assert_eq!(
            codec.remap(key, &down, levels, set),
            remap_reference(&codec, key, &down, levels, set)
        );
        // ...and into any codec of the same width, where the clamp bites.
        let widths: Vec<u32> = (0..codec.dims())
            .map(|j| other.intervals(j % other.dims()))
            .collect();
        let target = KeyCodec::new(&widths).unwrap();
        prop_assert_eq!(
            codec.remap(key, &target, levels, set),
            remap_reference(&codec, key, &target, levels, set)
        );
    }
}
