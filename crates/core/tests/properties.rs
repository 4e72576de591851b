//! Property-based tests for the AdaWave core pipeline.

use adawave_api::PointMatrix;
use adawave_core::{
    cluster_grid, sparse_wavelet_smooth_budgeted, AdaWave, AdaWaveConfig, GridStats,
    ThresholdStrategy,
};
use adawave_grid::{KeyCodec, SparseGrid};
use adawave_wavelet::{BoundaryMode, Wavelet};
use proptest::prelude::*;

/// A cell's density, 0.0 if the grid does not hold it.
fn density(grid: &SparseGrid, key: u128) -> f64 {
    grid.iter()
        .find(|&(k, _)| k == key)
        .map_or(0.0, |(_, density)| density)
}

fn point_cloud() -> impl Strategy<Value = PointMatrix> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2), 20..200)
        .prop_map(|rows| PointMatrix::from_rows(rows).expect("constant-width rows"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_point_gets_a_verdict(points in point_cloud()) {
        let result = AdaWave::new(AdaWaveConfig::builder().scale(16).build())
            .fit(points.view())
            .unwrap();
        prop_assert_eq!(result.len(), points.len());
        // Labels are contiguous: every assigned id < cluster_count.
        for a in result.labels().flatten() {
            prop_assert!(a < result.cluster_count());
        }
        // Cluster sizes + noise = total.
        let assigned: usize = result.cluster_sizes().iter().sum();
        prop_assert_eq!(assigned + result.noise_count(), points.len());
    }

    #[test]
    fn deterministic_and_order_insensitive(points in point_cloud(), seed in 0u64..100) {
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(16).build());
        let base = adawave.fit(points.view()).unwrap();

        // Deterministic rerun.
        prop_assert_eq!(&base, &adawave.fit(points.view()).unwrap());

        // Shuffled input gives the same per-point labels (up to cluster id
        // permutation — ids are mass-ordered so they are in fact equal).
        let mut indices: Vec<usize> = (0..points.len()).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..indices.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            indices.swap(i, (state as usize) % (i + 1));
        }
        let shuffled = points.select(&indices);
        let shuffled_result = adawave.fit(shuffled.view()).unwrap();
        for (new_pos, &old_pos) in indices.iter().enumerate() {
            prop_assert_eq!(base.label(old_pos), shuffled_result.label(new_pos));
        }
    }

    #[test]
    fn scaling_points_does_not_change_the_partition(points in point_cloud()) {
        // Affine re-scaling of the feature space leaves the grid structure
        // (and therefore the clustering) unchanged.
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(16).build());
        let base = adawave.fit(points.view()).unwrap();
        let mut scaled = points.clone();
        for v in scaled.as_mut_slice() {
            *v = *v * 37.0 - 5.0;
        }
        let scaled_result = adawave.fit(scaled.view()).unwrap();
        prop_assert!(base.labels().eq(scaled_result.labels()));
    }

    #[test]
    fn threshold_choice_is_within_density_range(densities in prop::collection::vec(0.01f64..100.0, 3..300)) {
        let mut sorted = densities.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for strategy in [
            ThresholdStrategy::ElbowAngle { divisor: 3.0 },
            ThresholdStrategy::ThreeSegment,
            ThresholdStrategy::Kneedle,
            ThresholdStrategy::Quantile(0.3),
        ] {
            let t = strategy.choose(&sorted);
            prop_assert!(t >= 0.0);
            prop_assert!(t <= sorted[0] + 1e-9, "{}: {t} > max", strategy.name());
        }
    }

    #[test]
    fn higher_quantile_threshold_keeps_fewer_cells(densities in prop::collection::vec(0.01f64..100.0, 10..200)) {
        let mut sorted = densities.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let t_small = ThresholdStrategy::Quantile(0.8).choose(&sorted);
        let t_big = ThresholdStrategy::Quantile(0.2).choose(&sorted);
        prop_assert!(t_big >= t_small);
    }

    #[test]
    fn sparse_smoothing_never_exceeds_dense_volume(
        cells in prop::collection::vec((0u32..32, 0u32..32), 1..100),
    ) {
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let grid: SparseGrid = cells
            .iter()
            .map(|&(x, y)| (codec.pack(&[x, y]), 1.0))
            .collect();
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let (out, out_codec) = adawave_core::sparse_wavelet_smooth(
            &grid,
            &codec,
            &kernel,
            BoundaryMode::Zero,
            1,
        )
        .unwrap();
        prop_assert_eq!(out_codec.all_intervals(), &[16u32, 16][..]);
        prop_assert!(out.occupied_cells() <= 16 * 16);
        // Sparsity: output cells bounded by input cells times the 2-D kernel support.
        prop_assert!(out.occupied_cells() <= grid.occupied_cells() * 9);
    }

    #[test]
    fn smoothing_preserves_nonnegativity_of_isolated_masses(
        x in 2u32..30, y in 2u32..30, mass in 0.1f64..50.0,
    ) {
        // A single occupied cell smoothed with the CDF(2,2) kernel may have
        // small negative side lobes, but the dominant cell stays positive
        // and carries most of the mass.
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let grid: SparseGrid = [(codec.pack(&[x, y]), mass)].into_iter().collect();
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let (out, out_codec) = adawave_core::sparse_wavelet_smooth(
            &grid, &codec, &kernel, BoundaryMode::Zero, 1,
        )
        .unwrap();
        let main = density(&out, out_codec.pack(&[x / 2, y / 2]));
        prop_assert!(main > 0.0);
        prop_assert!(main <= mass + 1e-9);
    }
}

/// What the grid stage and the transform make of one grid, with every
/// float as its bits: the cells' labels and the cluster count, the stats,
/// the sorted-density curve, and the transformed codec and cells, each
/// list in key order.
type StageOutput = (
    Vec<(u128, usize)>,
    usize,
    GridStats,
    Vec<u64>,
    KeyCodec,
    Vec<(u128, u64)>,
);

fn stage_output(grid: &SparseGrid, codec: &KeyCodec, config: &AdaWaveConfig) -> StageOutput {
    let model = cluster_grid(grid, codec, config).unwrap();
    let mut labels: Vec<(u128, usize)> = model.labels().iter().collect();
    labels.sort_unstable();
    let densities = model
        .sorted_densities()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let (transformed, down_codec) = sparse_wavelet_smooth_budgeted(
        grid,
        codec,
        &config.wavelet.density_smoothing_kernel(),
        config.boundary,
        config.levels,
        config.max_transformed_cells,
    )
    .unwrap();
    let mut cells: Vec<(u128, u64)> = transformed.iter().map(|(k, v)| (k, v.to_bits())).collect();
    cells.sort_unstable();
    (
        labels,
        model.cluster_count(),
        model.stats().clone(),
        densities,
        down_codec,
        cells,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grid stage and the transform read a grid's cells, never the
    /// order it holds them in: the same distinct cells in ascending,
    /// descending and shuffled order give identical labels, stats, sorted
    /// densities and transformed cells. 1-4 dimensions, levels 0-2, cdf22
    /// and db2 (irrational taps, so a changed summation order would show),
    /// cell budgets below and above the cell count.
    #[test]
    fn grid_stage_ignores_the_cell_order(
        dims in 1usize..5,
        raw_cells in prop::collection::vec(
            (prop::collection::vec(0u32..24, 4), 1u32..30),
            1..150,
        ),
        levels in 0u32..3,
        wavelet in 0usize..2,
        budget_below in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let codec = KeyCodec::uniform(dims, 24).unwrap();
        // Distinct keys in ascending order: repeated keys are summed.
        let grid: SparseGrid = raw_cells
            .iter()
            .map(|(coords, count)| (codec.pack(&coords[..dims]), f64::from(*count)))
            .collect();
        let ascending: Vec<(u128, f64)> = grid.iter().collect();
        let m = ascending.len();
        let budget = if budget_below == 1 { 1 + m / 3 } else { 4 * m };
        let config = AdaWaveConfig::builder()
            .scale(24)
            .levels(levels)
            .wavelet([Wavelet::Cdf22, Wavelet::Daubechies2][wavelet])
            .max_transformed_cells(budget)
            .build();
        let descending: Vec<(u128, f64)> = ascending.iter().rev().copied().collect();
        let mut shuffled = ascending.clone();
        let mut state = seed | 1;
        for i in (1..m).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let want = stage_output(&SparseGrid::from_cells(ascending), &codec, &config);
        for (name, cells) in [("descending", descending), ("shuffled", shuffled)] {
            let got = stage_output(&SparseGrid::from_cells(cells), &codec, &config);
            prop_assert!(got == want, "{} order differs", name);
        }
    }
}
