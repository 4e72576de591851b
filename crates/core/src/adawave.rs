//! The AdaWave algorithm (Algorithm 1 of the paper).

use adawave_api::{compact_remap, ClusterError, PointsView};
use adawave_grid::{
    connected_components, BoundingBox, ComponentLabels, KeyCodec, Quantizer, SparseGrid,
};

use crate::config::AdaWaveConfig;
use crate::result::{AdaWaveResult, GridStats, NOISE};
use crate::transform::sparse_wavelet_smooth_budgeted;
use crate::{AdaWaveError, Result};

/// The AdaWave clusterer.
///
/// Construct it with a configuration (or [`AdaWave::default`] for the
/// paper's parameter-free defaults) and call [`fit`](Self::fit) on a point
/// set. The algorithm is deterministic, order-insensitive and makes a
/// single pass over the points plus work proportional to the number of
/// occupied grid cells.
#[derive(Debug, Clone, Default)]
pub struct AdaWave {
    config: AdaWaveConfig,
}

impl AdaWave {
    /// Create a clusterer with the given configuration.
    pub fn new(config: AdaWaveConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &AdaWaveConfig {
        &self.config
    }

    /// Cluster a point set (a flat row-major [`PointsView`]; owned data
    /// converts via [`adawave_api::PointMatrix::view`]).
    ///
    /// Returns an error if the input is empty or zero-dimensional, or if
    /// the grid key would overflow and automatic scale reduction is
    /// disabled. Ragged input is unrepresentable in the flat layout, so
    /// the old per-point dimensionality check is gone by construction.
    pub fn fit(&self, points: PointsView<'_>) -> Result<AdaWaveResult> {
        let (_, model, ids) = self.fit_parts(points)?;
        Ok(model.into_result(ids))
    }

    /// [`fit`](Self::fit) plus the trained serving artifact: the returned
    /// [`AdaWaveModel`](crate::AdaWaveModel) labels arbitrary out-of-sample
    /// points through the clustered grid in O(1) per point, with the model's
    /// cluster ids aligned to the training clustering. Out-of-domain and
    /// non-finite points predict noise (the streaming outlier contract).
    pub fn fit_with_model(
        &self,
        points: PointsView<'_>,
    ) -> Result<(AdaWaveResult, crate::AdaWaveModel)> {
        let (quantizer, model, ids) = self.fit_parts(points)?;
        let labeled = ids.iter().filter(|&&id| id != NOISE).map(|&id| id as usize);
        let remap = compact_remap(labeled, model.cluster_count());
        let serving =
            crate::AdaWaveModel::from_parts(quantizer, &model, &remap, self.config.precision);
        Ok((model.into_result(ids), serving))
    }

    /// The shared pipeline: quantize, run the grid stage, label points
    /// with their raw component ids, one `u32` a point.
    fn fit_parts(&self, points: PointsView<'_>) -> Result<(Quantizer, GridModel, Vec<u32>)> {
        // The one row check this pipeline shares with every fit: each
        // point's cell index and label is a `u32`.
        if let Err(ClusterError::InvalidInput { context }) =
            adawave_api::validate_row_count(points.len())
        {
            return Err(AdaWaveError::InvalidInput { context });
        }
        if points.is_empty() {
            return Err(AdaWaveError::InvalidInput {
                context: "empty point set".to_string(),
            });
        }
        if points.dims() == 0 {
            return Err(AdaWaveError::InvalidInput {
                context: "points have zero dimensions".to_string(),
            });
        }

        // Step 1: quantization into the sparse grid-labeling structure,
        // through the configured numeric lane (f64 is the bit-exact
        // reference; f32 is the opt-in throughput lane). Each point keeps
        // its cell's index in the grid, the lookup table of step 6.
        let bounds = BoundingBox::from_points(points)?;
        let quantizer = self.quantizer_for(&bounds)?;
        let (grid, cells) =
            quantizer.quantize_cells(points, self.config.precision, self.config.runtime);

        // Steps 2-4: the reusable grid → cluster-model stage.
        let model = cluster_grid(&grid, quantizer.codec(), &self.config)?;

        // Steps 5-6: label the grid's cells, then the points by index,
        // each index rewritten into its label in place.
        let ids = model.assign_cells(&grid, quantizer.codec(), cells);
        Ok((quantizer, model, ids))
    }

    /// Build the quantizer [`fit`](Self::fit) would use over the given
    /// domain, honoring [`AdaWaveConfig::auto_reduce_scale`]: if the packed
    /// grid key would overflow 128 bits, every dimension's interval count
    /// is halved (down to a floor of 2) until it fits.
    ///
    /// This is the piece of step 1 that does not touch points, shared with
    /// the streaming ingestion layer (`adawave-stream`), which freezes a
    /// domain upfront instead of deriving it from a full point set.
    pub fn quantizer_for(&self, bounds: &BoundingBox) -> Result<Quantizer> {
        let mut intervals = self.config.intervals_for(bounds.dims());
        loop {
            match Quantizer::with_bounds(bounds.clone(), &intervals) {
                Ok(q) => return Ok(q),
                Err(e) => {
                    if !self.config.auto_reduce_scale {
                        return Err(e.into());
                    }
                    // Halve every dimension and retry; give up at scale 2.
                    let mut reduced = false;
                    for m in intervals.iter_mut() {
                        if *m > 2 {
                            *m = (*m / 2).max(2);
                            reduced = true;
                        }
                    }
                    if !reduced {
                        return Err(e.into());
                    }
                }
            }
        }
    }

    /// Cluster the same point set at several decomposition levels at once
    /// (the multi-resolution property inherited from the wavelet
    /// transform). Returns one result per requested level.
    pub fn fit_multi_resolution(
        &self,
        points: PointsView<'_>,
        levels: &[u32],
    ) -> Result<Vec<AdaWaveResult>> {
        levels
            .iter()
            .map(|&level| {
                let mut config = self.config.clone();
                config.levels = level;
                AdaWave::new(config).fit(points)
            })
            .collect()
    }
}

/// Run the grid → clusters stage of the AdaWave pipeline (steps 2–4 of
/// Algorithm 1: wavelet smoothing, near-zero removal, adaptive threshold,
/// connected components) on an already-quantized sparse grid.
///
/// The cost depends on the grid, never on how many points were quantized
/// into it: the transform takes `O(d · m log m)` a level for `m` occupied
/// cells when it sorts them by line in every pass, or `O(l · 2^b)` for an
/// `l`-tap kernel when the cells fill their `b`-bit key space and it runs
/// on dense lanes ([`TransformPath::choose`](crate::TransformPath::choose)
/// picks; see [`crate::transform`]), and the threshold and components
/// sort the transformed cells. [`AdaWave::fit`] calls this
/// after quantizing, and the streaming layer (`adawave-stream`) on its
/// accumulated grid. The model does not depend on the order `grid` holds
/// its cells in.
///
/// With `config.levels == 0` the transform is skipped entirely and the raw
/// per-cell counts are thresholded directly (an honest no-smoothing pass).
pub fn cluster_grid(
    grid: &SparseGrid,
    codec: &KeyCodec,
    config: &AdaWaveConfig,
) -> Result<GridModel> {
    // Step 2: sparse wavelet transform (low-pass branch, `levels` times)
    // followed by removal of near-zero coefficients. Zero levels smooth
    // nothing: the grid and its codec pass through unchanged.
    let kernel = config.wavelet.density_smoothing_kernel();
    let (mut transformed, down_codec) = sparse_wavelet_smooth_budgeted(
        grid,
        codec,
        &kernel,
        config.boundary,
        config.levels,
        config.max_transformed_cells.max(1),
    )?;
    let transformed_cells = transformed.occupied_cells();
    // Grid densities are non-negative by construction; cells whose
    // smoothed coefficient is near zero or negative (edge artifacts of
    // wavelets with negative taps, e.g. CDF(2,2)) are certainly not
    // cluster interiors and would otherwise distort the sorted-density
    // curve the adaptive threshold is fitted to.
    let near_zero_removed =
        transformed.drop_near_zero(config.coefficient_epsilon) + transformed.filter_below(0.0);

    // Step 3: adaptive threshold filtering. With every cell removed above
    // (extreme `coefficient_epsilon`), the sorted curve is empty and every
    // strategy degenerates to 0.0 — an all-noise model, never a NaN.
    let sorted_densities = transformed.sorted_densities();
    let threshold = config.threshold.choose(&sorted_densities);
    let threshold_removed = transformed.filter_below(threshold);
    let surviving_cells = transformed.occupied_cells();

    // Step 4: connected components in the transformed feature space.
    let labels = connected_components(&transformed, &down_codec, config.connectivity);

    Ok(GridModel {
        labels,
        codec: down_codec,
        levels: config.levels,
        stats: GridStats {
            quantized_cells: grid.occupied_cells(),
            transformed_cells,
            near_zero_removed,
            threshold,
            threshold_removed,
            surviving_cells,
            intervals: codec.all_intervals().to_vec(),
        },
        sorted_densities,
    })
}

/// The fitted grid-level cluster model produced by [`cluster_grid`]: which
/// transformed-space cells belong to which cluster, plus the pipeline
/// diagnostics. Turning the model into a per-point [`AdaWaveResult`] is a
/// separate (O(points)) step, [`assign_cells`](Self::assign_cells), which
/// [`AdaWave::fit`] and the streaming layer both run: each occupied cell
/// is labeled once and every point by its cell's index in its grid.
#[derive(Debug, Clone)]
pub struct GridModel {
    labels: ComponentLabels,
    codec: KeyCodec,
    levels: u32,
    stats: GridStats,
    sorted_densities: Vec<f64>,
}

impl GridModel {
    /// Number of clusters found among the surviving cells.
    pub fn cluster_count(&self) -> usize {
        self.labels.cluster_count()
    }

    /// Cluster labels of the surviving transformed-space cells.
    pub fn labels(&self) -> &ComponentLabels {
        &self.labels
    }

    /// Codec of the transformed space the labels live in.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Decomposition levels separating the original quantized space from
    /// the transformed space (each level halves every coordinate).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Grid pipeline statistics (the [`AdaWaveResult::stats`] to be).
    pub fn stats(&self) -> &GridStats {
        &self.stats
    }

    /// The smoothed densities in descending order (the Fig. 6 curve).
    pub fn sorted_densities(&self) -> &[f64] {
        &self.sorted_densities
    }

    /// Cluster of an *original-space* cell key: downsample its coordinates
    /// through [`levels`](Self::levels) halvings and look the transformed
    /// cell up ([`KeyCodec::remap`]). `None` means the cell was removed as
    /// noise.
    pub fn cluster_of_cell(&self, original_codec: &KeyCodec, cell: u128) -> Option<usize> {
        let key = original_codec.remap(cell, &self.codec, self.levels, None);
        self.labels.cluster_of(key)
    }

    /// Label points by their cell's index in `grid`, the grid counted in
    /// `codec`'s space that this model was clustered from: every cell of
    /// `grid` is looked up once ([`cluster_of_cell`](Self::cluster_of_cell)),
    /// then each point's index in `point_cells` is rewritten in place into
    /// its cell's component id, one load a point, with `u32::MAX` for
    /// noise. An index past the grid's cells labels its point noise, which
    /// is how the streaming layer marks its outliers.
    pub fn assign_cells(
        &self,
        grid: &SparseGrid,
        codec: &KeyCodec,
        mut point_cells: Vec<u32>,
    ) -> Vec<u32> {
        let cell_ids: Vec<u32> = grid
            .iter()
            .map(|(key, _)| {
                self.cluster_of_cell(codec, key).map_or(NOISE, |id| {
                    u32::try_from(id).expect("component ids fit the u32 cell table")
                })
            })
            .collect();
        for cell in &mut point_cells {
            *cell = cell_ids.get(*cell as usize).copied().unwrap_or(NOISE);
        }
        point_cells
    }

    /// Finish the pipeline: combine the model with the per-point component
    /// ids of [`assign_cells`](Self::assign_cells) into an
    /// [`AdaWaveResult`].
    pub fn into_result(self, ids: Vec<u32>) -> AdaWaveResult {
        let cluster_count = self.labels.cluster_count();
        AdaWaveResult::new(ids, cluster_count, self.stats, self.sorted_densities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::ThresholdStrategy;
    use adawave_data::synthetic::{synthetic_benchmark, SYNTHETIC_NOISE_LABEL};
    use adawave_data::{shapes, Rng};
    use adawave_metrics::{ami, ami_ignoring_noise, NOISE_LABEL};
    use adawave_wavelet::Wavelet;

    use adawave_api::PointMatrix;

    fn blobs_with_noise(per_blob: usize, noise: usize, seed: u64) -> (PointMatrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut points = PointMatrix::new(2);
        let mut truth = Vec::new();
        shapes::gaussian_blob(
            &mut points,
            &mut rng,
            &[0.25, 0.25],
            &[0.03, 0.03],
            per_blob,
        );
        truth.extend(std::iter::repeat_n(0usize, per_blob));
        shapes::gaussian_blob(
            &mut points,
            &mut rng,
            &[0.75, 0.75],
            &[0.03, 0.03],
            per_blob,
        );
        truth.extend(std::iter::repeat_n(1usize, per_blob));
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], noise);
        truth.extend(std::iter::repeat_n(2usize, noise));
        (points, truth)
    }

    #[test]
    fn clusters_two_blobs_in_50_percent_noise() {
        let (points, truth) = blobs_with_noise(1000, 2000, 1);
        let result = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
            .fit(points.view())
            .unwrap();
        assert!(
            result.cluster_count() >= 2,
            "found {}",
            result.cluster_count()
        );
        // The Gaussian tails of each blob are indistinguishable from the 50%
        // uniform noise, so a score in the 0.7-0.8 range is what the paper
        // itself reports on its 50%-noise running example (AMI 0.76).
        let score = ami_ignoring_noise(&truth, &result.to_labels(NOISE_LABEL), 2);
        assert!(score > 0.7, "AMI {score}");
        // A good share of the uniform noise is recognised as noise.
        assert!(result.noise_fraction() > 0.3);
    }

    #[test]
    fn clusters_the_synthetic_benchmark_at_high_noise() {
        // A smaller copy of the Fig. 7/8 workload at 75% noise.
        let ds = synthetic_benchmark(75.0, 800, 3);
        let result = AdaWave::default().fit(ds.view()).unwrap();
        let score = ami_ignoring_noise(
            &ds.labels,
            &result.to_labels(NOISE_LABEL),
            SYNTHETIC_NOISE_LABEL,
        );
        assert!(score > 0.5, "AMI {score}");
        assert!(
            result.cluster_count() >= 3,
            "clusters {}",
            result.cluster_count()
        );
    }

    #[test]
    fn detects_ring_shaped_clusters() {
        let mut rng = Rng::new(5);
        let mut points = PointMatrix::new(2);
        let mut truth = Vec::new();
        shapes::ring(&mut points, &mut rng, (0.3, 0.5), 0.15, 0.008, 1500);
        truth.extend(std::iter::repeat_n(0usize, 1500));
        shapes::ring(&mut points, &mut rng, (0.7, 0.5), 0.15, 0.008, 1500);
        truth.extend(std::iter::repeat_n(1usize, 1500));
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 1000);
        truth.extend(std::iter::repeat_n(2usize, 1000));
        let result = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
            .fit(points.view())
            .unwrap();
        let score = ami_ignoring_noise(&truth, &result.to_labels(NOISE_LABEL), 2);
        assert!(score > 0.6, "AMI {score}");
    }

    #[test]
    fn is_order_insensitive() {
        let (mut points, _) = blobs_with_noise(500, 500, 7);
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(32).build());
        let a = adawave.fit(points.view()).unwrap();
        // Reverse the input order; results must be identical per point.
        points.reverse_rows();
        let b = adawave.fit(points.view()).unwrap();
        assert!(a.labels().eq(b.labels().rev()));
        assert_eq!(a.cluster_count(), b.cluster_count());
    }

    #[test]
    fn is_deterministic() {
        let (points, _) = blobs_with_noise(400, 800, 9);
        let adawave = AdaWave::default();
        assert_eq!(
            adawave.fit(points.view()).unwrap(),
            adawave.fit(points.view()).unwrap()
        );
    }

    #[test]
    fn is_deterministic_for_irrational_tap_wavelets() {
        // db2's taps are irrational, so floating-point summation order in
        // the transform is observable. Two fits of the same points must
        // agree bit for bit, including the full sorted-density curve. Both
        // fits hold their cells in the same order, so this pins repeat
        // determinism only; `grid_stage_ignores_the_cell_order`
        // (tests/properties.rs) feeds the grid stage shuffled cell orders.
        let (points, _) = blobs_with_noise(300, 600, 41);
        let adawave = AdaWave::new(
            AdaWaveConfig::builder()
                .scale(32)
                .wavelet(Wavelet::Daubechies2)
                .build(),
        );
        assert_eq!(
            adawave.fit(points.view()).unwrap(),
            adawave.fit(points.view()).unwrap()
        );
    }

    #[test]
    fn f32_lane_is_deterministic_across_thread_counts() {
        // The f32 lane gives up bit-comparability with f64, but inside
        // itself it keeps the workspace determinism contract: identical
        // clusterings for every thread count.
        use adawave_api::Precision;
        use adawave_runtime::Runtime;
        let (points, _) = blobs_with_noise(3000, 6000, 43);
        let config = |rt: Runtime| {
            AdaWaveConfig::builder()
                .scale(64)
                .precision(Precision::F32)
                .runtime(rt)
                .build()
        };
        let reference = AdaWave::new(config(Runtime::sequential()))
            .fit(points.view())
            .unwrap();
        assert!(reference.cluster_count() >= 2);
        for threads in [1, 2, 4, 8] {
            let parallel = AdaWave::new(config(Runtime::with_threads(threads)))
                .fit(points.view())
                .unwrap();
            assert_eq!(reference, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        let adawave = AdaWave::default();
        // Empty and zero-dimensional inputs are errors, never panics.
        assert!(adawave.fit(PointMatrix::new(2).view()).is_err());
        let zero_dim = PointMatrix::from_rows(vec![vec![]]).unwrap();
        assert!(adawave.fit(zero_dim.view()).is_err());
        // Ragged input is already rejected at the ingestion boundary.
        assert!(PointMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.0]]).is_err());
    }

    #[test]
    fn auto_reduces_scale_for_high_dimensional_data() {
        // 20 dimensions at scale 128 needs 140 bits > 128: the scale must be
        // reduced automatically rather than failing.
        let mut rng = Rng::new(11);
        let mut points = PointMatrix::new(20);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.3; 20], &[0.05; 20], 200);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.7; 20], &[0.05; 20], 200);
        let result = AdaWave::default().fit(points.view()).unwrap();
        assert!(result.stats().intervals[0] < 128);
        assert!(result.cluster_count() >= 1);

        // With auto-reduction disabled the same configuration must fail.
        let strict = AdaWave::new(AdaWaveConfig::builder().auto_reduce_scale(false).build());
        assert!(matches!(
            strict.fit(points.view()),
            Err(AdaWaveError::Grid(_))
        ));
    }

    #[test]
    fn stats_are_consistent() {
        let (points, _) = blobs_with_noise(500, 1500, 13);
        let result = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
            .fit(points.view())
            .unwrap();
        let stats = result.stats();
        assert!(stats.quantized_cells > 0);
        assert!(stats.transformed_cells > 0);
        assert_eq!(
            stats.surviving_cells + stats.threshold_removed + stats.near_zero_removed,
            stats.transformed_cells
        );
        assert!(stats.threshold > 0.0);
        assert_eq!(stats.intervals, vec![64, 64]);
        assert_eq!(
            result.sorted_densities().len(),
            stats.transformed_cells - stats.near_zero_removed
        );
    }

    #[test]
    fn multi_resolution_produces_coarser_clusterings() {
        let (points, _) = blobs_with_noise(800, 800, 15);
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build());
        let results = adawave
            .fit_multi_resolution(points.view(), &[1, 2, 3])
            .unwrap();
        assert_eq!(results.len(), 3);
        // Higher levels work on coarser grids; cluster count should not blow up.
        assert!(results[2].stats().surviving_cells <= results[0].stats().surviving_cells);
        for r in &results {
            assert!(r.cluster_count() >= 1);
        }
    }

    #[test]
    fn level_zero_is_an_honest_no_smoothing_pass() {
        let (points, _) = blobs_with_noise(600, 1200, 23);
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build());
        let results = adawave
            .fit_multi_resolution(points.view(), &[0, 1])
            .unwrap();
        let (level0, level1) = (&results[0], &results[1]);
        // Level 0 used to be silently promoted to level 1, returning two
        // identical results labelled differently. It must now skip the
        // transform: the "transformed" grid is the raw quantized grid.
        assert_eq!(
            level0.stats().transformed_cells,
            level0.stats().quantized_cells
        );
        assert_eq!(level0.stats().near_zero_removed, 0, "raw counts are >= 1");
        // Level 1 smooths and downsamples, so its stats must differ.
        assert_ne!(level0.stats(), level1.stats());
        assert_ne!(level0, level1);
        // The raw-grid threshold still separates the blobs from the noise.
        assert!(level0.cluster_count() >= 2);
        // And the direct fit at levels=0 matches the multi-resolution entry.
        let direct = AdaWave::new(AdaWaveConfig::builder().scale(64).levels(0).build())
            .fit(points.view())
            .unwrap();
        assert_eq!(&direct, level0);
    }

    #[test]
    fn extreme_epsilon_yields_all_noise_not_a_panic() {
        // When `coefficient_epsilon` removes every smoothed cell, the
        // threshold strategies see an empty sorted-density curve. Every
        // strategy must degenerate to a finite threshold and an all-noise
        // clustering — no NaN, no panic.
        let (points, _) = blobs_with_noise(300, 300, 29);
        for strategy in [
            ThresholdStrategy::ElbowAngle { divisor: 3.0 },
            ThresholdStrategy::ThreeSegment,
            ThresholdStrategy::Kneedle,
            ThresholdStrategy::Quantile(0.2),
            ThresholdStrategy::Fixed(1.0),
        ] {
            let result = AdaWave::new(
                AdaWaveConfig::builder()
                    .scale(32)
                    .threshold(strategy)
                    .coefficient_epsilon(1e30)
                    .build(),
            )
            .fit(points.view())
            .unwrap();
            let name = strategy.name();
            assert_eq!(result.cluster_count(), 0, "{name}");
            assert_eq!(result.noise_fraction(), 1.0, "{name}");
            assert_eq!(result.stats().surviving_cells, 0, "{name}");
            assert!(result.stats().threshold.is_finite(), "{name}");
            assert!(result.sorted_densities().is_empty(), "{name}");
        }
    }

    #[test]
    fn extreme_levels_saturate_instead_of_overflowing_the_shift() {
        // 40 levels collapse every dimension to a single cell; the
        // coordinate downshift must saturate at 0, not panic (debug) or
        // wrap (release) on `c >> 40`.
        let (points, _) = blobs_with_noise(100, 100, 37);
        let result = AdaWave::new(AdaWaveConfig::builder().scale(32).levels(40).build())
            .fit(points.view())
            .unwrap();
        assert_eq!(result.len(), points.len());
        // Everything lives in the one surviving cell (or none at all).
        assert!(result.cluster_count() <= 1);
    }

    #[test]
    fn cluster_grid_matches_fit_on_the_same_quantization() {
        // The extracted grid → model stage must reproduce fit() exactly
        // when driven with fit()'s own quantizer output.
        let (points, _) = blobs_with_noise(500, 1000, 31);
        let config = AdaWaveConfig::builder().scale(64).build();
        let adawave = AdaWave::new(config.clone());
        let fitted = adawave.fit(points.view()).unwrap();

        let bounds = BoundingBox::from_points(points.view()).unwrap();
        let quantizer = adawave.quantizer_for(&bounds).unwrap();
        let (grid, cells) = quantizer.quantize(points.view());
        let model = cluster_grid(&grid, quantizer.codec(), &config).unwrap();
        assert_eq!(model.cluster_count(), fitted.cluster_count());
        assert_eq!(model.stats(), fitted.stats());
        let ids: Vec<u32> = cells
            .iter()
            .map(|&cell| {
                model
                    .cluster_of_cell(quantizer.codec(), cell)
                    .map_or(NOISE, |id| id as u32)
            })
            .collect();
        let rebuilt = model.into_result(ids);
        assert_eq!(rebuilt, fitted);
    }

    #[test]
    fn threshold_strategies_all_produce_sane_results() {
        let (points, truth) = blobs_with_noise(800, 1600, 17);
        for strategy in [
            ThresholdStrategy::ElbowAngle { divisor: 3.0 },
            ThresholdStrategy::ThreeSegment,
            ThresholdStrategy::Kneedle,
            ThresholdStrategy::Quantile(0.2),
        ] {
            let result = AdaWave::new(
                AdaWaveConfig::builder()
                    .scale(64)
                    .threshold(strategy)
                    .build(),
            )
            .fit(points.view())
            .unwrap();
            let score = ami_ignoring_noise(&truth, &result.to_labels(NOISE_LABEL), 2);
            assert!(score > 0.4, "{}: AMI {score}", strategy.name());
        }
    }

    #[test]
    fn different_wavelets_still_cluster() {
        let (points, truth) = blobs_with_noise(800, 800, 19);
        for wavelet in [Wavelet::Haar, Wavelet::Cdf22, Wavelet::Daubechies2] {
            let result = AdaWave::new(AdaWaveConfig::builder().scale(64).wavelet(wavelet).build())
                .fit(points.view())
                .unwrap();
            let score = ami_ignoring_noise(&truth, &result.to_labels(NOISE_LABEL), 2);
            assert!(score > 0.6, "{wavelet}: AMI {score}");
        }
    }

    #[test]
    fn noise_reassignment_gives_full_partition() {
        let (points, truth) = blobs_with_noise(600, 600, 21);
        let result = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
            .fit(points.view())
            .unwrap();
        let labels = result.assign_noise_to_nearest_centroid(points.view());
        assert_eq!(labels.len(), points.len());
        // Every point now has a real cluster id.
        assert!(labels.iter().all(|&l| l < result.cluster_count().max(1)));
        // And the clustering still reflects the ground truth reasonably.
        let score = ami(&truth[..1200], &labels[..1200]);
        assert!(score > 0.5, "AMI {score}");
    }
}
