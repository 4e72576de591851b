//! WaveCluster (Sheikholeslami, Chatterjee & Zhang, VLDB 1998) — the
//! original dense-grid wavelet clustering algorithm that AdaWave builds on.
//!
//! WaveCluster quantizes the feature space into a **dense** grid,
//! convolves it with the wavelet low-pass filter along every dimension
//! (downsampling by two), removes low-density cells with a fixed relative
//! threshold, and connects the remaining cells into clusters. Unlike
//! AdaWave it has no adaptive threshold and its memory grows with the full
//! `M^d` grid volume, which is exactly the limitation the paper's
//! "grid labeling" structure removes.

use adawave_api::PointsView;
use adawave_grid::{
    connected_components, Connectivity, KeyCodec, LookupTable, Quantizer, SparseGrid,
};
use adawave_runtime::Runtime;
use adawave_wavelet::{BoundaryMode, DenseGrid, Wavelet};

use crate::Clustering;

/// Configuration for [`wavecluster`].
#[derive(Debug, Clone)]
pub struct WaveClusterConfig {
    /// Requested number of intervals per dimension (the actual value is
    /// reduced automatically if the dense grid would exceed
    /// [`WaveClusterConfig::max_dense_cells`]).
    pub scale: u32,
    /// Wavelet family used for smoothing.
    pub wavelet: Wavelet,
    /// Number of decomposition levels (each level halves every dimension).
    pub levels: u32,
    /// Cells with smoothed density below `density_threshold × mean
    /// non-zero density` are discarded. WaveCluster's fixed (non-adaptive)
    /// threshold.
    pub density_threshold: f64,
    /// Connectivity used for the connected-component step.
    pub connectivity: Connectivity,
    /// Upper bound on the dense grid size; the scale is halved until the
    /// grid fits (the dense grid is WaveCluster's scalability bottleneck).
    pub max_dense_cells: u128,
    /// Worker pool for quantization and the separable dense wavelet passes
    /// (independent grid rows/columns per axis). Any thread count produces
    /// the same clustering.
    pub runtime: Runtime,
}

impl Default for WaveClusterConfig {
    fn default() -> Self {
        Self {
            scale: 128,
            wavelet: Wavelet::Cdf22,
            levels: 1,
            density_threshold: 1.0,
            connectivity: Connectivity::Face,
            max_dense_cells: 1 << 24,
            runtime: Runtime::from_env(),
        }
    }
}

fn effective_scale(requested: u32, dims: usize, max_cells: u128) -> u32 {
    let mut scale = requested.max(2);
    while scale > 2 && (scale as u128).saturating_pow(dims as u32) > max_cells {
        scale /= 2;
    }
    scale
}

/// Run WaveCluster on a point set.
pub fn wavecluster(points: PointsView<'_>, config: &WaveClusterConfig) -> Clustering {
    let n = points.len();
    if n == 0 {
        return Clustering::new(vec![]);
    }
    let dims = points.dims();
    let scale = effective_scale(config.scale, dims, config.max_dense_cells);
    let quantizer = match Quantizer::fit(points, scale) {
        Ok(q) => q,
        Err(_) => return Clustering::all_noise(n),
    };
    let (_, assignment) = quantizer.quantize_with(points, config.runtime);
    let lookup = LookupTable::new(quantizer.codec().clone(), assignment);

    // Build the dense grid (WaveCluster's original data structure).
    let shape: Vec<usize> = (0..dims)
        .map(|j| quantizer.codec().intervals(j) as usize)
        .collect();
    let mut dense = DenseGrid::zeros(&shape);
    for point in points.rows() {
        let coords: Vec<usize> = quantizer
            .cell_coords(point)
            .into_iter()
            .map(|c| c as usize)
            .collect();
        dense.add(&coords, 1.0);
    }

    // Smooth with the wavelet low-pass filter, `levels` times. The centered
    // variant keeps cell `c` aligned with cell `c >> 1`, matching the
    // lookup-table mapping used to label points afterwards.
    let kernel = config.wavelet.density_smoothing_kernel();
    let mut smoothed = dense;
    for _ in 0..config.levels.max(1) {
        smoothed = smoothed.smooth_all_axes_with(&kernel, BoundaryMode::Zero, config.runtime);
    }

    // Fixed threshold relative to the mean non-zero smoothed density.
    let nonzero: Vec<f64> = smoothed
        .as_slice()
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .collect();
    if nonzero.is_empty() {
        return Clustering::all_noise(n);
    }
    let mean_density: f64 = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
    let threshold = config.density_threshold * mean_density;

    // Transfer surviving cells into a sparse grid keyed in the downsampled space.
    let levels = config.levels.max(1);
    let down_codec: KeyCodec = match quantizer.codec().downsampled(levels) {
        Ok(c) => c,
        Err(_) => return Clustering::all_noise(n),
    };
    let mut surviving = Vec::new();
    let shape = smoothed.shape().to_vec();
    let mut coords = vec![0usize; dims];
    for flat in 0..smoothed.len() {
        // Decode the flat index into per-dimension coordinates (row-major).
        let mut rest = flat;
        for j in (0..dims).rev() {
            coords[j] = rest % shape[j];
            rest /= shape[j];
        }
        let v = smoothed.as_slice()[flat];
        if v >= threshold && v > 0.0 {
            let key_coords: Vec<u32> = coords
                .iter()
                .enumerate()
                .map(|(j, &c)| (c as u32).min(down_codec.intervals(j) - 1))
                .collect();
            surviving.push((down_codec.pack(&key_coords), v));
        }
    }
    let surviving: SparseGrid = surviving.into_iter().collect();

    let labels = connected_components(&surviving, &down_codec, config.connectivity);
    let assignment = lookup.assign_points(&labels, levels, &down_codec);
    Clustering::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::PointMatrix;
    use adawave_data::{shapes, Rng};
    use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};

    fn blobs_with_noise(noise: usize, seed: u64) -> (PointMatrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut points = PointMatrix::new(2);
        let mut truth = Vec::new();
        shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.03, 0.03], 600);
        truth.extend(std::iter::repeat_n(0usize, 600));
        shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.03, 0.03], 600);
        truth.extend(std::iter::repeat_n(1usize, 600));
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], noise);
        truth.extend(std::iter::repeat_n(2usize, noise));
        (points, truth)
    }

    #[test]
    fn finds_two_blobs_in_light_noise() {
        let (points, truth) = blobs_with_noise(150, 1);
        let clustering = wavecluster(
            points.view(),
            &WaveClusterConfig {
                scale: 64,
                ..Default::default()
            },
        );
        assert!(clustering.cluster_count() >= 2);
        let score = ami_ignoring_noise(&truth, &clustering.to_labels(NOISE_LABEL), 2);
        assert!(score > 0.8, "AMI {score}");
    }

    #[test]
    fn degrades_in_heavy_noise() {
        // WaveCluster's fixed threshold struggles at high noise — the
        // motivation for AdaWave's adaptive threshold.
        let (points, truth) = blobs_with_noise(4800, 2); // 80% noise
        let clustering = wavecluster(
            points.view(),
            &WaveClusterConfig {
                scale: 64,
                ..Default::default()
            },
        );
        let score = ami_ignoring_noise(&truth, &clustering.to_labels(NOISE_LABEL), 2);
        assert!(
            score < 0.9,
            "expected degradation under heavy noise, got {score}"
        );
    }

    #[test]
    fn effective_scale_limits_dense_grid() {
        assert_eq!(effective_scale(128, 2, 1 << 24), 128);
        // 128^4 = 2^28 cells > 2^24, so the scale is halved to 64 (64^4 = 2^24).
        assert_eq!(effective_scale(128, 4, 1 << 24), 64);
        // 9 dimensions: scale collapses to something tiny but >= 2.
        assert!(effective_scale(128, 9, 1 << 24) <= 8);
        assert!(effective_scale(128, 30, 1 << 24) >= 2);
    }

    #[test]
    fn handles_higher_dimensional_data_by_reducing_scale() {
        let mut rng = Rng::new(3);
        let mut points = PointMatrix::new(5);
        let mut truth = Vec::new();
        shapes::gaussian_blob(&mut points, &mut rng, &[0.2; 5], &[0.03; 5], 300);
        truth.extend(std::iter::repeat_n(0usize, 300));
        shapes::gaussian_blob(&mut points, &mut rng, &[0.8; 5], &[0.03; 5], 300);
        truth.extend(std::iter::repeat_n(1usize, 300));
        let clustering = wavecluster(points.view(), &WaveClusterConfig::default());
        // No noise in the ground truth: apply the paper's Table-I protocol
        // and push grid-noise points back to the nearest cluster before
        // scoring.
        let filled = clustering.assign_noise_to_nearest_centroid(points.view());
        assert!(filled.cluster_count() >= 2);
        let score = ami_ignoring_noise(&truth, &filled.to_labels(NOISE_LABEL), usize::MAX);
        assert!(score > 0.8, "AMI {score}");
    }

    #[test]
    fn empty_input() {
        assert!(wavecluster(PointMatrix::new(2).view(), &WaveClusterConfig::default()).is_empty());
    }

    #[test]
    fn deterministic() {
        let (points, _) = blobs_with_noise(300, 5);
        let a = wavecluster(points.view(), &WaveClusterConfig::default());
        let b = wavecluster(points.view(), &WaveClusterConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn ring_cluster_is_kept_in_one_piece() {
        let mut rng = Rng::new(7);
        let mut points = PointMatrix::new(2);
        shapes::ring(&mut points, &mut rng, (0.5, 0.5), 0.3, 0.01, 2000);
        let clustering = wavecluster(
            points.view(),
            &WaveClusterConfig {
                scale: 64,
                density_threshold: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(
            clustering.cluster_count(),
            1,
            "ring should be a single cluster"
        );
    }
}
