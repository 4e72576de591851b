//! The AdaWave model artifact of a fixed fit is frozen: fitting the same
//! input the same way must save to the checked-in golden file byte for
//! byte, whatever the grid stage's internals, and the golden file must
//! label the input exactly like the fit does.
//!
//! Two inputs are pinned. The 4-d one is at scale 64 with two
//! decomposition levels, so the quantizer's keys are 24 bits wide
//! (counting goes through the hashed side of the cell table) while the
//! transformed keys are 16 bits wide (labeling and predict index the flat
//! array); its grid is far sparser than its key space, so the transform
//! sorts its cells. The 3-d one is at scale 14 and fills its 12-bit key
//! space, so the transform runs on dense lanes; it is pinned at CDF(2,2)
//! with one level and at db2 with two (14 intervals halve to 7, then 4).

use std::path::Path;

use adawave::{load_model, save_model};
use adawave_api::PointMatrix;
use adawave_core::{AdaWave, AdaWaveConfig, TransformPath};
use adawave_grid::BoundingBox;
use adawave_wavelet::Wavelet;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// Fractional parts of the square roots of the first primes: the
/// per-dimension steps of a Kronecker (low-discrepancy) sequence.
const STEPS: [f64; 4] = [0.414_213_562, 0.732_050_808, 0.236_067_977, 0.645_751_311];

/// Row `i` of the Kronecker sequence in the unit cube, dimension `j`.
fn kronecker(i: usize, j: usize) -> f64 {
    ((i + 1) as f64 * STEPS[j]).fract()
}

/// `per_blob` rows around each centre, then `noise` rows of
/// low-discrepancy noise over the unit cube. Each blob coordinate is its
/// centre plus a triangular offset (the sum of two sequence terms) within
/// ±0.06.
fn blobs_and_noise<const D: usize>(
    centres: &[[f64; D]],
    per_blob: usize,
    noise: usize,
) -> PointMatrix {
    let mut points = PointMatrix::new(D);
    for centre in centres {
        for i in 0..per_blob {
            let row: Vec<f64> = (0..D)
                .map(|j| centre[j] + 0.06 * (kronecker(i, j) + kronecker(i + 500, D - 1 - j) - 1.0))
                .collect();
            points.push_row(&row);
        }
    }
    for i in 0..noise {
        let row: Vec<f64> = (0..D).map(|j| kronecker(i + 7_000, j)).collect();
        points.push_row(&row);
    }
    points
}

/// Three 4-d blobs of 1,000 rows each, then 1,000 rows of noise.
fn sparse_points() -> PointMatrix {
    blobs_and_noise(
        &[
            [0.25, 0.3, 0.7, 0.4],
            [0.7, 0.75, 0.3, 0.6],
            [0.6, 0.2, 0.25, 0.8],
        ],
        1_000,
        1_000,
    )
}

/// Three 3-d blobs of 800 rows each, then 4,000 rows of noise: at scale
/// 14 they occupy 2,161 of the 2,744 cells, whose keys span 4,096 slots.
fn dense_points() -> PointMatrix {
    blobs_and_noise(
        &[[0.25, 0.3, 0.7], [0.7, 0.75, 0.3], [0.6, 0.2, 0.25]],
        800,
        4_000,
    )
}

/// The path the transform takes for `points` under `config`: the grid
/// `fit` quantizes and the budget `cluster_grid` passes.
fn transform_path(points: &PointMatrix, config: &AdaWaveConfig) -> TransformPath {
    let bounds = BoundingBox::from_points(points.view()).unwrap();
    let quantizer = AdaWave::new(config.clone()).quantizer_for(&bounds).unwrap();
    let (grid, _) = quantizer.quantize(points.view());
    let budget = config.max_transformed_cells.max(1);
    TransformPath::choose(quantizer.codec(), grid.occupied_cells(), budget)
}

/// Fit `points` under `config`, save the model, and compare the bytes with
/// the fixture `name`; the fixture must label `points` like the fit.
fn assert_golden(points: &PointMatrix, config: AdaWaveConfig, name: &str) {
    let (result, model) = AdaWave::new(config).fit_with_model(points.view()).unwrap();
    let path = std::env::temp_dir().join(format!("adawave_{name}_{}", std::process::id()));
    save_model(&path, &model).unwrap();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let golden = Path::new(FIXTURES).join(name);
    assert!(
        written == std::fs::read(&golden).unwrap(),
        "save_model output differs from {}",
        golden.display()
    );

    let loaded = load_model(&golden).unwrap();
    assert_eq!(
        loaded.predict(points.view()).unwrap(),
        result.to_clustering()
    );
}

#[test]
fn save_model_writes_the_golden_bytes() {
    let config = AdaWaveConfig::builder()
        .scale(64)
        .wavelet(Wavelet::Daubechies2)
        .levels(2)
        .build();
    let points = sparse_points();
    assert!(matches!(
        transform_path(&points, &config),
        TransformPath::SortedCells { .. }
    ));
    assert_golden(&points, config, "model_v1.awm");
}

#[test]
fn a_grid_that_fills_its_key_space_saves_the_golden_bytes() {
    let points = dense_points();
    for (wavelet, levels, name) in [
        (Wavelet::Cdf22, 1, "model_v1_dense_cdf22.awm"),
        (Wavelet::Daubechies2, 2, "model_v1_dense_db2.awm"),
    ] {
        let config = AdaWaveConfig::builder()
            .scale(14)
            .wavelet(wavelet)
            .levels(levels)
            .build();
        assert_eq!(
            transform_path(&points, &config),
            TransformPath::DenseLanes,
            "{name}"
        );
        assert_golden(&points, config, name);
    }
}
