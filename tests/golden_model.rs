//! The AdaWave model artifact of a fixed fit is frozen: fitting the same
//! input the same way must save to the checked-in golden file byte for
//! byte, whatever the grid stage's internals, and the golden file must
//! label the input exactly like the fit does.
//!
//! The input is 4-d at scale 64 with two decomposition levels, so the
//! quantizer's keys are 24 bits wide (counting goes through the hashed
//! side of the cell table) while the transformed keys are 16 bits wide
//! (labeling and predict index the flat array).

use std::path::Path;

use adawave::{load_model, save_model};
use adawave_api::PointMatrix;
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_wavelet::Wavelet;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/model_v1.awm");

/// Fractional parts of the square roots of the first primes: the
/// per-dimension steps of a Kronecker (low-discrepancy) sequence.
const STEPS: [f64; 4] = [0.414_213_562, 0.732_050_808, 0.236_067_977, 0.645_751_311];

/// Row `i` of the Kronecker sequence in the unit cube, dimension `j`.
fn kronecker(i: usize, j: usize) -> f64 {
    ((i + 1) as f64 * STEPS[j]).fract()
}

/// Three 4-d blobs of 1,000 rows each, then 1,000 rows of low-discrepancy
/// noise over the unit cube. Each blob coordinate is its centre plus a
/// triangular offset (the sum of two sequence terms) within ±0.06.
fn golden_points() -> PointMatrix {
    let centres = [
        [0.25, 0.3, 0.7, 0.4],
        [0.7, 0.75, 0.3, 0.6],
        [0.6, 0.2, 0.25, 0.8],
    ];
    let mut points = PointMatrix::new(4);
    for centre in &centres {
        for i in 0..1_000 {
            let row: Vec<f64> = (0..4)
                .map(|j| centre[j] + 0.06 * (kronecker(i, j) + kronecker(i + 500, 3 - j) - 1.0))
                .collect();
            points.push_row(&row);
        }
    }
    for i in 0..1_000 {
        let row: Vec<f64> = (0..4).map(|j| kronecker(i + 7_000, j)).collect();
        points.push_row(&row);
    }
    points
}

#[test]
fn save_model_writes_the_golden_bytes() {
    let points = golden_points();
    let config = AdaWaveConfig::builder()
        .scale(64)
        .wavelet(Wavelet::Daubechies2)
        .levels(2)
        .build();
    let (result, model) = AdaWave::new(config).fit_with_model(points.view()).unwrap();
    let path =
        std::env::temp_dir().join(format!("adawave_golden_model_{}.awm", std::process::id()));
    save_model(&path, &model).unwrap();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let golden = std::fs::read(GOLDEN).unwrap();
    assert!(written == golden, "save_model output differs from {GOLDEN}");

    let loaded = load_model(Path::new(GOLDEN)).unwrap();
    assert_eq!(
        loaded.predict(points.view()).unwrap(),
        result.to_clustering()
    );
}
