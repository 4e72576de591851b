//! Integration tests for the related-work algorithms (§I/§II of the paper)
//! and the ground-truth-free validation indices, exercised together on the
//! paper's workloads.

use adawave_api::PointMatrix;
use adawave_baselines::{mean_shift, optics, sting, MeanShiftConfig, OpticsConfig, StingConfig};
use adawave_core::{AdaWave, AdaWaveConfig, ThresholdStrategy};
use adawave_data::synthetic::synthetic_benchmark;
use adawave_data::{shapes, Rng};
use adawave_metrics::{
    ami_ignoring_noise, calinski_harabasz, davies_bouldin, silhouette_score, NOISE_LABEL,
};

/// Two well-separated rings plus background noise — the shape k-means cannot
/// handle and the grid/density methods can.
fn rings_with_noise(seed: u64) -> (PointMatrix, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(2);
    let mut truth = Vec::new();
    shapes::ring(&mut points, &mut rng, (0.3, 0.5), 0.12, 0.01, 1200);
    truth.extend(std::iter::repeat_n(0usize, 1200));
    shapes::ring(&mut points, &mut rng, (0.72, 0.5), 0.12, 0.01, 1200);
    truth.extend(std::iter::repeat_n(1usize, 1200));
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 800);
    truth.extend(std::iter::repeat_n(2usize, 800));
    (points, truth)
}

#[test]
fn grid_and_density_relatives_also_handle_the_synthetic_benchmark() {
    // STING and OPTICS belong to the same algorithm families AdaWave is
    // positioned against; at moderate noise both should find real structure
    // on the paper's synthetic benchmark (they are not expected to match
    // AdaWave at extreme noise).
    let ds = synthetic_benchmark(40.0, 700, 21);
    let noise = ds.noise_label.unwrap();

    let sting_result = sting(ds.view(), &StingConfig::new(6, 5));
    let sting_score = ami_ignoring_noise(&ds.labels, &sting_result.to_labels(NOISE_LABEL), noise);
    assert!(sting_score > 0.3, "STING AMI {sting_score}");

    let optics_result = optics(ds.view(), &OpticsConfig::new(0.05, 8, 0.02));
    let optics_score = ami_ignoring_noise(&ds.labels, &optics_result.to_labels(NOISE_LABEL), noise);
    assert!(optics_score > 0.3, "OPTICS AMI {optics_score}");
}

#[test]
fn mean_shift_cannot_separate_concentric_structure_that_adawave_can() {
    // A ring with a blob in its middle: mode-seeking merges them (one mode
    // basin), the grid transform keeps them apart.
    //
    // This dataset has no background noise, which is outside the adaptive
    // threshold's operating regime (the paper's method presumes a noise
    // tail in the density curve and over-prunes without one), so the
    // structural claim — grid connectivity separates concentric shapes that
    // mode seeking merges — is pinned with the threshold step disabled, and
    // the default configuration is only required to beat mean shift.
    let mut rng = Rng::new(33);
    let mut points = PointMatrix::new(2);
    let mut truth = Vec::new();
    shapes::ring(&mut points, &mut rng, (0.5, 0.5), 0.25, 0.01, 1500);
    truth.extend(std::iter::repeat_n(0usize, 1500));
    shapes::gaussian_blob(&mut points, &mut rng, &[0.5, 0.5], &[0.02, 0.02], 800);
    truth.extend(std::iter::repeat_n(1usize, 800));

    let config = AdaWaveConfig::builder()
        .scale(64)
        .threshold(ThresholdStrategy::Fixed(0.0))
        .build();
    let adawave = AdaWave::new(config).fit(points.view()).unwrap();
    let adawave_score = ami_ignoring_noise(&truth, &adawave.to_labels(NOISE_LABEL), usize::MAX);

    let ms = mean_shift(points.view(), &MeanShiftConfig::new(0.3));
    let ms_score = ami_ignoring_noise(&truth, &ms.to_labels(NOISE_LABEL), usize::MAX);

    assert!(adawave_score > 0.8, "AdaWave AMI {adawave_score}");
    assert!(
        adawave_score > ms_score + 0.2,
        "AdaWave {adawave_score} should clearly beat mean shift {ms_score} on concentric shapes"
    );

    // The default (adaptive) configuration mislabels part of the ring as
    // noise here, but still clearly beats mode seeking.
    let default_run = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
        .fit(points.view())
        .unwrap();
    let default_score = ami_ignoring_noise(&truth, &default_run.to_labels(NOISE_LABEL), usize::MAX);
    assert!(
        default_score > ms_score + 0.2,
        "default AdaWave {default_score} vs mean shift {ms_score}"
    );
}

#[test]
fn internal_indices_are_computable_on_adawave_results_without_ground_truth() {
    let (points, truth) = rings_with_noise(44);
    let result = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
        .fit(points.view())
        .unwrap();
    let score = ami_ignoring_noise(&truth, &result.to_labels(NOISE_LABEL), 2);
    assert!(score > 0.6, "AdaWave AMI {score}");

    // A user without labels can still rate the clustering: the indices must
    // be finite and consistent with a sensible clustering (positive CH,
    // moderate DB).
    let assignment: Vec<Option<usize>> = result.labels().collect();
    let ch = calinski_harabasz(points.view(), &assignment);
    let db = davies_bouldin(points.view(), &assignment);
    let sil = silhouette_score(points.view(), &assignment);
    assert!(ch.is_finite() && ch > 0.0, "CH {ch}");
    assert!(db.is_finite() && db > 0.0, "DB {db}");
    assert!((-1.0..=1.0).contains(&sil), "silhouette {sil}");
}

#[test]
fn internal_indices_prefer_the_true_structure_over_a_random_split() {
    // Ground-truth-free indices should prefer k-means' own partition of two
    // plain blobs over a random relabeling of the same points.
    let mut rng = Rng::new(55);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.2, 0.2], &[0.03, 0.03], 300);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.8, 0.8], &[0.03, 0.03], 300);
    let good: Vec<Option<usize>> = (0..600).map(|i| Some(usize::from(i >= 300))).collect();
    let random: Vec<Option<usize>> = (0..600).map(|i| Some(i % 2)).collect();

    assert!(silhouette_score(points.view(), &good) > silhouette_score(points.view(), &random));
    assert!(calinski_harabasz(points.view(), &good) > calinski_harabasz(points.view(), &random));
    assert!(davies_bouldin(points.view(), &good) < davies_bouldin(points.view(), &random));
}
