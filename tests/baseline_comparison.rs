//! Integration tests pitting AdaWave against the baselines on the paper's
//! qualitative claims (discussion §VI), at reduced scale.

use adawave_api::PointMatrix;
use adawave_baselines::{
    dbscan, em, kmeans, skinnydip, wavecluster, DbscanConfig, EmConfig, KMeansConfig,
    SkinnyDipConfig, WaveClusterConfig,
};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::synthetic::{synthetic_benchmark, SYNTHETIC_NOISE_LABEL};
use adawave_data::{shapes, Rng};
use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};

#[test]
fn ring_clusters_defeat_kmeans_and_em_but_not_adawave() {
    // §VI: ring-shaped clusters with dense noise around them, "for which the
    // comparison methods tend to group together as one or separate them as
    // rectangle-style clusters". Two concentric rings are the canonical
    // instance: centroid/model-based methods cut them into halves, a
    // grid-connectivity method keeps each ring whole.
    let mut rng = Rng::new(1);
    let mut points = PointMatrix::new(2);
    let mut truth = Vec::new();
    shapes::ring(&mut points, &mut rng, (0.5, 0.5), 0.12, 0.008, 1500);
    truth.extend(std::iter::repeat_n(0usize, 1500));
    shapes::ring(&mut points, &mut rng, (0.5, 0.5), 0.34, 0.008, 1500);
    truth.extend(std::iter::repeat_n(1usize, 1500));
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 2000);
    const NOISE: usize = 2;
    truth.extend(std::iter::repeat_n(NOISE, 2000));

    let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
        .fit(points.view())
        .expect("adawave");
    let adawave_score = ami_ignoring_noise(&truth, &adawave.to_labels(NOISE_LABEL), NOISE);

    let km = kmeans(points.view(), &KMeansConfig::new(2, 3));
    let km_score = ami_ignoring_noise(&truth, &km.clustering.to_labels(NOISE_LABEL), NOISE);

    let (_, gmm) = em(points.view(), &EmConfig::new(2, 3));
    let em_score = ami_ignoring_noise(&truth, &gmm.to_labels(NOISE_LABEL), NOISE);

    assert!(
        adawave_score > km_score,
        "AdaWave {adawave_score} vs k-means {km_score}"
    );
    assert!(
        adawave_score > em_score,
        "AdaWave {adawave_score} vs EM {em_score}"
    );
    assert!(adawave_score > 0.3, "AdaWave {adawave_score}");
}

#[test]
fn dbscan_is_fine_at_low_noise_but_collapses_at_high_noise() {
    // §II/Fig. 8: "DBSCAN performs well only when the noise is controlled
    // below ~15-20%; its performance derogates drastically" afterwards.
    let low = synthetic_benchmark(20.0, 400, 5);
    let high = synthetic_benchmark(85.0, 400, 5);
    let score = |ds: &adawave_data::Dataset, eps: f64| {
        let clustering = dbscan(ds.view(), &DbscanConfig::new(eps, 8));
        ami_ignoring_noise(
            &ds.labels,
            &clustering.to_labels(NOISE_LABEL),
            SYNTHETIC_NOISE_LABEL,
        )
    };
    // Sweep eps and keep the best, mirroring the paper's automation.
    let best = |ds: &adawave_data::Dataset| {
        (1..=20)
            .map(|i| score(ds, i as f64 * 0.01))
            .fold(f64::MIN, f64::max)
    };
    let low_score = best(&low);
    let high_score = best(&high);
    assert!(low_score > 0.55, "DBSCAN @20% noise: {low_score}");
    // The paper reports a full collapse above ~60% noise; our smaller-scale
    // copy (denser clusters relative to the noise floor) shows a milder but
    // still clear degradation even with the best-eps oracle.
    assert!(
        high_score < low_score - 0.05,
        "DBSCAN should degrade: {low_score} -> {high_score}"
    );
}

#[test]
fn skinnydip_struggles_when_projections_are_not_unimodal() {
    // §II: SkinnyDip's precondition is unimodal projections per dimension;
    // the synthetic benchmark (rings + diagonal lines) violates it, and
    // AdaWave should come out ahead.
    let ds = synthetic_benchmark(60.0, 500, 9);
    let skinny = skinnydip(ds.view(), &SkinnyDipConfig::default());
    let skinny_score = ami_ignoring_noise(
        &ds.labels,
        &skinny.to_labels(NOISE_LABEL),
        SYNTHETIC_NOISE_LABEL,
    );
    let adawave = AdaWave::default().fit(ds.view()).expect("adawave");
    let adawave_score = ami_ignoring_noise(
        &ds.labels,
        &adawave.to_labels(NOISE_LABEL),
        SYNTHETIC_NOISE_LABEL,
    );
    assert!(
        adawave_score > skinny_score,
        "AdaWave {adawave_score} vs SkinnyDip {skinny_score}"
    );
}

#[test]
fn adawave_and_wavecluster_share_machinery_but_only_adawave_adapts() {
    // The paper's central comparison is AdaWave vs its ancestor WaveCluster
    // under heavy noise. Note: our WaveCluster baseline already uses a
    // data-dependent (mean-density) cut-off, which is stronger than the
    // original's fixed threshold: it follows the data's density level
    // instead of one absolute count, so the decisive
    // adaptive-vs-fixed comparison lives in
    // `end_to_end::adawave_survives_extreme_noise_better_than_threshold_free_wavecluster`.
    // Here we check that on the same 80%-noise workload both grid methods
    // produce meaningful clusterings, and that AdaWave additionally reports
    // an explicit noise cluster covering a large share of the data.
    let ds = synthetic_benchmark(80.0, 500, 13);
    let wc = wavecluster(ds.view(), &WaveClusterConfig::default());
    let wc_score = ami_ignoring_noise(
        &ds.labels,
        &wc.to_labels(NOISE_LABEL),
        SYNTHETIC_NOISE_LABEL,
    );
    let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build())
        .fit(ds.view())
        .expect("adawave");
    let adawave_score = ami_ignoring_noise(
        &ds.labels,
        &adawave.to_labels(NOISE_LABEL),
        SYNTHETIC_NOISE_LABEL,
    );
    assert!(adawave.cluster_count() >= 2);
    assert!(wc.cluster_count() >= 2);
    assert!(adawave_score > 0.3, "AdaWave {adawave_score}");
    assert!(wc_score > 0.1, "WaveCluster {wc_score}");
    assert!(
        adawave.noise_fraction() > 0.3,
        "AdaWave should flag a large noise share, got {}",
        adawave.noise_fraction()
    );
}
