//! Every implemented algorithm on the paper's running example — an extended
//! version of Fig. 2 covering the baselines of §V-A plus the related-work
//! algorithms (OPTICS, mean shift, Sync, STING, CLIQUE).
//!
//! ```text
//! cargo run -p adawave-bench --release --example baseline_shootout
//! ```

use std::time::Instant;

use adawave_api::PointsView;
use adawave_baselines::{
    clique, dbscan, kmeans, mean_shift, optics, self_tuning_spectral, skinnydip, sting,
    sync_cluster, wavecluster, CliqueConfig, Clustering, DbscanConfig, KMeansConfig,
    MeanShiftConfig, OpticsConfig, SkinnyDipConfig, SpectralConfig, StingConfig, SyncConfig,
    WaveClusterConfig,
};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::synthetic::running_example;
use adawave_metrics::{ami_ignoring_noise, NOISE_LABEL};

fn main() {
    // The full running example has ~28k points; the O(n²)-leaning baselines
    // (mean shift, Sync, STSC) make that a long wait, so the shootout runs
    // on a 8k subsample — the qualitative contrast is unchanged.
    let mut rng = adawave_data::Rng::new(1);
    let ds = running_example(42).subsample(8000, &mut rng);
    let noise_label = ds.noise_label.expect("running example labels its noise");
    println!(
        "running example: {} points, {} clusters, {:.0}% noise\n",
        ds.len(),
        ds.cluster_count(),
        100.0 * ds.noise_fraction()
    );
    println!(
        "{:<14} {:>8} {:>10} {:>10}",
        "algorithm", "clusters", "AMI", "seconds"
    );

    let run = |name: &str, f: &dyn Fn(PointsView<'_>) -> Clustering| {
        let start = Instant::now();
        let clustering = f(ds.view());
        let seconds = start.elapsed().as_secs_f64();
        let score = ami_ignoring_noise(&ds.labels, &clustering.to_labels(NOISE_LABEL), noise_label);
        println!(
            "{:<14} {:>8} {:>10.3} {:>10.3}",
            name,
            clustering.cluster_count(),
            score,
            seconds
        );
    };

    run("AdaWave", &|points| {
        let result = AdaWave::new(AdaWaveConfig::default())
            .fit(points)
            .expect("adawave");
        result.into_clustering()
    });
    run("k-means", &|points| {
        kmeans(points, &KMeansConfig::new(5, 7)).clustering
    });
    run("DBSCAN", &|points| {
        dbscan(points, &DbscanConfig::new(0.02, 8))
    });
    run("WaveCluster", &|points| {
        wavecluster(points, &WaveClusterConfig::default())
    });
    run("SkinnyDip", &|points| {
        skinnydip(points, &SkinnyDipConfig::default())
    });
    run("STSC", &|points| {
        self_tuning_spectral(
            points,
            &SpectralConfig {
                k: Some(5),
                ..Default::default()
            },
        )
    });
    run("OPTICS", &|points| {
        optics(points, &OpticsConfig::new(0.05, 8, 0.02))
    });
    run("mean shift", &|points| {
        mean_shift(points, &MeanShiftConfig::new(0.06))
    });
    run("Sync", &|points| {
        // Sync is O(n²) per round; subsample to keep the example quick.
        let step = (points.len() / 3000).max(1);
        let idx: Vec<usize> = (0..points.len()).step_by(step).collect();
        let sample = points.select(&idx);
        let clustering = sync_cluster(sample.view(), &SyncConfig::new(0.05));
        // Nearest-sample label for the remaining points.
        let labels: Vec<Option<usize>> = points
            .rows()
            .map(|p| {
                let mut best = (f64::MAX, None);
                for (s, l) in sample.rows().zip(clustering.labels()) {
                    let d: f64 = p.iter().zip(s.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best.0 {
                        best = (d, l);
                    }
                }
                best.1
            })
            .collect();
        Clustering::new(labels)
    });
    run("STING", &|points| sting(points, &StingConfig::new(6, 6)));
    run("CLIQUE", &|points| {
        clique(points, &CliqueConfig::new(24, 0.002))
    });

    println!(
        "\nAdaWave and the grid/density methods recover the irregular shapes; the\n\
         centroid- and model-based baselines cannot, which is the contrast the\n\
         paper's Fig. 2 illustrates."
    );
}
