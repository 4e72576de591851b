//! One experiment function per table and figure of the paper's evaluation
//! section. The `experiments` binary runs each one as a subcommand:
//! `fig2`, `fig5`–`fig10`, `table1`, `table2`, `ablation`, or `all`.

use std::time::Instant;

use adawave_core::{AdaWave, AdaWaveConfig, ThresholdStrategy};
use adawave_data::synthetic::{
    running_example, runtime_scaling_dataset, synthetic_benchmark, SYNTHETIC_NOISE_LABEL,
};
use adawave_data::uci::{self, table1_datasets};
use adawave_data::{min_max_normalize, Dataset};
use adawave_grid::{Connectivity, Quantizer};
use adawave_linalg::pearson_correlation;
use adawave_metrics::{ami, NOISE_LABEL};
use adawave_wavelet::{dwt2d, BoundaryMode, DenseGrid, Wavelet};

use adawave::standard_registry;

use crate::algorithms::{run_algorithm_with, AlgoOutcome, Algorithm, RunOptions};
use crate::report::{fmt3, fmt_seconds, format_table};

// ---------------------------------------------------------------------------
// Fig. 2 — the running example
// ---------------------------------------------------------------------------

/// One row of the Fig. 2 comparison.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Algorithm compared.
    pub algorithm: Algorithm,
    /// AMI over the points that truly belong to a cluster.
    pub ami: f64,
    /// Number of clusters the algorithm reported.
    pub clusters: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Reproduce Fig. 1/2: run AdaWave, k-means, DBSCAN and SkinnyDip on the
/// running example (five irregular clusters at ≈50% noise).
///
/// `points_per_cluster` scales the dataset (5600 in the paper).
pub fn fig2_running_example(points_per_cluster: usize, seed: u64) -> Vec<Fig2Row> {
    let ds = if points_per_cluster == 5600 {
        running_example(seed)
    } else {
        synthetic_benchmark(50.0, points_per_cluster, seed)
    };
    let options = RunOptions::new(5, &ds.labels, ds.noise_label);
    let registry = standard_registry();
    [
        Algorithm::AdaWave,
        Algorithm::KMeans,
        Algorithm::Dbscan,
        Algorithm::SkinnyDip,
    ]
    .iter()
    .map(|&algorithm| {
        let outcome = run_algorithm_with(&registry, algorithm, ds.view(), &options);
        Fig2Row {
            algorithm,
            ami: outcome.ami_ignoring_noise(&ds.labels, SYNTHETIC_NOISE_LABEL),
            clusters: outcome.clusters,
            seconds: outcome.seconds,
        }
    })
    .collect()
}

/// Print Fig. 2 rows.
pub fn print_fig2(rows: &[Fig2Row]) {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.name().to_string(),
                fmt3(r.ami),
                r.clusters.to_string(),
                fmt_seconds(r.seconds),
            ]
        })
        .collect();
    println!("Fig. 2 — running example (5 clusters, ~50% noise)");
    println!(
        "{}",
        format_table(&["algorithm", "AMI", "clusters", "time"], &table_rows)
    );
}

// ---------------------------------------------------------------------------
// Fig. 5 — effect of the 2-D wavelet transform on the feature space
// ---------------------------------------------------------------------------

/// Summary statistics of the original vs transformed feature space.
#[derive(Debug, Clone)]
pub struct Fig5Stats {
    /// Occupied cells in the original quantized space.
    pub original_cells: usize,
    /// Occupied cells (above the near-zero cut) after the 2-D DWT.
    pub transformed_cells: usize,
    /// Cells with no occupied neighbor ("scattered outliers") before.
    pub original_isolated: usize,
    /// Cells with no occupied neighbor after the transform.
    pub transformed_isolated: usize,
    /// Ratio of the maximum to the mean density after the transform
    /// (how much the clusters "stand out").
    pub contrast_after: f64,
    /// Same ratio before the transform.
    pub contrast_before: f64,
}

/// Cells with no occupied face neighbor: the singleton components under
/// face connectivity.
fn isolated_cells(grid: &adawave_grid::SparseGrid, codec: &adawave_grid::KeyCodec) -> usize {
    let labels = adawave_grid::connected_components(grid, codec, Connectivity::Face);
    (0..labels.cluster_count())
        .filter(|&id| labels.cluster_cells(id) == 1)
        .count()
}

/// Reproduce the Fig. 5 illustration quantitatively: quantize the running
/// example, apply one level of 2-D DWT, and compare sparsity/outlier counts.
pub fn fig5_transform(points_per_cluster: usize, seed: u64) -> Fig5Stats {
    let ds = synthetic_benchmark(50.0, points_per_cluster, seed);
    let quantizer = Quantizer::fit(ds.view(), 128).expect("quantize");
    let (grid, _) = quantizer.quantize(ds.view());
    let kernel = Wavelet::Cdf22.density_smoothing_kernel();
    let (mut transformed, down_codec) = adawave_core::sparse_wavelet_smooth(
        &grid,
        quantizer.codec(),
        &kernel,
        BoundaryMode::Zero,
        1,
    )
    .expect("transform");
    transformed.drop_near_zero(1e-9);

    let mean_before = grid.total_mass() / grid.occupied_cells().max(1) as f64;
    let mean_after = transformed.total_mass() / transformed.occupied_cells().max(1) as f64;
    Fig5Stats {
        original_cells: grid.occupied_cells(),
        transformed_cells: transformed.occupied_cells(),
        original_isolated: isolated_cells(&grid, quantizer.codec()),
        transformed_isolated: isolated_cells(&transformed, &down_codec),
        contrast_before: grid.max_density() / mean_before.max(1e-12),
        contrast_after: transformed.max_density() / mean_after.max(1e-12),
    }
}

/// Print the Fig. 5 statistics.
pub fn print_fig5(stats: &Fig5Stats) {
    println!("Fig. 5 — 2-D discrete wavelet transform of the feature space");
    println!(
        "{}",
        format_table(
            &["quantity", "original", "transformed"],
            &[
                vec![
                    "occupied cells".into(),
                    stats.original_cells.to_string(),
                    stats.transformed_cells.to_string(),
                ],
                vec![
                    "isolated (outlier) cells".into(),
                    stats.original_isolated.to_string(),
                    stats.transformed_isolated.to_string(),
                ],
                vec![
                    "max/mean density contrast".into(),
                    fmt3(stats.contrast_before),
                    fmt3(stats.contrast_after),
                ],
            ],
        )
    );
}

/// The dense 2-D subband decomposition used in the Fig. 5 illustration;
/// returns the energy in each subband of the running example's grid.
pub fn fig5_subband_energy(points_per_cluster: usize, seed: u64) -> [(String, f64); 4] {
    let ds = synthetic_benchmark(50.0, points_per_cluster, seed);
    let quantizer = Quantizer::fit(ds.view(), 128).expect("quantize");
    let mut dense = DenseGrid::zeros(&[128, 128]);
    for p in ds.points.rows() {
        let coords: Vec<usize> = quantizer
            .cell_coords(p)
            .into_iter()
            .map(|c| c as usize)
            .collect();
        dense.add(&coords, 1.0);
    }
    let sub = dwt2d(&dense, &Wavelet::Cdf22.filter_bank(), BoundaryMode::Zero).expect("dwt2d");
    let energy = |g: &DenseGrid| g.as_slice().iter().map(|v| v * v).sum::<f64>();
    [
        ("LL (average signal)".to_string(), energy(&sub.ll)),
        ("LH (horizontal)".to_string(), energy(&sub.lh)),
        ("HL (vertical)".to_string(), energy(&sub.hl)),
        ("HH (diagonal)".to_string(), energy(&sub.hh)),
    ]
}

// ---------------------------------------------------------------------------
// Fig. 6 — threshold choosing
// ---------------------------------------------------------------------------

/// The sorted-density curve and the thresholds chosen by each strategy.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Number of grid cells in the curve.
    pub cells: usize,
    /// A decile summary of the sorted density curve (11 values, descending).
    pub density_deciles: Vec<f64>,
    /// `(strategy name, threshold, surviving cells)` per strategy.
    pub thresholds: Vec<(String, f64, usize)>,
}

/// Reproduce Fig. 6: the sorted grid-density curve of the 50%-noise
/// synthetic dataset and the adaptive thresholds chosen on it.
pub fn fig6_threshold(points_per_cluster: usize, seed: u64) -> Fig6Data {
    let ds = synthetic_benchmark(50.0, points_per_cluster, seed);
    let result = AdaWave::default().fit(ds.view()).expect("adawave");
    let sorted = result.sorted_densities().to_vec();
    let m = sorted.len();
    let deciles: Vec<f64> = (0..=10).map(|i| sorted[((m - 1) * i) / 10]).collect();
    let strategies = [
        ThresholdStrategy::ElbowAngle { divisor: 3.0 },
        ThresholdStrategy::ThreeSegment,
        ThresholdStrategy::Kneedle,
        ThresholdStrategy::Quantile(0.2),
    ];
    let thresholds = strategies
        .iter()
        .map(|s| {
            let t = s.choose(&sorted);
            let surviving = sorted.iter().filter(|&&d| d >= t).count();
            (s.name().to_string(), t, surviving)
        })
        .collect();
    Fig6Data {
        cells: m,
        density_deciles: deciles,
        thresholds,
    }
}

/// Print the Fig. 6 data.
pub fn print_fig6(data: &Fig6Data) {
    println!("Fig. 6 — adaptive threshold on the sorted grid densities");
    println!("cells after transform: {}", data.cells);
    println!(
        "density deciles (descending): {}",
        data.density_deciles
            .iter()
            .map(|d| fmt3(*d))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let rows: Vec<Vec<String>> = data
        .thresholds
        .iter()
        .map(|(name, t, surviving)| vec![name.clone(), fmt3(*t), surviving.to_string()])
        .collect();
    println!(
        "{}",
        format_table(&["strategy", "threshold", "surviving cells"], &rows)
    );
}

// ---------------------------------------------------------------------------
// Fig. 7 — the synthetic dataset itself
// ---------------------------------------------------------------------------

/// Print a summary of the Fig. 7 synthetic dataset at a given noise level.
pub fn print_fig7(noise_percent: f64, points_per_cluster: usize, seed: u64) {
    let ds = synthetic_benchmark(noise_percent, points_per_cluster, seed);
    println!(
        "Fig. 7 — synthetic dataset: n = {}, d = {}, clusters = {}, noise = {:.1}%",
        ds.len(),
        ds.dims(),
        ds.cluster_count(),
        ds.noise_fraction() * 100.0
    );
    let rows: Vec<Vec<String>> = ds
        .class_sizes()
        .iter()
        .map(|(label, count)| {
            let kind = if Some(*label) == ds.noise_label {
                "uniform noise"
            } else {
                match label {
                    0 => "gaussian ellipse",
                    1 | 2 => "circular (ring)",
                    _ => "sloping line",
                }
            };
            vec![label.to_string(), kind.to_string(), count.to_string()]
        })
        .collect();
    println!("{}", format_table(&["label", "shape", "points"], &rows));
}

// ---------------------------------------------------------------------------
// Fig. 8 — AMI vs noise percentage
// ---------------------------------------------------------------------------

/// One measurement of the Fig. 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Noise percentage of the dataset.
    pub noise_percent: f64,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// AMI over true cluster members (the paper's protocol).
    pub ami: f64,
    /// Number of clusters reported.
    pub clusters: usize,
}

/// Reproduce Fig. 8: sweep the noise percentage and score every Fig. 8
/// algorithm with the noise-masked AMI.
pub fn fig8_noise_sweep(
    points_per_cluster: usize,
    noise_levels: &[f64],
    seed: u64,
) -> Vec<Fig8Row> {
    let registry = standard_registry();
    let mut rows = Vec::new();
    for &noise in noise_levels {
        let ds = synthetic_benchmark(noise, points_per_cluster, seed);
        let options = RunOptions::new(5, &ds.labels, ds.noise_label);
        for &algorithm in &Algorithm::FIG8 {
            let outcome = run_algorithm_with(&registry, algorithm, ds.view(), &options);
            rows.push(Fig8Row {
                noise_percent: noise,
                algorithm,
                ami: outcome.ami_ignoring_noise(&ds.labels, SYNTHETIC_NOISE_LABEL),
                clusters: outcome.clusters,
            });
        }
    }
    rows
}

/// Print the Fig. 8 series as a noise × algorithm matrix.
pub fn print_fig8(rows: &[Fig8Row]) {
    let mut noise_levels: Vec<f64> = rows.iter().map(|r| r.noise_percent).collect();
    noise_levels.sort_by(f64::total_cmp);
    noise_levels.dedup();
    let mut headers = vec!["noise %".to_string()];
    headers.extend(Algorithm::FIG8.iter().map(|a| a.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table_rows: Vec<Vec<String>> = noise_levels
        .iter()
        .map(|&noise| {
            let mut row = vec![format!("{noise:.0}")];
            for &algorithm in &Algorithm::FIG8 {
                let ami = rows
                    .iter()
                    .find(|r| r.noise_percent == noise && r.algorithm == algorithm)
                    .map(|r| r.ami)
                    .unwrap_or(f64::NAN);
                row.push(fmt3(ami));
            }
            row
        })
        .collect();
    println!("Fig. 8 — AMI (non-noise points) vs noise percentage");
    println!("{}", format_table(&header_refs, &table_rows));
}

// ---------------------------------------------------------------------------
// Fig. 9 — Roadmap case study
// ---------------------------------------------------------------------------

/// Result of the Roadmap case study.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Number of points clustered.
    pub n: usize,
    /// AMI of AdaWave against the city/noise ground truth.
    pub ami: f64,
    /// Number of clusters AdaWave detected.
    pub clusters: usize,
    /// Fraction of points labeled noise.
    pub noise_fraction: f64,
    /// Wall-clock seconds for the AdaWave run.
    pub seconds: f64,
}

/// Reproduce Fig. 9: run AdaWave on the Roadmap-like surrogate.
pub fn fig9_roadmap(n: usize, seed: u64) -> Fig9Result {
    let ds = uci::roadmap_like(n, seed);
    let start = Instant::now();
    let result = AdaWave::default().fit(ds.view()).expect("adawave");
    let seconds = start.elapsed().as_secs_f64();
    let labels = result.to_labels(NOISE_LABEL);
    Fig9Result {
        n: ds.len(),
        ami: ami(&ds.labels, &labels),
        clusters: result.cluster_count(),
        noise_fraction: result.noise_fraction(),
        seconds,
    }
}

/// Print the Fig. 9 result.
pub fn print_fig9(result: &Fig9Result) {
    println!("Fig. 9 — Roadmap case study (surrogate road network)");
    println!(
        "{}",
        format_table(
            &["n", "clusters", "noise fraction", "AMI", "time"],
            &[vec![
                result.n.to_string(),
                result.clusters.to_string(),
                fmt3(result.noise_fraction),
                fmt3(result.ami),
                fmt_seconds(result.seconds),
            ]],
        )
    );
}

// ---------------------------------------------------------------------------
// Fig. 10 — runtime comparison
// ---------------------------------------------------------------------------

/// One runtime measurement.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Total number of objects in the dataset.
    pub n: usize,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Reproduce Fig. 10: wall-clock runtime of the Fig. 10 algorithms as the
/// number of objects grows (75% noise, as in the paper).
pub fn fig10_runtime(points_per_cluster: &[usize], seed: u64) -> Vec<Fig10Row> {
    let registry = standard_registry();
    let mut rows = Vec::new();
    for &per_cluster in points_per_cluster {
        let ds = runtime_scaling_dataset(per_cluster, seed);
        let options = RunOptions::new(5, &ds.labels, ds.noise_label);
        for &algorithm in &Algorithm::FIG10 {
            let outcome = run_algorithm_with(&registry, algorithm, ds.view(), &options);
            rows.push(Fig10Row {
                n: ds.len(),
                algorithm,
                seconds: outcome.seconds,
            });
        }
    }
    rows
}

/// Print the Fig. 10 series as an n × algorithm matrix of runtimes.
pub fn print_fig10(rows: &[Fig10Row]) {
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut headers = vec!["n".to_string()];
    headers.extend(Algorithm::FIG10.iter().map(|a| a.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table_rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            for &algorithm in &Algorithm::FIG10 {
                let secs = rows
                    .iter()
                    .find(|r| r.n == n && r.algorithm == algorithm)
                    .map(|r| r.seconds)
                    .unwrap_or(f64::NAN);
                row.push(fmt_seconds(secs));
            }
            row
        })
        .collect();
    println!("Fig. 10 — runtime vs number of objects (75% noise)");
    println!("{}", format_table(&header_refs, &table_rows));
}

// ---------------------------------------------------------------------------
// Table I — real-world (surrogate) datasets
// ---------------------------------------------------------------------------

/// One cell of Table I.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// AMI against the class labels (after noise reassignment, as in the
    /// paper).
    pub ami: f64,
}

fn dataset_true_k(ds: &Dataset) -> usize {
    ds.cluster_count().max(1)
}

/// Reproduce Table I on the UCI surrogates. `roadmap_n` controls the size
/// of the Roadmap surrogate; `max_points` caps every dataset (0 = no cap)
/// so quick runs stay fast.
pub fn table1(seed: u64, roadmap_n: usize, max_points: usize) -> Vec<Table1Cell> {
    let registry = standard_registry();
    let mut cells = Vec::new();
    for mut ds in table1_datasets(seed, roadmap_n) {
        if max_points > 0 && ds.len() > max_points {
            let mut rng = adawave_data::Rng::new(seed ^ 0xACE);
            ds = ds.subsample(max_points, &mut rng);
        }
        min_max_normalize(&mut ds.points);
        let options = RunOptions {
            reassign_noise: true,
            adawave_scale: 128,
            ..RunOptions::new(dataset_true_k(&ds), &ds.labels, ds.noise_label)
        };
        for &algorithm in &Algorithm::TABLE1 {
            let outcome = run_algorithm_with(&registry, algorithm, ds.view(), &options);
            cells.push(Table1Cell {
                dataset: ds.name.clone(),
                algorithm,
                ami: score_table1(&ds, &outcome),
            });
        }
    }
    cells
}

fn score_table1(ds: &Dataset, outcome: &AlgoOutcome) -> f64 {
    // Table I datasets have no noise ground truth: plain AMI on all points.
    ami(&ds.labels, &outcome.labels)
}

/// Print Table I as a dataset × algorithm matrix plus the per-algorithm
/// average (the paper's "AVG" column).
pub fn print_table1(cells: &[Table1Cell]) {
    let mut datasets: Vec<String> = cells.iter().map(|c| c.dataset.clone()).collect();
    datasets.dedup();
    let mut headers = vec!["dataset".to_string()];
    headers.extend(Algorithm::TABLE1.iter().map(|a| a.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    for dataset in &datasets {
        let mut row = vec![dataset.clone()];
        for &algorithm in &Algorithm::TABLE1 {
            let ami = cells
                .iter()
                .find(|c| &c.dataset == dataset && c.algorithm == algorithm)
                .map(|c| c.ami)
                .unwrap_or(f64::NAN);
            row.push(fmt3(ami));
        }
        table_rows.push(row);
    }
    // AVG row.
    let mut avg_row = vec!["AVG".to_string()];
    for &algorithm in &Algorithm::TABLE1 {
        let values: Vec<f64> = cells
            .iter()
            .filter(|c| c.algorithm == algorithm)
            .map(|c| c.ami)
            .collect();
        let avg = values.iter().sum::<f64>() / values.len().max(1) as f64;
        avg_row.push(fmt3(avg));
    }
    table_rows.push(avg_row);
    println!("Table I — AMI on real-world dataset surrogates");
    println!("{}", format_table(&header_refs, &table_rows));
}

// ---------------------------------------------------------------------------
// Table II — Glass attribute/class correlation
// ---------------------------------------------------------------------------

/// Reproduce Table II: Pearson correlation of every Glass attribute with
/// the class label, on the Glass surrogate.
pub fn table2_glass(seed: u64) -> Vec<(String, f64)> {
    let ds = uci::glass(seed);
    let attribute_names = ["RI", "Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe"];
    let class: Vec<f64> = ds.labels.iter().map(|&l| l as f64).collect();
    attribute_names
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let column: Vec<f64> = ds.points.rows().map(|p| p[j]).collect();
            (name.to_string(), pearson_correlation(&column, &class))
        })
        .collect()
}

/// Print Table II.
pub fn print_table2(correlations: &[(String, f64)]) {
    println!("Table II — each attribute's correlation with class (Glass surrogate)");
    let rows: Vec<Vec<String>> = correlations
        .iter()
        .map(|(name, corr)| vec![name.clone(), format!("{corr:+.4}")])
        .collect();
    println!("{}", format_table(&["attribute", "correlation"], &rows));
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation measurement: a named configuration and its masked AMI on
/// the 75%-noise synthetic benchmark.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which design dimension is varied.
    pub dimension: String,
    /// The variant evaluated.
    pub variant: String,
    /// AMI over true cluster members.
    pub ami: f64,
    /// Clusters found.
    pub clusters: usize,
}

/// Ablate AdaWave's main design choices (threshold strategy, wavelet
/// family, grid scale, connectivity, decomposition level) on the 75%-noise
/// synthetic benchmark.
pub fn ablation(points_per_cluster: usize, seed: u64) -> Vec<AblationRow> {
    let ds = synthetic_benchmark(75.0, points_per_cluster, seed);
    let score = |config: AdaWaveConfig| -> (f64, usize) {
        let result = AdaWave::new(config).fit(ds.view()).expect("adawave");
        (
            adawave_metrics::ami_ignoring_noise(
                &ds.labels,
                &result.to_labels(NOISE_LABEL),
                SYNTHETIC_NOISE_LABEL,
            ),
            result.cluster_count(),
        )
    };
    let mut rows = Vec::new();

    for strategy in [
        ThresholdStrategy::ElbowAngle { divisor: 3.0 },
        ThresholdStrategy::ThreeSegment,
        ThresholdStrategy::Kneedle,
        ThresholdStrategy::Quantile(0.2),
        ThresholdStrategy::Fixed(0.0),
    ] {
        let (ami, clusters) = score(AdaWaveConfig::builder().threshold(strategy).build());
        rows.push(AblationRow {
            dimension: "threshold".into(),
            variant: strategy.name().into(),
            ami,
            clusters,
        });
    }
    for wavelet in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Cdf22] {
        let (ami, clusters) = score(AdaWaveConfig::builder().wavelet(wavelet).build());
        rows.push(AblationRow {
            dimension: "wavelet".into(),
            variant: wavelet.name().into(),
            ami,
            clusters,
        });
    }
    for scale in [32, 64, 128, 256] {
        let (ami, clusters) = score(AdaWaveConfig::builder().scale(scale).build());
        rows.push(AblationRow {
            dimension: "scale".into(),
            variant: scale.to_string(),
            ami,
            clusters,
        });
    }
    for connectivity in Connectivity::ALL {
        let (ami, clusters) = score(AdaWaveConfig::builder().connectivity(connectivity).build());
        rows.push(AblationRow {
            dimension: "connectivity".into(),
            variant: format!("{connectivity:?}"),
            ami,
            clusters,
        });
    }
    for levels in [1u32, 2, 3] {
        let (ami, clusters) = score(AdaWaveConfig::builder().levels(levels).build());
        rows.push(AblationRow {
            dimension: "levels".into(),
            variant: levels.to_string(),
            ami,
            clusters,
        });
    }
    rows
}

/// Print the ablation table.
pub fn print_ablation(rows: &[AblationRow]) {
    println!("Ablation — AdaWave design choices on the 75%-noise benchmark");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dimension.clone(),
                r.variant.clone(),
                fmt3(r.ami),
                r.clusters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["dimension", "variant", "AMI", "clusters"], &table_rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_threshold_separates_regimes_on_a_small_copy() {
        let data = fig6_threshold(200, 3);
        assert!(data.cells > 10);
        assert_eq!(data.density_deciles.len(), 11);
        // Deciles are non-increasing.
        for w in data.density_deciles.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(data.thresholds.len(), 4);
        for (_, t, surviving) in &data.thresholds {
            assert!(*t >= 0.0);
            assert!(*surviving <= data.cells);
        }
    }

    #[test]
    fn fig5_subband_energy_is_pinned_bit_for_bit() {
        // `dwt2d` (both bands of every axis pass; no other caller runs the
        // detail band) on a small copy of the running example, pinned bit
        // for bit: a change to the filter loop's summation order fails here.
        let expected: [(&str, u64); 4] = [
            ("LL (average signal)", 0x408d1fde00000000),
            ("LH (horizontal)", 0x4070095000000000),
            ("HL (vertical)", 0x4072f04000000000),
            ("HH (diagonal)", 0x406330ffffffffff),
        ];
        let energies = fig5_subband_energy(100, 5);
        for ((name, energy), (want_name, want_bits)) in energies.iter().zip(expected) {
            assert_eq!(name, want_name);
            assert_eq!(energy.to_bits(), want_bits, "{name}: {energy}");
        }
    }

    #[test]
    fn fig5_transform_reduces_isolated_cells() {
        let stats = fig5_transform(300, 5);
        assert!(stats.original_cells > 0);
        assert!(stats.transformed_cells > 0);
        assert!(
            stats.transformed_isolated <= stats.original_isolated,
            "isolated cells should not increase: {} -> {}",
            stats.original_isolated,
            stats.transformed_isolated
        );
    }

    #[test]
    fn table2_correlations_have_the_papers_signs() {
        let corr = table2_glass(11);
        assert_eq!(corr.len(), 9);
        let get = |name: &str| corr.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("Mg") < -0.4, "Mg {}", get("Mg"));
        assert!(get("Al") > 0.3, "Al {}", get("Al"));
        assert!(get("Na") > 0.2, "Na {}", get("Na"));
        assert!(get("K").abs() < 0.3, "K {}", get("K"));
    }

    #[test]
    fn fig2_rows_cover_the_four_algorithms() {
        let rows = fig2_running_example(120, 2);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.algorithm == Algorithm::AdaWave));
        for r in &rows {
            assert!((-0.1..=1.0).contains(&r.ami), "{:?}", r);
        }
    }
}
