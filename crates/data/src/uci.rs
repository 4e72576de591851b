//! Surrogates for the UCI datasets of Table I and the Roadmap case study.
//!
//! The UCI repository is not reachable from this offline environment, so
//! each dataset is replaced by a seeded synthetic surrogate with the same
//! number of points, dimensionality and class structure (class counts,
//! imbalance, separability character). These are the properties the
//! paper's Table I comparison depends on: a grid method's cost and its
//! cluster recovery follow `n`, `d` and the class layout, not the
//! attributes' meaning. `experiments table1` regenerates the resulting
//! numbers.
//!
//! | name        | n       | d  | classes | character                              |
//! |-------------|---------|----|---------|-----------------------------------------|
//! | Seeds       | 210     | 7  | 3       | moderately overlapping Gaussians        |
//! | Roadmap     | 434,874 | 2  | 7       | dense city blobs + arterial "noise"     |
//! | Iris        | 150     | 4  | 3       | one separable class + two overlapping   |
//! | Glass       | 214     | 9  | 6       | weak per-attribute class correlation    |
//! | DUMDH       | 869     | 13 | 4       | high-d, moderate overlap                |
//! | HTRU2       | 17,898  | 9  | 2       | heavily imbalanced (≈9% positives)      |
//! | Dermatology | 366     | 33 | 6       | very high-d, blocky attribute structure |
//! | Motor       | 94      | 3  | 3       | tiny, well separated                    |
//! | Wholesale   | 440     | 8  | 2       | skewed spending-like features           |

use adawave_api::PointMatrix;

use crate::dataset::Dataset;
use crate::rng::Rng;
use crate::shapes;

/// Generate a generic Gaussian-mixture surrogate.
///
/// `class_sizes[k]` points are drawn for class `k` around a random centre
/// in `[0, 1]^dims`; `spread` controls the per-class standard deviation and
/// `separation` scales how far class centres are pushed apart.
fn gaussian_mixture(
    name: &str,
    rng: &mut Rng,
    dims: usize,
    class_sizes: &[usize],
    spread: f64,
    separation: f64,
) -> Dataset {
    let mut points = PointMatrix::new(dims);
    let mut labels = Vec::new();
    for (class, &size) in class_sizes.iter().enumerate() {
        // Deterministic, well-spread class centres.
        let center: Vec<f64> = (0..dims)
            .map(|_| 0.5 + separation * (rng.uniform() - 0.5))
            .collect();
        let std_dev: Vec<f64> = (0..dims)
            .map(|_| spread * rng.uniform_range(0.6, 1.4))
            .collect();
        shapes::gaussian_blob(&mut points, rng, &center, &std_dev, size);
        labels.extend(std::iter::repeat_n(class, size));
    }
    Dataset::new(name, points, labels, None)
}

/// Seeds surrogate: 210 points, 7 attributes, 3 balanced wheat varieties
/// with moderate overlap.
pub fn seeds(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    gaussian_mixture("Seeds", &mut rng, 7, &[70, 70, 70], 0.09, 0.55)
}

/// Iris surrogate: 150 points, 4 attributes, 3 classes of 50. One class is
/// linearly separable from the other two, which overlap — the structure the
/// real Iris data is famous for.
pub fn iris(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(4);
    let mut labels = Vec::new();
    // "setosa": clearly separated.
    shapes::gaussian_blob(
        &mut points,
        &mut rng,
        &[0.2, 0.7, 0.15, 0.1],
        &[0.035, 0.04, 0.02, 0.015],
        50,
    );
    labels.extend(std::iter::repeat_n(0, 50));
    // "versicolor" and "virginica": adjacent and partially overlapping.
    shapes::gaussian_blob(
        &mut points,
        &mut rng,
        &[0.6, 0.35, 0.55, 0.45],
        &[0.05, 0.04, 0.05, 0.05],
        50,
    );
    labels.extend(std::iter::repeat_n(1, 50));
    shapes::gaussian_blob(
        &mut points,
        &mut rng,
        &[0.72, 0.38, 0.70, 0.65],
        &[0.06, 0.04, 0.06, 0.07],
        50,
    );
    labels.extend(std::iter::repeat_n(2, 50));
    Dataset::new("Iris", points, labels, None)
}

/// Glass surrogate: 214 points, 9 attributes (RI, Na, Mg, Al, Si, K, Ca,
/// Ba, Fe), 6 imbalanced classes. Attributes are generated so that their
/// Pearson correlation with the class index approximates Table II of the
/// paper: Mg strongly negative, Na/Al/Ba positive, K/Ca ≈ 0, …
pub fn glass(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    // Class sizes of the real Glass data: 70, 76, 17, 13, 9, 29.
    let class_sizes = [70usize, 76, 17, 13, 9, 29];
    // Target correlation of each attribute with the class label (Table II).
    let target_corr = [-0.16, 0.50, -0.74, 0.60, 0.15, -0.01, 0.001, 0.58, -0.19];
    let n: usize = class_sizes.iter().sum();
    let mut points = PointMatrix::with_capacity(target_corr.len(), n);
    let mut labels = Vec::with_capacity(n);
    // Class index scaled to [0, 1] drives the correlated component.
    let max_class = (class_sizes.len() - 1) as f64;
    let mut row = [0.0; 9];
    for (class, &size) in class_sizes.iter().enumerate() {
        let z = class as f64 / max_class;
        for _ in 0..size {
            for (v, &rho) in row.iter_mut().zip(target_corr.iter()) {
                // attribute = rho * class-signal + sqrt(1 - rho^2) * noise
                let noise = rng.normal() * 0.28;
                *v = rho * (z - 0.5) + (1.0 - rho * rho).sqrt() * noise + 0.5;
            }
            points.push_row(&row);
            labels.push(class);
        }
    }
    Dataset::new("Glass", points, labels, None)
}

/// DUMDH surrogate: 869 points, 13 attributes, 4 moderately overlapping
/// classes.
pub fn dumdh(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    gaussian_mixture("DUMDH", &mut rng, 13, &[260, 230, 210, 169], 0.10, 0.6)
}

/// HTRU2 surrogate: 17,898 points, 9 attributes, 2 classes with the real
/// data's ≈9% positive-class imbalance; the positive class is shifted but
/// overlaps the bulk.
pub fn htru2(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(9);
    let mut labels = Vec::new();
    let negatives = 16_259usize;
    let positives = 1_639usize;
    let neg_center = vec![0.45; 9];
    let neg_std = vec![0.07; 9];
    shapes::gaussian_blob(&mut points, &mut rng, &neg_center, &neg_std, negatives);
    labels.extend(std::iter::repeat_n(0, negatives));
    let pos_center: Vec<f64> = (0..9).map(|j| if j < 4 { 0.72 } else { 0.5 }).collect();
    let pos_std = vec![0.09; 9];
    shapes::gaussian_blob(&mut points, &mut rng, &pos_center, &pos_std, positives);
    labels.extend(std::iter::repeat_n(1, positives));
    Dataset::new("HTRU2", points, labels, None)
}

/// Dermatology surrogate: 366 points, 33 attributes, 6 classes with blocky
/// per-class attribute activations (clinical/histopathological feature
/// groups), which keeps classes separable despite the high dimension.
pub fn dermatology(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let class_sizes = [112usize, 61, 72, 49, 52, 20];
    let dims = 33usize;
    let mut points = PointMatrix::new(dims);
    let mut labels = Vec::new();
    let mut row = vec![0.0; dims];
    for (class, &size) in class_sizes.iter().enumerate() {
        // Each class activates a distinct block of ~6 attributes.
        let block_start = class * 5;
        for _ in 0..size {
            for (j, v) in row.iter_mut().enumerate() {
                let base = if j >= block_start && j < block_start + 6 {
                    0.75
                } else {
                    0.25
                };
                *v = (base + rng.normal() * 0.08).clamp(0.0, 1.0);
            }
            points.push_row(&row);
            labels.push(class);
        }
    }
    Dataset::new("Dermatology", points, labels, None)
}

/// Motor surrogate: 94 points, 3 attributes, 3 well-separated classes (most
/// algorithms in the paper reach AMI 1.0 on the real data).
pub fn motor(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(3);
    let mut labels = Vec::new();
    let centers = [[0.15, 0.2, 0.2], [0.5, 0.75, 0.5], [0.85, 0.25, 0.8]];
    let sizes = [32usize, 31, 31];
    for (class, (&size, center)) in sizes.iter().zip(centers.iter()).enumerate() {
        shapes::gaussian_blob(&mut points, &mut rng, center, &[0.03, 0.03, 0.03], size);
        labels.extend(std::iter::repeat_n(class, size));
    }
    Dataset::new("Motor", points, labels, None)
}

/// Wholesale-customers surrogate: 440 points, 8 attributes, 2 channels with
/// skewed (log-normal-like) spending features.
pub fn wholesale(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let sizes = [298usize, 142];
    let mut points = PointMatrix::new(8);
    let mut labels = Vec::new();
    let mut row = [0.0; 8];
    for (class, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            for (j, v) in row.iter_mut().enumerate() {
                // Channel shifts a subset of spending categories.
                let shift = if (j < 3) == (class == 0) { 0.35 } else { 0.0 };
                let log_normal = (rng.normal() * 0.4).exp() * 0.15;
                *v = (0.2 + shift + log_normal).min(1.5);
            }
            points.push_row(&row);
            labels.push(class);
        }
    }
    Dataset::new("Wholesale", points, labels, None)
}

/// Roadmap-like surrogate (Fig. 9 and the Table I "Roadmap" row): a 2-D
/// road network where a handful of dense city areas sit in a sea of
/// arterial roads and sparse countryside segments.
///
/// `n` is the total number of points (the real dataset has 434,874). Points
/// in cities are labeled by city id; arterials and countryside get the
/// noise label (the paper: "the majority of road segments can be termed as
/// noise").
pub fn roadmap_like(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    // City centres roughly mimicking population centres in a 185 x 135 box
    // (normalized to [0,1] x [0,0.73]).
    let cities: [(f64, f64, f64); 7] = [
        (0.55, 0.42, 0.030), // large city ("Aalborg")
        (0.48, 0.62, 0.022), // "Hjørring"
        (0.72, 0.60, 0.020), // "Frederikshavn"
        (0.30, 0.30, 0.018),
        (0.68, 0.22, 0.016),
        (0.22, 0.55, 0.015),
        (0.82, 0.40, 0.014),
    ];
    let city_fraction = 0.45;
    let city_points_total = (n as f64 * city_fraction) as usize;
    let weights: Vec<f64> = cities.iter().map(|c| c.2).collect();
    let weight_sum: f64 = weights.iter().sum();

    let mut points = PointMatrix::with_capacity(2, n);
    let mut labels = Vec::with_capacity(n);
    for (id, &(cx, cy, w)) in cities.iter().enumerate() {
        let count = (city_points_total as f64 * w / weight_sum) as usize;
        shapes::gaussian_blob(&mut points, &mut rng, &[cx, cy], &[w, w * 0.8], count);
        labels.extend(std::iter::repeat_n(id, count));
    }
    let noise_label = cities.len();

    // Arterial roads connecting the three largest cities and the box corners.
    let arterials = [
        ((0.55, 0.42), (0.48, 0.62)),
        ((0.55, 0.42), (0.72, 0.60)),
        ((0.55, 0.42), (0.30, 0.30)),
        ((0.30, 0.30), (0.05, 0.05)),
        ((0.72, 0.60), (0.95, 0.70)),
        ((0.68, 0.22), (0.95, 0.05)),
        ((0.22, 0.55), (0.05, 0.70)),
        ((0.55, 0.42), (0.68, 0.22)),
    ];
    let remaining = n.saturating_sub(points.len());
    let arterial_points = remaining / 2;
    let per_road = arterial_points / arterials.len();
    for &(start, end) in &arterials {
        shapes::line_segment(&mut points, &mut rng, start, end, 0.006, per_road);
        labels.extend(std::iter::repeat_n(noise_label, per_road));
    }
    // Countryside: sparse uniform road segments over the whole region.
    let countryside = n.saturating_sub(points.len());
    shapes::uniform_box(
        &mut points,
        &mut rng,
        &[0.0, 0.0],
        &[1.0, 0.73],
        countryside,
    );
    labels.extend(std::iter::repeat_n(noise_label, countryside));

    Dataset::new("Roadmap", points, labels, Some(noise_label))
}

/// The nine Table-I datasets in the paper's column order, using the real
/// datasets' sizes. `roadmap_n` lets callers shrink the Roadmap surrogate
/// (the full 434,874 points are only needed for the headline experiment).
pub fn table1_datasets(seed: u64, roadmap_n: usize) -> Vec<Dataset> {
    vec![
        seeds(seed),
        roadmap_like(roadmap_n, seed ^ 0x1),
        iris(seed ^ 0x2),
        glass(seed ^ 0x3),
        dumdh(seed ^ 0x4),
        htru2(seed ^ 0x5),
        dermatology(seed ^ 0x6),
        motor(seed ^ 0x7),
        wholesale(seed ^ 0x8),
    ]
}

/// The real Roadmap dataset size, for the full-scale experiment.
pub const ROADMAP_FULL_SIZE: usize = 434_874;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_dimensions_match_table1() {
        let expectations: [(&str, usize, usize, usize); 8] = [
            ("Seeds", 210, 7, 3),
            ("Iris", 150, 4, 3),
            ("Glass", 214, 9, 6),
            ("DUMDH", 869, 13, 4),
            ("HTRU2", 17_898, 9, 2),
            ("Dermatology", 366, 33, 6),
            ("Motor", 94, 3, 3),
            ("Wholesale", 440, 8, 2),
        ];
        let datasets = [
            seeds(1),
            iris(1),
            glass(1),
            dumdh(1),
            htru2(1),
            dermatology(1),
            motor(1),
            wholesale(1),
        ];
        for (ds, (name, n, d, k)) in datasets.iter().zip(expectations.iter()) {
            assert_eq!(&ds.name, name);
            assert_eq!(ds.len(), *n, "{name}: wrong n");
            assert_eq!(ds.dims(), *d, "{name}: wrong d");
            assert_eq!(ds.class_count(), *k, "{name}: wrong class count");
        }
    }

    #[test]
    fn htru2_is_imbalanced_like_the_real_data() {
        let ds = htru2(3);
        let positives = ds.labels.iter().filter(|&&l| l == 1).count();
        let rate = positives as f64 / ds.len() as f64;
        assert!((rate - 0.0916).abs() < 0.01, "positive rate {rate}");
    }

    #[test]
    fn glass_correlations_approximate_table2() {
        let ds = glass(5);
        let class: Vec<f64> = ds.labels.iter().map(|&l| l as f64).collect();
        // Compute Pearson correlation of attribute 2 (Mg) and attribute 3 (Al).
        let corr = |attr: usize| -> f64 {
            let x: Vec<f64> = ds.points.rows().map(|p| p[attr]).collect();
            let n = x.len() as f64;
            let mx = x.iter().sum::<f64>() / n;
            let my = class.iter().sum::<f64>() / n;
            let mut sxy = 0.0;
            let mut sxx = 0.0;
            let mut syy = 0.0;
            for i in 0..x.len() {
                let dx = x[i] - mx;
                let dy = class[i] - my;
                sxy += dx * dy;
                sxx += dx * dx;
                syy += dy * dy;
            }
            sxy / (sxx.sqrt() * syy.sqrt())
        };
        assert!(
            corr(2) < -0.5,
            "Mg should be strongly negative: {}",
            corr(2)
        );
        assert!(corr(3) > 0.35, "Al should be positive: {}", corr(3));
        assert!(corr(5).abs() < 0.25, "K should be near zero: {}", corr(5));
    }

    #[test]
    fn iris_setosa_is_separable() {
        let ds = iris(7);
        // Minimum distance between class 0 and the others is larger than the
        // typical within-class spread of classes 1/2.
        let class0: Vec<&[f64]> = ds
            .points
            .rows()
            .zip(ds.labels.iter())
            .filter(|(_, &l)| l == 0)
            .map(|(p, _)| p)
            .collect();
        let others: Vec<&[f64]> = ds
            .points
            .rows()
            .zip(ds.labels.iter())
            .filter(|(_, &l)| l != 0)
            .map(|(p, _)| p)
            .collect();
        let min_cross = class0
            .iter()
            .flat_map(|a| {
                others.iter().map(move |b| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt()
                })
            })
            .fold(f64::MAX, f64::min);
        assert!(
            min_cross > 0.1,
            "setosa should be separated, min dist {min_cross}"
        );
    }

    #[test]
    fn roadmap_has_dense_cities_and_majority_noise() {
        let ds = roadmap_like(20_000, 11);
        assert_eq!(ds.dims(), 2);
        assert!(ds.len() >= 19_900 && ds.len() <= 20_000);
        assert!(ds.noise_fraction() > 0.5, "noise {}", ds.noise_fraction());
        assert_eq!(ds.cluster_count(), 7);
    }

    #[test]
    fn roadmap_full_size_constant() {
        assert_eq!(ROADMAP_FULL_SIZE, 434_874);
    }

    #[test]
    fn table1_bundle_has_nine_datasets() {
        let all = table1_datasets(2, 5_000);
        assert_eq!(all.len(), 9);
        assert_eq!(all[1].name, "Roadmap");
        assert!(all[1].len() <= 5_000);
    }

    #[test]
    fn surrogates_are_deterministic() {
        assert_eq!(seeds(9), seeds(9));
        assert_eq!(glass(9), glass(9));
        assert_ne!(seeds(9), seeds(10));
    }

    #[test]
    fn dermatology_classes_have_distinct_blocks() {
        let ds = dermatology(13);
        // Mean of attribute 2 should be high for class 0, low for class 5.
        let mean_attr = |class: usize, attr: usize| -> f64 {
            let vals: Vec<f64> = ds
                .points
                .rows()
                .zip(ds.labels.iter())
                .filter(|(_, &l)| l == class)
                .map(|(p, _)| p[attr])
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean_attr(0, 2) > 0.6);
        assert!(mean_attr(5, 2) < 0.4);
        assert!(mean_attr(5, 27) > 0.6);
    }
}
