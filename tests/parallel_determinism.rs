//! The workspace's thread-count determinism contract, asserted end to end:
//! for **every** algorithm in the standard registry, fitting with
//! `threads=1` and with `threads=2..=8` must produce label-for-label
//! identical clusterings. The `adawave-runtime` primitives split work at
//! fixed chunk boundaries and merge partial results in chunk order, so the
//! thread count can never change an output — this suite is what holds that
//! promise at the API surface (CI additionally re-runs the whole test
//! suite under `ADAWAVE_THREADS=1` and `ADAWAVE_THREADS=4`).

use adawave::{standard_registry, AlgorithmSpec, ClusterError, PointMatrix, Runtime};
use adawave_baselines::{kmeans, KMeansConfig};
use adawave_data::{shapes, Rng};
use adawave_grid::Quantizer;
use proptest::prelude::*;

/// Two blobs plus uniform background noise — the regime every algorithm
/// is meant to handle (the same fixture family as `registry_parity`).
fn toy_points() -> PointMatrix {
    let mut rng = Rng::new(5);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.02, 0.02], 120);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.02, 0.02], 120);
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 60);
    points
}

/// A spec with sensible per-algorithm parameters (mirrors the parity
/// suite) plus the uniform `threads` parameter under test.
fn spec(name: &str, threads: usize) -> AlgorithmSpec {
    let base = AlgorithmSpec::new(name).with("threads", threads);
    match name {
        "adawave" | "wavecluster" => base.with("scale", 32),
        "kmeans" | "em" | "stsc" | "ric" => base.with("k", 3).with("seed", 7),
        "dbscan" => base.with("eps", 0.08).with("min-points", 8),
        "skinnydip" | "unidip" | "dipmeans" => base.with("seed", 7),
        "optics" => base.with("eps", 0.08),
        "meanshift" => base.with("bandwidth", 0.1),
        "sync" => base.with("eps", 0.08),
        _ => base, // sting, clique: defaults
    }
}

#[test]
fn every_registered_algorithm_is_thread_count_invariant() {
    let registry = standard_registry();
    let points = toy_points();
    assert!(registry.len() >= 15, "registry shrank");
    for name in registry.names() {
        let sequential = registry
            .fit(&spec(name, 1), points.view())
            .unwrap_or_else(|e| panic!("{name} sequential: {e}"));
        for threads in [2, 4, 8] {
            let parallel = registry
                .fit(&spec(name, threads), points.view())
                .unwrap_or_else(|e| panic!("{name} threads={threads}: {e}"));
            assert_eq!(
                sequential, parallel,
                "{name}: labels changed between threads=1 and threads={threads}"
            );
        }
    }
}

#[test]
fn threads_param_does_not_weaken_the_invalid_input_contract() {
    // Empty and zero-dimensional inputs stay typed `InvalidInput` errors
    // for every thread count — the parallel partitioning must never turn
    // them into panics or silent successes.
    let registry = standard_registry();
    let empty = PointMatrix::new(2);
    let zero_dim = PointMatrix::from_rows(vec![vec![], vec![]]).expect("zero-dim rows");
    for name in registry.names() {
        for threads in [1usize, 4] {
            let clusterer = registry
                .resolve(&AlgorithmSpec::new(name).with("threads", threads))
                .unwrap();
            for bad in [&empty, &zero_dim] {
                assert!(
                    matches!(
                        clusterer.fit(bad.view()),
                        Err(ClusterError::InvalidInput { .. })
                    ),
                    "{name} threads={threads}: degenerate input must stay InvalidInput"
                );
            }
        }
    }
}

/// Random rectangular point sets for the property checks below.
fn random_points() -> impl Strategy<Value = PointMatrix> {
    (
        1usize..4,
        prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 3), 2..60),
    )
        .prop_map(|(d, rows)| {
            PointMatrix::from_rows(rows.into_iter().map(|r| r[..d].to_vec()).collect())
                .expect("constant-width rows")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quantizer_counts_match_sequential_for_1_to_8_threads(
        points in random_points(),
        threads in 1usize..9,
        tile in 1usize..4,
    ) {
        // Tile the random rows (with jitter) so larger cases cross the
        // parallel chunk boundary while small ones fit in one chunk.
        let mut tiled = PointMatrix::new(points.dims());
        let mut jitter = 0.0;
        for _ in 0..(tile * 120) {
            jitter += 1e-3;
            for row in points.rows() {
                let moved: Vec<f64> = row.iter().map(|v| v + jitter).collect();
                tiled.push_row(&moved);
            }
        }
        let quantizer = Quantizer::fit(tiled.view(), 16).unwrap();
        let (grid_seq, keys_seq) = quantizer.quantize_with(tiled.view(), Runtime::sequential());
        let (grid_par, keys_par) =
            quantizer.quantize_with(tiled.view(), Runtime::with_threads(threads));
        prop_assert_eq!(grid_seq, grid_par);
        prop_assert_eq!(keys_seq, keys_par);
    }

    #[test]
    fn kmeans_labels_match_sequential_for_1_to_8_threads(
        points in random_points(),
        threads in 1usize..9,
        k in 1usize..5,
        tile in 1usize..4,
    ) {
        let mut tiled = PointMatrix::new(points.dims());
        let mut jitter = 0.0;
        for _ in 0..(tile * 40) {
            jitter += 0.05;
            for row in points.rows() {
                let moved: Vec<f64> = row.iter().map(|v| v + jitter).collect();
                tiled.push_row(&moved);
            }
        }
        let sequential = kmeans(
            tiled.view(),
            &KMeansConfig {
                runtime: Runtime::sequential(),
                ..KMeansConfig::new(k, 11)
            },
        );
        let parallel = kmeans(
            tiled.view(),
            &KMeansConfig {
                runtime: Runtime::with_threads(threads),
                ..KMeansConfig::new(k, 11)
            },
        );
        prop_assert_eq!(&sequential.clustering, &parallel.clustering);
        prop_assert_eq!(&sequential.centroids, &parallel.centroids);
        prop_assert_eq!(sequential.inertia.to_bits(), parallel.inertia.to_bits());
    }
}
