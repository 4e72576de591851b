//! Serving-path microbenchmark: what the fit/predict split buys.
//!
//! Trains the two persistable models on the 100k-point synthetic workload
//! and measures the *serving* side — the paper's per-point labeling step,
//! detached from training:
//!
//! * **batch predict throughput** — `Model::predict` over the full
//!   workload (points/second), and
//! * **single-point latency** — `Model::predict_one` per call, the number
//!   a request-per-query service sees.
//!
//! AdaWave serves by grid-cell hash lookup (O(1) per point, independent
//! of n and of the cluster count); k-means scans its k centroids per
//! point. Label parity of `predict` against the training fit is asserted
//! in-process before anything is timed.
//!
//! Run with `cargo run --release -p adawave-bench --bin predict_bench`
//! (writes `BENCH_predict.json` into the current directory); pass
//! `--smoke` for a seconds-long variant driving the same code paths.

use std::time::Instant;

use adawave::{standard_registry, AlgorithmSpec, Model};
use adawave_bench::harness::{best_of, Bench, Row};

const REPEATS: usize = 7;

fn main() {
    // 5 clusters x 5000 points + 75% noise (100_000 points in the full
    // run — the workload of the other BENCH_*.json files).
    let bench = Bench::from_args("predict", 5_000);
    let repeats = bench.pick(REPEATS, 2);
    let points = bench.points();
    let n = points.len();
    let single_queries = n.min(20_000);
    let mut report = bench.report(
        "the fit/predict split serves out-of-sample points without refitting: AdaWave predicts by grid-cell hash lookup (cost independent of n), kmeans by a k-row centroid scan",
        "asserted in-process before timing: each model's predict reproduces its training labels exactly",
        Row::new()
            .int("single_point_queries", single_queries)
            .int("repeats", repeats)
            .text("timing", "best-of"),
    );

    let registry = standard_registry();
    let specs = [
        (
            "adawave",
            "grid-cell hash lookup",
            AlgorithmSpec::new("adawave"),
        ),
        (
            "kmeans",
            "nearest-centroid scan (k=5)",
            AlgorithmSpec::new("kmeans").with("k", 5).with("seed", 7),
        ),
    ];

    for (algorithm, rule, spec) in specs {
        let fit_start = Instant::now();
        let outcome = registry.fit_model(&spec, points).expect(algorithm);
        let fit_seconds = fit_start.elapsed().as_secs_f64();
        // Parity gate: the numbers below only count if serving reproduces
        // the training labels exactly.
        assert_eq!(
            outcome.model.predict(points).expect(algorithm),
            outcome.clustering,
            "{algorithm}: predict diverged from fit"
        );
        let model: &dyn Model = outcome.model.as_ref();

        let batch_seconds = best_of(repeats, || {
            model.predict(points).expect(algorithm).cluster_count()
        });
        let single_seconds = best_of(repeats, || {
            let mut assigned = 0usize;
            for i in 0..single_queries {
                if model.predict_one(points.row(i)).is_some() {
                    assigned += 1;
                }
            }
            assigned
        });
        report.row(
            Row::new()
                .text("algorithm", algorithm)
                .text("serving_rule", rule)
                .num("fit_seconds", fit_seconds)
                .num("batch_predict_seconds", batch_seconds)
                .num("batch_points_per_second", n as f64 / batch_seconds)
                .num(
                    "single_point_latency_nanos",
                    single_seconds * 1e9 / single_queries as f64,
                ),
        );
    }
    report.finish();
}
