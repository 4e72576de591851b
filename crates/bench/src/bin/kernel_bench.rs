//! Raw-speed kernel microbenchmarks: what the shared autovectorized
//! distance/argmin kernels, the f32 quantization lane, the cell-grid /
//! kd-index neighbor acceleration and the contiguous wavelet-lane fast
//! path buy over the scalar paths they replaced.
//!
//! Every timed claim is gated by an in-process parity assertion against an
//! embedded copy of the pre-optimization reference implementation: the
//! f64 kernels must be *bit-identical* to their scalar references, the
//! accelerated neighbor paths label-identical, and the opt-in f32 lane is
//! held to its own documented contract (deterministic, near-total cell
//! agreement with f64) rather than to bitwise equality.
//!
//! Run with `cargo run --release -p adawave-bench --bin kernel_bench`
//! (writes `BENCH_kernels.json` into the current directory); pass
//! `--smoke` for a seconds-long variant that still runs every parity
//! assertion — the mode CI drives under multiple thread counts.

use adawave_api::{Model as _, PointsView, Precision};
use adawave_baselines::{dbscan, KdTree, NearestTrainingModel};
use adawave_bench::harness::{best_of, Bench, Row};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_grid::{BoundingBox, Quantizer};
use adawave_linalg::{nearest_row, squared_distance};
use adawave_runtime::Runtime;
use adawave_wavelet::{dwt1d_lowpass, BoundaryMode, DenseGrid, Wavelet};

const REPEATS: usize = 7;

/// The pre-optimization scalar Euclidean distance (the deleted local
/// `euclidean` of `optics.rs` / `metrics::internal`): a generic fold with
/// the square root taken per call.
fn scalar_euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The pre-optimization squared distance: the same generic fold without
/// the root — what the old k-means assignment loop inlined.
fn scalar_squared(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
}

/// One timed kernel against the scalar path it replaced.
fn kernel_row(
    kernel: &str,
    reference: &str,
    ref_seconds: f64,
    new_seconds: f64,
    parity: &str,
) -> Row {
    Row::new()
        .text("kernel", kernel)
        .text("reference", reference)
        .num("reference_seconds", ref_seconds)
        .num("optimized_seconds", new_seconds)
        .num("speedup", ref_seconds / new_seconds)
        .text("parity", parity)
}

fn main() {
    let bench = Bench::from_args("kernels", 5_000);
    let repeats = bench.pick(REPEATS, 2);
    let points = bench.points();
    let n = points.len();
    let mut report = bench.report(
        "each optimized kernel is timed against an embedded copy of the scalar path it replaced, and a parity assertion gates every timed claim: f64 kernels are bit-identical to their references, accelerated neighbor paths are label-identical, and the opt-in f32 lane is deterministic across thread counts with near-total cell agreement",
        "asserted in-process before timing: each row's parity check, plus full f64 and f32 AdaWave fits identical at 1, 2 and 4 threads",
        Row::new().int("repeats", repeats).text("timing", "best-of"),
    );

    // ---- kernel 1: farthest-point scan with the root deferred ------------
    // The dunn-index / OPTICS core-distance rewrite: order statistics of
    // distances commute with sqrt, so the scan compares squared distances
    // and takes one root at the edge instead of n roots inside the loop.
    {
        let queries: Vec<&[f64]> = (0..8).map(|i| points.row(i * (n / 8))).collect();
        let reference = |q: &[f64]| {
            let mut max = 0.0f64;
            for p in points.rows() {
                let d = scalar_euclidean(q, p);
                if d > max {
                    max = d;
                }
            }
            max
        };
        let optimized = |q: &[f64]| {
            let mut max_sq = 0.0f64;
            for p in points.rows() {
                let d = squared_distance(q, p);
                if d > max_sq {
                    max_sq = d;
                }
            }
            max_sq.sqrt()
        };
        for &q in &queries {
            assert_eq!(
                reference(q).to_bits(),
                optimized(q).to_bits(),
                "distance-scan: deferred sqrt diverged"
            );
        }
        let ref_seconds = best_of(repeats, || {
            queries
                .iter()
                .map(|&q| reference(q) as usize)
                .sum::<usize>()
        });
        let new_seconds = best_of(repeats, || {
            queries
                .iter()
                .map(|&q| optimized(q) as usize)
                .sum::<usize>()
        });
        report.row(kernel_row(
            "distance-scan-sqrt-deferred",
            "scalar euclidean with sqrt per pair",
            ref_seconds,
            new_seconds,
            "bit-identical maxima on 8 query points",
        ));
    }

    // ---- kernel 2: k-means assignment argmin ------------------------------
    // The old lloyd loop: generic scalar squared distance per centroid,
    // running argmin in the caller. The new path is the fused
    // dim-dispatched `nearest_row`.
    {
        let k = 16usize;
        let dims = points.dims();
        let centroids: Vec<f64> = (0..k)
            .flat_map(|c| points.row(c * (n / k)).to_vec())
            .collect();
        let reference = || {
            let mut assignment = Vec::with_capacity(n);
            for p in points.rows() {
                let mut best = 0usize;
                let mut best_d = f64::MAX;
                for (c, centroid) in centroids.chunks_exact(dims).enumerate() {
                    let d = scalar_squared(p, centroid);
                    if d < best_d {
                        best = c;
                        best_d = d;
                    }
                }
                assignment.push(best);
            }
            assignment
        };
        let optimized = || {
            let mut assignment = Vec::with_capacity(n);
            for p in points.rows() {
                let (best, _) = nearest_row(p, &centroids, dims).expect("k >= 1");
                assignment.push(best);
            }
            assignment
        };
        assert_eq!(
            reference(),
            optimized(),
            "kmeans-assign: fused argmin diverged"
        );
        let ref_seconds = best_of(repeats, || reference().len());
        let new_seconds = best_of(repeats, || optimized().len());
        report.row(kernel_row(
            "kmeans-assign-argmin",
            "scalar per-centroid fold + caller argmin",
            ref_seconds,
            new_seconds,
            "identical assignment over all points (k=16)",
        ));
    }

    // ---- kernel 3: f32 quantization lane ---------------------------------
    // The opt-in single-precision lane replaces the per-coordinate f64
    // division with a precomputed f32 multiply. It is not bit-comparable
    // to f64 (by contract); parity = deterministic + near-total cell
    // agreement away from cell boundaries.
    {
        let bounds = BoundingBox::from_points(points).expect("finite workload");
        let quantizer = Quantizer::with_bounds(bounds, &[128, 128]).expect("fits in 128 bits");
        let (_, keys64) = quantizer.quantize_with(points, Runtime::sequential());
        let (grid_a, keys32) = quantizer.quantize_f32_with(points, Runtime::sequential());
        let (grid_b, keys32_par) = quantizer.quantize_f32_with(points, Runtime::with_threads(4));
        assert_eq!(grid_a, grid_b, "f32 lane not thread-count deterministic");
        assert_eq!(
            keys32, keys32_par,
            "f32 lane not thread-count deterministic"
        );
        let disagreements = keys64
            .iter()
            .zip(keys32.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            disagreements * 1000 < n,
            "f32 lane disagrees with f64 on {disagreements}/{n} cells"
        );
        // Time the per-point cell-key kernel itself (the part the lane
        // changes); the surrounding sparse-grid accumulation is identical
        // in both lanes and would only dilute the ratio.
        let lane = quantizer.f32_lane();
        let ref_seconds = best_of(repeats, || {
            points
                .rows()
                .map(|p| quantizer.cell_key(p) as usize)
                .fold(0usize, usize::wrapping_add)
        });
        let new_seconds = best_of(repeats, || {
            points
                .rows()
                .map(|p| quantizer.cell_key_f32(&lane, p) as usize)
                .fold(0usize, usize::wrapping_add)
        });
        report.row(kernel_row(
            "quantize-cell-key-f32-lane",
            "f64 lane (per-coordinate division)",
            ref_seconds,
            new_seconds,
            "thread-count deterministic; <0.1% boundary cells differ from f64",
        ));
    }

    // ---- kernel 4: radius neighbor queries -------------------------------
    // The scalar path behind every O(n) neighborhood scan vs the kd-tree
    // the accelerated meanshift/sync/DBSCAN/spectral paths query.
    {
        let radius = 0.02f64;
        let query_count = bench.pick(512, 64);
        let tree = KdTree::build(points);
        let reference = |q: &[f64]| {
            let r2 = radius * radius;
            let mut out = Vec::new();
            for (i, p) in points.rows().enumerate() {
                if squared_distance(q, p) <= r2 {
                    out.push(i);
                }
            }
            out
        };
        for i in 0..query_count {
            let q = points.row(i * (n / query_count));
            let mut got = tree.within_radius(q, radius);
            got.sort_unstable();
            assert_eq!(got, reference(q), "within_radius: neighbor set diverged");
        }
        let ref_seconds = best_of(repeats, || {
            (0..query_count)
                .map(|i| reference(points.row(i * (n / query_count))).len())
                .sum::<usize>()
        });
        let new_seconds = best_of(repeats, || {
            (0..query_count)
                .map(|i| {
                    tree.within_radius(points.row(i * (n / query_count)), radius)
                        .len()
                })
                .sum::<usize>()
        });
        report.row(kernel_row(
            "radius-neighbor-query",
            "linear scan over all points",
            ref_seconds,
            new_seconds,
            "identical (sorted) neighbor sets on every query",
        ));
    }

    // ---- kernel 5: cached kd-index serving -------------------------------
    // Pre-PR, `NearestTrainingModel::predict_one` (and the meanshift
    // model) rebuilt a kd-tree per query; the index is now built once at
    // fit/load time.
    {
        let training_n = n.min(10_000);
        let training = PointsView::from_flat(&points.as_slice()[..training_n * points.dims()], 2)
            .expect("prefix view");
        let clustering = dbscan(training, &adawave_baselines::DbscanConfig::new(0.02, 5));
        let model = NearestTrainingModel::new("dbscan", training, &clustering);
        let query_count = bench.pick(200, 32);
        let queries: Vec<&[f64]> = (0..query_count)
            .map(|i| points.row(n - 1 - i * (n / query_count - 1)))
            .collect();
        let reference = |q: &[f64]| {
            // The old serving path: index the training batch per query.
            let tree = KdTree::build(training);
            tree.nearest(q, 1)
                .first()
                .and_then(|&(i, _)| clustering.label(i))
        };
        for &q in &queries {
            assert_eq!(
                model.predict_one(q),
                reference(q),
                "cached-index serving diverged from per-query rebuild"
            );
        }
        let ref_seconds = best_of(repeats.min(3), || {
            queries.iter().filter(|&&q| reference(q).is_some()).count()
        });
        let new_seconds = best_of(repeats, || {
            queries
                .iter()
                .filter(|&&q| model.predict_one(q).is_some())
                .count()
        });
        report.row(kernel_row(
            "predict-cached-kd-index",
            "kd-tree rebuilt per query (pre-PR serving path)",
            ref_seconds,
            new_seconds,
            "identical labels on every query (10k training rows)",
        ));
    }

    // ---- kernel 6: contiguous wavelet lanes ------------------------------
    // The dense transform's innermost axis now hands the 1-D kernel a
    // direct slice instead of gathering each lane through the stride.
    {
        let side = bench.pick(512, 128);
        let mut grid = DenseGrid::zeros(&[side, side]);
        let mut x = 0.37f64;
        for v in grid.as_mut_slice() {
            x = (x * 97.0 + 0.31).fract();
            *v = x;
        }
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let mode = BoundaryMode::Zero;
        let reference = || {
            // The pre-PR lane walk: gather each (already contiguous) lane
            // into a scratch buffer, transform, scatter element-wise.
            let new_len = side.div_ceil(2);
            let mut out = DenseGrid::zeros(&[side, new_len]);
            let data = grid.as_slice();
            let mut lane = vec![0.0; side];
            for row in 0..side {
                let start = row * side;
                for (k, v) in lane.iter_mut().enumerate() {
                    *v = data[start + k];
                }
                let transformed = dwt1d_lowpass(&lane, &kernel, mode);
                let out_start = row * new_len;
                for (k, &v) in transformed.iter().enumerate() {
                    out.as_mut_slice()[out_start + k] = v;
                }
            }
            out
        };
        let optimized = || grid.lowpass_axis(1, &kernel, mode);
        let (a, b) = (reference(), optimized());
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "wavelet fast path not bit-identical"
            );
        }
        let ref_seconds = best_of(repeats, || reference().len());
        let new_seconds = best_of(repeats, || optimized().len());
        report.row(kernel_row(
            "wavelet-lowpass-contiguous-lane",
            "per-lane gather + element-wise scatter",
            ref_seconds,
            new_seconds,
            "bit-identical coefficients on a 512x512 grid",
        ));
    }

    // ---- end-to-end sanity: the fixed-chunk determinism contract ----------
    // Not timed: a full f64 fit at several thread counts must agree with
    // the sequential fit bit for bit, and the f32 fit must agree with
    // itself — the bench fails loudly if a kernel change broke either.
    {
        let config = |p: Precision, rt: Runtime| {
            AdaWaveConfig::builder()
                .scale(64)
                .precision(p)
                .runtime(rt)
                .build()
        };
        for precision in [Precision::F64, Precision::F32] {
            let reference = AdaWave::new(config(precision, Runtime::sequential()))
                .fit(points)
                .expect("fit");
            for threads in [2, 4] {
                let parallel = AdaWave::new(config(precision, Runtime::with_threads(threads)))
                    .fit(points)
                    .expect("fit");
                assert_eq!(
                    reference, parallel,
                    "{precision}: thread count changed the fit"
                );
            }
        }
    }

    report.finish();
}
