//! Layout microbenchmark: the flat row-major [`PointMatrix`] hot paths
//! against the seed's nested `Vec<Vec<f64>>` layout, on the two kernels the
//! refactor targets — grid quantization and the k-means assignment step —
//! over 100k synthetic points.
//!
//! Run with `cargo run --release -p adawave-bench --bin layout_bench`;
//! writes `BENCH_layout.json` into the current directory and prints the
//! table (`--smoke`: a small workload, nothing written). The nested
//! variants reimplement the seed's access pattern (one heap allocation +
//! one pointer indirection per point) so the comparison isolates the
//! memory layout, not the algorithm.

use adawave_api::PointMatrix;
use adawave_bench::harness::{best_of, Bench, Row};
use adawave_grid::{Quantizer, SparseGrid};
use adawave_linalg::squared_distance;

const REPEATS: usize = 7;

/// The seed's nested quantization loop: one pointer chase per point.
fn quantize_nested(quantizer: &Quantizer, nested: &[Vec<f64>]) -> f64 {
    let mut grid = SparseGrid::with_capacity(1 << 16);
    for p in nested {
        grid.increment(quantizer.cell_key(p));
    }
    grid.total_mass()
}

/// The flat quantization loop: the identical per-point work, walking one
/// contiguous buffer with `chunks_exact` instead of chasing a pointer per
/// point.
fn quantize_flat(quantizer: &Quantizer, points: &PointMatrix) -> f64 {
    let mut grid = SparseGrid::with_capacity(1 << 16);
    for p in points.as_slice().chunks_exact(points.dims()) {
        grid.increment(quantizer.cell_key(p));
    }
    grid.total_mass()
}

/// The seed's k-means assignment step over nested points and nested
/// centroids.
fn assign_nested(nested: &[Vec<f64>], centroids: &[Vec<f64>]) -> f64 {
    let mut inertia = 0.0;
    for p in nested {
        let mut best = f64::MAX;
        for c in centroids {
            let d = squared_distance(p, c);
            if d < best {
                best = d;
            }
        }
        inertia += best;
    }
    inertia
}

/// The flat assignment step: rows and centroids are `chunks_exact` slices
/// of two contiguous buffers.
fn assign_flat(points: &PointMatrix, centroids: &PointMatrix) -> f64 {
    let dims = points.dims();
    let mut inertia = 0.0;
    for p in points.as_slice().chunks_exact(dims) {
        let mut best = f64::MAX;
        for c in centroids.as_slice().chunks_exact(dims) {
            let d = squared_distance(p, c);
            if d < best {
                best = d;
            }
        }
        inertia += best;
    }
    inertia
}

fn main() {
    // 5 clusters x 5000 points + 75% noise = 100_000 points.
    let bench = Bench::from_args("layout", 5_000);
    let repeats = bench.pick(REPEATS, 2);
    let mut flat = bench.points().to_matrix();
    let mut nested: Vec<Vec<f64>> = flat.to_rows();

    // Shuffle both layouts with the same permutation, the way every real
    // pipeline touches its data (`Dataset::shuffle`, subsampling, CSV
    // ingestion order). On the nested layout a shuffle swaps the *outer
    // pointers* while the per-point heap blocks keep their original
    // addresses — subsequent passes jump around the heap. The flat matrix
    // swaps the row contents and stays one contiguous buffer.
    let mut rng = adawave_data::Rng::new(7);
    for i in (1..flat.len()).rev() {
        let j = rng.below(i + 1);
        flat.swap_rows(i, j);
        nested.swap(i, j);
    }

    let quantizer = Quantizer::fit(flat.view(), 128).expect("quantize fit");
    let k = 16;
    let centroid_idx: Vec<usize> = (0..k).map(|i| i * (flat.len() / k)).collect();
    let flat_centroids = flat.view().select(&centroid_idx);
    let nested_centroids: Vec<Vec<f64>> = flat_centroids.to_rows();

    // Equal work on both layouts, by construction.
    assert_eq!(
        quantize_nested(&quantizer, &nested),
        quantize_flat(&quantizer, &flat),
        "quantization paths disagree"
    );
    assert_eq!(
        assign_nested(&nested, &nested_centroids),
        assign_flat(&flat, &flat_centroids),
        "assignment paths disagree"
    );

    let mut report = bench.report(
        "the flat row-major PointMatrix runs the quantization and k-means assignment kernels faster than the seed's nested Vec<Vec<f64>> layout after a shuffle, with the per-point work unchanged",
        "asserted in-process before timing: both layouts give the identical grid mass and assignment inertia",
        Row::new().int("repeats", repeats).text("timing", "best-of"),
    );
    for (kernel, nested_seconds, flat_seconds) in [
        (
            "quantize",
            best_of(repeats, || quantize_nested(&quantizer, &nested)),
            best_of(repeats, || quantize_flat(&quantizer, &flat)),
        ),
        (
            "kmeans_assign_k16",
            best_of(repeats, || assign_nested(&nested, &nested_centroids)),
            best_of(repeats, || assign_flat(&flat, &flat_centroids)),
        ),
    ] {
        report.row(
            Row::new()
                .text("kernel", kernel)
                .num("nested_vec_seconds", nested_seconds)
                .num("flat_matrix_seconds", flat_seconds)
                .num("speedup", nested_seconds / flat_seconds),
        );
    }
    report.finish();
}
