//! Raw-speed kernel microbenchmarks: what the shared autovectorized
//! distance/argmin kernels, the f32 quantization lane, the cell-grid /
//! kd-index neighbor acceleration, the contiguous wavelet-lane fast path,
//! the sparse transform's dense lanes and the floor-free cell coordinates
//! buy over the paths they replaced, plus the occupancy sweep behind the
//! dense lanes' rule.
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

use std::collections::HashSet;

use adawave_api::{Model as _, PointMatrix, PointsView, Precision};
use adawave_baselines::{dbscan, KdTree, NearestTrainingModel};
use adawave_bench::harness::{best_of, Bench, Row};
use adawave_core::{sparse_wavelet_smooth_on, AdaWave, AdaWaveConfig, TransformPath};
use adawave_data::Rng;
use adawave_grid::{BoundingBox, KeyCodec, Quantizer, SparseGrid};
use adawave_linalg::{nearest_row, squared_distance};
use adawave_runtime::Runtime;
use adawave_wavelet::{smooth_downsample, BoundaryMode, DenseGrid, Wavelet};

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

/// Five 4-d Gaussian blobs of `per_cluster` points (σ 0.03) plus three
/// uniform noise points per blob point, quantized at `scale`: the shape of
/// the end-to-end benchmark's sparse4d workload (scale 32, 10,000 points
/// per blob), whose noise leaves most points in a cell of their own.
fn sparse4d_grid(per_cluster: usize, scale: u32) -> (SparseGrid, KeyCodec) {
    const CENTRES: [[f64; 4]; 5] = [
        [0.25, 0.25, 0.25, 0.25],
        [0.75, 0.25, 0.75, 0.25],
        [0.25, 0.75, 0.75, 0.75],
        [0.75, 0.75, 0.25, 0.50],
        [0.50, 0.50, 0.50, 0.80],
    ];
    let mut rng = Rng::new(3);
    let mut points = PointMatrix::new(4);
    for centre in &CENTRES {
        for _ in 0..per_cluster {
            let row: Vec<f64> = centre.iter().map(|c| c + 0.03 * rng.normal()).collect();
            points.push_row(&row);
        }
    }
    for _ in 0..15 * per_cluster {
        let row: Vec<f64> = (0..4).map(|_| rng.uniform()).collect();
        points.push_row(&row);
    }
    let quantizer = Quantizer::fit(points.view(), scale).expect("4-d fits 128 bits");
    let (grid, _) = quantizer.quantize(points.view());
    (grid, quantizer.codec().clone())
}

/// Roughly one cell in `slots_per_cell` of `codec`'s key space, each
/// holding a small count.
fn grid_at_occupancy(codec: &KeyCodec, slots_per_cell: u32, rng: &mut Rng) -> SparseGrid {
    let mut cells = Vec::new();
    for key in 0..1u128 << codec.key_bits() {
        if rng.below(slots_per_cell as usize) == 0 {
            cells.push((key, 1.0 + rng.below(3) as f64));
        }
    }
    SparseGrid::from_cells(cells)
}

/// `codec` with dimension `dim` halved, as a transform pass writes it.
fn halved(codec: &KeyCodec, dim: usize) -> KeyCodec {
    let mut intervals = codec.all_intervals().to_vec();
    intervals[dim] = intervals[dim].div_ceil(2);
    KeyCodec::new(&intervals).expect("halving never widens a key")
}

/// The cells of every pass of one level on the sorted path, input first,
/// under the zero boundary: an output cell exists when a cell of its line
/// reaches it through a nonzero tap, which is how the scatter fills its
/// vector (no budget binds here).
fn pass_cells(grid: &SparseGrid, codec: &KeyCodec, kernel: &[f64]) -> Vec<usize> {
    let offset = (kernel.len() - 1) / 2;
    let mut keys: Vec<u128> = grid.iter().map(|(key, _)| key).collect();
    let mut codec = codec.clone();
    let mut counts = vec![keys.len()];
    for dim in 0..codec.dims() {
        let out = halved(&codec, dim);
        let mut reached = HashSet::new();
        for &key in &keys {
            let c = codec.coordinate(key, dim) as usize;
            for (t, _) in kernel.iter().enumerate().filter(|(_, &h)| h != 0.0) {
                let n = (c + offset).checked_sub(t);
                if let Some(n) = n.filter(|n| n % 2 == 0 && n / 2 < out.intervals(dim) as usize) {
                    reached.insert(codec.remap(key, &out, 0, Some((dim, (n / 2) as u32))));
                }
            }
        }
        keys = reached.into_iter().collect();
        counts.push(keys.len());
        codec = out;
    }
    counts
}

fn main() {
    let bench = Bench::from_args("kernels", 5_000);
    let repeats = bench.pick(REPEATS, 2);
    let points = bench.points();
    let n = points.len();
    let mut report = bench.report(
        "each optimized kernel is timed against an embedded copy of the scalar path it replaced (the sparse transform's dense lanes against its sorted-cell path, with the occupancy sweep that bounds them), and a parity assertion gates every timed claim: f64 kernels are bit-identical to their references, accelerated neighbor paths are label-identical, and the opt-in f32 lane is deterministic across thread counts with near-total cell agreement",
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

    // ---- kernel 4: cell coordinates without a libm call -------------------
    // `Quantizer::cell_key` truncates by a width computed once per
    // dimension where it floored by a width computed per coordinate, and
    // `floor` is a libm call on baseline x86-64. Predict's transformed key
    // shifts each coordinate into the transformed codec as it computes it,
    // where it packed an original key for `KeyCodec::remap` to unpack.
    {
        let bounds = BoundingBox::from_points(points).expect("finite workload");
        let quantizer =
            Quantizer::with_bounds(bounds.clone(), &[128, 128]).expect("fits in 128 bits");
        let codec = quantizer.codec();
        let down = codec.downsampled(1).expect("one level");
        let floor_key = |p: &[f64]| {
            p.iter().enumerate().fold(0u128, |key, (j, &v)| {
                let m = codec.intervals(j);
                let extent = bounds.extent(j);
                let c = if extent > 0.0 {
                    ((v - bounds.min()[j]) / (extent / m as f64)).floor() as i64
                } else {
                    0
                };
                key | codec.pack_coord(j, c.clamp(0, (m - 1) as i64) as u32)
            })
        };
        for p in points.rows() {
            assert_eq!(quantizer.cell_key(p), floor_key(p), "cell key diverged");
            assert_eq!(
                quantizer.transformed_key(None, p, &down, 1),
                codec.remap(floor_key(p), &down, 1, None),
                "transformed key diverged"
            );
        }
        let passes = bench.pick(10, 1);
        let sum_keys = |key: &dyn Fn(&[f64]) -> u128| {
            (0..passes)
                .flat_map(|_| points.rows())
                .map(|p| key(p) as usize)
                .fold(0usize, usize::wrapping_add)
        };
        let ref_seconds = best_of(repeats, || sum_keys(&floor_key));
        let new_seconds = best_of(repeats, || sum_keys(&|p| quantizer.cell_key(p)));
        report.row(kernel_row(
            "quantize-cell-key-truncated",
            "floor per coordinate, width divided per coordinate",
            ref_seconds,
            new_seconds,
            &format!("identical keys on all {n} points, {passes} passes timed"),
        ));
        let remapped = |p: &[f64]| codec.remap(floor_key(p), &down, 1, None);
        let ref_seconds = best_of(repeats, || sum_keys(&remapped));
        let new_seconds = best_of(repeats, || {
            sum_keys(&|p| quantizer.transformed_key(None, p, &down, 1))
        });
        report.row(kernel_row(
            "predict-transformed-key",
            "floor cell key, then KeyCodec::remap to the transformed codec",
            ref_seconds,
            new_seconds,
            &format!(
                "identical transformed keys (1 level) on all {n} points, {passes} passes timed"
            ),
        ));
    }

    // ---- kernel 5: radius neighbor queries -------------------------------
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

    // ---- kernel 6: cached kd-index serving -------------------------------
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

    // ---- kernel 7: contiguous wavelet lanes ------------------------------
    // The dense transform's innermost axis hands the 1-D kernel a direct
    // slice instead of gathering each lane through the stride. Timed on
    // `smooth_axis`, the centred low-pass pass WaveCluster runs.
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
                let transformed = smooth_downsample(&lane, &kernel, mode);
                let out_start = row * new_len;
                for (k, &v) in transformed.iter().enumerate() {
                    out.as_mut_slice()[out_start + k] = v;
                }
            }
            out
        };
        let optimized = || grid.smooth_axis(1, &kernel, mode);
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
            "wavelet-smooth-contiguous-lane",
            "per-lane gather + element-wise scatter",
            ref_seconds,
            new_seconds,
            &format!("bit-identical coefficients on a {side}x{side} grid"),
        ));
    }

    // ---- kernel 8: dense lanes for a grid that fills its key space --------
    // The sparse transform's passes on a sparse4d-shaped grid: flat lanes
    // over the whole key space against the sorted cell vector, which
    // re-sorts by line in every pass. The rule picks the dense lanes for
    // this grid under the default cell budget, and both paths return the
    // same cells in the same order, bit for bit.
    let kernel = Wavelet::Cdf22.density_smoothing_kernel();
    let sorted = TransformPath::SortedCells {
        cell_budget: usize::MAX,
    };
    let transform = |path, grid: &SparseGrid, codec: &KeyCodec| {
        sparse_wavelet_smooth_on(path, grid, codec, &kernel, BoundaryMode::Zero, 1)
            .expect("transform")
    };
    // The output codec and cells, densities as bits, in the grid's order.
    let bits = |(out, out_codec): (SparseGrid, KeyCodec)| {
        let cells: Vec<(u128, u64)> = out.iter().map(|(k, v)| (k, v.to_bits())).collect();
        (out_codec, cells)
    };
    {
        let (grid, codec) = sparse4d_grid(bench.pick(10_000, 1_000), bench.pick(32, 16));
        let budget = AdaWaveConfig::default().max_transformed_cells;
        assert_eq!(
            TransformPath::choose(&codec, grid.occupied_cells(), budget),
            TransformPath::DenseLanes,
            "the rule no longer picks the dense lanes for a sparse4d-shaped grid"
        );
        assert_eq!(
            bits(transform(TransformPath::DenseLanes, &grid, &codec)),
            bits(transform(sorted, &grid, &codec)),
            "dense lanes diverged from the sorted cells"
        );
        let ref_seconds = best_of(repeats, || transform(sorted, &grid, &codec));
        let new_seconds = best_of(repeats, || {
            transform(TransformPath::DenseLanes, &grid, &codec)
        });
        report.row(kernel_row(
            "sparse-transform-dense-lanes",
            "sorted cell vector, re-sorted per pass",
            ref_seconds,
            new_seconds,
            &format!(
                "bit-identical cells in the same order: 4-d, {} intervals, {} of {} slots occupied, CDF(2,2), 1 level",
                codec.intervals(0),
                grid.occupied_cells(),
                1u128 << codec.key_bits()
            ),
        ));
    }

    // ---- the occupancy sweep behind `TransformPath::DENSE_SLOTS_PER_CELL`
    // Both paths on one 4-d key space filled at falling occupancy. The
    // dense lanes' work and memory follow the key space, the sorted
    // path's the cells, so the crossover in time and in bytes bounds how
    // many slots per cell the rule may spend. Bytes are each path's
    // largest live buffers: the dense lanes' first pass holds its input
    // and output lanes (an f64 and an occupancy byte per slot), the
    // sorted path its largest pass's input and output vectors (32 bytes a
    // cell, before any growth slack).
    {
        let codec = KeyCodec::uniform(4, bench.pick(32, 16)).expect("4-d fits 128 bits");
        let slot_bytes = std::mem::size_of::<f64>() + std::mem::size_of::<bool>();
        let dense_bytes =
            (slot_bytes << codec.key_bits()) + (slot_bytes << halved(&codec, 0).key_bits());
        let cell_bytes = std::mem::size_of::<(u128, f64)>();
        let mut rng = Rng::new(11);
        for slots_per_cell in [2, 4, 8, 16, 32, 64, 128, 256] {
            let grid = grid_at_occupancy(&codec, slots_per_cell, &mut rng);
            let dense = bits(transform(TransformPath::DenseLanes, &grid, &codec));
            assert_eq!(
                dense,
                bits(transform(sorted, &grid, &codec)),
                "1 cell in {slots_per_cell}"
            );
            let counts = pass_cells(&grid, &codec, &kernel);
            assert_eq!(counts.last(), Some(&dense.1.len()), "pass count model");
            let sorted_cells = counts.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0);
            let sweep_repeats = repeats.min(3);
            report.row(
                Row::new()
                    .text("sweep", "sparse-transform-occupancy")
                    .int("slots_per_cell", slots_per_cell as usize)
                    .int("cells", grid.occupied_cells())
                    .num(
                        "dense_seconds",
                        best_of(sweep_repeats, || {
                            transform(TransformPath::DenseLanes, &grid, &codec)
                        }),
                    )
                    .num(
                        "sorted_seconds",
                        best_of(sweep_repeats, || transform(sorted, &grid, &codec)),
                    )
                    .int("dense_lane_bytes", dense_bytes)
                    .int("sorted_cell_bytes", sorted_cells * cell_bytes),
            );
        }
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
