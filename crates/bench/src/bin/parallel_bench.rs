//! Parallel-runtime microbenchmark: the two hot kernels the
//! `adawave-runtime` layer targets — grid quantization and the k-means
//! assignment/accumulation pass — timed at 1/2/4/8 worker threads over
//! 100k synthetic points, best-of-7.
//!
//! Run with `cargo run --release -p adawave-bench --bin parallel_bench`;
//! writes `BENCH_parallel.json` into the current directory and prints the
//! table (`--smoke`: a small workload, nothing written). The kernels are
//! the *same code path* at every thread count (fixed chunk boundaries,
//! in-order merges), so besides the timings the binary asserts that
//! every parallel result is identical to the sequential one — the
//! determinism half of the contract is checked in the same process that
//! produces the performance half.

use adawave_bench::harness::{best_of, Bench, Row};
use adawave_grid::Quantizer;
use adawave_linalg::squared_distance;
use adawave_runtime::Runtime;

const REPEATS: usize = 7;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Same fixed chunk the k-means Lloyd kernel uses.
const ROW_CHUNK: usize = 1_024;

fn main() {
    // 5 clusters x 5000 points + 75% noise = 100_000 points (the same
    // workload BENCH_layout.json measures).
    let bench = Bench::from_args("parallel", 5_000);
    let repeats = bench.pick(REPEATS, 2);
    let points = bench.points();

    let quantizer = Quantizer::fit(points, 128).expect("quantizer fit");
    let k = 16;
    let centroid_idx: Vec<usize> = (0..k).map(|i| i * (points.len() / k)).collect();
    let centroids = points.select(&centroid_idx);

    // The k-means assignment/accumulation pass exactly as the Lloyd kernel
    // runs it: fixed row chunks, per-chunk partial inertia, in-order merge.
    let assign_inertia = |rt: Runtime| -> f64 {
        rt.par_reduce(
            points.len(),
            ROW_CHUNK,
            |range| {
                let mut local = 0.0;
                for i in range {
                    let p = points.row(i);
                    let mut best = f64::MAX;
                    for c in centroids.rows() {
                        let d = squared_distance(p, c);
                        if d < best {
                            best = d;
                        }
                    }
                    local += best;
                }
                local
            },
            |a, b| a + b,
        )
        .expect("non-empty workload")
    };

    let mut report = bench.report(
        "quantization and the k-means assignment pass run the same fixed-chunk code at every thread count; their speedup over one thread is bounded by the host's available parallelism",
        "asserted in-process before timing: every thread count produced a bit-identical grid and assignment inertia",
        Row::new().int("repeats", repeats).text("timing", "best-of"),
    );
    let baseline_grid = quantizer.quantize_with(points, Runtime::sequential());
    let baseline_inertia = assign_inertia(Runtime::sequential());
    let mut one_thread = None;
    for &threads in &THREAD_COUNTS {
        let rt = Runtime::with_threads(threads);
        // Determinism check rides along with the timing run.
        let out = quantizer.quantize_with(points, rt);
        assert_eq!(out, baseline_grid, "quantize changed at {threads} threads");
        assert_eq!(
            assign_inertia(rt).to_bits(),
            baseline_inertia.to_bits(),
            "assignment inertia changed at {threads} threads"
        );
        let q = best_of(repeats, || {
            quantizer.quantize_with(points, rt).0.total_mass()
        });
        let a = best_of(repeats, || assign_inertia(rt));
        let (q1, a1) = *one_thread.get_or_insert((q, a));
        report.row(
            Row::new()
                .int("threads", threads)
                .num("quantize_seconds", q)
                .num("quantize_speedup", q1 / q)
                .num("kmeans_assign_k16_seconds", a)
                .num("kmeans_assign_k16_speedup", a1 / a),
        );
    }
    report.finish();
}
