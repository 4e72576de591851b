//! Streaming-refit microbenchmark: the `O(m)` claim of the
//! `adawave-stream` layer, measured.
//!
//! The benchmark ingests growing prefixes of a 100k-point synthetic
//! workload (10 sizes) into a [`StreamingAdaWave`] accumulator and, at
//! each size, times
//!
//! * `refit_model` — the grid-only transform → threshold → components
//!   stage, whose cost is governed by the number of occupied cells `m`,
//! * `refit` — model plus the per-point labeling walk (`O(n)` table
//!   lookups), and
//! * the full one-shot [`AdaWave::fit`] on the same prefix, which has to
//!   re-quantize every point (`O(n + m)`).
//!
//! Because the domain is bounded and the scale fixed, `m` saturates as
//! `n` grows 10×: the recorded numbers show `refit_model` tracking `m`,
//! not `n`, while the full fit keeps growing with `n`. Label-identity of
//! `refit()` against the one-shot fit is asserted in the same process at
//! every size.
//!
//! Run with `cargo run --release -p adawave-bench --bin stream_bench`
//! (writes `BENCH_stream.json` into the current directory); pass
//! `--smoke` for the seconds-long CI variant that exercises the same
//! code paths on a small workload.

use adawave_api::PointsView;
use adawave_bench::harness::{best_of, Bench, Row};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_grid::BoundingBox;
use adawave_stream::StreamingAdaWave;

const SIZES: usize = 10;
const BATCH_ROWS: usize = 8_192;

fn main() {
    // 5 clusters x 5000 points + 75% noise (100_000 points in the full
    // run — the workload of BENCH_layout.json / BENCH_parallel.json).
    let bench = Bench::from_args("stream", 5_000);
    let repeats = bench.pick(5, 2);
    let points = bench.points();
    let dims = points.dims();
    let total = points.len();
    let config = AdaWaveConfig::default();
    let mut report = bench.report(
        "refit_model re-runs transform->threshold->components on the accumulated grid: its cost tracks the occupied cells m (which saturates on a bounded domain), not the total ingested points n; the full fit must re-quantize all n points. refit additionally pays an O(n) per-point label lookup. Growth columns are relative to the first size.",
        "asserted in-process at every size: refit() labels, stats and density curve are identical to AdaWave::fit on the same prefix and domain",
        Row::new()
            .int("scale", config.scale as usize)
            .int("batch_rows", BATCH_ROWS)
            .int("repeats", repeats)
            .text("timing", "best-of"),
    );

    let mut first = None;
    for step in 1..=SIZES {
        let n = total * step / SIZES;
        let prefix = PointsView::from_flat(&points.as_slice()[..n * dims], dims).unwrap();

        // Stream the prefix in fixed batches against its exact domain (the
        // same domain fit() derives), so refit labels must match fit
        // labels exactly.
        let domain = BoundingBox::from_points(prefix).unwrap();
        let mut stream = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + BATCH_ROWS).min(n);
            let batch =
                PointsView::from_flat(&prefix.as_slice()[lo * dims..hi * dims], dims).unwrap();
            stream.ingest(batch).unwrap();
            lo = hi;
        }

        let adawave = AdaWave::new(config.clone());
        let fitted = adawave.fit(prefix).unwrap();
        assert_eq!(
            stream.refit().unwrap(),
            fitted,
            "streamed refit diverged from one-shot fit at n = {n}"
        );

        let refit_model_seconds =
            best_of(repeats, || stream.refit_model().unwrap().stats().threshold);
        let refit_seconds = best_of(repeats, || stream.refit().unwrap().noise_fraction());
        let full_fit_seconds = best_of(repeats, || adawave.fit(prefix).unwrap().noise_fraction());
        let m = stream.occupied_cells();
        let (n0, m0, refit0, fit0) =
            *first.get_or_insert((n, m, refit_model_seconds, full_fit_seconds));
        report.row(
            Row::new()
                .int("n", n)
                .int("occupied_cells_m", m)
                .num("refit_model_seconds", refit_model_seconds)
                .num("refit_with_labels_seconds", refit_seconds)
                .num("full_fit_seconds", full_fit_seconds)
                .num("n_growth", n as f64 / n0 as f64)
                .num("m_growth", m as f64 / m0 as f64)
                .num("refit_model_growth", refit_model_seconds / refit0)
                .num("full_fit_growth", full_fit_seconds / fit0),
        );
    }
    report.finish();
}
