//! Distributed-ingestion microbenchmark: what the versioned accumulator
//! artifacts cost, measured.
//!
//! The benchmark ingests the 100k-point synthetic workload at several
//! grid scales (so the occupied-cell count `m` — the payload size driver
//! — spans two orders of magnitude) and, at each scale, times
//!
//! * `snapshot` — serializing the accumulator payload to its versioned
//!   hex-float text form,
//! * `restore` — parsing that payload back into a live session, and
//! * `merge` — folding a restored half-shard into the other half,
//!
//! reporting each as cells/second. A fourth series measures the
//! *checkpoint overhead per ingested row*: the same batched ingest with
//! a [`Checkpointer`] flushing every N rows versus no checkpointing at
//! all, on the default scale.
//!
//! Parity is asserted in-process before anything is timed: the restored
//! session's refit and the two merged half-shards' refit must equal the
//! one-shot fit label for label, so the numbers cannot be produced by a
//! serializer that drifted.
//!
//! Run with `cargo run --release -p adawave-bench --bin shard_bench`
//! (writes `BENCH_shard.json` into the current directory); pass
//! `--smoke` for the seconds-long CI variant.

use adawave_api::PointsView;
use adawave_bench::harness::{best_of, best_of_with, Bench, Row};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_grid::BoundingBox;
use adawave_stream::{Checkpointer, StreamingAdaWave};

const SCALES: &[u32] = &[16, 32, 64, 128];
const BATCH_ROWS: usize = 8_192;

/// Ingest `points` in fixed batches into a fresh session over `domain`,
/// checkpointing every `every` rows when a path is given.
fn ingest(
    config: &AdaWaveConfig,
    domain: &BoundingBox,
    points: PointsView<'_>,
    checkpoint: Option<(&std::path::Path, usize)>,
) -> StreamingAdaWave {
    let dims = points.dims();
    let flat = points.as_slice();
    let n = points.len();
    let mut stream = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
    let mut checkpointer = checkpoint.map(|(path, every)| Checkpointer::new(path, every));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BATCH_ROWS).min(n);
        let batch = PointsView::from_flat(&flat[lo * dims..hi * dims], dims).unwrap();
        let report = stream.ingest(batch).unwrap();
        if let Some(c) = checkpointer.as_mut() {
            c.observe(&stream, report.points).unwrap();
        }
        lo = hi;
    }
    if let Some(c) = checkpointer.as_mut() {
        c.flush(&stream).unwrap();
    }
    stream
}

fn main() {
    // The workload of the other BENCH files: 5 clusters + 75% noise.
    let bench = Bench::from_args("shard", 5_000);
    let repeats = bench.pick(5, 2);
    let points = bench.points();
    let dims = points.dims();
    let total = points.len();
    let domain = BoundingBox::from_points(points).unwrap();
    let split = total / 2;
    let mut report = bench.report(
        "accumulator artifacts cost O(m) to snapshot, restore and merge for m occupied cells (plus the per-point cell-key table), independent of how many points were ingested; checkpointing adds a bounded per-row overhead amortized over the flush interval",
        "asserted in-process before timing at every scale: snapshot->restore->refit and half-shard snapshot->restore->merge->refit both equal the one-shot AdaWave::fit labels exactly",
        Row::new()
            .int("batch_rows", BATCH_ROWS)
            .int("repeats", repeats)
            .text("timing", "best-of"),
    );

    for &scale in SCALES {
        let config = AdaWaveConfig::builder().scale(scale).build();
        let mut whole = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        whole.ingest(points).unwrap();
        let cells = whole.occupied_cells();

        // Two half-shards over the same frozen domain, for the merge
        // timing and the shard-parity assertion.
        let left_rows = PointsView::from_flat(&points.as_slice()[..split * dims], dims).unwrap();
        let right_rows = PointsView::from_flat(&points.as_slice()[split * dims..], dims).unwrap();
        let mut left = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        left.ingest(left_rows).unwrap();
        let mut right = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        right.ingest(right_rows).unwrap();

        // Parity gate: round-trip and two-shard merge must both refit to
        // the one-shot fit, label for label, before anything is timed.
        let fitted = AdaWave::new(config.clone()).fit(points).unwrap();
        let payload = whole.snapshot();
        let restored = StreamingAdaWave::restore(&payload).unwrap();
        assert_eq!(
            restored.refit().unwrap(),
            fitted,
            "restored refit diverged from one-shot fit at scale {scale}"
        );
        let mut merged = StreamingAdaWave::restore(&left.snapshot()).unwrap();
        merged
            .merge(StreamingAdaWave::restore(&right.snapshot()).unwrap())
            .unwrap();
        assert_eq!(
            merged.refit().unwrap(),
            fitted,
            "two-shard merge diverged from one-shot fit at scale {scale}"
        );

        let snapshot_seconds = best_of(repeats, || whole.snapshot().len());
        let restore_seconds = best_of(repeats, || {
            StreamingAdaWave::restore(&payload)
                .unwrap()
                .occupied_cells()
        });
        // The merge consumes its argument, so each repetition rebuilds
        // the operands from their payloads outside the timed region.
        let (left_payload, right_payload) = (left.snapshot(), right.snapshot());
        let merge_seconds = best_of_with(
            repeats,
            || {
                (
                    StreamingAdaWave::restore(&left_payload).unwrap(),
                    StreamingAdaWave::restore(&right_payload).unwrap(),
                )
            },
            |(mut base, other)| {
                base.merge(other).unwrap();
                base
            },
        );

        report.row(
            Row::new()
                .int("scale", scale as usize)
                .int("occupied_cells_m", cells)
                .int("payload_bytes", payload.len())
                .num("snapshot_seconds", snapshot_seconds)
                .num("restore_seconds", restore_seconds)
                .num("merge_seconds", merge_seconds)
                .num("snapshot_cells_per_second", cells as f64 / snapshot_seconds)
                .num("restore_cells_per_second", cells as f64 / restore_seconds)
                .num("merge_cells_per_second", cells as f64 / merge_seconds),
        );
    }

    // Checkpoint overhead per row, on the default scale: batched ingest
    // with an every-N checkpointer vs the same ingest without one.
    let config = AdaWaveConfig::default();
    let every = bench.pick(10_000, 1_000);
    let ckpt_path =
        std::env::temp_dir().join(format!("adawave_shard_bench_{}.awa", std::process::id()));
    let plain_seconds = best_of(repeats, || ingest(&config, &domain, points, None));
    let checkpointed_seconds = best_of(repeats, || {
        ingest(&config, &domain, points, Some((&ckpt_path, every)))
    });
    std::fs::remove_file(&ckpt_path).ok();
    report.row(
        Row::new()
            .int("every_rows", every)
            .num("plain_ingest_seconds", plain_seconds)
            .num("checkpointed_ingest_seconds", checkpointed_seconds)
            .num(
                "overhead_ns_per_row",
                (checkpointed_seconds - plain_seconds).max(0.0) / total as f64 * 1e9,
            ),
    );
    report.finish();
}
