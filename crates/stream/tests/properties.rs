//! Property tests for the streaming accumulator (the `to_bits()`-equality
//! style of `crates/runtime/tests/properties.rs`): over random point sets
//! and random batch partitions, `StreamingAdaWave::merge` + batched `ingest`
//! must reproduce the one-shot quantized grid and the one-shot labels
//! exactly, bit for bit.

use adawave_api::{PointMatrix, PointsView};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_grid::{BoundingBox, SparseGrid};
use adawave_stream::{load_accumulator, save_accumulator, Checkpointer, StreamingAdaWave};
use proptest::prelude::*;

/// A fresh temp-file path per proptest case, so concurrent cases (and
/// concurrent test binaries) never collide.
fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("adawave_prop_{tag}_{}_{n}.awa", std::process::id()))
}

fn matrix(coords: &[(f64, f64)]) -> PointMatrix {
    let mut points = PointMatrix::new(2);
    for &(x, y) in coords {
        points.push_row(&[x, y]);
    }
    points
}

/// Sorted `(key, density-bits)` image of a grid — bitwise comparison that
/// does not depend on hash-map iteration order.
fn grid_bits(grid: &SparseGrid) -> Vec<(u128, u64)> {
    let mut cells: Vec<(u128, u64)> = grid.iter().map(|(k, v)| (k, v.to_bits())).collect();
    cells.sort_unstable();
    cells
}

/// Turn arbitrary cut positions into a sorted batch partition of `0..n`.
fn partition(n: usize, raw_cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c % (n + 1)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

fn rows<'a>(points: &'a PointMatrix, lo: usize, hi: usize) -> PointsView<'a> {
    let dims = points.dims();
    PointsView::from_flat(&points.as_slice()[lo * dims..hi * dims], dims).unwrap()
}

proptest! {
    #[test]
    fn random_partitions_reproduce_the_one_shot_grid_and_labels(
        coords in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..250),
        raw_cuts in prop::collection::vec(0usize..250, 0..8),
        threads in 1usize..5,
    ) {
        let points = matrix(&coords);
        let config = AdaWaveConfig::builder().scale(16).threads(threads).build();
        let adawave = AdaWave::new(config.clone());
        let one_shot = adawave.fit(points.view()).unwrap();

        let domain = BoundingBox::from_points(points.view()).unwrap();
        let mut stream = StreamingAdaWave::with_domain(config, domain.clone()).unwrap();
        for (lo, hi) in partition(points.len(), &raw_cuts) {
            let report = stream.ingest(rows(&points, lo, hi)).unwrap();
            prop_assert_eq!(report.points, hi - lo);
            prop_assert_eq!(report.outliers, 0);
        }

        // The accumulated grid is bit-identical to quantizing in one shot.
        let quantizer = adawave.quantizer_for(&domain).unwrap();
        let (reference_grid, _) = quantizer.quantize(points.view());
        prop_assert_eq!(grid_bits(stream.grid().unwrap()), grid_bits(&reference_grid));

        // And the refit labels (plus stats and density curve) match fit.
        let refit = stream.refit().unwrap();
        prop_assert!(refit.labels().eq(one_shot.labels()));
        prop_assert_eq!(refit, one_shot);
    }

    #[test]
    fn merging_randomly_split_sessions_matches_a_single_session(
        coords in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..200),
        split in 1usize..199,
        raw_cuts in prop::collection::vec(0usize..200, 0..4),
    ) {
        let points = matrix(&coords);
        let split = 1 + split % (points.len() - 1).max(1);
        let config = AdaWaveConfig::builder().scale(16).build();
        let domain = BoundingBox::from_points(points.view()).unwrap();

        // One session fed everything in order...
        let mut whole = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        whole.ingest(points.view()).unwrap();

        // ...vs two shards: the left ingests `0..split` in random batches,
        // the right `split..n`, then the accumulators merge.
        let mut left = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        for (lo, hi) in partition(split, &raw_cuts) {
            left.ingest(rows(&points, lo, hi)).unwrap();
        }
        let mut right = StreamingAdaWave::with_domain(config, domain).unwrap();
        right.ingest(rows(&points, split, points.len())).unwrap();
        left.merge(right).unwrap();

        prop_assert_eq!(left.points_ingested(), points.len());
        prop_assert_eq!(grid_bits(left.grid().unwrap()), grid_bits(whole.grid().unwrap()));
        prop_assert_eq!(left.refit().unwrap(), whole.refit().unwrap());
    }

    /// The distributed form of the shard merge: every shard session round-
    /// trips through an accumulator *file* before merging, and the merged
    /// grid must still reproduce the one-shot accumulator bit for bit
    /// (sorted `(key, to_bits)` comparison), labels included.
    #[test]
    fn k_shard_disk_round_trips_merge_to_the_one_shot_grid(
        coords in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..200),
        raw_cuts in prop::collection::vec(0usize..200, 0..5),
        threads in 1usize..5,
    ) {
        let points = matrix(&coords);
        let config = AdaWaveConfig::builder().scale(16).threads(threads).build();
        let domain = BoundingBox::from_points(points.view()).unwrap();

        let mut whole = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        whole.ingest(points.view()).unwrap();

        // Each shard of a random row partition ingests its slice, writes
        // its accumulator to disk, and the coordinator merges the files in
        // shard order.
        let path = temp_path("kshard");
        let mut merged: Option<StreamingAdaWave> = None;
        for (lo, hi) in partition(points.len(), &raw_cuts) {
            let mut shard = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
            shard.ingest(rows(&points, lo, hi)).unwrap();
            save_accumulator(&path, &shard).unwrap();
            let loaded = load_accumulator(&path).unwrap();
            match merged.as_mut() {
                None => merged = Some(loaded),
                Some(m) => m.merge(loaded).unwrap(),
            }
        }
        std::fs::remove_file(&path).ok();

        let merged = merged.unwrap();
        prop_assert_eq!(merged.points_ingested(), points.len());
        prop_assert_eq!(grid_bits(merged.grid().unwrap()), grid_bits(whole.grid().unwrap()));
        prop_assert_eq!(merged.refit().unwrap(), whole.refit().unwrap());
    }

    /// Kill-and-resume: checkpoint during ingestion, drop the live session
    /// at a random row ("crash"), restore the last checkpoint, skip the
    /// rows it already holds, and finish. The result must be bit-identical
    /// to the uninterrupted stream.
    #[test]
    fn resume_from_checkpoint_reproduces_the_uninterrupted_stream(
        coords in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..150),
        batch_rows in 1usize..40,
        every in 1usize..60,
        kill_after in 1usize..150,
    ) {
        let points = matrix(&coords);
        let config = AdaWaveConfig::builder().scale(16).build();
        let domain = BoundingBox::from_points(points.view()).unwrap();

        let mut reference = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        reference.ingest(points.view()).unwrap();

        let path = temp_path("resume");
        let mut stream = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        let mut checkpointer = Checkpointer::new(&path, every);
        checkpointer.flush(&stream).unwrap(); // checkpoint 0: empty session
        let kill_after = kill_after.min(points.len());
        for lo in (0..kill_after).step_by(batch_rows) {
            let hi = (lo + batch_rows).min(kill_after);
            let report = stream.ingest(rows(&points, lo, hi)).unwrap();
            checkpointer.observe(&stream, report.points).unwrap();
        }
        drop(stream); // the crash: live state gone, only the file survives

        let mut resumed = load_accumulator(&path).unwrap();
        let skip = resumed.points_ingested();
        prop_assert!(skip <= kill_after);
        if skip < points.len() {
            resumed.ingest(rows(&points, skip, points.len())).unwrap();
        }
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(resumed.points_ingested(), points.len());
        prop_assert_eq!(grid_bits(resumed.grid().unwrap()), grid_bits(reference.grid().unwrap()));
        prop_assert_eq!(resumed.refit().unwrap(), reference.refit().unwrap());
    }
}
