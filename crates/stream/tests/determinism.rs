//! The streaming determinism contract: batched ingestion — in any batch
//! partition, any batch order, on any thread count — reproduces the
//! one-shot [`AdaWave::fit`] exactly when the frozen domain matches the
//! bounding box of the concatenated data.

use adawave_api::{PointMatrix, PointsView};
use adawave_core::{AdaWave, AdaWaveConfig};
use adawave_data::{shapes, Rng};
use adawave_grid::BoundingBox;
use adawave_stream::StreamingAdaWave;
use adawave_wavelet::{BoundaryMode, Wavelet};

/// Two blobs plus uniform noise — the paper's running-example shape, sized
/// for a fast debug-mode suite.
fn workload(seed: u64) -> PointMatrix {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.3], &[0.03, 0.03], 400);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.7], &[0.03, 0.03], 400);
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 400);
    points
}

/// View of rows `lo..hi` of a matrix (contiguous in the flat layout).
fn rows<'a>(points: &'a PointMatrix, lo: usize, hi: usize) -> PointsView<'a> {
    let dims = points.dims();
    PointsView::from_flat(&points.as_slice()[lo * dims..hi * dims], dims).unwrap()
}

fn stream_in_batches(
    config: &AdaWaveConfig,
    points: &PointMatrix,
    batch_rows: usize,
) -> StreamingAdaWave {
    let domain = BoundingBox::from_points(points.view()).unwrap();
    let mut stream = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
    let mut lo = 0;
    while lo < points.len() {
        let hi = (lo + batch_rows).min(points.len());
        stream.ingest(rows(points, lo, hi)).unwrap();
        lo = hi;
    }
    stream
}

#[test]
fn any_batch_size_is_bit_identical_to_one_shot_fit() {
    let points = workload(3);
    let config = AdaWaveConfig::builder().scale(64).build();
    let one_shot = AdaWave::new(config.clone()).fit(points.view()).unwrap();
    assert!(one_shot.cluster_count() >= 2, "workload is degenerate");
    for batch_rows in [1, 7, 97, 400, points.len()] {
        let stream = stream_in_batches(&config, &points, batch_rows);
        assert_eq!(stream.points_ingested(), points.len());
        assert_eq!(stream.outlier_count(), 0, "domain covers every point");
        // Full structural equality: labels, cluster count, stats and the
        // sorted density curve (counts and CDF(2,2) taps are exact in f64,
        // so this is bitwise).
        let refit = stream.refit().unwrap();
        assert_eq!(refit, one_shot, "batch_rows = {batch_rows}");
    }
}

#[test]
fn first_batch_domain_adoption_matches_fit_when_the_first_batch_spans_it() {
    // Without an upfront domain the first batch freezes it; feeding the
    // whole set as the first batch is then exactly the one-shot setting.
    let points = workload(5);
    let config = AdaWaveConfig::builder().scale(32).build();
    let mut stream = StreamingAdaWave::new(config.clone());
    stream.ingest(points.view()).unwrap();
    assert_eq!(
        stream.refit().unwrap(),
        AdaWave::new(config).fit(points.view()).unwrap()
    );
}

#[test]
fn batch_order_does_not_change_the_accumulated_grid() {
    let points = workload(7);
    let config = AdaWaveConfig::builder().scale(32).build();
    let domain = BoundingBox::from_points(points.view()).unwrap();
    let forward = stream_in_batches(&config, &points, 100);

    let mut backward = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
    let mut cuts: Vec<usize> = (0..points.len()).step_by(100).collect();
    cuts.push(points.len());
    for pair in cuts.windows(2).rev() {
        backward.ingest(rows(&points, pair[0], pair[1])).unwrap();
    }
    // The grid is an order-insensitive sufficient statistic...
    assert_eq!(forward.grid(), backward.grid());
    // ...so the *model* agrees too; only the per-point order differs, and
    // it differs exactly by the batch permutation.
    let fw = forward.refit().unwrap();
    let bw = backward.refit().unwrap();
    assert_eq!(fw.cluster_count(), bw.cluster_count());
    assert_eq!(fw.stats(), bw.stats());
    let fw: Vec<Option<usize>> = fw.labels().collect();
    let mut permuted: Vec<Option<usize>> = Vec::with_capacity(points.len());
    for pair in cuts.windows(2).rev() {
        permuted.extend_from_slice(&fw[pair[0]..pair[1]]);
    }
    assert_eq!(bw.labels().collect::<Vec<_>>(), permuted);
}

#[test]
fn thread_counts_produce_identical_accumulators_and_labels() {
    let points = workload(9);
    let reference = stream_in_batches(
        &AdaWaveConfig::builder().scale(32).threads(1).build(),
        &points,
        50,
    );
    let reference_result = reference.refit().unwrap();
    for threads in [2, 4, 8] {
        let config = AdaWaveConfig::builder().scale(32).threads(threads).build();
        let stream = stream_in_batches(&config, &points, 50);
        assert_eq!(stream.grid(), reference.grid(), "threads = {threads}");
        assert_eq!(
            stream.refit().unwrap(),
            reference_result,
            "threads = {threads}"
        );
    }
}

#[test]
fn batches_beyond_the_shard_size_drive_the_parallel_ingest_path() {
    // `ingest` only fans out when a batch spans more than one 8192-row key
    // chunk AND the runtime is parallel; feed 20k-row batches so several
    // workers actually run, and pin it against the sequential path and the
    // one-shot fit.
    let mut points = PointMatrix::new(2);
    let mut state = 7u64;
    for _ in 0..25_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let x = (state >> 33) as f64 / (1u64 << 31) as f64;
        let y = (state >> 20 & 0x1fff) as f64 / 8192.0;
        points.push_row(&[x, y]);
    }
    let sequential = stream_in_batches(
        &AdaWaveConfig::builder().scale(32).threads(1).build(),
        &points,
        20_000,
    );
    let reference = sequential.refit().unwrap();
    for threads in [2, 4] {
        let config = AdaWaveConfig::builder().scale(32).threads(threads).build();
        let parallel = stream_in_batches(&config, &points, 20_000);
        assert_eq!(parallel.grid(), sequential.grid(), "threads = {threads}");
        assert_eq!(parallel.refit().unwrap(), reference, "threads = {threads}");
        assert_eq!(
            parallel.refit().unwrap(),
            AdaWave::new(config).fit(points.view()).unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn merged_shards_match_a_single_session_and_one_shot_fit() {
    // Two workers each ingest half of the data against the same frozen
    // domain; merging their accumulators reproduces the single session.
    let points = workload(11);
    let config = AdaWaveConfig::builder().scale(64).build();
    let domain = BoundingBox::from_points(points.view()).unwrap();
    let half = points.len() / 2;

    let mut left = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
    left.ingest(rows(&points, 0, half)).unwrap();
    let mut right = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
    right.ingest(rows(&points, half, points.len())).unwrap();

    left.merge(right).unwrap();
    assert_eq!(left.points_ingested(), points.len());
    assert_eq!(
        left.refit().unwrap(),
        AdaWave::new(config).fit(points.view()).unwrap()
    );
}

/// Three 4-d blobs plus uniform noise: every per-dimension pass of the
/// transform runs on lines of a sparser grid than the 2-d workload's.
fn workload_4d(seed: u64) -> PointMatrix {
    let mut rng = Rng::new(seed);
    let mut points = PointMatrix::new(4);
    for center in [
        [0.2, 0.3, 0.7, 0.4],
        [0.7, 0.6, 0.2, 0.5],
        [0.5, 0.8, 0.5, 0.2],
    ] {
        shapes::gaussian_blob(&mut points, &mut rng, &center, &[0.04; 4], 300);
    }
    shapes::uniform_box(&mut points, &mut rng, &[0.0; 4], &[1.0; 4], 300);
    points
}

#[test]
fn refit_agrees_with_fit_across_configurations() {
    // The shared cluster_grid stage must keep streaming and batch in lock
    // step for non-default levels (including the honest level 0), other
    // wavelets and the periodic boundary — including db2/db3, whose
    // irrational taps make the transform's summation order observable. The
    // transform adds each output cell's contributions in an order fixed by
    // the grid content alone (ascending input coordinate along the line,
    // then ascending tap), which is what keeps the freshly quantized and
    // the stream-accumulated grids (different hash maps, same content)
    // bit-identical through the pipeline.
    let configs = [
        AdaWaveConfig::builder().scale(32).levels(0).build(),
        AdaWaveConfig::builder().scale(64).levels(2).build(),
        AdaWaveConfig::builder()
            .scale(32)
            .wavelet(Wavelet::Haar)
            .build(),
        AdaWaveConfig::builder()
            .scale(32)
            .wavelet(Wavelet::Daubechies2)
            .build(),
        AdaWaveConfig::builder()
            .scale(32)
            .boundary(BoundaryMode::Periodic)
            .wavelet(Wavelet::Daubechies3)
            .levels(2)
            .build(),
    ];
    for points in [workload(13), workload_4d(13)] {
        for config in &configs {
            let stream = stream_in_batches(config, &points, 123);
            assert_eq!(
                stream.refit().unwrap(),
                AdaWave::new(config.clone()).fit(points.view()).unwrap(),
                "{}-d, {config:?}",
                points.dims()
            );
        }
    }
}

#[test]
fn refit_is_idempotent_and_incremental_between_batches() {
    let points = workload(15);
    let config = AdaWaveConfig::builder().scale(32).build();
    let domain = BoundingBox::from_points(points.view()).unwrap();
    let mut stream = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();

    // Refit is callable after every batch (the streaming point of it all)
    // and twice in a row without changing the answer.
    let mut lo = 0;
    while lo < points.len() {
        let hi = (lo + 300).min(points.len());
        stream.ingest(rows(&points, lo, hi)).unwrap();
        let a = stream.refit().unwrap();
        let b = stream.refit().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), hi);
        lo = hi;
    }
    assert_eq!(
        stream.refit().unwrap(),
        AdaWave::new(config).fit(points.view()).unwrap()
    );
}
