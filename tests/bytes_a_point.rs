//! Heap bytes a point of the fit and predict paths. A counting global
//! allocator records the peak of live heap bytes while a path runs, at
//! two input sizes; the difference of the two peaks over the difference
//! in points is what the path adds a point. The constant part (the key
//! block, the grid, the model) is the same at both sizes and cancels out.
//!
//! The fit labels each point by a 4-byte cell index that it rewrites in
//! place into the label, and predict collects one 4-byte id a point, so
//! each path's slope is about 4 bytes: the clustering it returns. A key
//! or an `Option<usize>` label a point would add 16.
//!
//! The counter is process-wide, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use adawave::{AdaWave, AdaWaveConfig, Model, PointMatrix, PointsView};
use adawave_data::Rng;

/// [`System`], counting the bytes it holds live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `layout` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`, with the caller's contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak of live heap bytes while `run` runs, above those live when it
/// starts, and its output (which stays live, so it counts).
fn peak_bytes<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = run();
    (PEAK.load(Ordering::SeqCst) - base, out)
}

/// Three blobs in 75% uniform noise, interleaved, so that every prefix of
/// a few thousand rows already occupies every cell the whole set does.
fn noisy_blobs(rows: usize) -> PointMatrix {
    let mut rng = Rng::new(11);
    let centres = [[0.25, 0.3], [0.7, 0.75], [0.7, 0.25]];
    let mut points = PointMatrix::with_capacity(2, rows);
    for _ in 0..rows {
        if rng.below(4) == 0 {
            let [x, y] = centres[rng.below(3)];
            points.push_row(&[rng.normal_with(x, 0.04), rng.normal_with(y, 0.04)]);
        } else {
            points.push_row(&[rng.uniform(), rng.uniform()]);
        }
    }
    points
}

/// Bytes a point that `path` adds between `small` and `large` rows.
fn slope(
    points: PointsView<'_>,
    (small, large): (usize, usize),
    path: impl Fn(PointsView<'_>) -> usize,
) -> f64 {
    let small_peak = path(points.slice(0..small));
    let large_peak = path(points.slice(0..large));
    (large_peak as f64 - small_peak as f64) / (large - small) as f64
}

#[test]
fn fit_and_predict_add_at_most_five_bytes_a_point() {
    // Both sizes span several key blocks of `quantize_cells`, so its
    // fixed-size block buffer is part of the constant.
    let sizes = (150_000, 450_000);
    let points = noisy_blobs(sizes.1);
    let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build());

    let fit = slope(points.view(), sizes, |view| {
        let (bytes, clustering) = peak_bytes(|| adawave.fit(view).unwrap().into_clustering());
        assert!(
            clustering.cluster_count() >= 3,
            "{}",
            clustering.cluster_count()
        );
        bytes
    });
    assert!(fit <= 5.0, "fit: {fit:.2} bytes a point");

    let (_, model) = adawave.fit_with_model(points.view()).unwrap();
    let predict = slope(points.view(), sizes, |view| {
        let (bytes, clustering) = peak_bytes(|| model.predict(view).unwrap());
        assert_eq!(clustering.len(), view.len());
        bytes
    });
    assert!(predict <= 5.0, "predict: {predict:.2} bytes a point");
}
