//! # adawave-stream
//!
//! Streaming & mergeable ingestion for AdaWave.
//!
//! The paper's complexity argument (§IV: `O(nm)` total, with the `O(n)`
//! pass confined to quantization and everything downstream `O(m)` in
//! occupied cells) makes AdaWave naturally incremental: the sparse grid is
//! an **additive, order-insensitive sufficient statistic** of the data.
//! [`StreamingAdaWave`] exploits that:
//!
//! * [`ingest`](StreamingAdaWave::ingest) quantizes one batch at a time
//!   into the session's [`SparseGrid`]: one [`CellTable`] that lives as
//!   long as the session maps each occupied cell's key to its index in the
//!   grid's `(key, count)` vector ([`SparseGrid::add_interned`]), and every
//!   ingested point keeps only that index, 4 bytes (or a marker for an
//!   outlier). The batch's keys are computed on the configured
//!   [`Runtime`](adawave_runtime::Runtime), then each point costs one
//!   table probe and one add;
//! * [`merge`](StreamingAdaWave::merge) combines the accumulators of two
//!   independently-fed sessions (e.g. shards of a partitioned data set):
//!   the other session's `m` cells are interned once, and its points are
//!   re-indexed through that remap;
//! * [`refit_model`](StreamingAdaWave::refit_model) re-runs the
//!   transform → threshold → components stage on the accumulated grid in
//!   `O(m)` — **independent of the number of points ingested** — through
//!   the same [`cluster_grid`] call as one-shot [`AdaWave::fit`], and
//!   [`refit`](StreamingAdaWave::refit) additionally labels every retained
//!   point: each occupied cell is looked up in the model once, and each
//!   point reads its cell's label by index (the unavoidable `O(points)`
//!   walk);
//! * [`snapshot`](StreamingAdaWave::snapshot) /
//!   [`restore`](StreamingAdaWave::restore) (see [`persist`]) serialize
//!   the whole mergeable state bit-exactly to the versioned
//!   `adawave-accumulator` artifact format, so shards in *separate
//!   processes* write their accumulators to disk and a coordinator merges
//!   the files; [`Checkpointer`] rewrites the file atomically every N
//!   ingested rows for kill-and-resume crash tolerance.
//!
//! ## The domain-freeze contract
//!
//! One-shot [`AdaWave::fit`] derives the quantization domain from the data
//! it is handed. A stream cannot: later batches would shift the grid and
//! invalidate every accumulated count. The domain is therefore **frozen**
//! — either given upfront ([`StreamingAdaWave::with_domain`]) or adopted
//! from the finite rows of the first batch — and points that fall outside
//! it, as well as points with non-finite coordinates anywhere in the
//! stream, are **counted as outliers** rather than silently clamped into
//! boundary cells: they get the noise label and show up in
//! [`outlier_count`](StreamingAdaWave::outlier_count).
//!
//! When the frozen domain equals the bounding box of everything ingested
//! (e.g. a prescan computed it, or the first batch spans it), batched
//! ingestion in **any batch partition** reproduces the one-shot grid
//! exactly — counts are small integers, so the merge is bit-identical —
//! and [`refit`](StreamingAdaWave::refit) returns the same labels as
//! [`AdaWave::fit`] on the concatenated points.
//!
//! ```
//! use adawave_api::PointMatrix;
//! use adawave_core::{AdaWave, AdaWaveConfig};
//! use adawave_grid::BoundingBox;
//! use adawave_stream::StreamingAdaWave;
//!
//! // Two diagonal streaks; points arrive in two batches.
//! let mut all = PointMatrix::new(2);
//! for i in 0..200 {
//!     let t = i as f64 * 0.0004;
//!     all.push_row(&[0.2 + t, 0.2 - t]);
//!     all.push_row(&[0.8 - t, 0.8 + t]);
//! }
//!
//! let config = AdaWaveConfig::builder().scale(32).build();
//! let domain = BoundingBox::from_points(all.view()).unwrap();
//! let mut stream = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
//! let half = all.len() / 2;
//! for batch in [all.view().select(&(0..half).collect::<Vec<_>>()),
//!               all.view().select(&(half..all.len()).collect::<Vec<_>>())] {
//!     stream.ingest(batch.view()).unwrap();
//! }
//!
//! // Refit after streaming == one-shot fit on the concatenated points.
//! let streamed = stream.refit().unwrap();
//! let one_shot = AdaWave::new(config).fit(all.view()).unwrap();
//! assert_eq!(streamed, one_shot);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::ops::Range;

use adawave_api::{
    validate_row_count, ClusterError, Clustering, FitOutcome, PointsView, Precision,
};
use adawave_core::{
    cluster_grid, AdaWave, AdaWaveConfig, AdaWaveError, AdaWaveModel, AdaWaveResult, GridModel,
};
use adawave_grid::{fill_row_keys, BoundingBox, CellTable, Quantizer, SparseGrid};

pub mod persist;

pub use persist::{load_accumulator, save_accumulator, Checkpointer};

/// Errors produced by the streaming layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A batch is unusable (zero-dimensional, or no domain frozen yet at
    /// refit time).
    InvalidInput {
        /// Human-readable description.
        context: String,
    },
    /// Two accumulators (or a batch and the frozen domain) disagree on the
    /// quantized space and cannot be combined.
    DomainMismatch {
        /// Human-readable description.
        context: String,
    },
    /// The underlying AdaWave pipeline failed.
    Core(AdaWaveError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidInput { context } => write!(f, "invalid input: {context}"),
            StreamError::DomainMismatch { context } => write!(f, "domain mismatch: {context}"),
            StreamError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<AdaWaveError> for StreamError {
    fn from(e: AdaWaveError) -> Self {
        StreamError::Core(e)
    }
}

impl From<adawave_grid::GridError> for StreamError {
    fn from(e: adawave_grid::GridError) -> Self {
        StreamError::Core(AdaWaveError::Grid(e))
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, StreamError>;

/// A rejected [`merge`](StreamingAdaWave::merge): the error plus the
/// right-hand session, handed back **untouched** so its accumulated state
/// (which may summarize an unreplayable stream) is never lost to a failed
/// combine.
#[derive(Debug)]
pub struct MergeRejected {
    /// Why the sessions cannot be combined.
    pub error: StreamError,
    /// The right-hand session, exactly as it was passed in.
    pub other: StreamingAdaWave,
}

impl std::fmt::Display for MergeRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for MergeRejected {}

/// What one [`ingest`](StreamingAdaWave::ingest) call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Points in the batch.
    pub points: usize,
    /// Points of the batch that fell outside the frozen domain (or had
    /// non-finite coordinates) and were recorded as outliers.
    pub outliers: usize,
}

/// The cell index an outlier point holds: no cell. A session never holds
/// this many cells, so it is never a real index.
const OUTLIER: u32 = u32::MAX;

/// The frozen quantized space plus the grid accumulated in it.
#[derive(Debug, Clone)]
struct Frozen {
    quantizer: Quantizer,
    /// Cell key → the cell's index in `grid`, for the session's lifetime.
    table: CellTable,
    /// Every occupied cell and its in-domain point count, in the order the
    /// cells first arrived (ascending key after a restore). The session
    /// never removes a cell, so an index stays valid for good.
    grid: SparseGrid,
}

impl Frozen {
    fn new(quantizer: Quantizer) -> Self {
        Self {
            table: CellTable::new(quantizer.codec()),
            grid: SparseGrid::new(),
            quantizer,
        }
    }

    /// Add `count` points to the cell `key`, interning the cell on first
    /// sight ([`SparseGrid::add_interned`]). Returns the cell's index.
    #[inline]
    fn add(&mut self, key: u128, count: f64) -> u32 {
        let index = self.grid.add_interned(&mut self.table, key, count);
        u32::try_from(index)
            .ok()
            .filter(|&i| i != OUTLIER)
            .expect("a session indexes fewer than u32::MAX cells")
    }
}

/// An incremental AdaWave session: ingest point batches into an additive
/// sparse-grid accumulator, merge accumulators from independent shards,
/// and refit the cluster model in `O(m)` whenever fresh labels are needed.
///
/// See the [crate-level docs](crate) for the domain-freeze contract and a
/// complete example.
#[derive(Debug, Clone)]
pub struct StreamingAdaWave {
    adawave: AdaWave,
    /// The frozen domain and its accumulated cells; `None` until a domain
    /// exists (given upfront or adopted from the first finite points).
    frozen: Option<Frozen>,
    /// For every ingested point (in arrival order) the index of its cell
    /// in `frozen`'s list, or [`OUTLIER`] — the streaming counterpart of
    /// the paper's lookup table, 4 bytes a point.
    point_cells: Vec<u32>,
    outliers: usize,
    /// Dimensionality fixed by the domain or the first non-empty batch.
    dims: Option<usize>,
}

impl StreamingAdaWave {
    /// Create a session that adopts its domain from the first ingested
    /// batch: the bounding box of that batch's *finite* rows is frozen
    /// (non-finite rows are outliers wherever they appear, so the adopted
    /// domain does not depend on how the points were batched), and later
    /// points outside it are counted as outliers.
    pub fn new(config: AdaWaveConfig) -> Self {
        Self {
            adawave: AdaWave::new(config),
            frozen: None,
            point_cells: Vec::new(),
            outliers: 0,
            dims: None,
        }
    }

    /// Create a session with the domain frozen upfront. Use this when the
    /// domain is known (sensor ranges, normalized features) or computed by
    /// a prescan — it makes [`refit`](Self::refit) reproduce
    /// [`AdaWave::fit`] on the concatenated data exactly.
    pub fn with_domain(config: AdaWaveConfig, domain: BoundingBox) -> Result<Self> {
        let adawave = AdaWave::new(config);
        let quantizer = adawave.quantizer_for(&domain)?;
        Ok(Self {
            adawave,
            dims: Some(quantizer.dims()),
            frozen: Some(Frozen::new(quantizer)),
            point_cells: Vec::new(),
            outliers: 0,
        })
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &AdaWaveConfig {
        self.adawave.config()
    }

    /// The frozen domain, once one exists.
    pub fn domain(&self) -> Option<&BoundingBox> {
        self.frozen.as_ref().map(|f| f.quantizer.bounds())
    }

    /// Number of points ingested so far (outliers included).
    pub fn points_ingested(&self) -> usize {
        self.point_cells.len()
    }

    /// Number of ingested points recorded as outliers (outside the frozen
    /// domain, or non-finite).
    pub fn outlier_count(&self) -> usize {
        self.outliers
    }

    /// Occupied cells of the accumulated grid — the `m` that governs the
    /// [`refit_model`](Self::refit_model) cost.
    pub fn occupied_cells(&self) -> usize {
        self.frozen.as_ref().map_or(0, |f| f.grid.occupied_cells())
    }

    /// The accumulated sparse grid (per-cell in-domain point counts), once
    /// a domain is frozen.
    pub fn grid(&self) -> Option<&SparseGrid> {
        self.frozen.as_ref().map(|f| &f.grid)
    }

    /// Quantize a batch into the accumulator (Algorithm 2, incrementally).
    ///
    /// The first batch with finite rows freezes the domain if none was
    /// given. Every row's cell key (or `None` for an outlier) is computed
    /// in parallel on the configured runtime into its own slot of a
    /// batch-sized buffer; one sequential pass then interns each key in
    /// the session's cell table, adds the point to its cell's count and
    /// records the cell's index for the point. A key depends only on its
    /// own row and counts are small integers, so the accumulated grid is
    /// identical for every thread count and every way of partitioning the
    /// same points into batches. Points outside the frozen domain — and
    /// non-finite points wherever they appear — are recorded as outliers
    /// (labelled noise by [`refit`](Self::refit)), never clamped.
    ///
    /// ```
    /// use adawave_api::PointMatrix;
    /// use adawave_core::AdaWaveConfig;
    /// use adawave_stream::StreamingAdaWave;
    ///
    /// let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
    /// let first = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
    /// stream.ingest(first.view()).unwrap();           // freezes [0,1] x [0,1]
    /// let late = PointMatrix::from_rows(vec![vec![0.5, 0.5], vec![2.0, 2.0]]).unwrap();
    /// let report = stream.ingest(late.view()).unwrap();
    /// assert_eq!(report.outliers, 1);                  // (2, 2) is out of domain
    /// assert_eq!(stream.points_ingested(), 4);
    /// ```
    pub fn ingest(&mut self, batch: PointsView<'_>) -> Result<IngestReport> {
        if batch.is_empty() {
            return Ok(IngestReport {
                points: 0,
                outliers: 0,
            });
        }
        let dims = batch.dims();
        if dims == 0 {
            return Err(StreamError::InvalidInput {
                context: "points have zero dimensions".to_string(),
            });
        }
        // A refit labels every ingested point, one `u32` a point.
        if let Err(ClusterError::InvalidInput { context }) =
            validate_row_count(self.point_cells.len().saturating_add(batch.len()))
        {
            return Err(StreamError::InvalidInput { context });
        }
        match self.dims {
            Some(expected) if expected != dims => {
                return Err(StreamError::DomainMismatch {
                    context: format!("batch has {dims} dimensions but the session has {expected}"),
                });
            }
            _ => self.dims = Some(dims),
        }
        if self.frozen.is_none() {
            match finite_bounds(batch) {
                Some(domain) => {
                    let quantizer = self.adawave.quantizer_for(&domain)?;
                    self.frozen = Some(Frozen::new(quantizer));
                }
                None => {
                    // No finite row to adopt a domain from: every point of
                    // this batch is an outlier, and the next batch with
                    // finite rows will freeze the domain — the same outcome
                    // as if these rows had arrived in any later batch.
                    self.point_cells
                        .extend(std::iter::repeat_n(OUTLIER, batch.len()));
                    self.outliers += batch.len();
                    return Ok(IngestReport {
                        points: batch.len(),
                        outliers: batch.len(),
                    });
                }
            }
        }
        let frozen = self.frozen.as_mut().expect("frozen above");

        let quantizer = &frozen.quantizer;
        // The configured numeric lane applies to streaming ingestion too:
        // the f32 lane state is built once per batch, never per point. The
        // membership test stays in f64 either way, so the outlier contract
        // is lane-independent.
        let lane = match self.adawave.config().precision {
            Precision::F64 => None,
            Precision::F32 => Some(quantizer.f32_lane()),
        };
        let mut keys = vec![None; batch.len()];
        fill_row_keys(batch, self.adawave.config().runtime, &mut keys, |p| {
            quantizer.bounds().contains(p).then(|| match &lane {
                None => quantizer.cell_key(p),
                Some(lane) => quantizer.cell_key_f32(lane, p),
            })
        });
        let mut outliers = 0;
        self.point_cells.reserve(batch.len());
        for key in keys {
            self.point_cells.push(match key {
                Some(key) => frozen.add(key, 1.0),
                None => {
                    outliers += 1;
                    OUTLIER
                }
            });
        }
        self.outliers += outliers;
        Ok(IngestReport {
            points: batch.len(),
            outliers,
        })
    }

    /// Combine another session's accumulator into this one (shard merge).
    ///
    /// Both sessions must share the model configuration (the worker-pool
    /// `runtime` may differ — it never affects results) and must have
    /// frozen the *same* quantized space (equal domain and interval
    /// counts); an empty `other` is a no-op and an un-frozen `self`
    /// simply adopts `other`'s accumulator. The merged
    /// grid is exactly the grid of the concatenated ingests — the sparse
    /// grid is an additive sufficient statistic — and `other`'s points are
    /// appended after this session's in labeling order. `other`'s `m`
    /// cells are interned into this session's table once, and its points
    /// follow their cells through that remap.
    ///
    /// On rejection the returned [`MergeRejected`] carries `other` back
    /// untouched, so an incompatible session's accumulated state (possibly
    /// the only record of an unreplayable stream) is never dropped.
    pub fn merge(
        &mut self,
        other: StreamingAdaWave,
    ) -> std::result::Result<(), Box<MergeRejected>> {
        // Validate before touching anything, so a rejected merge can hand
        // `other` back untouched instead of dropping its accumulator.
        let reject = |error: StreamError, other: StreamingAdaWave| {
            Err(Box::new(MergeRejected { error, other }))
        };
        if let (Some(a), Some(b)) = (self.dims, other.dims) {
            if a != b {
                return reject(
                    StreamError::DomainMismatch {
                        context: format!("the sessions hold {a}- and {b}-dimensional points"),
                    },
                    other,
                );
            }
        }
        // The merged accumulator is refit with `self`'s configuration, so
        // the sessions must agree on the model knobs (wavelet, levels,
        // threshold, ...) — otherwise `other`'s parameters would be
        // silently discarded. Only the worker pool may differ: shards
        // legitimately run with different thread counts, and the runtime
        // never affects results (the fixed-chunk contract).
        let mut theirs_config = other.config().clone();
        theirs_config.runtime = self.adawave.config().runtime;
        if *self.adawave.config() != theirs_config {
            return reject(
                StreamError::DomainMismatch {
                    context: "the sessions use different model configurations".to_string(),
                },
                other,
            );
        }
        if let Err(ClusterError::InvalidInput { context }) =
            validate_row_count(self.point_cells.len() + other.point_cells.len())
        {
            return reject(StreamError::InvalidInput { context }, other);
        }
        if let (Some(mine), Some(theirs)) = (&self.frozen, &other.frozen) {
            if mine.quantizer != theirs.quantizer {
                return reject(
                    StreamError::DomainMismatch {
                        context: "the sessions froze different domains or scales".to_string(),
                    },
                    other,
                );
            }
        }
        match (&mut self.frozen, other.frozen) {
            (Some(mine), Some(theirs)) => {
                let remap: Vec<u32> = theirs
                    .grid
                    .iter()
                    .map(|(key, count)| mine.add(key, count))
                    .collect();
                self.point_cells
                    .extend(other.point_cells.iter().map(|&index| match index {
                        OUTLIER => OUTLIER,
                        index => remap[index as usize],
                    }));
            }
            // An un-frozen side holds outliers only, whose marker needs no
            // remap; an adopted accumulator keeps its own indices.
            (None, Some(theirs)) => {
                self.frozen = Some(theirs);
                self.point_cells.extend(other.point_cells);
            }
            (_, None) => self.point_cells.extend(other.point_cells),
        }
        self.outliers += other.outliers;
        self.dims = self.dims.or(other.dims);
        Ok(())
    }

    /// Refit the grid-level cluster model on the accumulated grid:
    /// transform → threshold → connected components, in `O(m)` for `m`
    /// occupied cells — the cost does **not** grow with the number of
    /// points ingested. This is the grid stage one-shot [`AdaWave::fit`]
    /// runs ([`cluster_grid`]). Errors if no domain has been frozen yet.
    pub fn refit_model(&self) -> Result<GridModel> {
        let frozen = self.frozen()?;
        Ok(cluster_grid(
            &frozen.grid,
            frozen.quantizer.codec(),
            self.adawave.config(),
        )?)
    }

    /// [`refit_model`](Self::refit_model) plus the per-point labeling pass
    /// (outliers become noise), yielding the same [`AdaWaveResult`] that
    /// [`AdaWave::fit`] would return on the concatenated points over the
    /// same domain. Each occupied cell is re-encoded into the transformed
    /// space and looked up in the model once, and each point reads its
    /// cell's label by index — `O(n)`, but the cheap part of refitting.
    pub fn refit(&self) -> Result<AdaWaveResult> {
        let model = self.refit_model()?;
        let ids = self.ids_under(&model);
        Ok(model.into_result(ids))
    }

    /// [`refit`](Self::refit) packaged as the two-stage contract: the
    /// canonical clustering of every ingested point plus a boxed serving
    /// [`AdaWaveModel`] built from the same grid refit — train on the
    /// stream, serve out-of-sample points forever after. The model
    /// inherits the session's outlier contract (out-of-domain and
    /// non-finite points predict noise), so re-predicting an ingested
    /// point always reproduces its refit label — outliers included.
    pub fn refit_outcome(&self) -> Result<FitOutcome> {
        let grid_model = self.refit_model()?;
        let ids = self.ids_under(&grid_model);
        let (clustering, remap) = Clustering::from_ids_with_remap(ids, grid_model.cluster_count());
        Ok(FitOutcome {
            clustering,
            model: Box::new(self.serving_model(&grid_model, &remap)?),
        })
    }

    /// The serving [`AdaWaveModel`] of a grid model this session refit
    /// ([`refit_model`](Self::refit_model)), its component ids mapped
    /// through `remap` as [`AdaWaveModel::from_parts`] does: the identity
    /// keeps the raw component ids, and the remap
    /// [`Clustering::from_ids_with_remap`] returns aligns the model with
    /// that clustering. The model inherits the session's outlier contract:
    /// out-of-domain and non-finite points predict noise.
    pub fn serving_model(&self, model: &GridModel, remap: &[usize]) -> Result<AdaWaveModel> {
        let frozen = self.frozen()?;
        Ok(AdaWaveModel::from_parts(
            frozen.quantizer.clone(),
            model,
            remap,
            self.adawave.config().precision,
        ))
    }

    /// The frozen domain's state, or an error before one exists.
    fn frozen(&self) -> Result<&Frozen> {
        self.frozen
            .as_ref()
            .ok_or_else(|| StreamError::InvalidInput {
                context: "no domain frozen yet (ingest finite points or use with_domain)"
                    .to_string(),
            })
    }

    /// Label every retained point under a refit grid model: one
    /// [`GridModel::cluster_of_cell`] per occupied cell, then each point's
    /// cell index rewritten into its component id ([`GridModel::assign_cells`];
    /// an [`OUTLIER`] is past every cell, so noise). The session keeps its
    /// own indices for later refits and merges, so the rewrite runs on a
    /// copy.
    fn ids_under(&self, model: &GridModel) -> Vec<u32> {
        let frozen = self.frozen.as_ref().expect("caller refit the model");
        model.assign_cells(
            &frozen.grid,
            frozen.quantizer.codec(),
            self.point_cells.clone(),
        )
    }
}

/// Bounding box of the finite rows of a batch; `None` when every row has
/// a non-finite coordinate (or the batch is empty).
///
/// This is the rule [`StreamingAdaWave`] uses to adopt a domain from the
/// first batch; a prescan that wants its frozen domain to follow the same
/// outlier semantics (non-finite rows excluded rather than fatal) should
/// union these per-batch boxes with [`BoundingBox::union`].
pub fn finite_bounds(batch: PointsView<'_>) -> Option<BoundingBox> {
    let dims = batch.dims();
    let mut min = vec![f64::INFINITY; dims];
    let mut max = vec![f64::NEG_INFINITY; dims];
    let mut any_finite = false;
    for row in batch.rows() {
        if row.iter().all(|v| v.is_finite()) {
            any_finite = true;
            for (j, &v) in row.iter().enumerate() {
                min[j] = min[j].min(v);
                max[j] = max[j].max(v);
            }
        }
    }
    any_finite.then(|| BoundingBox::from_bounds(min, max))
}

/// Parse a 1-based shard spec `i/k` (`1 <= i <= k`) into `i`, `k` and the
/// rule that slices an input of `n` rows for that shard: rows
/// `[n·(i-1)/k, n·i/k)`. The `k` shards of one input thus cover it in
/// order, no row twice, which is what lets their merged accumulators
/// reproduce the one-shot grid; every shard writer slices by this rule.
/// `None` for a malformed spec.
pub fn shard_rows(spec: &str) -> Option<(usize, usize, impl Fn(usize) -> Range<usize>)> {
    let (index, count) = spec.split_once('/')?;
    let index: usize = index.trim().parse().ok()?;
    let count: usize = count.trim().parse().ok()?;
    if !(1..=count).contains(&index) {
        return None;
    }
    Some((index, count, move |rows: usize| {
        rows * (index - 1) / count..rows * index / count
    }))
}

/// The per-refit hash map [`StreamingAdaWave`]'s labeling pass replaced,
/// kept as the reference both sides of the cell table must match.
#[cfg(test)]
mod hash_reference {
    use std::collections::HashMap;

    use super::*;

    /// `ids_under` with the cell → cluster map materialized over the `m`
    /// occupied cells and one hash lookup per point, every cell's cluster
    /// itself a hash lookup in the model's labels.
    pub(crate) fn ids_under(stream: &StreamingAdaWave, model: &GridModel) -> Vec<u32> {
        let frozen = stream.frozen.as_ref().expect("caller refit the model");
        let codec = frozen.quantizer.codec();
        let labels: HashMap<u128, usize> = model.labels().iter().collect();
        let cells: Vec<(u128, f64)> = frozen.grid.iter().collect();
        let cell_cluster: HashMap<u128, Option<usize>> = cells
            .iter()
            .map(|&(key, _)| {
                let down = codec.remap(key, model.codec(), model.levels(), None);
                (key, labels.get(&down).copied())
            })
            .collect();
        stream
            .point_cells
            .iter()
            .map(|&index| {
                let key = cells.get(index as usize).map(|&(key, _)| key);
                key.and_then(|key| cell_cluster.get(&key).copied().flatten())
                    .map_or(Clustering::NOISE, |id| id as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::{Model, PointMatrix};
    use adawave_data::Rng;
    use adawave_runtime::Runtime;
    use proptest::prelude::*;

    #[test]
    fn shard_rows_cover_the_input_in_order() {
        for count in 1..=7 {
            for n in [0, 1, 5, 64, 1001] {
                let mut next = 0;
                for index in 1..=count {
                    let (i, k, rows) = shard_rows(&format!("{index}/{count}")).unwrap();
                    assert_eq!((i, k), (index, count));
                    assert_eq!(rows(n).start, next, "shard {index}/{count} of {n}");
                    next = rows(n).end;
                }
                assert_eq!(next, n, "{count} shards of {n}");
            }
        }
        assert_eq!(shard_rows(" 2 / 3").map(|(i, k, _)| (i, k)), Some((2, 3)));
        for bad in ["0/3", "4/3", "1/0", "banana", "1", "1/x", "-1/3", ""] {
            assert!(shard_rows(bad).is_none(), "{bad}");
        }
    }

    /// Interval counts of a `dims`-dimensional codec whose keys are
    /// `width` bits wide, after `levels` downsamplings when `transformed`.
    /// Every dimension gets at least one bit, and a count of `b` bits is
    /// drawn from `(2^(b-1), 2^b]`, so most counts are not powers of two.
    fn intervals_of_width(
        rng: &mut Rng,
        dims: usize,
        width: u32,
        levels: u32,
        transformed: bool,
    ) -> Vec<u32> {
        let mut bits = vec![1u32; dims];
        for _ in dims as u32..width {
            bits[rng.below(dims)] += 1;
        }
        bits.iter()
            .map(|&b| {
                let half = 1usize << (b - 1);
                let m = half + 1 + rng.below(half);
                let m = if transformed {
                    (m << levels) - rng.below(1 << levels)
                } else {
                    m
                };
                m as u32
            })
            .collect()
    }

    /// Points in the unit cube: most copy one of a few sites, with a
    /// jitter that is zero, sub-cell or a few cells wide, the rest are
    /// uniform noise.
    fn clustered_points(rng: &mut Rng, dims: usize) -> PointMatrix {
        let sites: Vec<(Vec<f64>, f64)> = (0..1 + rng.below(5))
            .map(|_| {
                let centre = (0..dims).map(|_| rng.uniform()).collect();
                (centre, [0.0, 1e-6, 1e-2][rng.below(3)])
            })
            .collect();
        let mut points = PointMatrix::new(dims);
        for _ in 0..1 + rng.below(400) {
            let row: Vec<f64> = if rng.below(10) < 7 {
                let (centre, jitter) = &sites[rng.below(sites.len())];
                centre
                    .iter()
                    .map(|&c| c + jitter * (rng.uniform() - 0.5))
                    .collect()
            } else {
                (0..dims).map(|_| rng.uniform()).collect()
            };
            points.push_row(&row);
        }
        points
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `refit` and `refit_outcome` through the cell table equal the
        /// per-refit hash map they replaced, with the frozen or the
        /// transformed codec one bit below, at and one bit above the cap,
        /// on both lanes, at levels 0-2 and at 1 and 4 threads. Two
        /// batches, with an out-of-domain and a non-finite row in the
        /// second, go through a merge of two sessions.
        #[test]
        fn refit_matches_the_hash_reference(seed in 0u64..u64::MAX) {
            let mut rng = Rng::new(seed);
            let dims = 1 + rng.below(6);
            let first = clustered_points(&mut rng, dims);
            let mut second = clustered_points(&mut rng, dims);
            second.push_row(&vec![2.0; dims]);
            second.push_row(&vec![f64::NAN; dims]);
            let mut all = first.clone();
            all.append(&second);
            let domain = finite_bounds(all.view()).unwrap();
            for width in [21, 22, 23] {
                for levels in 0..3 {
                    let transformed = rng.below(2) == 1;
                    let intervals = intervals_of_width(&mut rng, dims, width, levels, transformed);
                    for precision in [Precision::F64, Precision::F32] {
                        for threads in [1, 4] {
                            let config = AdaWaveConfig::builder()
                                .per_dimension_scale(intervals.clone())
                                .levels(levels)
                                .precision(precision)
                                .runtime(Runtime::with_threads(threads))
                                .build();
                            let context = format!(
                                "{intervals:?}, levels {levels}, {precision}, threads {threads}"
                            );
                            let session = || {
                                StreamingAdaWave::with_domain(config.clone(), domain.clone())
                                    .unwrap()
                            };
                            let mut stream = session();
                            stream.ingest(first.view()).unwrap();
                            let mut shard = session();
                            shard.ingest(second.view()).unwrap();
                            stream.merge(shard).unwrap();
                            let codec = stream.frozen.as_ref().unwrap().quantizer.codec();
                            let indexed = if transformed {
                                codec.downsampled(levels).unwrap()
                            } else {
                                codec.clone()
                            };
                            prop_assert_eq!(indexed.key_bits(), width);

                            let model = stream.refit_model().unwrap();
                            let ids = hash_reference::ids_under(&stream, &model);
                            let want = model.into_result(ids);
                            prop_assert_eq!(&stream.refit().unwrap(), &want, "{}", context);
                            let outcome = stream.refit_outcome().unwrap();
                            let want = want.to_clustering();
                            prop_assert_eq!(&outcome.clustering, &want, "{}", context);
                            prop_assert_eq!(
                                &outcome.model.predict(all.view()).unwrap(),
                                &want,
                                "{}", context
                            );
                        }
                    }
                }
            }
        }
    }

    /// Where an oracle row lands in a session whose domain is the unit
    /// cube.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Row {
        Inside,
        Outside,
        NonFinite,
    }

    /// The rows of an oracle case, in arrival order: a prefix of 0-3
    /// non-finite rows, a frame of the two unit-cube corners plus a few
    /// in-domain rows (so a session that adopts its domain from the frame
    /// freezes exactly the unit cube), then clustered in-domain rows with
    /// out-of-domain and non-finite rows mixed in. Returns the rows, what
    /// each is, and where the frame starts and ends.
    fn oracle_rows(rng: &mut Rng, dims: usize) -> (PointMatrix, Vec<Row>, Range<usize>) {
        let mut points = PointMatrix::new(dims);
        let mut kinds = Vec::new();
        let non_finite = |rng: &mut Rng, row: &mut Vec<f64>| {
            row[rng.below(dims)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
        };
        for _ in 0..[0, 0, 1, 3][rng.below(4)] {
            let mut row = vec![0.5; dims];
            non_finite(rng, &mut row);
            points.push_row(&row);
            kinds.push(Row::NonFinite);
        }
        let inside = clustered_points(rng, dims);
        let inside: Vec<Vec<f64>> = inside
            .rows()
            .map(|row| row.iter().map(|v| v.clamp(0.0, 1.0)).collect())
            .collect();
        let frame_start = points.len();
        points.push_row(&vec![0.0; dims]);
        points.push_row(&vec![1.0; dims]);
        kinds.extend([Row::Inside, Row::Inside]);
        let framed = rng.below(5).min(inside.len());
        for row in &inside[..framed] {
            points.push_row(row);
            kinds.push(Row::Inside);
        }
        let frame = frame_start..points.len();
        for row in &inside[framed..] {
            let mut stray = row.clone();
            match rng.below(10) {
                0 => {
                    stray[rng.below(dims)] = [1.5, -0.5][rng.below(2)];
                    points.push_row(&stray);
                    kinds.push(Row::Outside);
                }
                1 => {
                    non_finite(rng, &mut stray);
                    points.push_row(&stray);
                    kinds.push(Row::NonFinite);
                }
                _ => {}
            }
            points.push_row(row);
            kinds.push(Row::Inside);
        }
        (points, kinds, frame)
    }

    /// The snapshot a session holding `order`'s rows must write, rendered
    /// from the rows alone: the configuration, the quantizer and the dump
    /// of the grid that quantizing the in-domain rows in one shot builds,
    /// keys at the codec's hex width, then for each row the position of its
    /// `cell_key` among the dump's ascending keys, as many hex digits wide
    /// as the last position needs (or `-` for an outlier).
    fn reference_snapshot(
        config: &AdaWaveConfig,
        quantizer: &Quantizer,
        (points, kinds): (&PointMatrix, &[Row]),
        order: &[usize],
        (frozen, dims_known): (bool, bool),
    ) -> String {
        let mut out = String::new();
        persist::serialize_config(config, &mut out);
        match dims_known {
            true => out.push_str(&format!("dims {}\n", points.dims())),
            false => out.push_str("dims none\n"),
        }
        let outliers = order.iter().filter(|&&i| kinds[i] != Row::Inside).count();
        out.push_str(&format!("outliers {outliers}\npoints {}\n", order.len()));
        if !frozen {
            // Nothing lands in a cell before a domain is frozen.
            out.push_str("frozen none\n");
            out.push_str(&"-\n".repeat(order.len()));
            return out;
        }
        out.push_str("frozen some\n");
        quantizer.serialize_into(&mut out);
        let lane = quantizer.f32_lane();
        let mut inside = PointMatrix::new(points.dims());
        let keys: Vec<Option<u128>> = order
            .iter()
            .map(|&i| {
                let row = points.view().row(i);
                (kinds[i] == Row::Inside).then(|| {
                    inside.push_row(row);
                    match config.precision {
                        Precision::F64 => quantizer.cell_key(row),
                        Precision::F32 => quantizer.cell_key_f32(&lane, row),
                    }
                })
            })
            .collect();
        let (grid, _) = match config.precision {
            Precision::F64 => quantizer.quantize_with(inside.view(), config.runtime),
            Precision::F32 => quantizer.quantize_f32_with(inside.view(), config.runtime),
        };
        let digits = quantizer.codec().key_bits().div_ceil(4);
        grid.serialize_into(&mut out, digits);
        let mut dump: Vec<u128> = grid.iter().map(|(key, _)| key).collect();
        dump.sort_unstable();
        let width = format!("{:x}", dump.len().saturating_sub(1)).len();
        for key in keys {
            match key {
                None => out.push_str("-\n"),
                Some(key) => {
                    let position = dump.binary_search(&key).unwrap();
                    out.push_str(&format!("{position:0width$x}\n"));
                }
            }
        }
        out
    }

    /// One oracle session: the session, the rows it holds in its labeling
    /// order, and whether it froze a domain and knows its dimensions.
    struct Held {
        stream: StreamingAdaWave,
        order: Vec<usize>,
        frozen: bool,
        dims_known: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A byte-level oracle for the accumulator. Random sessions ingest
        /// contiguous segments of the rows in random batches (an
        /// all-non-finite first batch, out-of-domain and non-finite rows
        /// included); some adopt their domain from the frame, some are
        /// given it, and segments without a finite row may stay unfrozen.
        /// Some sessions are snapshot, restored and fed on; then adjacent
        /// sessions merge, either one into the other, until one is left.
        /// Every snapshot taken must equal the one rendered from its rows,
        /// and the last session's `refit` and `refit_outcome` must equal
        /// `AdaWave::fit` on its in-domain rows. The quantizer's codec is
        /// one bit below, at and one bit above the cell table's cap, on
        /// both lanes, at 1 and 4 threads.
        #[test]
        fn snapshots_render_the_rows_and_refits_match_fit(seed in 0u64..u64::MAX) {
            let mut rng = Rng::new(seed);
            let dims = 1 + rng.below(4);
            let (points, kinds, frame) = oracle_rows(&mut rng, dims);
            let rows = (&points, &kinds[..]);
            let n = points.len();
            let domain = BoundingBox::from_bounds(vec![0.0; dims], vec![1.0; dims]);
            for width in [21, 22, 23] {
                let intervals = intervals_of_width(&mut rng, dims, width, 0, false);
                for precision in [Precision::F64, Precision::F32] {
                    for threads in [1, 4] {
                        let config = AdaWaveConfig::builder()
                            .per_dimension_scale(intervals.clone())
                            .levels(rng.below(3) as u32)
                            .precision(precision)
                            .runtime(Runtime::with_threads(threads))
                            .build();
                        let context = format!("{intervals:?}, {precision}, threads {threads}");
                        let quantizer = AdaWave::new(config.clone()).quantizer_for(&domain).unwrap();
                        prop_assert_eq!(quantizer.codec().key_bits(), width);

                        // Segments: the prefix on its own or with the
                        // frame, then up to two cuts after the frame.
                        let mut cuts = vec![0, n];
                        if frame.start > 0 && rng.below(2) == 0 {
                            cuts.push(frame.start);
                        }
                        for _ in 0..rng.below(3) {
                            cuts.push(frame.end + rng.below(n - frame.end + 1));
                        }
                        cuts.sort_unstable();
                        cuts.dedup();
                        let mut held = Vec::new();
                        for segment in cuts.windows(2).map(|w| w[0]..w[1]) {
                            let finite = segment.clone().any(|i| kinds[i] != Row::NonFinite);
                            // Only a session whose first finite batch is
                            // the frame may adopt its domain.
                            let adopts = segment.contains(&frame.start) || !finite;
                            let mut session = if adopts && rng.below(2) == 0 {
                                Held { stream: StreamingAdaWave::new(config.clone()), order: Vec::new(), frozen: false, dims_known: false }
                            } else {
                                let stream = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
                                Held { stream, order: Vec::new(), frozen: true, dims_known: true }
                            };
                            let mut bounds = vec![segment.start, segment.end];
                            if segment.contains(&frame.start) {
                                bounds.extend([frame.start, frame.end]);
                            }
                            let mut at = segment.start;
                            while at < segment.end {
                                at += 1 + rng.below(64);
                                bounds.push(at.min(segment.end));
                            }
                            // The frame is one batch, never split.
                            bounds.retain(|&b| b <= frame.start || b >= frame.end);
                            bounds.sort_unstable();
                            bounds.dedup();
                            let restore_after = rng.below(bounds.len());
                            for (b, batch) in bounds.windows(2).map(|w| w[0]..w[1]).enumerate() {
                                let flat = &points.as_slice()[batch.start * dims..batch.end * dims];
                                let view = PointsView::from_flat(flat, dims).unwrap();
                                let report = session.stream.ingest(view).unwrap();
                                let outliers = batch.clone().filter(|&i| kinds[i] != Row::Inside).count();
                                prop_assert_eq!(report.outliers, outliers, "{}", context);
                                session.order.extend(batch.clone());
                                session.dims_known = true;
                                session.frozen |= outliers < batch.len();
                                if b + 1 == restore_after {
                                    let payload = session.stream.snapshot();
                                    let want = reference_snapshot(
                                        &config, &quantizer, rows, &session.order,
                                        (session.frozen, session.dims_known),
                                    );
                                    prop_assert!(payload == want, "restored snapshot: {}", context);
                                    session.stream = StreamingAdaWave::restore(&payload).unwrap();
                                    prop_assert!(session.stream.snapshot() == payload, "{}", context);
                                }
                            }
                            held.push(session);
                        }

                        while held.len() > 1 {
                            let at = rng.below(held.len() - 1);
                            let right = held.remove(at + 1);
                            let left = held.remove(at);
                            let (mut into, from) = if rng.below(2) == 0 { (left, right) } else { (right, left) };
                            into.stream.merge(from.stream).unwrap();
                            into.order.extend(from.order);
                            into.frozen |= from.frozen;
                            into.dims_known |= from.dims_known;
                            held.insert(at, into);
                        }
                        let last = held.pop().unwrap();
                        let want = reference_snapshot(
                            &config, &quantizer, rows, &last.order, (last.frozen, last.dims_known),
                        );
                        prop_assert!(last.stream.snapshot() == want, "snapshot: {}", context);

                        let mut inside = PointMatrix::new(dims);
                        for &i in last.order.iter().filter(|&&i| kinds[i] == Row::Inside) {
                            inside.push_row(points.view().row(i));
                        }
                        let (fit, model) = AdaWave::new(config.clone()).fit_with_model(inside.view()).unwrap();
                        let mut fitted = fit.labels();
                        let expected: Vec<Option<usize>> = last
                            .order
                            .iter()
                            .map(|&i| if kinds[i] == Row::Inside { fitted.next().unwrap() } else { None })
                            .collect();
                        let refit = last.stream.refit().unwrap();
                        prop_assert_eq!(&refit.labels().collect::<Vec<_>>(), &expected, "{}", context);
                        prop_assert_eq!(refit.cluster_count(), fit.cluster_count(), "{}", context);
                        prop_assert_eq!(refit.stats(), fit.stats(), "{}", context);
                        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(refit.sorted_densities()), bits(fit.sorted_densities()), "{}", context);
                        let outcome = last.stream.refit_outcome().unwrap();
                        prop_assert_eq!(&outcome.clustering, &refit.to_clustering(), "{}", context);
                        prop_assert_eq!(outcome.model.serialize(), Model::serialize(&model), "{}", context);
                    }
                }
            }
        }
    }

    fn grid_points() -> PointMatrix {
        let mut points = PointMatrix::new(2);
        for i in 0..40 {
            let t = i as f64 / 40.0;
            points.push_row(&[t, t * 0.5]);
        }
        points
    }

    #[test]
    fn empty_batch_is_a_noop_and_refit_without_domain_errors() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
        let report = stream.ingest(PointMatrix::new(2).view()).unwrap();
        assert_eq!(
            report,
            IngestReport {
                points: 0,
                outliers: 0
            }
        );
        assert_eq!(stream.domain(), None);
        assert!(matches!(
            stream.refit(),
            Err(StreamError::InvalidInput { .. })
        ));
        assert_eq!(stream.points_ingested(), 0);
        assert_eq!(stream.occupied_cells(), 0);
    }

    #[test]
    fn zero_dimensional_batch_is_rejected() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
        let zero_dim = PointMatrix::from_rows(vec![vec![]]).unwrap();
        assert!(matches!(
            stream.ingest(zero_dim.view()),
            Err(StreamError::InvalidInput { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_after_freeze_is_rejected() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
        stream.ingest(grid_points().view()).unwrap();
        let three_d = PointMatrix::from_rows(vec![vec![0.1, 0.2, 0.3]]).unwrap();
        assert!(matches!(
            stream.ingest(three_d.view()),
            Err(StreamError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn first_batch_freezes_the_domain_and_later_outliers_are_counted() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(8).build());
        let first = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        stream.ingest(first.view()).unwrap();
        let domain = stream.domain().unwrap().clone();
        assert_eq!(domain.min(), &[0.0, 0.0]);
        assert_eq!(domain.max(), &[1.0, 1.0]);

        // In-domain, boundary, out-of-domain and non-finite points.
        let second = PointMatrix::from_rows(vec![
            vec![0.5, 0.5],
            vec![1.0, 0.0],      // on the closed boundary: in-domain
            vec![-0.1, 0.5],     // outside
            vec![f64::NAN, 0.5], // non-finite: outlier, not an error
        ])
        .unwrap();
        let report = stream.ingest(second.view()).unwrap();
        assert_eq!(
            report,
            IngestReport {
                points: 4,
                outliers: 2
            }
        );
        assert_eq!(stream.outlier_count(), 2);
        // The domain did not move.
        assert_eq!(stream.domain().unwrap(), &domain);
        // Outliers are labelled noise by refit, in arrival order.
        let result = stream.refit().unwrap();
        assert_eq!(result.len(), 6);
        assert_eq!(result.label(4), None);
        assert_eq!(result.label(5), None);
    }

    #[test]
    fn merge_into_empty_adopts_and_mismatched_domains_are_rejected() {
        let config = AdaWaveConfig::builder().scale(16).build();
        let mut fed = StreamingAdaWave::new(config.clone());
        fed.ingest(grid_points().view()).unwrap();
        let cells = fed.occupied_cells();

        // Empty `other` is a no-op.
        fed.merge(StreamingAdaWave::new(config.clone())).unwrap();
        assert_eq!(fed.occupied_cells(), cells);

        // An un-frozen self adopts the other's accumulator.
        let mut empty = StreamingAdaWave::new(config.clone());
        empty.merge(fed.clone()).unwrap();
        assert_eq!(empty.occupied_cells(), cells);
        assert_eq!(empty.points_ingested(), fed.points_ingested());

        // Different frozen domains cannot be combined — and the rejected
        // session comes back untouched instead of being dropped.
        let other_domain = BoundingBox::from_bounds(vec![5.0, 5.0], vec![9.0, 9.0]);
        let mut other = StreamingAdaWave::with_domain(config, other_domain.clone()).unwrap();
        let far = PointMatrix::from_rows(vec![vec![6.0, 6.0], vec![8.0, 7.0]]).unwrap();
        other.ingest(far.view()).unwrap();
        let rejected = empty.merge(other).unwrap_err();
        assert!(matches!(rejected.error, StreamError::DomainMismatch { .. }));
        let other = rejected.other;
        assert_eq!(other.points_ingested(), 2);
        assert_eq!(other.domain(), Some(&other_domain));
        assert_eq!(empty.points_ingested(), fed.points_ingested());
    }

    #[test]
    fn merge_rejects_differing_model_configs_but_tolerates_runtimes() {
        let domain = BoundingBox::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let base = AdaWaveConfig::builder().scale(16);
        let mut left =
            StreamingAdaWave::with_domain(base.clone().threads(1).build(), domain.clone()).unwrap();
        // Different thread counts are fine: the runtime never affects
        // results, and shard workers legitimately size their own pools.
        let right =
            StreamingAdaWave::with_domain(base.clone().threads(4).build(), domain.clone()).unwrap();
        left.merge(right).unwrap();
        // A different model knob (levels here) would be silently discarded
        // by refit, so it is rejected — with the session handed back.
        let mut other =
            StreamingAdaWave::with_domain(base.levels(2).build(), domain.clone()).unwrap();
        other.ingest(grid_points().view()).unwrap();
        let rejected = left.merge(other).unwrap_err();
        assert!(matches!(rejected.error, StreamError::DomainMismatch { .. }));
        assert_eq!(rejected.other.points_ingested(), 40);
    }

    #[test]
    fn with_domain_and_zero_points_refits_to_an_empty_result() {
        let domain = BoundingBox::from_bounds(vec![0.0], vec![1.0]);
        let stream = StreamingAdaWave::with_domain(AdaWaveConfig::default(), domain).unwrap();
        let result = stream.refit().unwrap();
        assert!(result.is_empty());
        assert_eq!(result.cluster_count(), 0);
    }

    #[test]
    fn auto_scale_reduction_applies_to_frozen_domains_too() {
        // 20 dimensions at the default scale 128 would need 140 key bits;
        // the streaming session must auto-reduce exactly like fit().
        let domain = BoundingBox::from_bounds(vec![0.0; 20], vec![1.0; 20]);
        let stream = StreamingAdaWave::with_domain(AdaWaveConfig::default(), domain).unwrap();
        let frozen = stream.frozen.as_ref().unwrap();
        assert!(frozen.quantizer.codec().intervals(0) < 128);
    }

    #[test]
    fn non_finite_rows_in_the_first_batch_are_outliers_not_errors() {
        // The domain is adopted from the *finite* rows of the first batch,
        // so the outcome does not depend on which batch a NaN lands in.
        let mut together = StreamingAdaWave::new(AdaWaveConfig::builder().scale(8).build());
        let batch =
            PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![f64::NAN, 0.5], vec![1.0, 1.0]])
                .unwrap();
        let report = together.ingest(batch.view()).unwrap();
        assert_eq!(
            report,
            IngestReport {
                points: 3,
                outliers: 1
            }
        );
        assert_eq!(together.domain().unwrap().max(), &[1.0, 1.0]);

        // Same rows split so the NaN arrives alone and first: an all-
        // non-finite first batch defers the freeze instead of erroring.
        let mut split = StreamingAdaWave::new(AdaWaveConfig::builder().scale(8).build());
        let nan_only = PointMatrix::from_rows(vec![vec![f64::NAN, 0.5]]).unwrap();
        let report = split.ingest(nan_only.view()).unwrap();
        assert_eq!(
            report,
            IngestReport {
                points: 1,
                outliers: 1
            }
        );
        assert_eq!(split.domain(), None);
        let finite = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        split.ingest(finite.view()).unwrap();
        assert_eq!(split.domain(), together.domain());
        assert_eq!(split.outlier_count(), together.outlier_count());
        // Grids agree; only the per-point order differs by the permutation.
        assert_eq!(split.grid(), together.grid());
    }

    #[test]
    fn refit_outcome_model_reproduces_refit_labels_including_outliers() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(16).build());
        let mut batch = grid_points();
        batch.push_row(&[9.0, 9.0]); // out of the adopted domain? no — first batch spans it
        stream.ingest(batch.view()).unwrap();
        let late =
            PointMatrix::from_rows(vec![vec![0.5, 0.25], vec![40.0, 40.0], vec![f64::NAN, 0.1]])
                .unwrap();
        stream.ingest(late.view()).unwrap();
        assert_eq!(stream.outlier_count(), 2);

        let outcome = stream.refit_outcome().unwrap();
        let refit = stream.refit().unwrap().to_clustering();
        assert_eq!(outcome.clustering, refit);
        // Re-predicting every ingested point reproduces its refit label —
        // outliers come back as noise through the model's domain check.
        let mut all = batch.clone();
        all.append(&late);
        assert_eq!(outcome.model.predict(all.view()).unwrap(), refit);
        assert_eq!(outcome.model.predict_one(&[40.0, 40.0]), None);
        assert_eq!(outcome.model.algorithm(), "adawave");
    }

    #[test]
    fn every_cell_matches_its_own_row_across_chunk_boundaries() {
        // Outliers planted at the last row of the first key chunk, the
        // first row of the second and the last row of the second.
        let planted = [8191, 8192, 16383];
        let mut batch = PointMatrix::new(2);
        let mut x = 0.123_f64;
        for i in 0..20_000 {
            x = (x * 97.0 + 0.31).fract();
            match i {
                8191 => batch.push_row(&[f64::NAN, x]),
                8192 => batch.push_row(&[2.0, x]),
                16383 => batch.push_row(&[x, f64::NEG_INFINITY]),
                _ => batch.push_row(&[x, (x * 13.0).fract()]),
            }
        }
        let domain = BoundingBox::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        for threads in [1, 4] {
            let config = AdaWaveConfig::builder().scale(64).threads(threads).build();
            let mut stream = StreamingAdaWave::with_domain(config, domain.clone()).unwrap();
            stream.ingest(batch.view()).unwrap();
            assert_eq!(stream.outlier_count(), planted.len(), "threads {threads}");
            let frozen = stream.frozen.as_ref().unwrap();
            let cells: Vec<(u128, f64)> = frozen.grid.iter().collect();
            assert_eq!(stream.point_cells.len(), batch.len());
            for (i, (p, &cell)) in batch.rows().zip(&stream.point_cells).enumerate() {
                let expected = (!planted.contains(&i)).then(|| frozen.quantizer.cell_key(p));
                let key = cells.get(cell as usize).map(|&(key, _)| key);
                assert_eq!(key, expected, "row {i}, threads {threads}");
            }
        }
    }

    #[test]
    fn pre_freeze_outliers_survive_a_merge() {
        let config = AdaWaveConfig::builder().scale(8).build();
        let mut unfrozen = StreamingAdaWave::new(config.clone());
        let nan_only = PointMatrix::from_rows(vec![vec![f64::NAN, 0.5]]).unwrap();
        unfrozen.ingest(nan_only.view()).unwrap();

        let mut fed = StreamingAdaWave::new(config);
        fed.ingest(grid_points().view()).unwrap();
        unfrozen.merge(fed.clone()).unwrap();
        assert_eq!(unfrozen.points_ingested(), 1 + fed.points_ingested());
        assert_eq!(unfrozen.outlier_count(), 1);
        let result = unfrozen.refit().unwrap();
        assert_eq!(result.label(0), None, "pre-freeze outlier stays noise");
    }
}
