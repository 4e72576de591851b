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
//!   into a retained [`SparseGrid`] (plus one cell key per point): the
//!   keys are computed on the configured
//!   [`Runtime`](adawave_runtime::Runtime) straight into the per-point
//!   table, then counted into the grid with one hash update per point;
//! * [`merge`](StreamingAdaWave::merge) combines the accumulators of two
//!   independently-fed sessions (e.g. shards of a partitioned data set);
//! * [`refit_model`](StreamingAdaWave::refit_model) re-runs the
//!   transform → threshold → components stage on the accumulated grid in
//!   `O(m)` — **independent of the number of points ingested** — and
//!   [`refit`](StreamingAdaWave::refit) additionally maps every retained
//!   point through the model (an unavoidable `O(points)` table walk);
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

use adawave_api::{compact_remap, FitOutcome, PointsView, Precision};
use adawave_core::{
    cluster_grid, AdaWave, AdaWaveConfig, AdaWaveError, AdaWaveModel, AdaWaveResult, GridModel,
};
use adawave_grid::{fill_row_keys, BoundingBox, Quantizer, SparseGrid};

pub mod persist;

pub use persist::{load_accumulator, save_accumulator, save_accumulator_atomic, Checkpointer};

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

/// The frozen quantized space plus the grid accumulated in it.
#[derive(Debug, Clone)]
struct Frozen {
    quantizer: Quantizer,
    grid: SparseGrid,
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
    /// The frozen domain and its accumulated grid; `None` until a domain
    /// exists (given upfront or adopted from the first finite points).
    frozen: Option<Frozen>,
    /// For every ingested point (in arrival order) the key of its grid
    /// cell, or `None` for outliers — the streaming counterpart of the
    /// paper's lookup table.
    point_cells: Vec<Option<u128>>,
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
            frozen: Some(Frozen {
                quantizer,
                grid: SparseGrid::new(),
            }),
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

    /// Borrow the accumulated sparse grid (per-cell in-domain point
    /// counts), once a domain is frozen.
    pub fn grid(&self) -> Option<&SparseGrid> {
        self.frozen.as_ref().map(|f| &f.grid)
    }

    /// Quantize a batch into the accumulator (Algorithm 2, incrementally).
    ///
    /// The first batch with finite rows freezes the domain if none was
    /// given. Every row's cell key (or `None` for an outlier) is computed
    /// in parallel on the configured runtime straight into its own slot of
    /// the per-point table, and the new slots are then counted into the
    /// grid in one sequential pass. A key depends only on its own row and
    /// counts are small integers, so the accumulator is identical for
    /// every thread count and every way of partitioning the same points
    /// into batches. Points outside the frozen domain — and non-finite
    /// points wherever they appear — are recorded as outliers (labelled
    /// noise by [`refit`](Self::refit)), never clamped.
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
                    self.frozen = Some(Frozen {
                        quantizer,
                        grid: SparseGrid::new(),
                    });
                }
                None => {
                    // No finite row to adopt a domain from: every point of
                    // this batch is an outlier, and the next batch with
                    // finite rows will freeze the domain — the same outcome
                    // as if these rows had arrived in any later batch.
                    self.point_cells
                        .extend(std::iter::repeat_n(None, batch.len()));
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
        let start = self.point_cells.len();
        self.point_cells.resize(start + batch.len(), None);
        let cells = &mut self.point_cells[start..];
        fill_row_keys(batch, self.adawave.config().runtime, cells, |p| {
            quantizer.bounds().contains(p).then(|| match &lane {
                None => quantizer.cell_key(p),
                Some(lane) => quantizer.cell_key_f32(lane, p),
            })
        });
        let mut outliers = 0;
        for cell in cells.iter() {
            match cell {
                Some(key) => frozen.grid.increment(*key),
                None => outliers += 1,
            }
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
    /// appended after this session's in labeling order.
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
            (Some(mine), Some(theirs)) => mine.grid.merge(&theirs.grid),
            (None, Some(theirs)) => self.frozen = Some(theirs),
            (_, None) => {}
        }
        self.point_cells.extend(other.point_cells);
        self.outliers += other.outliers;
        self.dims = self.dims.or(other.dims);
        Ok(())
    }

    /// Refit the grid-level cluster model on the accumulated grid:
    /// transform → threshold → connected components, in `O(m)` for `m`
    /// occupied cells — the cost does **not** grow with the number of
    /// points ingested. Errors if no domain has been frozen yet.
    pub fn refit_model(&self) -> Result<GridModel> {
        let frozen = self
            .frozen
            .as_ref()
            .ok_or_else(|| StreamError::InvalidInput {
                context: "no domain frozen yet (ingest finite points or use with_domain)"
                    .to_string(),
            })?;
        Ok(cluster_grid(
            &frozen.grid,
            frozen.quantizer.codec(),
            self.adawave.config(),
        )?)
    }

    /// [`refit_model`](Self::refit_model) plus the per-point labeling pass:
    /// every retained point is mapped through the model's lookup (outliers
    /// become noise), yielding the same [`AdaWaveResult`] that
    /// [`AdaWave::fit`] would return on the concatenated points over the
    /// same domain. The cell → cluster map is materialized once over the
    /// `m` occupied cells, so the per-point walk is one hash lookup each —
    /// `O(n)`, but the cheap part of refitting.
    pub fn refit(&self) -> Result<AdaWaveResult> {
        let model = self.refit_model()?;
        let assignment = self.assignment_under(&model);
        Ok(model.into_result(assignment))
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
        let frozen = self.frozen.as_ref().expect("checked by refit_model");
        let assignment = self.assignment_under(&grid_model);
        let remap = compact_remap(
            assignment.iter().filter_map(|a| *a),
            grid_model.cluster_count(),
        );
        let serving = AdaWaveModel::from_parts(
            frozen.quantizer.clone(),
            &grid_model,
            &remap,
            self.adawave.config().precision,
        );
        Ok(FitOutcome {
            clustering: grid_model.into_result(assignment).into_clustering(),
            model: Box::new(serving),
        })
    }

    /// Map every retained point through a refit grid model: the cell →
    /// cluster table is materialized once over the `m` occupied cells, so
    /// the per-point walk is one hash lookup each.
    fn assignment_under(&self, model: &GridModel) -> Vec<Option<usize>> {
        let frozen = self.frozen.as_ref().expect("caller refit the model");
        let codec = frozen.quantizer.codec();
        let cell_cluster: std::collections::HashMap<u128, Option<usize>> = frozen
            .grid
            .keys()
            .map(|key| (key, model.cluster_of_cell(codec, key)))
            .collect();
        self.point_cells
            .iter()
            .map(|cell| cell.and_then(|key| cell_cluster.get(&key).copied().flatten()))
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::PointMatrix;

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
            let quantizer = &stream.frozen.as_ref().unwrap().quantizer;
            assert_eq!(stream.point_cells.len(), batch.len());
            for (i, (p, cell)) in batch.rows().zip(&stream.point_cells).enumerate() {
                let expected = (!planted.contains(&i)).then(|| quantizer.cell_key(p));
                assert_eq!(*cell, expected, "row {i}, threads {threads}");
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
