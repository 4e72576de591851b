//! # adawave-core
//!
//! AdaWave: adaptive wavelet clustering for highly noisy data — the primary
//! contribution of the paper, built on the `adawave-grid` (sparse "grid
//! labeling") and `adawave-wavelet` (DWT) substrates.
//!
//! The pipeline follows Algorithm 1 of the paper:
//!
//! 1. **Quantization** — divide the feature space into `scale` intervals per
//!    dimension and count points per grid cell, storing only non-empty
//!    cells ([`adawave_grid::Quantizer`]).
//! 2. **Wavelet transform** — smooth the sparse grid densities with the
//!    low-pass branch of the chosen wavelet, one dimension at a time,
//!    downsampling by two per level; wavelet coefficients near zero are
//!    dropped ([`transform`]).
//! 3. **Adaptive threshold filtering** — sort the smoothed densities and
//!    find the elbow between "middle" and "noise" grids
//!    ([`threshold::ThresholdStrategy`]), then remove every grid below it.
//! 4. **Connected components** — adjacent surviving grids form clusters.
//! 5. **Label & lookup** — map every original point to the cluster of its
//!    (downsampled) grid cell; points in removed cells become noise.
//!
//! Steps 2–4 are one function, [`cluster_grid`], over the occupied cells
//! of an [`adawave_grid::SparseGrid`] (one `(key, density)` vector): the
//! one-shot [`AdaWave::fit`] runs it on the grid it just quantized, and the
//! streaming layer (`adawave-stream`) on its accumulated grid, so both
//! produce the same model from the same cells.
//!
//! ## The unified clustering API
//!
//! AdaWave participates in the workspace's unified API
//! (`adawave-api`): [`AdaWave`] implements [`adawave_api::Clusterer`],
//! whose `fit` returns the canonical [`adawave_api::Clustering`] shared
//! with every baseline — obtain it from an [`AdaWaveResult`] via
//! [`AdaWaveResult::to_clustering`]. The inherent [`AdaWave::fit`] remains
//! the richer surface, additionally exposing the pipeline diagnostics
//! ([`GridStats`], the sorted density curve of Fig. 6). Use
//! [`clusterer::register`] to add AdaWave to an
//! [`adawave_api::AlgorithmRegistry`], or the umbrella `adawave` crate's
//! `standard_registry()` for AdaWave plus all baselines.
//!
//! Points travel through the pipeline as the flat row-major
//! [`adawave_api::PointsView`]; build one from owned data with
//! [`adawave_api::PointMatrix`]:
//!
//! ```
//! use adawave_api::PointMatrix;
//! use adawave_core::{AdaWave, AdaWaveConfig};
//!
//! // Two tight diagonal streaks plus one stray point.
//! let mut points = PointMatrix::new(2);
//! for i in 0..100 {
//!     let t = i as f64 * 0.0003;
//!     points.push_row(&[0.2 + t, 0.2 - t]);
//!     points.push_row(&[0.8 - t, 0.8 + t]);
//! }
//! points.push_row(&[0.5, 0.95]);
//!
//! let config = AdaWaveConfig::builder().scale(32).build();
//! let result = AdaWave::new(config).fit(points.view()).unwrap();
//! assert!(result.cluster_count() >= 2);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod adawave;
pub mod clusterer;
pub mod config;
pub mod model;
pub mod result;
pub mod threshold;
pub mod transform;

pub use adawave::{cluster_grid, AdaWave, GridModel};
pub use clusterer::register;
pub use config::{AdaWaveConfig, AdaWaveConfigBuilder};
pub use model::AdaWaveModel;
pub use result::{AdaWaveResult, GridStats};
pub use threshold::ThresholdStrategy;
pub use transform::{
    sparse_wavelet_smooth, sparse_wavelet_smooth_budgeted, sparse_wavelet_smooth_on, TransformPath,
};

/// Errors produced by the AdaWave pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaWaveError {
    /// The input point set is empty or inconsistent.
    InvalidInput {
        /// Human-readable description.
        context: String,
    },
    /// The grid configuration cannot be represented (too many dimensions
    /// for the requested scale); lower the scale.
    Grid(adawave_grid::GridError),
}

impl std::fmt::Display for AdaWaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaWaveError::InvalidInput { context } => write!(f, "invalid input: {context}"),
            AdaWaveError::Grid(e) => write!(f, "grid error: {e}"),
        }
    }
}

impl std::error::Error for AdaWaveError {}

impl From<adawave_grid::GridError> for AdaWaveError {
    fn from(e: adawave_grid::GridError) -> Self {
        AdaWaveError::Grid(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, AdaWaveError>;
