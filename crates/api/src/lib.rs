//! # adawave-api
//!
//! The unified clustering API of the workspace: one trait, one result type,
//! one registry, so that AdaWave and every baseline can be swept, scripted
//! and extended through a single interface — the way the paper's evaluation
//! (§V) compares ~15 algorithms over a uniform protocol.
//!
//! * [`PointMatrix`] / [`PointsView`] — the flat row-major data layer: an
//!   `n x d` point set in one contiguous buffer (`row(i)` is a subslice,
//!   no per-point allocation), with [`PointMatrix::from_rows`] as the one
//!   ingestion path for nested `Vec<Vec<f64>>` data.
//! * [`Clusterer`] — the polymorphic algorithm interface, following a
//!   two-stage fit/predict contract: `fit_model(PointsView<'_>) ->
//!   Result<FitOutcome, ClusterError>` trains and returns the labels plus
//!   a reusable trained [`Model`], while `fit` is a label-only shim over
//!   it; `name()`/`describe()` round out the surface.
//! * [`Model`] / [`FitOutcome`] — the trained-artifact layer: a model
//!   labels arbitrary out-of-sample points (`predict` for batches,
//!   `predict_one` for single points) without refitting, and unanswerable
//!   points (non-finite, out-of-domain, wrong dimensionality) are noise.
//! * [`Clustering`] — the canonical result type shared by `adawave-core`
//!   and `adawave-baselines`: per-point labels with compacted cluster
//!   ids, held as one `u32` a point and read as `Option<usize>`
//!   (`None` = noise).
//! * [`Params`] / [`AlgorithmSpec`] — a typed-but-dynamic parameter layer:
//!   string keys and values (`k=3`, `eps=0.05`) parsed on demand into each
//!   algorithm's strongly-typed config builder.
//! * [`artifact`] — the versioned artifact layer shared by every on-disk
//!   format: typed kinds ([`ArtifactKind::Model`] for trained models,
//!   [`ArtifactKind::Accumulator`] for streaming accumulators), one header
//!   writer/parser, the [`PayloadReader`] line parser and the bit-exact
//!   [`f64_to_hex`] float encoding.
//! * [`scan_row`] — the one allocation-free CSV row scanner behind every
//!   CSV reader (dataset files and serve's predict-batch bodies), with
//!   [`PointMatrix::push_csv_row`] parsing a line straight into a matrix.
//! * [`render_labels`] — the one per-point label renderer
//!   ([`LabelFormat::Csv`] / [`LabelFormat::Json`]) the CLI and the serve
//!   daemon share.
//! * [`AlgorithmRegistry`] — maps algorithm names to parameter-validated
//!   constructors of boxed [`Clusterer`]s; `adawave-core` and
//!   `adawave-baselines` register themselves into it, and the umbrella
//!   `adawave` crate assembles the standard registry of all 15 algorithms.
//!
//! ```
//! use adawave_api::{
//!     AlgorithmRegistry, AlgorithmSpec, Clusterer, Clustering, ClusterError, FitOutcome,
//!     Model, PointMatrix, PointsView, PredictSupport,
//! };
//!
//! /// A toy algorithm: one cluster per distinct x-sign.
//! struct SignClusterer;
//!
//! /// Its trained model — here the "training" is the rule itself.
//! struct SignModel {
//!     dims: usize,
//! }
//!
//! impl Model for SignModel {
//!     fn algorithm(&self) -> &str {
//!         "sign"
//!     }
//!     fn dims(&self) -> usize {
//!         self.dims
//!     }
//!     fn predict_one(&self, point: &[f64]) -> Option<usize> {
//!         point[0].is_finite().then_some((point[0] < 0.0) as usize)
//!     }
//!     fn summary(&self) -> String {
//!         "sign model: clusters by the sign of x".to_string()
//!     }
//! }
//!
//! impl Clusterer for SignClusterer {
//!     fn name(&self) -> &str {
//!         "sign"
//!     }
//!
//!     fn fit_model(&self, points: PointsView<'_>) -> Result<FitOutcome, ClusterError> {
//!         let model = SignModel { dims: points.dims() };
//!         Ok(FitOutcome {
//!             clustering: model.predict(points)?,
//!             model: Box::new(model),
//!         })
//!     }
//! }
//!
//! let mut registry = AlgorithmRegistry::new();
//! registry.register(
//!     "sign",
//!     "clusters by the sign of x",
//!     &[],
//!     PredictSupport::Native,
//!     |_params| Ok(Box::new(SignClusterer)),
//! );
//!
//! // Nested data converts once at the ingestion boundary...
//! let points = PointMatrix::from_rows(vec![vec![-1.0], vec![2.0]]).unwrap();
//! let clusterer = registry.resolve(&AlgorithmSpec::new("sign")).unwrap();
//! // ...`fit` yields labels, `fit_model` additionally the serving model.
//! let result = clusterer.fit(points.view()).unwrap();
//! assert_eq!(result.cluster_count(), 2);
//! let outcome = clusterer.fit_model(points.view()).unwrap();
//! assert_eq!(outcome.model.predict(points.view()).unwrap(), result);
//! assert_eq!(outcome.model.predict_one(&[42.0]), Some(0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod artifact;
pub mod clusterer;
pub mod clustering;
pub mod model;
pub mod params;
pub mod points;
pub mod registry;
pub mod render;
pub mod scan;

pub use artifact::{
    decode_artifact, f64_from_hex, f64_to_hex, load_artifact, parse_hex, push_hex, save_artifact,
    save_artifact_atomic, Artifact, ArtifactError, ArtifactKind, PayloadReader,
};
pub use clusterer::{
    closest_matches, validate_fit_input, validate_row_count, ClusterError, Clusterer,
};
pub use clustering::Clustering;
pub use model::{compact_remap, validate_predict_input, FitOutcome, Model, PredictSupport};
pub use params::{AlgorithmSpec, Params, Precision};
pub use points::{PointMatrix, PointsView, Rows};
pub use registry::{AlgorithmEntry, AlgorithmRegistry, ParamSpec};
pub use render::{push_decimal, render_labels, LabelFormat};
pub use scan::{scan_row, BadField};

/// Convenience alias for results in this API.
pub type Result<T> = std::result::Result<T, ClusterError>;
