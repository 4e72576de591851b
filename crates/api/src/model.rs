//! The trained-model layer of the two-stage fit/predict contract.
//!
//! [`Clusterer::fit_model`] splits clustering into a *training* step that
//! produces a [`FitOutcome`] — the labels of the training batch plus a
//! reusable boxed [`Model`] — and a *serving* step in which the model
//! labels arbitrary out-of-sample points without refitting. This mirrors
//! the paper's pipeline structure: the clustered grid is the trained
//! artifact, and labeling a point is a constant-time lookup through it.
//!
//! ## Prediction contract
//!
//! * [`Model::predict`] labels a batch and returns the canonical
//!   [`Clustering`] (cluster ids compacted in order of first appearance
//!   within that batch, the same convention `fit` uses). Predicting on the
//!   exact training batch reproduces the fit labels.
//! * [`Model::predict_one`] labels a single point with the model's stable
//!   internal cluster id — consistent across calls and with the ids the
//!   training clustering used. `None` means noise.
//! * A point the model cannot answer for — non-finite coordinates, outside
//!   a grid model's frozen domain, or of the wrong dimensionality — is
//!   noise (`None`), the same outlier contract the streaming layer uses.
//!   Batch inputs that are empty, zero-dimensional or of the wrong
//!   dimensionality are [`ClusterError::InvalidInput`].
//!
//! [`Clusterer::fit_model`]: crate::Clusterer::fit_model
//!
//! ```
//! use adawave_api::{ClusterError, Clustering, FitOutcome, Model, PointsView};
//!
//! /// A toy model: cluster 0 for x >= 0, cluster 1 otherwise.
//! struct SignModel;
//!
//! impl Model for SignModel {
//!     fn algorithm(&self) -> &str {
//!         "sign"
//!     }
//!     fn dims(&self) -> usize {
//!         1
//!     }
//!     fn predict_one(&self, point: &[f64]) -> Option<usize> {
//!         point[0].is_finite().then_some((point[0] < 0.0) as usize)
//!     }
//!     fn summary(&self) -> String {
//!         "sign model: 2 clusters".to_string()
//!     }
//! }
//!
//! let model = SignModel;
//! assert_eq!(model.predict_one(&[2.5]), Some(0));
//! assert_eq!(model.predict_one(&[f64::NAN]), None); // unanswerable = noise
//! let batch = adawave_api::PointMatrix::from_rows(vec![vec![-1.0], vec![3.0]]).unwrap();
//! let clustering = model.predict(batch.view()).unwrap();
//! assert_eq!(clustering.cluster_count(), 2);
//! ```

use crate::{validate_fit_input, ClusterError, Clustering, PointsView};

/// A trained clustering model: labels arbitrary points without refitting.
///
/// Produced by [`Clusterer::fit_model`](crate::Clusterer::fit_model); see
/// the [module docs](self) for the prediction contract.
///
/// # Thread safety
///
/// The trait requires `Send + Sync`, and every method takes `&self`: a
/// trained model is an immutable artifact that any number of threads may
/// serve from concurrently (e.g. as an `Arc<dyn Model>` shared across a
/// server's worker pool and swapped atomically on hot reload). Model
/// implementations must not cache mutable state behind interior
/// mutability in `predict`/`predict_one` — prediction is a pure function
/// of the model and the query point, which is what makes concurrent
/// serving responses identical to sequential ones.
pub trait Model: Send + Sync {
    /// The registry key of the algorithm that trained this model.
    fn algorithm(&self) -> &str;

    /// Dimensionality of the points the model was trained on.
    fn dims(&self) -> usize;

    /// Label a single point with the model's stable internal cluster id;
    /// `None` is noise (including non-finite, out-of-domain and
    /// wrong-dimensionality points — anything the model cannot answer).
    fn predict_one(&self, point: &[f64]) -> Option<usize>;

    /// Label a batch of points. Returns the canonical [`Clustering`]
    /// (ids compacted by first appearance, like `fit`); predicting on the
    /// training batch reproduces the fit labels exactly. Empty,
    /// zero-dimensional or wrong-dimensionality batches are
    /// [`ClusterError::InvalidInput`].
    ///
    /// The default labels every point with
    /// [`predict_one`](Self::predict_one) into one `u32` id a point, which
    /// [`Clustering::from_ids`] renumbers in place; an id with no `u32`
    /// form ([`Clustering::id_of`]) is an error.
    fn predict(&self, points: PointsView<'_>) -> Result<Clustering, ClusterError> {
        validate_predict_input(self.dims(), points)?;
        let mut ids = Vec::with_capacity(points.len());
        for point in points.rows() {
            ids.push(Clustering::id_of(self.predict_one(point))?);
        }
        Ok(Clustering::from_ids(ids))
    }

    /// One-paragraph human-readable diagnostics: what was trained, how many
    /// clusters, and how out-of-sample points are handled.
    fn summary(&self) -> String;

    /// Serialize the model into the versioned text payload used by model
    /// persistence, or `None` when the algorithm does not support saving.
    /// The payload excludes the header (magic, version, algorithm name),
    /// which the persistence layer writes.
    fn serialize(&self) -> Option<String> {
        None
    }
}

/// The uniform input validation every [`Model::predict`] applies: the batch
/// must be non-empty, have at least one dimension, and match the model's
/// training dimensionality.
pub fn validate_predict_input(
    model_dims: usize,
    points: PointsView<'_>,
) -> Result<(), ClusterError> {
    validate_fit_input(points)?;
    if points.dims() != model_dims {
        return Err(ClusterError::InvalidInput {
            context: format!(
                "predict input has {} dimensions but the model was trained on {model_dims}",
                points.dims()
            ),
        });
    }
    Ok(())
}

/// What one training run produced: the clustering of the training batch
/// plus the reusable trained model.
///
/// ```
/// use adawave_api::{Clusterer, FitOutcome, PointMatrix};
/// # use adawave_api::{ClusterError, Clustering, Model, PointsView};
/// # struct Demo;
/// # struct DemoModel;
/// # impl Model for DemoModel {
/// #     fn algorithm(&self) -> &str { "demo" }
/// #     fn dims(&self) -> usize { 1 }
/// #     fn predict_one(&self, _point: &[f64]) -> Option<usize> { Some(0) }
/// #     fn summary(&self) -> String { "demo".into() }
/// # }
/// # impl Clusterer for Demo {
/// #     fn name(&self) -> &str { "demo" }
/// #     fn fit_model(&self, points: PointsView<'_>) -> Result<FitOutcome, ClusterError> {
/// #         Ok(FitOutcome {
/// #             clustering: Clustering::from_labels(vec![0; points.len()]),
/// #             model: Box::new(DemoModel),
/// #         })
/// #     }
/// # }
/// let train = PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
/// let outcome = Demo.fit_model(train.view()).unwrap();
/// // The training labels and the serving model come from one run:
/// assert_eq!(outcome.clustering.len(), 2);
/// let fresh = PointMatrix::from_rows(vec![vec![0.5]]).unwrap();
/// assert_eq!(outcome.model.predict(fresh.view()).unwrap().len(), 1);
/// ```
pub struct FitOutcome {
    /// Labels of the training batch (identical to what `fit` returns).
    pub clustering: Clustering,
    /// The trained model, ready to label out-of-sample points.
    pub model: Box<dyn Model>,
}

impl std::fmt::Debug for FitOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitOutcome")
            .field("clustering", &self.clustering)
            .field("model", &self.model.summary())
            .finish()
    }
}

/// How an algorithm's trained model predicts, declared per registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictSupport {
    /// The model applies the algorithm's own decision rule out of sample
    /// (grid-cell lookup, nearest centroid, mixture posterior, mode
    /// seeking, modal intervals).
    Native,
    /// The algorithm has no natural out-of-sample rule; the model predicts
    /// the label of the nearest training point (an honest, documented
    /// fallback that memorizes the training batch).
    Fallback,
}

impl PredictSupport {
    /// The word used in listings and docs: `"native"` or `"fallback"`.
    pub fn label(&self) -> &'static str {
        match self {
            PredictSupport::Native => "native",
            PredictSupport::Fallback => "fallback",
        }
    }
}

/// Map raw per-point cluster ids to the compacted ids the canonical
/// [`Clustering`] of the same sequence uses: ids are numbered in order of
/// first appearance, and ids never seen in the sequence (e.g. empty
/// clusters) are appended after the seen ones in ascending raw order.
///
/// Model builders use this to align their internal cluster ids (centroid
/// rows, grid components, mixture components) with the training
/// clustering, so [`Model::predict_one`] agrees with the training labels.
pub fn compact_remap(raw: impl Iterator<Item = usize>, id_count: usize) -> Vec<usize> {
    let mut remap = vec![usize::MAX; id_count];
    let mut next = 0usize;
    for id in raw {
        if remap[id] == usize::MAX {
            remap[id] = next;
            next += 1;
        }
        if next == id_count {
            break;
        }
    }
    for slot in remap.iter_mut() {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
        }
    }
    remap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointMatrix;

    struct Half {
        dims: usize,
    }

    impl Model for Half {
        fn algorithm(&self) -> &str {
            "half"
        }
        fn dims(&self) -> usize {
            self.dims
        }
        fn predict_one(&self, point: &[f64]) -> Option<usize> {
            if !point.iter().all(|v| v.is_finite()) {
                return None;
            }
            Some((point[0] >= 0.5) as usize)
        }
        fn summary(&self) -> String {
            "half model".to_string()
        }
    }

    #[test]
    fn default_predict_maps_predict_one_and_compacts() {
        let model = Half { dims: 1 };
        let batch =
            PointMatrix::from_rows(vec![vec![0.9], vec![0.1], vec![f64::NAN], vec![0.8]]).unwrap();
        let clustering = model.predict(batch.view()).unwrap();
        // First appearance wins id 0 even though predict_one said 1.
        assert_eq!(
            clustering.labels().collect::<Vec<_>>(),
            [Some(0), Some(1), None, Some(0)]
        );
        assert_eq!(clustering.cluster_count(), 2);
    }

    #[test]
    fn predict_rejects_empty_zero_dim_and_wrong_dims() {
        let model = Half { dims: 2 };
        let empty = PointMatrix::new(2);
        assert!(matches!(
            model.predict(empty.view()),
            Err(ClusterError::InvalidInput { .. })
        ));
        let zero_dim = PointMatrix::from_rows(vec![vec![], vec![]]).unwrap();
        assert!(matches!(
            model.predict(zero_dim.view()),
            Err(ClusterError::InvalidInput { .. })
        ));
        let wrong = PointMatrix::from_rows(vec![vec![0.5]]).unwrap();
        let err = model.predict(wrong.view()).unwrap_err();
        assert!(err.to_string().contains("trained on 2"), "{err}");
    }

    #[test]
    fn compact_remap_orders_by_first_appearance_then_unseen() {
        // Sequence 2, 0, 2, 3 over 5 ids: 2->0, 0->1, 3->2, unseen 1->3, 4->4.
        let remap = compact_remap([2usize, 0, 2, 3].into_iter(), 5);
        assert_eq!(remap, vec![1, 3, 0, 2, 4]);
        // Degenerate cases.
        assert_eq!(compact_remap(std::iter::empty(), 2), vec![0, 1]);
        assert_eq!(compact_remap([0usize].into_iter(), 1), vec![0]);
    }

    #[test]
    fn predict_support_labels() {
        assert_eq!(PredictSupport::Native.label(), "native");
        assert_eq!(PredictSupport::Fallback.label(), "fallback");
    }

    /// The serve-layer audit: `dyn Model` objects must be shareable across
    /// worker threads (`Arc<dyn Model>` swap on hot reload). This is a
    /// compile-time guarantee; the test pins it so the bound cannot be
    /// dropped from the trait without breaking the build here.
    #[test]
    fn boxed_models_are_send_and_sync() {
        fn assert_send_sync<T: ?Sized + Send + Sync>() {}
        assert_send_sync::<dyn Model>();
        assert_send_sync::<Box<dyn Model>>();
        assert_send_sync::<std::sync::Arc<dyn Model>>();
    }
}
