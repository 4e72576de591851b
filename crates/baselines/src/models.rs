//! Trained serving models for the baselines: the native decision rules
//! (nearest centroid, mixture posterior, mode seeking, modal intervals)
//! and the honest nearest-training-point fallback for algorithms with no
//! natural out-of-sample rule.
//!
//! Every model upholds the prediction contract of [`adawave_api::Model`]:
//! predicting on the training batch reproduces the fit labels exactly,
//! `predict_one` uses the training clustering's own cluster ids, and
//! unanswerable points (non-finite, wrong dimensionality) are noise.

use adawave_api::{
    compact_remap, f64_to_hex, validate_predict_input, ClusterError, Model, PayloadReader,
    PointMatrix, PointsView,
};
use adawave_linalg::{squared_distance, Matrix};

use crate::em::GaussianMixture;
use crate::meanshift::{MeanShiftConfig, MeanShiftKernel, ModeSeeker};
use crate::{Clustering, KdIndex};

/// Append a point matrix as bare rows of hex-encoded floats — the row
/// format every persistable baseline model shares.
fn write_matrix(out: &mut String, matrix: &PointMatrix) {
    for row in matrix.rows() {
        let hex: Vec<String> = row.iter().map(|&v| f64_to_hex(v)).collect();
        out.push_str(&hex.join(" "));
        out.push('\n');
    }
}

/// Read `rows` bare hex-float rows of `dims` values back into a matrix.
fn read_matrix(
    reader: &mut PayloadReader<'_>,
    rows: usize,
    dims: usize,
) -> Result<PointMatrix, String> {
    let mut flat = Vec::with_capacity(rows * dims);
    for _ in 0..rows {
        flat.extend(reader.float_row(dims)?);
    }
    PointMatrix::from_flat(flat, dims).map_err(|e| format!("bad matrix: {e}"))
}

/// Render optional per-item cluster labels as one space-separated field
/// value (`-` = noise), the inverse of [`parse_labels`].
fn join_labels(labels: &[Option<usize>]) -> String {
    labels
        .iter()
        .map(|l| match l {
            Some(c) => c.to_string(),
            None => "-".to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render floats as one space-separated line value of bit-exact hex.
fn join_hex(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| f64_to_hex(v))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render integers as one space-separated line value.
fn join_usize(values: &[usize]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse a [`join_labels`] field value back (`-` = noise).
fn parse_labels(raw: &str, expected: usize) -> Result<Vec<Option<usize>>, String> {
    let labels: Vec<Option<usize>> = raw
        .split_whitespace()
        .map(|v| {
            if v == "-" {
                Ok(None)
            } else {
                v.parse().map(Some).map_err(|_| format!("bad label '{v}'"))
            }
        })
        .collect::<Result<_, _>>()?;
    if labels.len() != expected {
        return Err(format!("{} labels, expected {expected}", labels.len()));
    }
    Ok(labels)
}

/// Index of the row of `centroids` nearest to `point` (first index wins
/// ties — the same rule the Lloyd assignment pass uses).
fn nearest_row(point: &[f64], centroids: &PointMatrix) -> Option<usize> {
    let mut best = None;
    let mut best_d = f64::MAX;
    for (c, centroid) in centroids.rows().enumerate() {
        let d = squared_distance(point, centroid);
        if d < best_d {
            best_d = d;
            best = Some(c);
        }
    }
    best
}

/// Nearest-centroid prediction for centroid-based algorithms (k-means,
/// DipMeans). The centroid rows are permuted at construction so row `i`
/// is the centroid of training cluster `i`; because both algorithms label
/// training points by exactly this argmin (k-means guarantees it with its
/// final assignment pass, DipMeans inherits it from its final k-means
/// refinement), predicting the training batch reproduces the fit labels.
#[derive(Debug, Clone)]
pub struct CentroidModel {
    algorithm: String,
    centroids: PointMatrix,
}

impl CentroidModel {
    /// Build a model whose centroid rows are already ordered by cluster id.
    pub fn new(algorithm: impl Into<String>, centroids: PointMatrix) -> Self {
        Self {
            algorithm: algorithm.into(),
            centroids,
        }
    }

    /// Build a model from a fit's centroids and training clustering,
    /// permuting the centroid rows into the clustering's id order (row `i`
    /// = centroid of cluster `i`; centroids of empty clusters follow in
    /// their original order).
    pub fn aligned(
        algorithm: impl Into<String>,
        centroids: &PointMatrix,
        clustering: &Clustering,
        points: PointsView<'_>,
    ) -> Self {
        let k = centroids.len();
        let seen = clustering.cluster_count();
        // For each training cluster id, the centroid row its points argmin
        // to — recovered from the first member of each cluster (labels are
        // nearest-centroid assignments, so one member pins the row).
        let mut row_of_cluster: Vec<Option<usize>> = vec![None; seen];
        let mut resolved = 0usize;
        for (i, a) in clustering.labels().enumerate() {
            if resolved == seen {
                break;
            }
            if let Some(j) = a {
                if row_of_cluster[j].is_none() {
                    row_of_cluster[j] = nearest_row(points.row(i), centroids);
                    resolved += 1;
                }
            }
        }
        let mut ordered = PointMatrix::with_capacity(centroids.dims(), k);
        let mut used = vec![false; k];
        for row in row_of_cluster.into_iter().flatten() {
            ordered.push_row(centroids.row(row));
            used[row] = true;
        }
        for (row, used) in used.iter().enumerate() {
            if !used {
                ordered.push_row(centroids.row(row));
            }
        }
        Self::new(algorithm, ordered)
    }

    /// The centroids, one row per cluster id.
    pub fn centroids(&self) -> &PointMatrix {
        &self.centroids
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload (header already stripped by the persistence layer).
    pub fn deserialize(algorithm: &str, payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let k: usize = reader.scalar("centroids")?;
        let centroids = read_matrix(&mut reader, k, dims).map_err(|e| format!("centroids: {e}"))?;
        Ok(Self::new(algorithm, centroids))
    }
}

impl Model for CentroidModel {
    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn dims(&self) -> usize {
        self.centroids.dims()
    }

    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.centroids.dims() || !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        nearest_row(point, &self.centroids)
    }

    fn summary(&self) -> String {
        format!(
            "{} model: nearest of {} centroids in {} dimensions; \
             every finite point gets a cluster, non-finite points are noise",
            self.algorithm,
            self.centroids.len(),
            self.centroids.dims(),
        )
    }

    fn serialize(&self) -> Option<String> {
        let mut out = String::new();
        out.push_str(&format!("dims {}\n", self.centroids.dims()));
        out.push_str(&format!("centroids {}\n", self.centroids.len()));
        for row in self.centroids.rows() {
            let hex: Vec<String> = row.iter().map(|&v| f64_to_hex(v)).collect();
            out.push_str(&hex.join(" "));
            out.push('\n');
        }
        Some(out)
    }
}

/// Gaussian-mixture posterior prediction for EM: a point is assigned to
/// its most responsible component — the same rule `em` uses to label the
/// training batch with its final parameters, so training predictions are
/// exact replays. Component ids are remapped to the training clustering.
#[derive(Debug, Clone)]
pub struct EmModel {
    mixture: GaussianMixture,
    remap: Vec<usize>,
}

impl EmModel {
    /// Wrap a fitted mixture, aligning component ids with the training
    /// clustering (components that won no training point get tail ids).
    pub fn aligned(
        mixture: GaussianMixture,
        clustering: &Clustering,
        points: PointsView<'_>,
    ) -> Self {
        let k = mixture.weights.len();
        let seen = clustering.cluster_count();
        // Recover component → cluster-id from one member per cluster (its
        // label is the argmax posterior, replayed here).
        let mut component_of: Vec<Option<usize>> = vec![None; seen];
        let mut resolved = 0usize;
        for (i, a) in clustering.labels().enumerate() {
            if resolved == seen {
                break;
            }
            if let Some(j) = a {
                if component_of[j].is_none() {
                    component_of[j] = Some(mixture.predict(points.row(i)));
                    resolved += 1;
                }
            }
        }
        let mut remap = vec![usize::MAX; k];
        for (cluster, component) in component_of.into_iter().enumerate() {
            if let Some(c) = component {
                remap[c] = cluster;
            }
        }
        let mut next = seen;
        for slot in remap.iter_mut() {
            if *slot == usize::MAX {
                *slot = next;
                next += 1;
            }
        }
        Self { mixture, remap }
    }

    /// The fitted mixture.
    pub fn mixture(&self) -> &GaussianMixture {
        &self.mixture
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload (header already stripped by the persistence layer).
    pub fn deserialize(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let k: usize = reader.scalar("components")?;
        let weights = reader.float_list("weights", k)?;
        let remap: Vec<usize> = reader.list("remap", k)?;
        let log_likelihood = reader
            .float_list("log-likelihood", 1)
            .map(|v| v[0])
            .map_err(|e| format!("log-likelihood: {e}"))?;
        let iterations: usize = reader.scalar("iterations")?;
        let means = read_matrix(&mut reader, k, dims).map_err(|e| format!("means: {e}"))?;
        let mut covariances = Vec::with_capacity(k);
        for _ in 0..k {
            let flat = reader.float_row(dims * dims)?;
            covariances.push(Matrix::from_vec(dims, dims, flat));
        }
        Ok(Self {
            mixture: GaussianMixture {
                weights,
                means,
                covariances,
                log_likelihood,
                iterations,
            },
            remap,
        })
    }
}

impl Model for EmModel {
    fn algorithm(&self) -> &str {
        "em"
    }

    fn dims(&self) -> usize {
        self.mixture.means.dims()
    }

    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.dims() || !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        Some(self.remap[self.mixture.predict(point)])
    }

    fn summary(&self) -> String {
        format!(
            "em model: argmax posterior over {} Gaussian components in {} \
             dimensions; every finite point gets a cluster, non-finite \
             points are noise",
            self.mixture.weights.len(),
            self.dims(),
        )
    }

    fn serialize(&self) -> Option<String> {
        let dims = self.dims();
        let k = self.mixture.weights.len();
        let mut out = String::new();
        out.push_str(&format!("dims {dims}\n"));
        out.push_str(&format!("components {k}\n"));
        out.push_str(&format!("weights {}\n", join_hex(&self.mixture.weights)));
        out.push_str(&format!("remap {}\n", join_usize(&self.remap)));
        out.push_str(&format!(
            "log-likelihood {}\n",
            f64_to_hex(self.mixture.log_likelihood)
        ));
        out.push_str(&format!("iterations {}\n", self.mixture.iterations));
        write_matrix(&mut out, &self.mixture.means);
        for cov in &self.mixture.covariances {
            let hex: Vec<String> = cov.as_slice().iter().map(|&v| f64_to_hex(v)).collect();
            out.push_str(&hex.join(" "));
            out.push('\n');
        }
        Some(out)
    }
}

/// Mode-seeking prediction for mean shift: a query point is shifted over
/// the *training* density until it converges onto a mode, which is merged
/// against the trained mode representatives with the fit's own rule. A
/// training point replays its exact fit trajectory, so training
/// predictions are bit-identical to the fit labels; a query converging to
/// a region no training point reached is noise.
pub struct MeanShiftModel {
    training: PointMatrix,
    /// kd-index over `training`, built once at fit/load time so every
    /// `predict_one` call serves without re-indexing the training set.
    index: KdIndex,
    bandwidth: f64,
    kernel: MeanShiftKernel,
    max_iterations: usize,
    tolerance: f64,
    representatives: PointMatrix,
    /// Final cluster id of each representative (creation order); `None`
    /// for representatives demoted to noise by `min_cluster_size`.
    rep_labels: Vec<Option<usize>>,
}

impl MeanShiftModel {
    /// Fit mean shift and build its serving model in one pass.
    pub fn fit(points: PointsView<'_>, config: &MeanShiftConfig) -> (Clustering, Self) {
        let (raw, representatives, kept) = crate::meanshift::mean_shift_parts(points, config);
        let clustering = Clustering::new(raw.clone());
        let remap = compact_remap(raw.iter().filter_map(|a| *a), representatives.len());
        let rep_labels = kept
            .iter()
            .enumerate()
            .map(|(c, &keep)| keep.then(|| remap[c]))
            .collect();
        let training = points.to_matrix();
        let index = KdIndex::build(training.view());
        let model = Self {
            training,
            index,
            bandwidth: config.bandwidth.max(1e-12),
            kernel: config.kernel,
            max_iterations: config.max_iterations,
            tolerance: config.tolerance,
            representatives,
            rep_labels,
        };
        (clustering, model)
    }

    /// The trained mode representatives, in creation order.
    pub fn representatives(&self) -> &PointMatrix {
        &self.representatives
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload (header already stripped by the persistence layer).
    pub fn deserialize(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let bandwidth = reader
            .float_list("bandwidth", 1)
            .map(|v| v[0])
            .map_err(|e| format!("bandwidth: {e}"))?;
        let kernel = match reader.field("kernel")? {
            "flat" => MeanShiftKernel::Flat,
            "gaussian" => MeanShiftKernel::Gaussian,
            other => return Err(format!("unknown kernel '{other}'")),
        };
        let max_iterations: usize = reader.scalar("max-iterations")?;
        let tolerance = reader
            .float_list("tolerance", 1)
            .map(|v| v[0])
            .map_err(|e| format!("tolerance: {e}"))?;
        let reps: usize = reader.scalar("representatives")?;
        let rep_labels = parse_labels(reader.field("rep-labels")?, reps)?;
        let n: usize = reader.scalar("training")?;
        let representatives =
            read_matrix(&mut reader, reps, dims).map_err(|e| format!("representatives: {e}"))?;
        let training = read_matrix(&mut reader, n, dims).map_err(|e| format!("training: {e}"))?;
        let index = KdIndex::build(training.view());
        Ok(Self {
            training,
            index,
            bandwidth,
            kernel,
            max_iterations,
            tolerance,
            representatives,
            rep_labels,
        })
    }

    /// A seeker borrowing the cached training index — no per-call rebuild.
    fn seeker(&self) -> ModeSeeker<'_> {
        ModeSeeker::with_index(
            self.training.view(),
            std::borrow::Cow::Borrowed(&self.index),
            self.bandwidth,
            self.kernel,
            self.max_iterations,
            self.tolerance,
        )
    }

    fn classify(
        &self,
        seeker: &ModeSeeker<'_>,
        point: &[f64],
        scratch: &mut [f64],
    ) -> Option<usize> {
        if !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        let dims = self.training.dims();
        let (current, mean) = scratch.split_at_mut(dims);
        seeker.seek(point, current, mean);
        ModeSeeker::merge_to(&self.representatives, current, self.bandwidth / 2.0)
            .and_then(|c| self.rep_labels[c])
    }
}

impl Model for MeanShiftModel {
    fn algorithm(&self) -> &str {
        "meanshift"
    }

    fn dims(&self) -> usize {
        self.training.dims()
    }

    /// Serves from the kd-index cached at fit/load time — no per-call
    /// re-indexing of the training set.
    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.dims() {
            return None;
        }
        let seeker = self.seeker();
        let mut scratch = vec![0.0; self.dims() * 2];
        self.classify(&seeker, point, &mut scratch)
    }

    fn predict(&self, points: PointsView<'_>) -> Result<Clustering, ClusterError> {
        validate_predict_input(self.dims(), points)?;
        let seeker = self.seeker();
        let mut scratch = vec![0.0; self.dims() * 2];
        Ok(Clustering::new(
            points
                .rows()
                .map(|p| self.classify(&seeker, p, &mut scratch))
                .collect(),
        ))
    }

    fn summary(&self) -> String {
        format!(
            "meanshift model: mode seeking over the {}-point training \
             density (bandwidth {}), merged against {} trained modes; \
             queries converging outside every trained mode are noise",
            self.training.len(),
            self.bandwidth,
            self.representatives.len(),
        )
    }

    /// The payload memorizes the training batch (mode seeking replays over
    /// the training density), so meanshift model files scale with n.
    fn serialize(&self) -> Option<String> {
        let mut out = String::new();
        out.push_str(&format!("dims {}\n", self.dims()));
        out.push_str(&format!("bandwidth {}\n", f64_to_hex(self.bandwidth)));
        out.push_str(&format!(
            "kernel {}\n",
            match self.kernel {
                MeanShiftKernel::Flat => "flat",
                MeanShiftKernel::Gaussian => "gaussian",
            }
        ));
        out.push_str(&format!("max-iterations {}\n", self.max_iterations));
        out.push_str(&format!("tolerance {}\n", f64_to_hex(self.tolerance)));
        out.push_str(&format!("representatives {}\n", self.representatives.len()));
        out.push_str(&format!("rep-labels {}\n", join_labels(&self.rep_labels)));
        out.push_str(&format!("training {}\n", self.training.len()));
        write_matrix(&mut out, &self.representatives);
        write_matrix(&mut out, &self.training);
        Some(out)
    }
}

/// Modal-interval prediction for the 1-D UniDip projection: a point is
/// assigned to the first trained modal interval containing its projected
/// coordinate — the fit's own rule, so training predictions are exact.
#[derive(Debug, Clone)]
pub struct IntervalModel {
    dims: usize,
    dim: usize,
    intervals: Vec<(f64, f64)>,
    remap: Vec<usize>,
}

impl IntervalModel {
    /// Build from the fitted modal intervals; `raw` is the per-point
    /// interval index sequence the fit produced (for id alignment).
    pub fn new(dims: usize, dim: usize, intervals: Vec<(f64, f64)>, raw: &[Option<usize>]) -> Self {
        let remap = compact_remap(raw.iter().filter_map(|a| *a), intervals.len());
        Self {
            dims,
            dim,
            intervals,
            remap,
        }
    }

    /// The modal intervals on the projected axis.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload (header already stripped by the persistence layer).
    pub fn deserialize(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let dim: usize = reader.scalar("dim")?;
        let k: usize = reader.scalar("intervals")?;
        let remap: Vec<usize> = reader.list("remap", k)?;
        let mut intervals = Vec::with_capacity(k);
        for _ in 0..k {
            let row = reader.float_row(2)?;
            intervals.push((row[0], row[1]));
        }
        Ok(Self {
            dims,
            dim,
            intervals,
            remap,
        })
    }
}

impl Model for IntervalModel {
    fn algorithm(&self) -> &str {
        "unidip"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.dims {
            return None;
        }
        let v = point[self.dim];
        self.intervals
            .iter()
            .position(|&(lo, hi)| v >= lo && v <= hi)
            .map(|pos| self.remap[pos])
    }

    fn summary(&self) -> String {
        format!(
            "unidip model: {} modal intervals on dimension {} of {}; \
             points outside every interval are noise",
            self.intervals.len(),
            self.dim,
            self.dims,
        )
    }

    fn serialize(&self) -> Option<String> {
        let mut out = String::new();
        out.push_str(&format!("dims {}\n", self.dims));
        out.push_str(&format!("dim {}\n", self.dim));
        out.push_str(&format!("intervals {}\n", self.intervals.len()));
        out.push_str(&format!("remap {}\n", join_usize(&self.remap)));
        for &(lo, hi) in &self.intervals {
            out.push_str(&format!("{} {}\n", f64_to_hex(lo), f64_to_hex(hi)));
        }
        Some(out)
    }
}

/// The honest fallback for algorithms with no natural out-of-sample rule
/// (DBSCAN, OPTICS, WaveCluster, STING, CLIQUE, SYNC, spectral, dip-based,
/// RIC): predict the label of the nearest training point through the
/// a cached [`KdIndex`]. This memorizes the training batch; a query equal
/// to a training point reproduces that point's fit label (including
/// noise), which is what makes training predictions exact.
pub struct NearestTrainingModel {
    algorithm: String,
    training: PointMatrix,
    /// kd-index over `training`, built once at construction/load so every
    /// `predict_one` call serves without re-indexing the training set.
    index: KdIndex,
    labels: Vec<Option<usize>>,
}

impl NearestTrainingModel {
    /// Memorize the training batch and its fit labels.
    pub fn new(
        algorithm: impl Into<String>,
        points: PointsView<'_>,
        clustering: &Clustering,
    ) -> Self {
        let training = points.to_matrix();
        let index = KdIndex::build(training.view());
        Self {
            algorithm: algorithm.into(),
            training,
            index,
            labels: clustering.labels().collect(),
        }
    }

    fn classify(&self, point: &[f64]) -> Option<usize> {
        if !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        let nearest = self.index.nearest(self.training.view(), point, 1);
        nearest.first().and_then(|&(i, _)| self.labels[i])
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload; `algorithm` is the registry name from the file header
    /// (any fallback-predicting algorithm shares this payload shape).
    pub fn deserialize(algorithm: &str, payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let n: usize = reader.scalar("points")?;
        let labels = parse_labels(reader.field("labels")?, n)?;
        let training = read_matrix(&mut reader, n, dims).map_err(|e| format!("training: {e}"))?;
        let index = KdIndex::build(training.view());
        Ok(Self {
            algorithm: algorithm.to_string(),
            training,
            index,
            labels,
        })
    }
}

impl Model for NearestTrainingModel {
    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn dims(&self) -> usize {
        self.training.dims()
    }

    /// Serves from the kd-index cached at construction/load time — no
    /// per-call re-indexing of the training set.
    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.dims() {
            return None;
        }
        self.classify(point)
    }

    fn summary(&self) -> String {
        format!(
            "{} fallback model: label of the nearest of {} memorized \
             training points ({} clusters; nearest-noise queries predict \
             noise) — {} has no native out-of-sample rule",
            self.algorithm,
            self.training.len(),
            self.labels
                .iter()
                .flatten()
                .map(|&c| c + 1)
                .max()
                .unwrap_or(0),
            self.algorithm,
        )
    }

    /// The payload memorizes the training batch and its fit labels, so
    /// fallback model files scale with n.
    fn serialize(&self) -> Option<String> {
        let mut out = String::new();
        out.push_str(&format!("dims {}\n", self.dims()));
        out.push_str(&format!("points {}\n", self.training.len()));
        out.push_str(&format!("labels {}\n", join_labels(&self.labels)));
        write_matrix(&mut out, &self.training);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansConfig};
    use adawave_data::{shapes, Rng};

    fn blobs() -> PointMatrix {
        let mut rng = Rng::new(11);
        let mut points = PointMatrix::new(2);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.0, 0.0], &[0.3, 0.3], 150);
        shapes::gaussian_blob(&mut points, &mut rng, &[5.0, 5.0], &[0.3, 0.3], 150);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.0, 6.0], &[0.3, 0.3], 150);
        points
    }

    #[test]
    fn centroid_model_reproduces_kmeans_training_labels() {
        let points = blobs();
        let result = kmeans(points.view(), &KMeansConfig::new(3, 7));
        let model = CentroidModel::aligned(
            "kmeans",
            &result.centroids,
            &result.clustering,
            points.view(),
        );
        assert_eq!(model.predict(points.view()).unwrap(), result.clustering);
        // predict_one ids agree with the training clustering point by point.
        for (i, p) in points.rows().enumerate() {
            assert_eq!(model.predict_one(p), result.clustering.label(i));
        }
        assert_eq!(model.predict_one(&[f64::INFINITY, 0.0]), None);
        assert_eq!(model.predict_one(&[1.0]), None, "wrong dims");
    }

    #[test]
    fn centroid_model_serialization_round_trips() {
        let points = blobs();
        let result = kmeans(points.view(), &KMeansConfig::new(3, 3));
        let model = CentroidModel::aligned(
            "kmeans",
            &result.centroids,
            &result.clustering,
            points.view(),
        );
        let payload = model.serialize().unwrap();
        let loaded = CentroidModel::deserialize("kmeans", &payload).unwrap();
        assert_eq!(loaded.centroids(), model.centroids());
        assert_eq!(
            loaded.predict(points.view()).unwrap(),
            model.predict(points.view()).unwrap()
        );
        assert!(CentroidModel::deserialize("kmeans", "dims x\n").is_err());
        assert!(CentroidModel::deserialize("kmeans", "dims 2\ncentroids 4\n").is_err());
    }

    #[test]
    fn nearest_training_model_memorizes_labels_including_noise() {
        let points =
            PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![9.0, 9.0]]).unwrap();
        let clustering = Clustering::new(vec![Some(0), Some(0), None]);
        let model = NearestTrainingModel::new("dbscan", points.view(), &clustering);
        assert_eq!(model.predict(points.view()).unwrap(), clustering);
        // A fresh point near the noise training point predicts noise.
        assert_eq!(model.predict_one(&[9.1, 9.0]), None);
        assert_eq!(model.predict_one(&[0.05, 0.0]), Some(0));
        assert_eq!(model.predict_one(&[f64::NAN, 0.0]), None);
        assert!(model.summary().contains("fallback"), "{}", model.summary());
    }

    #[test]
    fn em_model_serialization_round_trips_bit_exactly() {
        let points = blobs();
        let (mixture, clustering) = crate::em::em(points.view(), &crate::em::EmConfig::new(3, 5));
        let model = EmModel::aligned(mixture, &clustering, points.view());
        let payload = model.serialize().unwrap();
        let loaded = EmModel::deserialize(&payload).unwrap();
        assert_eq!(
            loaded.predict(points.view()).unwrap(),
            model.predict(points.view()).unwrap()
        );
        // Deterministic payload: serializing the loaded model is identical.
        assert_eq!(loaded.serialize().unwrap(), payload);
        assert!(EmModel::deserialize("dims 2\n").is_err(), "truncated");
        assert!(EmModel::deserialize("").is_err());
    }

    #[test]
    fn meanshift_model_serialization_round_trips_bit_exactly() {
        let points = blobs();
        let config = MeanShiftConfig {
            bandwidth: 0.8,
            ..Default::default()
        };
        let (clustering, model) = MeanShiftModel::fit(points.view(), &config);
        let payload = model.serialize().unwrap();
        let loaded = MeanShiftModel::deserialize(&payload).unwrap();
        assert_eq!(loaded.predict(points.view()).unwrap(), clustering);
        assert_eq!(loaded.serialize().unwrap(), payload);
        assert!(MeanShiftModel::deserialize("dims 2\nbandwidth xyz\n").is_err());
    }

    #[test]
    fn interval_model_serialization_round_trips_bit_exactly() {
        let raw = vec![Some(1), None, Some(0)];
        let model = IntervalModel::new(2, 0, vec![(0.0, 1.0), (2.0, 3.0)], &raw);
        let payload = model.serialize().unwrap();
        let loaded = IntervalModel::deserialize(&payload).unwrap();
        assert_eq!(loaded.serialize().unwrap(), payload);
        for p in [[0.5, 0.0], [2.5, 0.0], [1.5, 0.0], [f64::NAN, 0.0]] {
            assert_eq!(loaded.predict_one(&p), model.predict_one(&p));
        }
        assert!(IntervalModel::deserialize("dims 2\ndim 0\nintervals 2\nremap 0\n").is_err());
    }

    #[test]
    fn nearest_training_model_serialization_round_trips_bit_exactly() {
        let points =
            PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![9.0, 9.0]]).unwrap();
        let clustering = Clustering::new(vec![Some(0), Some(0), None]);
        let model = NearestTrainingModel::new("dbscan", points.view(), &clustering);
        let payload = model.serialize().unwrap();
        let loaded = NearestTrainingModel::deserialize("dbscan", &payload).unwrap();
        assert_eq!(loaded.algorithm(), "dbscan");
        assert_eq!(loaded.predict(points.view()).unwrap(), clustering);
        assert_eq!(loaded.serialize().unwrap(), payload);
        // The noise label survives the roundtrip.
        assert_eq!(loaded.predict_one(&[9.1, 9.0]), None);
        assert!(
            NearestTrainingModel::deserialize("dbscan", "dims 2\npoints 1\nlabels x\n").is_err()
        );
    }

    #[test]
    fn interval_model_assigns_by_containment() {
        let raw = vec![Some(1), None, Some(0)];
        let model = IntervalModel::new(2, 0, vec![(0.0, 1.0), (2.0, 3.0)], &raw);
        // Raw interval 1 appeared first, so it owns cluster id 0.
        assert_eq!(model.predict_one(&[2.5, 0.0]), Some(0));
        assert_eq!(model.predict_one(&[0.5, 0.0]), Some(1));
        assert_eq!(model.predict_one(&[1.5, 0.0]), None);
        assert_eq!(model.predict_one(&[f64::NAN, 0.0]), None);
    }
}
