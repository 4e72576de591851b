//! The canonical clustering result type shared by every algorithm.
//!
//! Historically `adawave-core` and `adawave-baselines` each had their own
//! result struct; this is the single shared type both now produce, so
//! callers can score, post-process and compare algorithms uniformly.

use crate::PointsView;

/// A clustering of `n` points: each point is either assigned to a cluster
/// (`Some(id)` with contiguous 0-based ids) or marked as noise (`None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<Option<usize>>,
    cluster_count: usize,
}

impl Clustering {
    /// Build a clustering from an assignment vector. Cluster ids are
    /// compacted to `0..k` in order of first appearance, preserving the
    /// partition; ids may be arbitrary (non-contiguous, interleaved with
    /// noise) on input.
    pub fn new(mut assignment: Vec<Option<usize>>) -> Self {
        let mut mapping = std::collections::HashMap::new();
        for id in assignment.iter_mut().flatten() {
            let next = mapping.len();
            *id = *mapping.entry(*id).or_insert(next);
        }
        Self {
            assignment,
            cluster_count: mapping.len(),
        }
    }

    /// A clustering where every point is assigned (no noise).
    pub fn from_labels(labels: Vec<usize>) -> Self {
        Self::new(labels.into_iter().map(Some).collect())
    }

    /// A clustering where every point is noise.
    pub fn all_noise(n: usize) -> Self {
        Self {
            assignment: vec![None; n],
            cluster_count: 0,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of clusters (noise excluded).
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Assignment of a single point.
    pub fn label(&self, point: usize) -> Option<usize> {
        self.assignment[point]
    }

    /// Borrow the raw assignment.
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }

    /// Number of points labeled as noise.
    pub fn noise_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_none()).count()
    }

    /// Fraction of points labeled as noise.
    pub fn noise_fraction(&self) -> f64 {
        if self.assignment.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.assignment.len() as f64
        }
    }

    /// Size of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for a in self.assignment.iter().flatten() {
            sizes[*a] += 1;
        }
        sizes
    }

    /// Convert to a dense label vector for metric computation, mapping noise
    /// to the given label (commonly `usize::MAX` or `k`).
    pub fn to_labels(&self, noise_label: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .map(|a| a.unwrap_or(noise_label))
            .collect()
    }

    /// Members of each cluster as index lists.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.cluster_count];
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some(c) = a {
                out[*c].push(i);
            }
        }
        out
    }

    /// Reassign every noise point to the cluster of its nearest non-noise
    /// centroid (the paper's Table I protocol: "we run the k-means iteration
    /// on the final AdaWave result to assign every detected noise object to
    /// a 'true' cluster"). No-op if there are no clusters.
    pub fn assign_noise_to_nearest_centroid(&self, points: PointsView<'_>) -> Clustering {
        if self.cluster_count == 0 || points.is_empty() {
            return self.clone();
        }
        let dims = points.dims();
        // Compute centroids of existing clusters, flat row-major like the
        // points themselves.
        let mut centroids = vec![0.0; dims * self.cluster_count];
        let mut counts = vec![0usize; self.cluster_count];
        for (p, a) in points.rows().zip(self.assignment.iter()) {
            if let Some(c) = a {
                for (acc, v) in centroids[c * dims..(c + 1) * dims].iter_mut().zip(p.iter()) {
                    *acc += v;
                }
                counts[*c] += 1;
            }
        }
        for (c, count) in counts.iter().enumerate() {
            if *count > 0 {
                for v in &mut centroids[c * dims..(c + 1) * dims] {
                    *v /= *count as f64;
                }
            }
        }
        let assignment = points
            .rows()
            .zip(self.assignment.iter())
            .map(|(p, a)| {
                if a.is_some() {
                    *a
                } else {
                    let mut best = 0;
                    let mut best_d = f64::MAX;
                    for (c, centroid) in centroids.chunks_exact(dims.max(1)).enumerate() {
                        if counts[c] == 0 {
                            continue;
                        }
                        let d = adawave_linalg::squared_distance(p, centroid);
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    Some(best)
                }
            })
            .collect();
        Clustering::new(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_compacts_ids_and_counts_clusters() {
        let c = Clustering::new(vec![Some(7), None, Some(3), Some(7)]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.label(0), c.label(3));
        assert_ne!(c.label(0), c.label(2));
        assert_eq!(c.label(1), None);
        assert_eq!(c.noise_count(), 1);
        assert_eq!(c.noise_fraction(), 0.25);
    }

    #[test]
    fn id_compaction_handles_duplicate_non_contiguous_ids_interleaved_with_noise() {
        // Regression test for the compaction in `new`: duplicate ids that
        // are far apart, non-contiguous and interleaved with noise must map
        // to dense ids in order of first appearance, and re-encountering a
        // known id must not mint a fresh one.
        let c = Clustering::new(vec![
            Some(900),
            None,
            Some(17),
            Some(900),
            None,
            Some(usize::MAX),
            Some(17),
            Some(900),
        ]);
        assert_eq!(c.cluster_count(), 3);
        assert_eq!(
            c.assignment(),
            &[
                Some(0),
                None,
                Some(1),
                Some(0),
                None,
                Some(2),
                Some(1),
                Some(0)
            ]
        );
        // Every assigned id is below cluster_count (dense ids).
        for a in c.assignment().iter().flatten() {
            assert!(*a < c.cluster_count());
        }
        assert_eq!(c.cluster_sizes(), vec![3, 2, 1]);
    }

    #[test]
    fn from_labels_and_sizes() {
        let c = Clustering::from_labels(vec![0, 0, 1, 1, 1]);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.cluster_sizes(), vec![2, 3]);
        assert_eq!(c.noise_count(), 0);
        assert_eq!(c.clusters(), vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn all_noise() {
        let c = Clustering::all_noise(3);
        assert_eq!(c.cluster_count(), 0);
        assert_eq!(c.noise_count(), 3);
        assert_eq!(c.to_labels(99), vec![99, 99, 99]);
    }

    #[test]
    fn to_labels_maps_noise() {
        let c = Clustering::new(vec![Some(0), None, Some(1)]);
        assert_eq!(c.to_labels(5), vec![0, 5, 1]);
    }

    #[test]
    fn noise_reassignment_moves_points_to_nearest_cluster() {
        let points = crate::PointMatrix::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
            vec![0.4, 0.2], // noise, near cluster 0
            vec![4.8, 5.3], // noise, near cluster 1
        ])
        .unwrap();
        let c = Clustering::new(vec![Some(0), Some(0), Some(1), Some(1), None, None]);
        let filled = c.assign_noise_to_nearest_centroid(points.view());
        assert_eq!(filled.noise_count(), 0);
        assert_eq!(filled.label(4), filled.label(0));
        assert_eq!(filled.label(5), filled.label(2));
        // Already-assigned points keep their cluster.
        assert_eq!(filled.label(0), c.label(0));
    }

    #[test]
    fn noise_reassignment_with_no_clusters_is_noop() {
        let points = crate::PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        let c = Clustering::all_noise(2);
        let filled = c.assign_noise_to_nearest_centroid(points.view());
        assert_eq!(filled.noise_count(), 2);
    }

    #[test]
    fn noise_reassignment_with_empty_points_never_panics() {
        // Regression: the old `&[Vec<f64>]` implementation read `points[0]`
        // for the dimensionality; the view carries it, so an empty point
        // set is a clean no-op rather than a panic.
        let empty = crate::PointMatrix::new(0);
        let c = Clustering::new(vec![]);
        assert!(c.assign_noise_to_nearest_centroid(empty.view()).is_empty());
        let c = Clustering::new(vec![Some(0), None]);
        let filled = c.assign_noise_to_nearest_centroid(empty.view());
        assert_eq!(filled.noise_count(), 1);
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.noise_fraction(), 0.0);
    }
}
