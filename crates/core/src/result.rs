//! Result types returned by an AdaWave run.

use adawave_api::PointsView;

/// Statistics about the grid pipeline, useful for the Fig. 5 / Fig. 6
//  experiments and for diagnosing configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct GridStats {
    /// Number of occupied cells right after quantization.
    pub quantized_cells: usize,
    /// Number of occupied cells after the wavelet transform (before any
    /// thresholding).
    pub transformed_cells: usize,
    /// Number of cells removed because their coefficient was near zero.
    pub near_zero_removed: usize,
    /// The adaptive density threshold that was chosen.
    pub threshold: f64,
    /// Number of cells removed by the threshold filter.
    pub threshold_removed: usize,
    /// Number of cells that survived and were clustered.
    pub surviving_cells: usize,
    /// Effective scale used per dimension (after any automatic reduction).
    pub intervals: Vec<u32>,
}

/// The outcome of clustering a dataset with AdaWave.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaWaveResult {
    assignment: Vec<Option<usize>>,
    cluster_count: usize,
    stats: GridStats,
    sorted_densities: Vec<f64>,
}

impl AdaWaveResult {
    pub(crate) fn new(
        assignment: Vec<Option<usize>>,
        cluster_count: usize,
        stats: GridStats,
        sorted_densities: Vec<f64>,
    ) -> Self {
        Self {
            assignment,
            cluster_count,
            stats,
            sorted_densities,
        }
    }

    /// Number of points that were clustered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of clusters found (noise excluded).
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Cluster of a point; `None` means the point was classified as noise
    /// (the paper groups these as one extra "noise cluster").
    pub fn label(&self, point: usize) -> Option<usize> {
        self.assignment[point]
    }

    /// The per-point assignment.
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }

    /// Number of points classified as noise.
    pub fn noise_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_none()).count()
    }

    /// Fraction of points classified as noise.
    pub fn noise_fraction(&self) -> f64 {
        if self.assignment.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.assignment.len() as f64
        }
    }

    /// Size of every cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for a in self.assignment.iter().flatten() {
            sizes[*a] += 1;
        }
        sizes
    }

    /// Convert to a dense label vector, mapping noise to `noise_label`.
    pub fn to_labels(&self, noise_label: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .map(|a| a.unwrap_or(noise_label))
            .collect()
    }

    /// Convert to the canonical [`adawave_api::Clustering`] shared by every
    /// algorithm in the workspace, dropping the AdaWave-specific pipeline
    /// diagnostics. This is what [`Clusterer::fit`] returns for AdaWave.
    ///
    /// [`Clusterer::fit`]: adawave_api::Clusterer::fit
    pub fn to_clustering(&self) -> adawave_api::Clustering {
        adawave_api::Clustering::new(self.assignment.clone())
    }

    /// [`to_clustering`](Self::to_clustering) for a caller that owns the
    /// result: the assignment is compacted in place instead of cloned.
    pub fn into_clustering(self) -> adawave_api::Clustering {
        adawave_api::Clustering::new(self.assignment)
    }

    /// Grid pipeline statistics.
    pub fn stats(&self) -> &GridStats {
        &self.stats
    }

    /// The smoothed grid densities in descending order — the curve of
    /// Fig. 6, exposed for the threshold experiments.
    pub fn sorted_densities(&self) -> &[f64] {
        &self.sorted_densities
    }

    /// Reassign every noise point to the cluster with the nearest centroid
    /// (the paper's protocol for the real-world datasets of Table I, which
    /// have no noise ground truth). Returns the new dense labels; with no
    /// clusters at all, every point is labeled 0.
    ///
    /// Delegates to the canonical
    /// [`Clustering::assign_noise_to_nearest_centroid`](adawave_api::Clustering::assign_noise_to_nearest_centroid)
    /// so core and baselines share one implementation of the protocol.
    pub fn assign_noise_to_nearest_centroid(&self, points: PointsView<'_>) -> Vec<usize> {
        self.to_clustering()
            .assign_noise_to_nearest_centroid(points)
            .to_labels(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> GridStats {
        GridStats {
            quantized_cells: 100,
            transformed_cells: 80,
            near_zero_removed: 5,
            threshold: 2.5,
            threshold_removed: 40,
            surviving_cells: 35,
            intervals: vec![128, 128],
        }
    }

    #[test]
    fn accessors() {
        let r = AdaWaveResult::new(
            vec![Some(0), Some(1), None, Some(0)],
            2,
            stats(),
            vec![9.0, 5.0, 1.0],
        );
        assert_eq!(r.len(), 4);
        assert_eq!(r.cluster_count(), 2);
        assert_eq!(r.noise_count(), 1);
        assert_eq!(r.noise_fraction(), 0.25);
        assert_eq!(r.cluster_sizes(), vec![2, 1]);
        assert_eq!(r.to_labels(9), vec![0, 1, 9, 0]);
        assert_eq!(r.label(2), None);
        assert_eq!(r.stats().threshold, 2.5);
        assert_eq!(r.sorted_densities(), &[9.0, 5.0, 1.0]);
        assert!(!r.is_empty());
    }

    #[test]
    fn noise_reassignment_to_nearest_centroid() {
        let points = adawave_api::PointMatrix::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![5.0, 5.0],
            vec![5.2, 5.0],
            vec![4.5, 4.9],
        ])
        .unwrap();
        let r = AdaWaveResult::new(
            vec![Some(0), Some(0), Some(1), Some(1), None],
            2,
            stats(),
            vec![],
        );
        let labels = r.assign_noise_to_nearest_centroid(points.view());
        assert_eq!(labels[4], labels[2]);
        assert_eq!(labels[0], 0);
    }

    #[test]
    fn noise_reassignment_without_clusters_is_stable() {
        let points = adawave_api::PointMatrix::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        let r = AdaWaveResult::new(vec![None, None], 0, stats(), vec![]);
        let labels = r.assign_noise_to_nearest_centroid(points.view());
        assert_eq!(labels.len(), 2);
    }
}
