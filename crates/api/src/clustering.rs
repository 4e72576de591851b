//! The canonical clustering result type shared by every algorithm.
//!
//! Historically `adawave-core` and `adawave-baselines` each had their own
//! result struct; this is the single shared type both now produce, so
//! callers can score, post-process and compare algorithms uniformly.

use std::collections::HashMap;

use crate::{ClusterError, PointsView};

/// A clustering of `n` points: each point is either assigned to a cluster
/// (`Some(id)` with contiguous 0-based ids) or marked as noise (`None`).
///
/// The labels are held as one `u32` a point, with `u32::MAX` marking
/// noise: 4 bytes where an `Option<usize>` takes 16. So a clustering
/// holds at most [`MAX_POINTS`](Self::MAX_POINTS) points, and so at most
/// [`MAX_CLUSTERS`](Self::MAX_CLUSTERS) clusters; fits and predicts
/// reject larger inputs first ([`validate_row_count`]). The accessors
/// speak `Option<usize>`: [`label`](Self::label) for one point and
/// [`labels`](Self::labels) for every point in order.
///
/// [`validate_row_count`]: crate::validate_row_count
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    ids: Vec<u32>,
    cluster_count: usize,
}

/// The `u32` id of a noise point.
const NOISE: u32 = Clustering::NOISE;

impl Clustering {
    /// The `u32` id that marks a noise point in the ids
    /// [`from_ids`](Self::from_ids) and
    /// [`from_ids_with_remap`](Self::from_ids_with_remap) take.
    pub const NOISE: u32 = u32::MAX;

    /// The most points a clustering holds: every label is a `u32` below
    /// `u32::MAX`, the noise marker.
    pub const MAX_POINTS: usize = u32::MAX as usize - 1;

    /// The most clusters a clustering holds, one id below `u32::MAX` each.
    pub const MAX_CLUSTERS: usize = u32::MAX as usize - 1;

    /// Build a clustering from an assignment vector. Cluster ids are
    /// compacted to `0..k` in order of first appearance, preserving the
    /// partition; ids may be arbitrary (non-contiguous, interleaved with
    /// noise) on input.
    ///
    /// Ids below the point count, which every algorithm in the workspace
    /// hands in, are renumbered through an array indexed by id, one slot
    /// per id up to the largest; larger ids go through a hash map.
    ///
    /// # Panics
    /// Panics if the assignment holds more than
    /// [`MAX_POINTS`](Self::MAX_POINTS) points.
    pub fn new(assignment: Vec<Option<usize>>) -> Self {
        let largest = assignment.iter().flatten().max().copied();
        if largest.is_some_and(|largest| largest >= assignment.len()) {
            let mut order = HashMap::new();
            let ids = assignment
                .iter()
                .map(|a| a.map_or(NOISE, |raw| first_appearance(&mut order, raw)))
                .collect();
            return Self::compacted(ids, order.len());
        }
        let ids = assignment
            .iter()
            .map(|a| a.map_or(NOISE, |id| id as u32))
            .collect();
        Self::from_ids_with_remap(ids, largest.map_or(0, |largest| largest + 1)).0
    }

    /// [`new`](Self::new) on `u32` ids, `u32::MAX` marking noise: the ids
    /// are renumbered in place, so the clustering takes no memory beyond
    /// `ids` (and one slot per id up to the largest when it is below the
    /// point count).
    ///
    /// ```
    /// use adawave_api::Clustering;
    ///
    /// let c = Clustering::from_ids(vec![7, u32::MAX, 3, 7]);
    /// assert_eq!(c.labels().collect::<Vec<_>>(), [Some(0), None, Some(1), Some(0)]);
    /// ```
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        let largest = ids.iter().filter(|&&id| id != NOISE).max().copied();
        match largest {
            Some(largest) if largest as usize >= ids.len() => {
                let mut order = HashMap::new();
                for id in ids.iter_mut().filter(|id| **id != NOISE) {
                    *id = first_appearance(&mut order, *id);
                }
                Self::compacted(ids, order.len())
            }
            _ => Self::from_ids_with_remap(ids, largest.map_or(0, |id| id as usize + 1)).0,
        }
    }

    /// [`from_ids`](Self::from_ids) for an algorithm's own ids, all below
    /// `id_count` (the components of a grid, say), which also returns
    /// where each of those ids went: the [`compact_remap`] of the ids,
    /// with the ids no point carries appended after the others in
    /// ascending order. A model built with that map predicts the
    /// clustering's ids.
    ///
    /// [`compact_remap`]: crate::compact_remap
    ///
    /// ```
    /// use adawave_api::Clustering;
    ///
    /// let (c, remap) = Clustering::from_ids_with_remap(vec![2, u32::MAX, 0, 2], 4);
    /// assert_eq!(c.labels().collect::<Vec<_>>(), [Some(0), None, Some(1), Some(0)]);
    /// assert_eq!(remap, [1, 2, 0, 3]);
    /// ```
    ///
    /// # Panics
    /// Panics if an id other than `u32::MAX` is `id_count` or more, or as
    /// [`new`](Self::new).
    pub fn from_ids_with_remap(mut ids: Vec<u32>, id_count: usize) -> (Self, Vec<usize>) {
        let labeled = ids.iter().filter(|&&id| id != NOISE).map(|&id| id as usize);
        let remap = crate::compact_remap(labeled, id_count);
        // The ids that appear take 0..count, so the largest new id is the
        // last of them.
        let mut count = 0;
        for id in ids.iter_mut().filter(|id| **id != NOISE) {
            *id = remap[*id as usize] as u32;
            count = count.max(*id as usize + 1);
        }
        (Self::compacted(ids, count), remap)
    }

    /// The `u32` id [`from_ids`](Self::from_ids) reads for `label`:
    /// `u32::MAX` for noise. An id of `u32::MAX` or more has no `u32` form
    /// and is an [`ClusterError::InvalidInput`] that names the limit.
    pub fn id_of(label: Option<usize>) -> Result<u32, ClusterError> {
        match label {
            None => Ok(NOISE),
            Some(id) => u32::try_from(id)
                .ok()
                .filter(|&id| id != NOISE)
                .ok_or_else(|| ClusterError::InvalidInput {
                    context: format!(
                        "cluster id {id} is not below {NOISE}, the noise marker of u32 labels"
                    ),
                }),
        }
    }

    /// The clustering of `ids` already numbered by first appearance.
    fn compacted(ids: Vec<u32>, cluster_count: usize) -> Self {
        assert!(
            ids.len() <= Self::MAX_POINTS,
            "a clustering holds at most {} points",
            Self::MAX_POINTS
        );
        Self { ids, cluster_count }
    }

    /// A clustering where every point is assigned (no noise).
    pub fn from_labels(labels: Vec<usize>) -> Self {
        Self::new(labels.into_iter().map(Some).collect())
    }

    /// A clustering where every point is noise.
    pub fn all_noise(n: usize) -> Self {
        Self::compacted(vec![NOISE; n], 0)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of clusters (noise excluded).
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Assignment of a single point.
    pub fn label(&self, point: usize) -> Option<usize> {
        label_of(self.ids[point])
    }

    /// The assignment of every point in order, `None` for noise.
    pub fn labels(
        &self,
    ) -> impl ExactSizeIterator<Item = Option<usize>> + DoubleEndedIterator + Clone + '_ {
        self.ids.iter().copied().map(label_of)
    }

    /// Number of points labeled as noise.
    pub fn noise_count(&self) -> usize {
        self.ids.iter().filter(|&&id| id == NOISE).count()
    }

    /// Fraction of points labeled as noise.
    pub fn noise_fraction(&self) -> f64 {
        if self.ids.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.ids.len() as f64
        }
    }

    /// Size of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for c in self.labels().flatten() {
            sizes[c] += 1;
        }
        sizes
    }

    /// Convert to a dense label vector for metric computation, mapping noise
    /// to the given label (commonly `usize::MAX` or `k`).
    pub fn to_labels(&self, noise_label: usize) -> Vec<usize> {
        self.labels().map(|a| a.unwrap_or(noise_label)).collect()
    }

    /// Members of each cluster as index lists.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.cluster_count];
        for (i, a) in self.labels().enumerate() {
            if let Some(c) = a {
                out[c].push(i);
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
        for (p, a) in points.rows().zip(self.labels()) {
            if let Some(c) = a {
                for (acc, v) in centroids[c * dims..(c + 1) * dims].iter_mut().zip(p.iter()) {
                    *acc += v;
                }
                counts[c] += 1;
            }
        }
        for (c, count) in counts.iter().enumerate() {
            if *count > 0 {
                for v in &mut centroids[c * dims..(c + 1) * dims] {
                    *v /= *count as f64;
                }
            }
        }
        let ids = points
            .rows()
            .zip(&self.ids)
            .map(|(p, &id)| {
                if id != NOISE {
                    id
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
                    best as u32
                }
            })
            .collect();
        Clustering::from_ids(ids)
    }
}

/// The label of a `u32` id.
fn label_of(id: u32) -> Option<usize> {
    (id != NOISE).then_some(id as usize)
}

/// The first-appearance id of `raw` in `order`: the id it was given when
/// first seen, or else the next id.
fn first_appearance<K: std::hash::Hash + Eq>(order: &mut HashMap<K, u32>, raw: K) -> u32 {
    let next = order.len() as u32;
    *order.entry(raw).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hash-map renumbering `new` used for every input, kept as the
    /// reference of the array path.
    fn hash_reference(mut assignment: Vec<Option<usize>>) -> (Vec<Option<usize>>, usize) {
        let mut mapping = std::collections::HashMap::new();
        for id in assignment.iter_mut().flatten() {
            let next = mapping.len();
            *id = *mapping.entry(*id).or_insert(next);
        }
        (assignment, mapping.len())
    }

    /// Every accessor of `got` against the renumbered reference.
    fn assert_matches_reference(
        got: &Clustering,
        want: &[Option<usize>],
        count: usize,
        context: &str,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.labels().collect::<Vec<_>>(), want, "{}", context);
        prop_assert_eq!(got.labels().len(), want.len(), "{}", context);
        prop_assert_eq!(got.cluster_count(), count, "{}", context);
        for (i, &label) in want.iter().enumerate() {
            prop_assert_eq!(got.label(i), label, "{} point {}", context, i);
        }
        let noise_label = count + 3;
        let labels: Vec<usize> = want.iter().map(|a| a.unwrap_or(noise_label)).collect();
        prop_assert_eq!(got.to_labels(noise_label), labels, "{}", context);
        let mut sizes = vec![0; count];
        for &c in want.iter().flatten() {
            sizes[c] += 1;
        }
        prop_assert_eq!(got.cluster_sizes(), sizes, "{}", context);
        let noise = want.iter().filter(|a| a.is_none()).count();
        prop_assert_eq!(got.noise_count(), noise, "{}", context);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Both renumbering paths equal the hash reference: ids drawn
        /// densely below the point count (the array), sparsely up to a few
        /// times past it and near `usize::MAX` (the hash map), with every
        /// point noise and with no points at all. The `u32` constructors
        /// take the same ids, those near `usize::MAX` moved just below
        /// `u32::MAX`; the one with a remap sizes its array by the largest
        /// id.
        #[test]
        fn renumbering_matches_the_hash_reference(
            raw in proptest::collection::vec((0u32..8, 0usize..1000), 0..80),
            (kind, spread) in (0u32..4, 1usize..5),
        ) {
            let n = raw.len();
            let assignment: Vec<Option<usize>> = raw
                .iter()
                .map(|&(noise, id)| match kind {
                    _ if noise == 0 => None,
                    0 => Some(id % n.max(1)),
                    1 => Some(id % (spread * n + 1)),
                    2 => Some(usize::MAX - id % 7),
                    _ => None,
                })
                .collect();
            let context = format!("{assignment:?}");
            let (want, count) = hash_reference(assignment.clone());
            assert_matches_reference(&Clustering::new(assignment.clone()), &want, count, &context)?;
            let ids: Vec<u32> = assignment
                .iter()
                .map(|a| match *a {
                    None => NOISE,
                    Some(id) if kind == 2 => NOISE - 1 - (usize::MAX - id) as u32,
                    Some(id) => id as u32,
                })
                .collect();
            assert_matches_reference(&Clustering::from_ids(ids.clone()), &want, count, &context)?;
            if kind != 2 {
                let id_count = ids.iter().filter(|&&id| id != NOISE).max().map_or(0, |&id| id as usize + 1);
                let (got, remap) = Clustering::from_ids_with_remap(ids.clone(), id_count);
                assert_matches_reference(&got, &want, count, &context)?;
                // The remap sends every id to the label its points took,
                // and the ids no point carries past those.
                for (&id, label) in ids.iter().zip(got.labels()) {
                    prop_assert_eq!(label, (id != NOISE).then(|| remap[id as usize]), "{}", context);
                }
                let mut sorted = remap.clone();
                sorted.sort_unstable();
                prop_assert!(sorted.into_iter().eq(0..id_count), "{}", context);
            }
        }
    }

    #[test]
    fn ids_past_the_u32_labels_are_typed_errors() {
        assert_eq!(Clustering::id_of(None), Ok(u32::MAX));
        assert_eq!(Clustering::id_of(Some(0)), Ok(0));
        let last = u32::MAX as usize - 1;
        assert_eq!(Clustering::id_of(Some(last)), Ok(last as u32));
        for id in [last + 1, usize::MAX] {
            let err = Clustering::id_of(Some(id)).unwrap_err();
            let want = format!("cluster id {id} is not below 4294967295");
            assert!(
                matches!(&err, ClusterError::InvalidInput { context } if context.contains(&want)),
                "{err}"
            );
        }
    }

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
            c.labels().collect::<Vec<_>>(),
            [
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
        for a in c.labels().flatten() {
            assert!(a < c.cluster_count());
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
