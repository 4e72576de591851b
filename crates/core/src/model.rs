//! The trained AdaWave serving model: O(1) per-point labeling through the
//! clustered grid, plus the versioned persistence payload.
//!
//! WaveCluster-style grid methods label *any* point by quantizing it and
//! looking its (downsampled) cell up in the cell → cluster table; the grid
//! built by one fit therefore serves arbitrarily many predictions. This is
//! the [`adawave_api::Model`] the paper's pipeline naturally produces: the
//! clustered grid is the trained artifact, the per-point labeling step is
//! one [`CellTable`] probe: an array load when the transformed codec's
//! keys are at most [`CellTable::DENSE_KEY_BITS`] wide, a hash lookup
//! beyond. A model file's cell keys are checked against the transformed
//! codec, and its cluster ids against its cluster count, before they enter
//! the table.

use adawave_api::{f64_to_hex, Clustering, Model, PayloadReader, Precision};
use adawave_grid::{BoundingBox, CellTable, F32Lane, KeyCodec, Quantizer};

use crate::adawave::GridModel;

/// A trained AdaWave model: the frozen quantization domain plus the
/// cell → cluster table of the transformed space.
///
/// Out-of-domain and non-finite points predict noise — the same outlier
/// contract the streaming layer (`adawave-stream`) applies to ingested
/// points, so a served model and a streaming session never disagree about
/// what an outlier is. Cluster ids follow the training clustering (first-
/// appearance numbering over the training batch), so
/// [`predict_one`](Model::predict_one) is consistent with the fit labels.
///
/// ```
/// use adawave_api::{Model, PointMatrix};
/// use adawave_core::{AdaWave, AdaWaveConfig};
///
/// let mut points = PointMatrix::new(2);
/// for i in 0..200 {
///     let t = i as f64 * 0.0004;
///     points.push_row(&[0.2 + t, 0.2 - t]);
///     points.push_row(&[0.8 - t, 0.8 + t]);
/// }
/// let adawave = AdaWave::new(AdaWaveConfig::builder().scale(32).build());
/// let (result, model) = adawave.fit_with_model(points.view()).unwrap();
/// // Training points reproduce their fit labels...
/// assert_eq!(model.predict(points.view()).unwrap(), result.to_clustering());
/// // ...and out-of-domain points are noise.
/// assert_eq!(model.predict_one(&[50.0, 50.0]), None);
/// ```
#[derive(Debug, Clone)]
pub struct AdaWaveModel {
    quantizer: Quantizer,
    levels: u32,
    down_codec: KeyCodec,
    /// Transformed-space cell key → cluster id (training numbering),
    /// over `down_codec`.
    cells: CellTable,
    cluster_count: usize,
    /// Numeric lane the model was fitted with; predictions quantize
    /// through the same lane so serving matches training cell for cell.
    precision: Precision,
    /// Precomputed f32 quantization state, present exactly when
    /// `precision == F32` (built at fit/load time, not per query).
    lane: Option<F32Lane>,
}

impl AdaWaveModel {
    /// Build a serving model from a fitted grid model over the given
    /// original-space quantizer. `remap` maps the grid's component ids to
    /// the training clustering's ids (see [`adawave_api::compact_remap`]
    /// and [`Clustering::from_ids_with_remap`]); pass the
    /// identity to keep raw component ids. `precision` must be the lane
    /// the grid was quantized with, so serving and training agree on cell
    /// boundaries.
    pub fn from_parts(
        quantizer: Quantizer,
        grid_model: &GridModel,
        remap: &[usize],
        precision: Precision,
    ) -> Self {
        let labels = grid_model.labels();
        let mut cells = CellTable::with_capacity(grid_model.codec(), labels.labeled_cells());
        for (key, id) in labels.iter() {
            cells.insert(key, remap.get(id).copied().unwrap_or(id));
        }
        let lane = lane_for(&quantizer, precision);
        Self {
            quantizer,
            levels: grid_model.levels(),
            down_codec: grid_model.codec().clone(),
            cells,
            cluster_count: grid_model.cluster_count(),
            precision,
            lane,
        }
    }

    /// The numeric lane the model quantizes queries through.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The frozen quantization domain.
    pub fn domain(&self) -> &BoundingBox {
        self.quantizer.bounds()
    }

    /// Number of clusters in the table.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Number of surviving (labeled) transformed-space cells.
    pub fn labeled_cells(&self) -> usize {
        self.cells.len()
    }

    /// Reconstruct a model from its [`serialize`](Model::serialize)
    /// payload (header already stripped by the persistence layer).
    ///
    /// The payload is untrusted: the `cells` count only bounds how much is
    /// pre-allocated (a count the payload cannot back fails as truncated),
    /// every cell key must be a key of the transformed codec, listed once,
    /// and every cluster id must lie below the `clusters` count, which
    /// can exceed neither the transformed grid's cells nor
    /// [`Clustering::MAX_CLUSTERS`], the ids a `u32` label holds. So
    /// nothing read from a file can index past the model's cell table,
    /// overflow one of its slots, give one cell two clusters, or predict
    /// an id no clustering can hold.
    pub fn deserialize(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let intervals: Vec<u32> = reader.list("intervals", dims)?;
        let down_intervals: Vec<u32> = reader.list("down-intervals", dims)?;
        let down_codec =
            KeyCodec::new(&down_intervals).map_err(|e| format!("bad down codec: {e}"))?;
        let levels: u32 = reader.scalar("levels")?;
        let precision: Precision = reader.scalar("precision")?;
        let cluster_count: usize = reader.scalar("clusters")?;
        if cluster_count > Clustering::MAX_CLUSTERS {
            return Err(format!(
                "{cluster_count} clusters are more than the {} a clustering holds \
                 (one u32 label a point)",
                Clustering::MAX_CLUSTERS
            ));
        }
        if cluster_count as u128 > down_codec.dense_cell_count() {
            return Err(format!(
                "{cluster_count} clusters cannot fit the transformed grid {down_intervals:?}"
            ));
        }
        let min = reader.float_list("min", dims)?;
        let max = reader.float_list("max", dims)?;
        let cell_count: usize = reader.scalar("cells")?;
        let mut cells = CellTable::with_capacity(&down_codec, cell_count.min(1 << 20));
        for _ in 0..cell_count {
            let line = reader.line()?;
            let (key_hex, id) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad cell line '{line}'"))?;
            let key = u128::from_str_radix(key_hex, 16)
                .map_err(|_| format!("bad cell key '{key_hex}'"))?;
            if !down_codec.contains(key) {
                return Err(format!(
                    "cell key '{key_hex}' lies outside the transformed grid {down_intervals:?}"
                ));
            }
            let id: usize = id.parse().map_err(|_| format!("bad cluster id '{id}'"))?;
            if id >= cluster_count {
                return Err(format!(
                    "cluster id {id} is not below the model's {cluster_count} clusters"
                ));
            }
            if cells.insert(key, id).is_some() {
                return Err(format!("the model lists cell key {key_hex} twice"));
            }
        }
        let quantizer = Quantizer::with_bounds(BoundingBox::from_bounds(min, max), &intervals)
            .map_err(|e| format!("bad quantizer: {e}"))?;
        let lane = lane_for(&quantizer, precision);
        Ok(Self {
            quantizer,
            levels,
            down_codec,
            cells,
            cluster_count,
            precision,
            lane,
        })
    }
}

/// The precomputed f32 lane for a quantizer, present exactly when the
/// model's precision selects it.
fn lane_for(quantizer: &Quantizer, precision: Precision) -> Option<F32Lane> {
    match precision {
        Precision::F64 => None,
        Precision::F32 => Some(quantizer.f32_lane()),
    }
}

impl Model for AdaWaveModel {
    fn algorithm(&self) -> &str {
        "adawave"
    }

    fn dims(&self) -> usize {
        self.quantizer.dims()
    }

    /// Quantize the point, downsampling each coordinate through the
    /// decomposition levels as it is computed, and look the transformed
    /// cell up — the exact mapping `fit` applies to training points, so
    /// predicting on the training batch reproduces the fit labels bit for
    /// bit.
    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.quantizer.dims() || !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        if !self.quantizer.bounds().contains(point) {
            return None;
        }
        // The key is computed through the same numeric lane as training,
        // so serving never straddles a cell boundary the fit did not, and
        // each coordinate is downsampled as the fit path's re-encode does.
        let key = self.quantizer.transformed_key(
            self.lane.as_ref(),
            point,
            &self.down_codec,
            self.levels,
        );
        self.cells.get(key)
    }

    fn summary(&self) -> String {
        format!(
            "adawave model: {} clusters over {} surviving grid cells \
             ({}-d domain, {} decomposition levels); out-of-domain and \
             non-finite points predict noise",
            self.cluster_count,
            self.cells.len(),
            self.quantizer.dims(),
            self.levels,
        )
    }

    fn serialize(&self) -> Option<String> {
        let dims = self.quantizer.dims();
        let bounds = self.quantizer.bounds();
        let mut out = String::new();
        out.push_str(&format!("dims {dims}\n"));
        out.push_str(&format!(
            "intervals {}\n",
            join_display(self.quantizer.codec().all_intervals())
        ));
        out.push_str(&format!(
            "down-intervals {}\n",
            join_display(self.down_codec.all_intervals())
        ));
        out.push_str(&format!("levels {}\n", self.levels));
        out.push_str(&format!("precision {}\n", self.precision));
        out.push_str(&format!("clusters {}\n", self.cluster_count));
        out.push_str(&format!("min {}\n", join_hex(bounds.min())));
        out.push_str(&format!("max {}\n", join_hex(bounds.max())));
        out.push_str(&format!("cells {}\n", self.cells.len()));
        // Sorted by key so the payload is deterministic.
        let mut sorted_cells: Vec<(u128, usize)> = self.cells.iter().collect();
        sorted_cells.sort_unstable();
        for (key, id) in sorted_cells {
            out.push_str(&format!("{key:032x} {id}\n"));
        }
        Some(out)
    }
}

fn join_display<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn join_hex(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| f64_to_hex(v))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The per-point hash lookup the model's [`CellTable`] replaced, kept as
/// the reference both sides of the table must match.
#[cfg(test)]
pub(crate) mod hash_reference {
    use std::collections::HashMap;

    use super::*;
    use crate::GridModel;

    /// The transformed cell → cluster map `from_parts` built.
    pub(crate) struct HashCells(HashMap<u128, usize>);

    impl HashCells {
        pub(crate) fn from_parts(grid_model: &GridModel, remap: &[usize]) -> Self {
            let labels = grid_model.labels().iter();
            Self(
                labels
                    .map(|(key, id)| (key, remap.get(id).copied().unwrap_or(id)))
                    .collect(),
            )
        }

        /// `predict_one` with one hash lookup for the transformed cell.
        pub(crate) fn predict_one(&self, model: &AdaWaveModel, point: &[f64]) -> Option<usize> {
            let quantizer = &model.quantizer;
            if point.len() != quantizer.dims() || !point.iter().all(|v| v.is_finite()) {
                return None;
            }
            if !quantizer.bounds().contains(point) {
                return None;
            }
            let key = match &model.lane {
                None => quantizer.cell_key(point),
                Some(lane) => quantizer.cell_key_f32(lane, point),
            };
            let codec = quantizer.codec();
            let down_key = codec.remap(key, &model.down_codec, model.levels, None);
            self.0.get(&down_key).copied()
        }

        /// The payload's cell lines: every cell in ascending key order.
        pub(crate) fn cell_lines(&self) -> String {
            // audit:allow(nondeterministic-iteration) collected and sorted on the next line
            let mut sorted: Vec<(u128, usize)> = self.0.iter().map(|(&k, &v)| (k, v)).collect();
            sorted.sort_unstable();
            sorted
                .iter()
                .map(|(key, id)| format!("{key:032x} {id}\n"))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::hash_reference::HashCells;
    use super::*;
    use crate::{cluster_grid, AdaWave, AdaWaveConfig};
    use adawave_api::compact_remap;
    use adawave_api::PointMatrix;
    use adawave_data::{shapes, Rng};
    use adawave_grid::LookupTable;
    use adawave_runtime::Runtime;
    use proptest::prelude::*;

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

    /// The fit labels and the hash-lookup model of the fit path before
    /// cell indices: quantize to one key a point, cluster the grid, label
    /// every point through a [`LookupTable`] of keys, remap.
    fn reference_cells(
        model: &AdaWaveModel,
        points: &PointMatrix,
        config: &AdaWaveConfig,
    ) -> (Vec<Option<usize>>, HashCells) {
        let quantizer = &model.quantizer;
        let (grid, keys) = match config.precision {
            Precision::F64 => quantizer.quantize_with(points.view(), config.runtime),
            Precision::F32 => quantizer.quantize_f32_with(points.view(), config.runtime),
        };
        let grid_model = cluster_grid(&grid, quantizer.codec(), config).unwrap();
        let lookup = LookupTable::new(quantizer.codec().clone(), keys);
        let assignment =
            lookup.assign_points(grid_model.labels(), grid_model.levels(), grid_model.codec());
        let remap = compact_remap(
            assignment.iter().flatten().copied(),
            grid_model.cluster_count(),
        );
        let cells = HashCells::from_parts(&grid_model, &remap);
        (assignment, cells)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `predict` through the cell table equals the per-point hash
        /// lookup it replaced, the fit's labels by cell index equal those
        /// of a lookup table of keys, and a save -> load round trip gives
        /// the same bytes and the same answers, with the transformed codec
        /// one bit below, at and one bit above the cap, on both lanes, at
        /// levels 0-2 and at 1 and 4 threads.
        #[test]
        fn predict_matches_the_hash_reference(seed in 0u64..u64::MAX) {
            let mut rng = Rng::new(seed);
            let dims = 1 + rng.below(6);
            let points = clustered_points(&mut rng, dims);
            // Training points, then queries in and around the domain and a
            // non-finite one.
            let mut queries = points.clone();
            for _ in 0..50 {
                let row: Vec<f64> = (0..dims).map(|_| rng.uniform_range(-0.2, 1.2)).collect();
                queries.push_row(&row);
            }
            queries.push_row(&vec![f64::NAN; dims]);
            for width in [21, 22, 23] {
                for levels in 0..3 {
                    let intervals = intervals_of_width(&mut rng, dims, width, levels, true);
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
                            let (result, model) =
                                AdaWave::new(config.clone()).fit_with_model(points.view()).unwrap();
                            prop_assert_eq!(model.down_codec.key_bits(), width);
                            prop_assert_eq!(
                                model.cells.is_dense(),
                                width <= CellTable::DENSE_KEY_BITS
                            );
                            let (assignment, reference) = reference_cells(&model, &points, &config);
                            prop_assert_eq!(&result.labels().collect::<Vec<_>>(), &assignment, "{}", context);
                            let payload = model.serialize().unwrap();
                            let loaded = AdaWaveModel::deserialize(&payload).unwrap();
                            prop_assert_eq!(&loaded.serialize().unwrap(), &payload, "{}", context);
                            let cells_at = payload.find("\ncells ").unwrap();
                            let cell_lines = payload[cells_at + 1..].split_once('\n').unwrap().1;
                            prop_assert_eq!(cell_lines, reference.cell_lines(), "{}", context);
                            for (i, q) in queries.rows().enumerate() {
                                let want = reference.predict_one(&model, q);
                                prop_assert_eq!(model.predict_one(q), want, "{} query {}", context, i);
                                prop_assert_eq!(loaded.predict_one(q), want, "{} query {}", context, i);
                            }
                            prop_assert_eq!(
                                model.predict(points.view()).unwrap(),
                                result.to_clustering(),
                                "{}", context
                            );
                        }
                    }
                }
            }
        }
    }

    fn noisy_blobs(seed: u64) -> PointMatrix {
        let mut rng = Rng::new(seed);
        let mut points = PointMatrix::new(2);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.03, 0.03], 400);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.03, 0.03], 400);
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 400);
        points
    }

    #[test]
    fn predict_on_training_points_reproduces_fit_labels() {
        let points = noisy_blobs(3);
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).build());
        let (result, model) = adawave.fit_with_model(points.view()).unwrap();
        assert_eq!(
            model.predict(points.view()).unwrap(),
            result.to_clustering()
        );
        // predict_one agrees point by point with the compacted fit labels.
        let fit_labels = result.to_clustering();
        for (i, p) in points.rows().enumerate() {
            assert_eq!(model.predict_one(p), fit_labels.label(i), "point {i}");
        }
    }

    #[test]
    fn unanswerable_points_predict_noise() {
        let points = noisy_blobs(5);
        let (_, model) = AdaWave::new(AdaWaveConfig::builder().scale(32).build())
            .fit_with_model(points.view())
            .unwrap();
        assert_eq!(model.predict_one(&[99.0, 99.0]), None, "out of domain");
        assert_eq!(model.predict_one(&[f64::NAN, 0.5]), None, "non-finite");
        assert_eq!(model.predict_one(&[0.5]), None, "wrong dimensionality");
        assert_eq!(model.dims(), 2);
        assert!(model.summary().contains("clusters"), "{}", model.summary());
    }

    #[test]
    fn serialize_round_trips_bit_exactly() {
        let points = noisy_blobs(7);
        let adawave = AdaWave::new(AdaWaveConfig::builder().scale(64).levels(2).build());
        let (result, model) = adawave.fit_with_model(points.view()).unwrap();
        let payload = model.serialize().expect("adawave models serialize");
        let loaded = AdaWaveModel::deserialize(&payload).unwrap();
        assert_eq!(loaded.cluster_count(), model.cluster_count());
        assert_eq!(loaded.labeled_cells(), model.labeled_cells());
        assert_eq!(
            loaded.predict(points.view()).unwrap(),
            result.to_clustering()
        );
        // Deterministic payload: serializing the loaded model is identical.
        assert_eq!(loaded.serialize().unwrap(), payload);
    }

    #[test]
    fn f32_lane_fits_serves_and_round_trips() {
        let points = noisy_blobs(11);
        let adawave = AdaWave::new(
            AdaWaveConfig::builder()
                .scale(64)
                .precision(Precision::F32)
                .build(),
        );
        let (result, model) = adawave.fit_with_model(points.view()).unwrap();
        assert_eq!(model.precision(), Precision::F32);
        // The blobs still separate through the single-precision lane.
        assert!(result.cluster_count() >= 2, "{}", result.cluster_count());
        // Serving quantizes through the same lane as training, so training
        // points reproduce their fit labels exactly.
        assert_eq!(
            model.predict(points.view()).unwrap(),
            result.to_clustering()
        );
        // Persistence preserves the lane and the predictions.
        let payload = model.serialize().unwrap();
        assert!(payload.contains("precision f32"), "{payload}");
        let loaded = AdaWaveModel::deserialize(&payload).unwrap();
        assert_eq!(loaded.precision(), Precision::F32);
        assert_eq!(
            loaded.predict(points.view()).unwrap(),
            result.to_clustering()
        );
    }

    #[test]
    fn deserialize_rejects_malformed_payloads() {
        assert!(AdaWaveModel::deserialize("").is_err());
        assert!(AdaWaveModel::deserialize("dims banana\n").is_err());
        assert!(
            AdaWaveModel::deserialize("levels 1\n").is_err(),
            "wrong field order"
        );
        let points = noisy_blobs(9);
        let (_, model) = AdaWave::default().fit_with_model(points.view()).unwrap();
        let payload = model.serialize().unwrap();
        // Truncating the cell table is detected.
        let truncated: String = payload.lines().take(9).collect::<Vec<_>>().join("\n");
        assert!(AdaWaveModel::deserialize(&truncated).is_err());
    }

    #[test]
    fn deserialize_bounds_the_cluster_count_by_the_u32_labels() {
        // A 2^40-cell transformed grid admits cluster counts past `u32`,
        // which the cell-count bound alone let through: the model could
        // then predict an id no `u32` label holds.
        let payload = |clusters: usize, id: usize| {
            let (zero, one) = (f64_to_hex(0.0), f64_to_hex(1.0));
            format!(
                "dims 2\nintervals 4 4\ndown-intervals 1048576 1048576\nlevels 1\n\
                 precision f64\nclusters {clusters}\nmin {zero} {zero}\nmax {one} {one}\n\
                 cells 1\n{:032x} {id}\n",
                0
            )
        };
        let limit = Clustering::MAX_CLUSTERS;
        let model = AdaWaveModel::deserialize(&payload(limit, limit - 1)).unwrap();
        assert_eq!(model.predict_one(&[0.1, 0.1]), Some(limit - 1));
        let batch = PointMatrix::from_rows(vec![vec![0.1, 0.1], vec![0.9, 0.9]]).unwrap();
        let clustering = model.predict(batch.view()).unwrap();
        assert_eq!(clustering.labels().collect::<Vec<_>>(), [Some(0), None]);
        for clusters in [limit + 1, 1 << 40] {
            let err = AdaWaveModel::deserialize(&payload(clusters, 0)).unwrap_err();
            assert!(
                err.contains(&format!("{clusters} clusters are more than the {limit}")),
                "{err}"
            );
        }
    }

    #[test]
    fn deserialize_rejects_impossible_counts_and_out_of_range_keys_and_ids() {
        let points = noisy_blobs(9);
        let config = AdaWaveConfig::builder().scale(48).levels(1).build();
        let (_, model) = AdaWave::new(config).fit_with_model(points.view()).unwrap();
        let payload = model.serialize().unwrap();
        let count_line = format!("cells {}\n", model.labeled_cells());
        assert!(payload.contains(&count_line), "{payload}");
        // A count the payload cannot back used to size the map up front:
        // "capacity overflow" and a multi-terabyte allocation abort.
        for count in ["4611686018427387904", "100000000000"] {
            let forged = payload.replace(&count_line, &format!("cells {count}\n"));
            let err = AdaWaveModel::deserialize(&forged).unwrap_err();
            assert!(err.contains("truncated payload"), "{count}: {err}");
        }
        // The transformed grid is 24 x 24 (10 key bits): a key above the
        // width, and one with an x coordinate of 24, are both refused.
        assert!(payload.contains("down-intervals 24 24\n"), "{payload}");
        let first_key = &payload[payload.find(&count_line).unwrap() + count_line.len()..][..32];
        for forged_key in [1u128 << 10, 24] {
            let forged = payload.replacen(first_key, &format!("{forged_key:032x}"), 1);
            let err = AdaWaveModel::deserialize(&forged).unwrap_err();
            assert!(err.contains("lies outside the transformed grid"), "{err}");
        }
        // Cluster ids land in the table's u32 slots: an id at or above the
        // `clusters` count is refused, and so is a count above the grid's
        // 576 cells, which could otherwise admit an id too wide for a slot.
        let clusters_line = format!("clusters {}\n", model.cluster_count());
        assert!(payload.contains(&clusters_line), "{payload}");
        let forged = payload.replace(&clusters_line, "clusters 577\n");
        let err = AdaWaveModel::deserialize(&forged).unwrap_err();
        assert!(err.contains("577 clusters cannot fit"), "{err}");
        let first_line = &payload[payload.find(&count_line).unwrap() + count_line.len()..];
        let first_line = &first_line[..first_line.find('\n').unwrap()];
        for id in [model.cluster_count(), usize::MAX] {
            let forged_line = format!("{} {id}", &first_line[..32]);
            let forged = payload.replacen(first_line, &forged_line, 1);
            let err = AdaWaveModel::deserialize(&forged).unwrap_err();
            assert!(err.contains("is not below the model's"), "{id}: {err}");
        }
        // A cell key listed twice, the second time with another cluster
        // id, would let the later line silently win: refused, even with
        // the `cells` count raised to cover the extra line.
        let other_id = (first_line[33..].parse::<usize>().unwrap() + 1) % model.cluster_count();
        let repeated = format!("{first_line}\n{} {other_id}", &first_line[..32]);
        let forged = payload.replacen(first_line, &repeated, 1).replace(
            &count_line,
            &format!("cells {}\n", model.labeled_cells() + 1),
        );
        let err = AdaWaveModel::deserialize(&forged).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }
}
