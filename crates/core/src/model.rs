//! The trained AdaWave serving model: O(1) per-point labeling through the
//! clustered grid, plus the versioned persistence payload.
//!
//! WaveCluster-style grid methods label *any* point by quantizing it and
//! looking its (downsampled) cell up in the cell → cluster table; the grid
//! built by one fit therefore serves arbitrarily many predictions. This is
//! the [`adawave_api::Model`] the paper's pipeline naturally produces: the
//! clustered grid is the trained artifact, the per-point labeling step is
//! a hash lookup.

use std::collections::HashMap;

use adawave_api::{compact_remap, f64_to_hex, Model, PayloadReader, Precision};
use adawave_grid::{BoundingBox, F32Lane, KeyCodec, Quantizer};

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
    /// Transformed-space cell key → cluster id (training numbering).
    cells: HashMap<u128, usize>,
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
    /// the training clustering's ids (see [`compact_remap`]); pass the
    /// identity to keep raw component ids. `precision` must be the lane
    /// the grid was quantized with, so serving and training agree on cell
    /// boundaries.
    pub fn from_parts(
        quantizer: Quantizer,
        grid_model: &GridModel,
        remap: &[usize],
        precision: Precision,
    ) -> Self {
        let cells = grid_model
            .labels()
            .iter()
            .map(|(key, id)| (key, remap.get(id).copied().unwrap_or(id)))
            .collect();
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
    pub fn deserialize(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let dims: usize = reader.scalar("dims")?;
        let intervals: Vec<u32> = reader.list("intervals", dims)?;
        let down_intervals: Vec<u32> = reader.list("down-intervals", dims)?;
        let levels: u32 = reader.scalar("levels")?;
        let precision: Precision = reader.scalar("precision")?;
        let cluster_count: usize = reader.scalar("clusters")?;
        let min = reader.float_list("min", dims)?;
        let max = reader.float_list("max", dims)?;
        let cell_count: usize = reader.scalar("cells")?;
        let mut cells = HashMap::with_capacity(cell_count);
        for _ in 0..cell_count {
            let line = reader.line()?;
            let (key_hex, id) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad cell line '{line}'"))?;
            let key = u128::from_str_radix(key_hex, 16)
                .map_err(|_| format!("bad cell key '{key_hex}'"))?;
            let id: usize = id.parse().map_err(|_| format!("bad cluster id '{id}'"))?;
            cells.insert(key, id);
        }
        let quantizer = Quantizer::with_bounds(BoundingBox::from_bounds(min, max), &intervals)
            .map_err(|e| format!("bad quantizer: {e}"))?;
        let down_codec =
            KeyCodec::new(&down_intervals).map_err(|e| format!("bad down codec: {e}"))?;
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

    /// Quantize the point into its original-space cell, downsample the
    /// coordinates through the decomposition levels and look the
    /// transformed cell up — the exact mapping `fit` applies to training
    /// points, so predicting on the training batch reproduces the fit
    /// labels bit for bit.
    fn predict_one(&self, point: &[f64]) -> Option<usize> {
        if point.len() != self.quantizer.dims() || !point.iter().all(|v| v.is_finite()) {
            return None;
        }
        if !self.quantizer.bounds().contains(point) {
            return None;
        }
        // The key is computed through the same numeric lane as training,
        // so serving never straddles a cell boundary the fit did not, and
        // downsampled by the fit path's own re-encode.
        let key = match &self.lane {
            None => self.quantizer.cell_key(point),
            Some(lane) => self.quantizer.cell_key_f32(lane, point),
        };
        let down_key = self
            .quantizer
            .codec()
            .remap(key, &self.down_codec, self.levels, None);
        self.cells.get(&down_key).copied()
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
        let mut sorted_cells: Vec<(u128, usize)> =
            // audit:allow(nondeterministic-iteration) cells are collected and sorted on the next line
            self.cells.iter().map(|(&k, &v)| (k, v)).collect();
        sorted_cells.sort_unstable();
        for (key, id) in sorted_cells {
            out.push_str(&format!("{key:032x} {id}\n"));
        }
        Some(out)
    }
}

/// Compute the training remap for a fitted assignment: raw component ids →
/// the first-appearance ids [`adawave_api::Clustering::new`] will assign.
pub(crate) fn assignment_remap(assignment: &[Option<usize>], cluster_count: usize) -> Vec<usize> {
    compact_remap(assignment.iter().filter_map(|a| *a), cluster_count)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaWave, AdaWaveConfig};
    use adawave_api::PointMatrix;
    use adawave_data::{shapes, Rng};

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
}
