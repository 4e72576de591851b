//! Accumulator persistence: snapshot a [`StreamingAdaWave`] session to the
//! versioned `adawave-accumulator` artifact format and restore it in
//! another process.
//!
//! The snapshot captures the session's *entire* mergeable state — model
//! configuration (worker-pool runtime excluded; it never affects results),
//! the frozen quantized space, the accumulated sparse grid and the
//! per-point cell keys — with every float as the hex of its IEEE-754 bits,
//! so a save → load round trip is bit-exact: a restored session merges,
//! refits and labels exactly like the original. That is what turns the
//! in-process shard merge of [`StreamingAdaWave::merge`] into a
//! distributed one: independent processes each ingest a slice of the data,
//! write their accumulators with [`save_accumulator`], and a coordinator
//! [`load_accumulator`]s and merges them — with mismatched domains or
//! configurations rejected exactly like an in-process merge.
//!
//! [`Checkpointer`] adds crash tolerance on top: every `every` ingested
//! rows it rewrites the accumulator file atomically (write to a `.tmp`
//! sibling, then rename), so a killed ingestion can resume from the last
//! checkpoint — skip the first [`StreamingAdaWave::points_ingested`] rows
//! and continue — instead of starting over at row 0.

use std::path::{Path, PathBuf};

use adawave_api::{
    f64_from_hex, f64_to_hex, load_artifact, push_hex, save_artifact, save_artifact_atomic,
    ArtifactError, ArtifactKind, PayloadReader,
};
use adawave_core::{AdaWave, AdaWaveConfig, ThresholdStrategy};
use adawave_grid::{Connectivity, Quantizer, SparseGrid};
use adawave_wavelet::{BoundaryMode, Wavelet};

use crate::{Frozen, StreamingAdaWave};

/// The artifact kind accumulator files use (magic `adawave-accumulator`).
const KIND: ArtifactKind = ArtifactKind::Accumulator;

/// The algorithm named in every accumulator header.
const ALGORITHM: &str = "adawave";

fn boundary_name(mode: BoundaryMode) -> &'static str {
    match mode {
        BoundaryMode::Zero => "zero",
        BoundaryMode::Periodic => "periodic",
        BoundaryMode::Symmetric => "symmetric",
    }
}

fn boundary_from_name(name: &str) -> Option<BoundaryMode> {
    match name {
        "zero" => Some(BoundaryMode::Zero),
        "periodic" => Some(BoundaryMode::Periodic),
        "symmetric" => Some(BoundaryMode::Symmetric),
        _ => None,
    }
}

fn connectivity_name(connectivity: Connectivity) -> &'static str {
    match connectivity {
        Connectivity::Face => "face",
        Connectivity::Moore => "moore",
    }
}

fn connectivity_from_name(name: &str) -> Option<Connectivity> {
    match name {
        "face" => Some(Connectivity::Face),
        "moore" => Some(Connectivity::Moore),
        _ => None,
    }
}

/// Serialize the model configuration (runtime excluded) with every float
/// bit-exact, so the restored config passes [`StreamingAdaWave::merge`]'s
/// equality check against the original session.
fn serialize_config(config: &AdaWaveConfig, out: &mut String) {
    out.push_str(&format!("config-scale {}\n", config.scale));
    match &config.per_dimension_scale {
        None => out.push_str("config-per-dimension-scale none\n"),
        Some(v) => {
            out.push_str("config-per-dimension-scale");
            for m in v {
                out.push_str(&format!(" {m}"));
            }
            out.push('\n');
        }
    }
    out.push_str(&format!("config-wavelet {}\n", config.wavelet.name()));
    out.push_str(&format!("config-levels {}\n", config.levels));
    out.push_str(&format!(
        "config-boundary {}\n",
        boundary_name(config.boundary)
    ));
    out.push_str(&format!(
        "config-epsilon {}\n",
        f64_to_hex(config.coefficient_epsilon)
    ));
    // The strategy name plus its parameter (if any) as hex bits — the
    // textual `fixed:<decimal>` form of FromStr would not round-trip
    // bit-exactly.
    out.push_str("config-threshold ");
    out.push_str(config.threshold.name());
    match config.threshold {
        ThresholdStrategy::ElbowAngle { divisor } => {
            out.push(' ');
            out.push_str(&f64_to_hex(divisor));
        }
        ThresholdStrategy::Fixed(v) => {
            out.push(' ');
            out.push_str(&f64_to_hex(v));
        }
        ThresholdStrategy::Quantile(q) => {
            out.push(' ');
            out.push_str(&f64_to_hex(q));
        }
        ThresholdStrategy::ThreeSegment | ThresholdStrategy::Kneedle => {}
    }
    out.push('\n');
    out.push_str(&format!(
        "config-connectivity {}\n",
        connectivity_name(config.connectivity)
    ));
    out.push_str(&format!(
        "config-auto-reduce-scale {}\n",
        config.auto_reduce_scale
    ));
    out.push_str(&format!(
        "config-max-transformed-cells {}\n",
        config.max_transformed_cells
    ));
    out.push_str(&format!("config-precision {}\n", config.precision));
}

fn parse_config(reader: &mut PayloadReader<'_>) -> Result<AdaWaveConfig, String> {
    let mut config = AdaWaveConfig {
        scale: reader.scalar("config-scale")?,
        ..AdaWaveConfig::default()
    };
    let raw = reader.field("config-per-dimension-scale")?;
    config.per_dimension_scale = match raw {
        "none" => None,
        list => Some(
            list.split_whitespace()
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad per-dimension scale '{v}'"))
                })
                .collect::<Result<Vec<u32>, String>>()?,
        ),
    };
    let raw = reader.field("config-wavelet")?;
    config.wavelet = Wavelet::from_name(raw).ok_or_else(|| format!("unknown wavelet '{raw}'"))?;
    config.levels = reader.scalar("config-levels")?;
    let raw = reader.field("config-boundary")?;
    config.boundary =
        boundary_from_name(raw).ok_or_else(|| format!("unknown boundary mode '{raw}'"))?;
    config.coefficient_epsilon = reader.float_list("config-epsilon", 1).map(|v| v[0])?;
    let raw = reader.field("config-threshold")?;
    let (name, param) = match raw.split_once(' ') {
        Some((name, bits)) => {
            let v = f64_from_hex(bits).ok_or_else(|| format!("bad threshold bits '{bits}'"))?;
            (name, Some(v))
        }
        None => (raw, None),
    };
    config.threshold = match (name, param) {
        ("three-segment", None) => ThresholdStrategy::ThreeSegment,
        ("kneedle", None) => ThresholdStrategy::Kneedle,
        ("elbow-angle", Some(divisor)) => ThresholdStrategy::ElbowAngle { divisor },
        ("fixed", Some(v)) => ThresholdStrategy::Fixed(v),
        ("quantile", Some(q)) => ThresholdStrategy::Quantile(q),
        _ => return Err(format!("bad threshold strategy '{raw}'")),
    };
    let raw = reader.field("config-connectivity")?;
    config.connectivity =
        connectivity_from_name(raw).ok_or_else(|| format!("unknown connectivity '{raw}'"))?;
    config.auto_reduce_scale = reader.scalar("config-auto-reduce-scale")?;
    config.max_transformed_cells = reader.scalar("config-max-transformed-cells")?;
    config.precision = reader.scalar("config-precision")?;
    Ok(config)
}

impl StreamingAdaWave {
    /// Serialize the session's complete mergeable state into the
    /// accumulator payload (header excluded): configuration, frozen
    /// quantized space, accumulated grid and per-point cell keys, all
    /// bit-exact. The worker-pool runtime is deliberately *not* part of
    /// the snapshot — it never affects results, and [`restore`]d sessions
    /// pick it up from the environment like any fresh session.
    ///
    /// [`restore`]: Self::restore
    pub fn snapshot(&self) -> String {
        // Sized once for the point keys and the grid dump together: a
        // `String` regrown mid-dump would briefly hold two copies.
        let grid = self.frozen.as_ref().map_or(0, |f| f.grid.serialized_len());
        let quantizer = 64 + 40 * self.dims.unwrap_or(0);
        let points = 33 * self.point_cells.len();
        let mut out = String::with_capacity(1024 + quantizer + points + grid);
        serialize_config(self.adawave.config(), &mut out);
        match self.dims {
            None => out.push_str("dims none\n"),
            Some(d) => out.push_str(&format!("dims {d}\n")),
        }
        out.push_str(&format!("outliers {}\n", self.outliers));
        out.push_str(&format!("points {}\n", self.point_cells.len()));
        for cell in &self.point_cells {
            match cell {
                Some(key) => {
                    push_hex(&mut out, *key, 32);
                    out.push('\n');
                }
                None => out.push_str("-\n"),
            }
        }
        match &self.frozen {
            None => out.push_str("frozen none\n"),
            Some(frozen) => {
                out.push_str("frozen some\n");
                frozen.quantizer.serialize_into(&mut out);
                frozen.grid.serialize_into(&mut out);
            }
        }
        out
    }

    /// Rebuild a session from a [`snapshot`](Self::snapshot) payload.
    ///
    /// Everything is re-validated on the way in: the configuration fields,
    /// the quantizer (bounds ordering, interval counts, key width) and the
    /// grid dump. The restored session is bit-for-bit equivalent to the
    /// snapshot one — same grid, same per-point cells, same refit labels —
    /// and merging it behaves exactly like merging the original
    /// (mismatched domains/configurations are rejected the same way).
    pub fn restore(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let config = parse_config(&mut reader)?;
        let dims = match reader.field("dims")? {
            "none" => None,
            raw => Some(raw.parse().map_err(|_| format!("bad dims '{raw}'"))?),
        };
        let outliers: usize = reader.scalar("outliers")?;
        let points: usize = reader.scalar("points")?;
        let mut point_cells = Vec::with_capacity(points.min(1 << 24));
        let mut noise = 0usize;
        for _ in 0..points {
            let line = reader.line()?;
            if line == "-" {
                noise += 1;
                point_cells.push(None);
            } else {
                let key = u128::from_str_radix(line, 16)
                    .map_err(|_| format!("bad point cell key '{line}'"))?;
                point_cells.push(Some(key));
            }
        }
        if noise != outliers {
            return Err(format!(
                "outlier count {outliers} does not match the {noise} noise cells listed"
            ));
        }
        let frozen = match reader.field("frozen")? {
            "none" => None,
            "some" => {
                let quantizer = Quantizer::deserialize_from(&mut reader)?;
                if let Some(d) = dims {
                    if quantizer.dims() != d {
                        return Err(format!(
                            "frozen space has {} dimensions but the session says {d}",
                            quantizer.dims()
                        ));
                    }
                }
                let grid = SparseGrid::deserialize_from(&mut reader)?;
                Some(Frozen { quantizer, grid })
            }
            other => return Err(format!("bad frozen marker '{other}'")),
        };
        if frozen.is_none() && dims.is_some() && point_cells.iter().any(|c| c.is_some()) {
            return Err("in-domain point cells listed but no frozen space".to_string());
        }
        Ok(Self {
            adawave: AdaWave::new(config),
            frozen,
            point_cells,
            outliers,
            dims,
        })
    }
}

/// Write a session's accumulator to `path` in one shot.
pub fn save_accumulator(path: &Path, stream: &StreamingAdaWave) -> Result<(), ArtifactError> {
    save_artifact(path, KIND, ALGORITHM, &stream.snapshot())
}

/// Write a session's accumulator to `path` atomically (`.tmp` sibling,
/// then rename) — the checkpoint discipline: a crash mid-write leaves the
/// previous checkpoint intact, never a half-written file.
pub fn save_accumulator_atomic(
    path: &Path,
    stream: &StreamingAdaWave,
) -> Result<(), ArtifactError> {
    save_artifact_atomic(path, KIND, ALGORITHM, &stream.snapshot())
}

/// Load an accumulator file written by [`save_accumulator`] (or the
/// atomic variant) back into a session.
pub fn load_accumulator(path: &Path) -> Result<StreamingAdaWave, ArtifactError> {
    let artifact = load_artifact(path, KIND)?;
    if artifact.algorithm != ALGORITHM {
        return Err(ArtifactError::Format {
            kind: KIND,
            context: format!(
                "accumulators are written by '{ALGORITHM}', found algorithm '{}'",
                artifact.algorithm
            ),
        });
    }
    StreamingAdaWave::restore(&artifact.payload).map_err(|context| ArtifactError::Format {
        kind: KIND,
        context,
    })
}

/// Periodic checkpointing for a long ingestion: counts ingested rows and
/// rewrites the accumulator file atomically every `every` rows, so a
/// killed process resumes from the last checkpoint instead of row 0.
///
/// ```no_run
/// use adawave_core::AdaWaveConfig;
/// use adawave_stream::{Checkpointer, StreamingAdaWave};
/// # use adawave_api::PointMatrix;
///
/// let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
/// let mut checkpointer = Checkpointer::new("state.awa", 10_000);
/// # let batches: Vec<PointMatrix> = vec![];
/// for batch in &batches {
///     let report = stream.ingest(batch.view()).unwrap();
///     checkpointer.observe(&stream, report.points).unwrap();
/// }
/// checkpointer.flush(&stream).unwrap(); // final state, even mid-interval
/// ```
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: usize,
    since: usize,
}

impl Checkpointer {
    /// Checkpoint to `path` every `every` ingested rows (`every` is
    /// clamped to at least 1).
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
            since: 0,
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Record that `rows` more rows were ingested into `stream`; writes a
    /// checkpoint (atomically) once the rows since the last one reach the
    /// interval. Returns whether a checkpoint was written.
    pub fn observe(
        &mut self,
        stream: &StreamingAdaWave,
        rows: usize,
    ) -> Result<bool, ArtifactError> {
        self.since += rows;
        if self.since < self.every {
            return Ok(false);
        }
        self.flush(stream)?;
        Ok(true)
    }

    /// Write a checkpoint now regardless of the interval — the final write
    /// after the last batch, so the file always ends at the full stream.
    pub fn flush(&mut self, stream: &StreamingAdaWave) -> Result<(), ArtifactError> {
        save_accumulator_atomic(&self.path, stream)?;
        self.since = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::{PointMatrix, Precision};
    use adawave_core::AdaWaveConfigBuilder;

    fn two_blob_points() -> PointMatrix {
        let mut points = PointMatrix::new(2);
        for i in 0..150 {
            let t = (i as f64) / 150.0;
            points.push_row(&[
                0.2 + 0.05 * (t * 13.0).fract(),
                0.2 + 0.05 * (t * 7.0).fract(),
            ]);
            points.push_row(&[
                0.8 + 0.05 * (t * 11.0).fract(),
                0.8 + 0.05 * (t * 5.0).fract(),
            ]);
        }
        points
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("adawave_accum_{name}_{}.awa", std::process::id()))
    }

    #[test]
    fn snapshot_restore_round_trip_is_bit_exact() {
        let points = two_blob_points();
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(32).build());
        stream.ingest(points.view()).unwrap();
        let nan = PointMatrix::from_rows(vec![vec![f64::NAN, 0.5], vec![9.0, 9.0]]).unwrap();
        stream.ingest(nan.view()).unwrap();

        let restored = StreamingAdaWave::restore(&stream.snapshot()).unwrap();
        assert_eq!(restored.points_ingested(), stream.points_ingested());
        assert_eq!(restored.outlier_count(), 2);
        assert_eq!(restored.domain(), stream.domain());
        assert_eq!(restored.grid(), stream.grid());
        assert_eq!(restored.refit().unwrap(), stream.refit().unwrap());
        // Snapshot of the restored session is byte-identical: the format
        // is canonical.
        assert_eq!(restored.snapshot(), stream.snapshot());
    }

    #[test]
    fn non_default_configs_survive_the_round_trip_exactly() {
        // Exercise every config field away from its default, including a
        // threshold whose parameter would not survive a decimal round trip.
        let configs: Vec<AdaWaveConfigBuilder> = vec![
            AdaWaveConfig::builder()
                .per_dimension_scale(vec![16, 64])
                .wavelet(adawave_wavelet::Wavelet::Daubechies3)
                .levels(2)
                .boundary(BoundaryMode::Symmetric)
                .coefficient_epsilon(0.1 + 0.2) // 0.30000000000000004
                .threshold(ThresholdStrategy::ElbowAngle { divisor: 1.0 / 3.0 })
                .connectivity(Connectivity::Moore)
                .auto_reduce_scale(false)
                .max_transformed_cells(4096),
            AdaWaveConfig::builder()
                .scale(16)
                .threshold(ThresholdStrategy::Quantile(0.1))
                .precision(Precision::F32),
            AdaWaveConfig::builder()
                .scale(16)
                .boundary(BoundaryMode::Periodic)
                .threshold(ThresholdStrategy::Fixed(2.5)),
            AdaWaveConfig::builder().threshold(ThresholdStrategy::Kneedle),
        ];
        for builder in configs {
            let config = builder.build();
            let stream = StreamingAdaWave::new(config.clone());
            let restored = StreamingAdaWave::restore(&stream.snapshot()).unwrap();
            let mut expected = config;
            expected.runtime = restored.config().runtime;
            assert_eq!(restored.config(), &expected);
        }
    }

    #[test]
    fn restored_sessions_merge_like_the_originals() {
        let points = two_blob_points();
        let config = AdaWaveConfig::builder().scale(32).build();
        let domain = crate::finite_bounds(points.view()).unwrap();

        // One-shot reference.
        let mut reference = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        reference.ingest(points.view()).unwrap();

        // Two shards, each through a file.
        let half = points.len() / 2;
        let (pa, pb) = (temp_path("merge_a"), temp_path("merge_b"));
        for (path, range) in [(&pa, 0..half), (&pb, half..points.len())] {
            let mut shard = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
            let slice = points.view().select(&range.collect::<Vec<_>>());
            shard.ingest(slice.view()).unwrap();
            save_accumulator(path, &shard).unwrap();
        }
        let mut merged = load_accumulator(&pa).unwrap();
        merged.merge(load_accumulator(&pb).unwrap()).unwrap();
        assert_eq!(merged.grid(), reference.grid());
        assert_eq!(merged.refit().unwrap(), reference.refit().unwrap());

        // A restored session with a different domain is rejected exactly
        // like an in-process merge — and handed back untouched.
        let other_domain = adawave_grid::BoundingBox::from_bounds(vec![5.0, 5.0], vec![9.0, 9.0]);
        let mut other = StreamingAdaWave::with_domain(config, other_domain).unwrap();
        let far = PointMatrix::from_rows(vec![vec![6.0, 6.0]]).unwrap();
        other.ingest(far.view()).unwrap();
        save_accumulator(&pa, &other).unwrap();
        let rejected = merged.merge(load_accumulator(&pa).unwrap()).unwrap_err();
        assert!(matches!(
            rejected.error,
            crate::StreamError::DomainMismatch { .. }
        ));
        assert_eq!(rejected.other.points_ingested(), 1);
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_stream() {
        let points = two_blob_points();
        let config = AdaWaveConfig::builder().scale(32).build();
        let domain = crate::finite_bounds(points.view()).unwrap();
        let path = temp_path("resume");

        // Uninterrupted reference.
        let mut reference = StreamingAdaWave::with_domain(config.clone(), domain.clone()).unwrap();
        reference.ingest(points.view()).unwrap();

        // Ingest in batches of 40 with a checkpoint every 70 rows, and
        // "kill" the process partway through.
        let mut stream = StreamingAdaWave::with_domain(config, domain).unwrap();
        let mut checkpointer = Checkpointer::new(&path, 70);
        let mut wrote = 0usize;
        for start in (0..points.len()).step_by(40) {
            if start >= 160 {
                break; // killed
            }
            let end = (start + 40).min(points.len());
            let batch = points.view().select(&(start..end).collect::<Vec<_>>());
            let report = stream.ingest(batch.view()).unwrap();
            if checkpointer.observe(&stream, report.points).unwrap() {
                wrote += 1;
            }
        }
        assert!(wrote >= 2, "checkpoints written: {wrote}");

        // Resume: restore the last checkpoint and skip what it already saw.
        let mut resumed = load_accumulator(&path).unwrap();
        let skip = resumed.points_ingested();
        assert!(skip > 0 && skip < points.len());
        let rest = points
            .view()
            .select(&(skip..points.len()).collect::<Vec<_>>());
        resumed.ingest(rest.view()).unwrap();
        let mut checkpointer = Checkpointer::new(&path, 70);
        checkpointer.flush(&resumed).unwrap();

        let finished = load_accumulator(&path).unwrap();
        assert_eq!(finished.grid(), reference.grid());
        assert_eq!(finished.refit().unwrap(), reference.refit().unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfrozen_and_prefreeze_outlier_sessions_round_trip() {
        // A fresh session (no domain, no dims).
        let stream = StreamingAdaWave::new(AdaWaveConfig::default());
        let restored = StreamingAdaWave::restore(&stream.snapshot()).unwrap();
        assert_eq!(restored.points_ingested(), 0);
        assert_eq!(restored.domain(), None);

        // All-outlier first batch: dims known, domain still unfrozen.
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
        let nan_only = PointMatrix::from_rows(vec![vec![f64::NAN, 0.5]]).unwrap();
        stream.ingest(nan_only.view()).unwrap();
        let restored = StreamingAdaWave::restore(&stream.snapshot()).unwrap();
        assert_eq!(restored.points_ingested(), 1);
        assert_eq!(restored.outlier_count(), 1);
        assert_eq!(restored.domain(), None);
        // ...and the restored session keeps streaming normally.
        let mut restored = restored;
        let finite = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        restored.ingest(finite.view()).unwrap();
        assert!(restored.domain().is_some());
    }

    #[test]
    fn malformed_payloads_are_rejected_with_context() {
        let good = {
            let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(8).build());
            let pts = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
            stream.ingest(pts.view()).unwrap();
            stream.snapshot()
        };
        // Targeted corruptions of a known-good payload.
        for (mutate, needle) in [
            (
                Box::new(|s: &str| s.replace("config-wavelet cdf22", "config-wavelet wat"))
                    as Box<dyn Fn(&str) -> String>,
                "unknown wavelet",
            ),
            (
                Box::new(|s: &str| s.replace("config-boundary zero", "config-boundary wat")),
                "unknown boundary",
            ),
            (
                Box::new(|s: &str| {
                    s.replace("config-threshold three-segment", "config-threshold wat")
                }),
                "threshold",
            ),
            (
                Box::new(|s: &str| s.replace("config-connectivity face", "config-connectivity x")),
                "connectivity",
            ),
            (
                Box::new(|s: &str| s.replace("outliers 0", "outliers 7")),
                "outlier count",
            ),
            (
                Box::new(|s: &str| s.replace("frozen some", "frozen wat")),
                "frozen",
            ),
            (
                // Cut the payload right before the grid dump.
                Box::new(|s: &str| s[..s.rfind("cells ").unwrap()].to_string()),
                "truncated",
            ),
        ] {
            let err = StreamingAdaWave::restore(&mutate(&good)).unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        }
    }

    #[test]
    fn load_rejects_wrong_kind_and_wrong_algorithm() {
        let path = temp_path("wrongkind");
        // A model file must not load as an accumulator.
        std::fs::write(&path, "adawave-model v1\nalgorithm adawave\ndims 2\n").unwrap();
        let err = load_accumulator(&path).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        // An accumulator header naming a foreign algorithm is refused.
        std::fs::write(&path, "adawave-accumulator v1\nalgorithm kmeans\nx\n").unwrap();
        let err = load_accumulator(&path).unwrap_err();
        assert!(err.to_string().contains("kmeans"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
