//! Accumulator persistence: snapshot a [`StreamingAdaWave`] session to the
//! versioned `adawave-accumulator` artifact format and restore it in
//! another process.
//!
//! The snapshot captures the session's *entire* mergeable state — model
//! configuration (worker-pool runtime excluded; it never affects results),
//! the frozen quantized space, the accumulated sparse grid and, for every
//! ingested point, which cell it fell in — with every float as the hex of
//! its IEEE-754 bits, so a save → load round trip is bit-exact: a restored
//! session merges, refits and labels exactly like the original. That is
//! what turns the in-process shard merge of [`StreamingAdaWave::merge`]
//! into a distributed one: independent processes each ingest a slice of
//! the data, write their accumulators with [`save_accumulator`], and a
//! coordinator [`load_accumulator`]s and merges them — with mismatched
//! domains or configurations rejected exactly like an in-process merge.
//!
//! The files are written as `adawave-accumulator v2`: the grid dump comes
//! first, its keys at the codec's hex width, and each point line names its
//! cell by the cell's position in that dump, in as few fixed-width hex
//! digits as the cell count allows (5 bytes a point for noisy2d's ~16k
//! cells, where `v1` spent a 33-byte key line), so a restore reads every
//! line once. `v1` files, whose point lines carry 32-digit cell keys
//! ahead of the grid, still load through their own reader; nothing writes
//! them any more.
//!
//! [`Checkpointer`] adds crash tolerance on top: every `every` ingested
//! rows it rewrites the accumulator file atomically (write to a `.tmp`
//! sibling, then rename), so a killed ingestion can resume from the last
//! checkpoint — skip the first [`StreamingAdaWave::points_ingested`] rows
//! and continue — instead of starting over at row 0.

use std::path::{Path, PathBuf};

use adawave_api::{
    f64_from_hex, f64_to_hex, load_artifact, parse_hex, push_hex, save_artifact_atomic,
    ArtifactError, ArtifactKind, PayloadReader,
};
use adawave_core::{AdaWave, AdaWaveConfig, ThresholdStrategy};
use adawave_grid::{CellTable, Connectivity, KeyCodec, Quantizer, SparseGrid};
use adawave_wavelet::{BoundaryMode, Wavelet};

use crate::{Frozen, StreamingAdaWave, OUTLIER};

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
pub(crate) fn serialize_config(config: &AdaWaveConfig, out: &mut String) {
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
    /// accumulator payload (header excluded), all bit-exact: the
    /// configuration, the `dims`, `outliers` and `points` lines, the
    /// frozen quantized space, the accumulated grid dumped in ascending key
    /// order with keys at the codec's width, then one line per point in
    /// arrival order: its cell's position in that dump, in fixed-width hex
    /// (as many digits as the last position needs), or `-` for an outlier.
    /// The worker-pool runtime is deliberately *not* part of the snapshot —
    /// it never affects results, and [`restore`]d sessions pick it up from
    /// the environment like any fresh session.
    ///
    /// [`restore`]: Self::restore
    pub fn snapshot(&self) -> String {
        let cells = self.occupied_cells();
        let width = index_digits(cells);
        let index_line = width as usize + 1;
        // Sized once for the grid dump and the point lines together: a
        // `String` regrown mid-render would briefly hold two copies.
        let (key_digits, dump) = self.frozen.as_ref().map_or((0, 0), |f| {
            let digits = f.quantizer.codec().key_hex_digits();
            (digits, f.grid.serialized_len(digits))
        });
        let quantizer = 64 + 40 * self.dims.unwrap_or(0);
        let points = index_line * self.point_cells.len();
        let mut out = String::with_capacity(1024 + quantizer + dump + points);
        serialize_config(self.adawave.config(), &mut out);
        match self.dims {
            None => out.push_str("dims none\n"),
            Some(d) => out.push_str(&format!("dims {d}\n")),
        }
        out.push_str(&format!("outliers {}\n", self.outliers));
        out.push_str(&format!("points {}\n", self.point_cells.len()));
        let positions = match &self.frozen {
            None => {
                out.push_str("frozen none\n");
                Vec::new()
            }
            Some(frozen) => {
                out.push_str("frozen some\n");
                frozen.quantizer.serialize_into(&mut out);
                // The dump lists cells by ascending key, whatever order the
                // session interned them in, and says where each one went.
                frozen.grid.serialize_into(&mut out, key_digits)
            }
        };
        // Each cell's index line is rendered once, then copied for every
        // point in it.
        let mut index_lines = String::with_capacity(index_line * cells);
        for position in positions {
            push_hex(&mut index_lines, position as u128, width);
            index_lines.push('\n');
        }
        for &index in &self.point_cells {
            out.push_str(match index {
                OUTLIER => "-\n",
                index => {
                    let at = index as usize * index_line;
                    &index_lines[at..at + index_line]
                }
            });
        }
        out
    }

    /// Rebuild a session from a [`snapshot`](Self::snapshot) payload, in
    /// one pass over its lines; each point line of the dump's width is
    /// read by position ([`PayloadReader::hex_line`]), not split off by a
    /// search for its end.
    ///
    /// Everything is re-validated on the way in: the configuration fields,
    /// the quantizer (bounds ordering, interval counts, key width), the
    /// grid dump ([`SparseGrid::deserialize_from`] at the codec's key
    /// width), whose every cell key must be a key of the frozen codec and
    /// listed once, and the point lines, each `-` or exactly as many
    /// lowercase hex digits as the dump's last position needs, naming a
    /// position below the dump's cell count (so none in a session without
    /// a frozen space). The `-` lines must number the `outliers` line's
    /// count, and every grid cell's count must equal the number of point
    /// lines naming it, which is at least one, as in every session
    /// `ingest`, `merge` and `restore` build. The restored grid keeps the
    /// dump's (ascending key) order, the session's cell table maps each key
    /// to its index, and each point line's position is its cell's index.
    /// The restored session is bit-for-bit equivalent to the snapshot one —
    /// same grid, same per-point cells, same refit labels — and merging it
    /// behaves exactly like merging the original (mismatched
    /// domains/configurations are rejected the same way).
    pub fn restore(payload: &str) -> Result<Self, String> {
        let mut reader = PayloadReader::new(payload);
        let head = Head::read(&mut reader)?;
        let frozen = read_frozen(&mut reader, head.dims, KeyCodec::key_hex_digits)?;
        let cells = frozen.as_ref().map_or(0, |f| f.grid.occupied_cells());
        let width = index_digits(cells);
        let mut point_cells = Vec::with_capacity(head.points.min(1 << 24));
        // Point lines per grid cell, to check against the cells' counts.
        let mut named = vec![0usize; cells];
        let mut noise = 0usize;
        for _ in 0..head.points {
            // Most lines are an index of the dump's width: read by
            // position. Any other line goes through `line` and the checks
            // below, which word the error.
            let index = match frozen.as_ref().and_then(|_| reader.hex_line(width)) {
                Some(index) => index,
                None => {
                    let line = reader.line()?;
                    if line == "-" {
                        noise += 1;
                        point_cells.push(OUTLIER);
                        continue;
                    }
                    if frozen.is_none() {
                        return Err("in-domain point cells listed but no frozen space".to_string());
                    }
                    parse_hex(line, width).ok_or_else(|| {
                        format!("bad point index '{line}' (expected {width} hex digits)")
                    })?
                }
            };
            if index >= cells as u128 {
                return Err(format!(
                    "point index {index:0w$x} is past the grid's {cells} cells",
                    w = width as usize
                ));
            }
            named[index as usize] += 1;
            // Below the grid's cell count, which was checked to fit.
            point_cells.push(index as u32);
        }
        check_outliers(head.outliers, noise)?;
        check_counts(frozen.as_ref(), &named)?;
        Ok(head.session(frozen, point_cells))
    }
}

/// Hex digits of a point line in a grid of `cells` cells: as many as the
/// last dump position, `cells - 1`, needs, and at least one.
fn index_digits(cells: usize) -> u32 {
    (usize::BITS - cells.saturating_sub(1).leading_zeros())
        .div_ceil(4)
        .max(1)
}

/// The lines both accumulator layouts open with: the configuration, then
/// `dims`, `outliers` and `points`.
struct Head {
    config: AdaWaveConfig,
    dims: Option<usize>,
    outliers: usize,
    points: usize,
}

impl Head {
    fn read(reader: &mut PayloadReader<'_>) -> Result<Self, String> {
        let config = parse_config(reader)?;
        let dims = match reader.field("dims")? {
            "none" => None,
            raw => Some(raw.parse().map_err(|_| format!("bad dims '{raw}'"))?),
        };
        Ok(Self {
            config,
            dims,
            outliers: reader.scalar("outliers")?,
            points: reader.scalar("points")?,
        })
    }

    /// The session these lines describe, holding `frozen` and one cell
    /// index (or [`OUTLIER`]) per point.
    fn session(self, frozen: Option<Frozen>, point_cells: Vec<u32>) -> StreamingAdaWave {
        StreamingAdaWave {
            adawave: AdaWave::new(self.config),
            frozen,
            point_cells,
            outliers: self.outliers,
            dims: self.dims,
        }
    }
}

/// Read the `frozen` marker and, for a frozen session, the quantizer and
/// the grid dump, whose keys are `key_digits(codec)` hex digits wide. The
/// table is indexed by the key (a flat array for narrow codecs), so no key
/// may lie outside the codec, and none may be listed twice.
fn read_frozen(
    reader: &mut PayloadReader<'_>,
    dims: Option<usize>,
    key_digits: fn(&KeyCodec) -> u32,
) -> Result<Option<Frozen>, String> {
    let quantizer = match reader.field("frozen")? {
        "none" => return Ok(None),
        "some" => Quantizer::deserialize_from(reader)?,
        other => return Err(format!("bad frozen marker '{other}'")),
    };
    if let Some(d) = dims {
        if quantizer.dims() != d {
            return Err(format!(
                "frozen space has {} dimensions but the session says {d}",
                quantizer.dims()
            ));
        }
    }
    let grid = SparseGrid::deserialize_from(reader, key_digits(quantizer.codec()))?;
    if grid.occupied_cells() >= OUTLIER as usize {
        return Err(format!(
            "the grid lists {} cells, more than a session can index",
            grid.occupied_cells()
        ));
    }
    let mut table = CellTable::with_capacity(quantizer.codec(), grid.occupied_cells());
    for (index, (key, _)) in grid.iter().enumerate() {
        if !quantizer.codec().contains(key) {
            return Err("the grid holds a cell key outside the frozen space".to_string());
        }
        if table.insert(key, index).is_some() {
            return Err(format!("the grid lists cell key {key:032x} twice"));
        }
    }
    Ok(Some(Frozen {
        quantizer,
        table,
        grid,
    }))
}

/// The `outliers` line must count the `-` point lines.
fn check_outliers(outliers: usize, noise: usize) -> Result<(), String> {
    if noise != outliers {
        return Err(format!(
            "outlier count {outliers} does not match the {noise} noise cells listed"
        ));
    }
    Ok(())
}

/// Every grid cell's count must equal the `named` point lines naming it,
/// and at least one must.
fn check_counts(frozen: Option<&Frozen>, named: &[usize]) -> Result<(), String> {
    let Some(frozen) = frozen else {
        return Ok(());
    };
    for ((key, count), &lines) in frozen.grid.iter().zip(named) {
        if lines == 0 {
            return Err(format!("grid cell {key:032x} is named by no point line"));
        }
        if count != lines as f64 {
            return Err(format!(
                "grid cell {key:032x} counts {count} points but {lines} point lines name it"
            ));
        }
    }
    Ok(())
}

/// Rebuild a session from a `v1` payload, the layout before point lines
/// became dump positions: the head lines, one 32-digit cell key (or `-`)
/// per point, then the `frozen` section with 32-digit dump keys. The
/// point lines come before the grid they index, so they are read twice:
/// once to count the noise lines and reach the grid, once to map each
/// key to its cell. Every check of [`StreamingAdaWave::restore`] applies,
/// and a point key must be one of the grid's cells.
fn restore_v1(payload: &str) -> Result<StreamingAdaWave, String> {
    let mut reader = PayloadReader::new(payload);
    let head = Head::read(&mut reader)?;
    let mut point_lines = reader.clone();
    let mut noise = 0usize;
    for _ in 0..head.points {
        noise += usize::from(reader.line()? == "-");
    }
    check_outliers(head.outliers, noise)?;
    let frozen = read_frozen(&mut reader, head.dims, |_| 32)?;
    let mut point_cells = Vec::with_capacity(head.points.min(1 << 24));
    let mut named = vec![0usize; frozen.as_ref().map_or(0, |f| f.grid.occupied_cells())];
    for _ in 0..head.points {
        let line = point_lines.line()?;
        if line == "-" {
            point_cells.push(OUTLIER);
            continue;
        }
        let key =
            u128::from_str_radix(line, 16).map_err(|_| format!("bad point cell key '{line}'"))?;
        let frozen = frozen
            .as_ref()
            .ok_or("in-domain point cells listed but no frozen space")?;
        let index = frozen
            .table
            .get(key)
            .ok_or_else(|| format!("point cell key {line} is not one of the grid's cells"))?;
        named[index] += 1;
        // Below the grid's cell count, which was checked to fit.
        point_cells.push(index as u32);
    }
    check_counts(frozen.as_ref(), &named)?;
    Ok(head.session(frozen, point_cells))
}

/// Write a session's accumulator to `path` atomically (`.tmp` sibling,
/// then rename), in the current layout (`adawave-accumulator v2`): a
/// process killed mid-write leaves the previous file intact, never a torn
/// one for a checkpoint resume or a merge to read.
pub fn save_accumulator(path: &Path, stream: &StreamingAdaWave) -> Result<(), ArtifactError> {
    save_artifact_atomic(path, KIND, ALGORITHM, &stream.snapshot())
}

/// Load an accumulator file written by [`save_accumulator`] back into a
/// session. The header's version picks the reader: `v2` files go through
/// [`StreamingAdaWave::restore`], `v1` files (written before point lines
/// became dump positions) through the reader of that layout, and any other
/// version is rejected, naming the two.
pub fn load_accumulator(path: &Path) -> Result<StreamingAdaWave, ArtifactError> {
    let format = |context: String| ArtifactError::Format {
        kind: KIND,
        context,
    };
    let artifact = load_artifact(path, KIND)?;
    if artifact.algorithm != ALGORITHM {
        return Err(format(format!(
            "accumulators are written by '{ALGORITHM}', found algorithm '{}'",
            artifact.algorithm
        )));
    }
    // The header check let through only the versions accumulators read.
    let restore = if artifact.version == "v1" {
        restore_v1
    } else {
        StreamingAdaWave::restore
    };
    restore(&artifact.payload).map_err(format)
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
        save_accumulator(&self.path, stream)?;
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
    fn saving_over_an_accumulator_replaces_the_file_atomically() {
        let points = two_blob_points();
        let config = AdaWaveConfig::builder().scale(32).build();
        let mut first = StreamingAdaWave::new(config.clone());
        first.ingest(points.view()).unwrap();
        let second = StreamingAdaWave::new(config);
        let (path, old) = (temp_path("atomic"), temp_path("atomic_old"));
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");

        // A second link keeps the first file reachable: a save that wrote
        // in place would change what it reads, a rename leaves it whole.
        save_accumulator(&path, &first).unwrap();
        std::fs::remove_file(&old).ok();
        std::fs::hard_link(&path, &old).unwrap();
        save_accumulator(&path, &second).unwrap();
        assert_eq!(
            load_accumulator(&path).unwrap().snapshot(),
            second.snapshot()
        );
        assert_eq!(load_accumulator(&old).unwrap().snapshot(), first.snapshot());
        assert!(!Path::new(&tmp).exists(), "a .tmp sibling was left behind");
        for p in [path, old] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn a_cut_accumulator_file_reports_a_truncated_payload_not_a_model() {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(32).build());
        stream.ingest(two_blob_points().view()).unwrap();
        let path = temp_path("cut");
        save_accumulator(&path, &stream).unwrap();
        // Drop the last point line.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = load_accumulator(&path).unwrap_err().to_string();
        assert!(err.contains("truncated payload"), "{err}");
        assert!(!err.contains("model"), "{err}");
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

    /// The `v1` payload of a scale-8 session that adopted the unit square
    /// from its one batch, (0, 0) and (1, 1): two cells of the 6-bit
    /// 8 x 8 codec, keys 0 and 3f, one point each.
    const V1_TWO_POINTS: &str = "config-scale 8
config-per-dimension-scale none
config-wavelet cdf22
config-levels 1
config-boundary zero
config-epsilon 3e112e0be826d695
config-threshold three-segment
config-connectivity face
config-auto-reduce-scale true
config-max-transformed-cells 1000000
config-precision f64
dims 2
outliers 0
points 2
00000000000000000000000000000000
0000000000000000000000000000003f
frozen some
dims 2
min 0000000000000000 0000000000000000
max 3ff0000000000000 3ff0000000000000
intervals 8 8
cells 2
00000000000000000000000000000000 3ff0000000000000
0000000000000000000000000000003f 3ff0000000000000
";

    /// The session behind [`V1_TWO_POINTS`].
    fn two_point_session() -> StreamingAdaWave {
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(8).build());
        let pts = PointMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        stream.ingest(pts.view()).unwrap();
        stream
    }

    /// `payload` with its `cells` dump section (the `cells N` line and the
    /// N cell lines) handed to `edit` as lines, the `cells` line first.
    fn edit_dump(payload: &str, edit: impl Fn(&mut Vec<String>)) -> String {
        let at = payload.rfind("cells ").unwrap();
        let (head, dump) = payload.split_at(at);
        let mut lines: Vec<String> = dump.lines().map(String::from).collect();
        let count: usize = lines[0]["cells ".len()..].parse().unwrap();
        let tail = lines.split_off(count + 1);
        edit(&mut lines);
        let mut out = head.to_string();
        for line in lines.iter().chain(&tail) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// `payload` with its `n`-th line from the end replaced by `line`.
    fn replace_line_from_end(payload: &str, n: usize, line: &str) -> String {
        let mut lines: Vec<&str> = payload.lines().collect();
        let at = lines.len() - n;
        lines[at] = line;
        lines.join("\n") + "\n"
    }

    #[test]
    fn the_v1_reader_loads_the_v1_layout() {
        let session = two_point_session();
        let restored = restore_v1(V1_TWO_POINTS).unwrap();
        assert_eq!(restored.snapshot(), session.snapshot());
        assert_eq!(restored.refit().unwrap(), session.refit().unwrap());
        // The v2 layout is no v1 payload, nor the other way round.
        assert!(restore_v1(&session.snapshot()).is_err());
        assert!(StreamingAdaWave::restore(V1_TWO_POINTS).is_err());
    }

    #[test]
    fn snapshots_name_cells_by_dump_position_at_the_codec_width() {
        // Two points, so the key line of (1, 1) is 3f at the codec's two
        // hex digits and a point line is one digit.
        let payload = two_point_session().snapshot();
        let tail = format!(
            "outliers 0\npoints 2\nfrozen some\ndims 2\n\
             min 0000000000000000 0000000000000000\nmax 3ff0000000000000 3ff0000000000000\n\
             intervals 8 8\ncells 2\n00 {one}\n3f {one}\n0\n1\n",
            one = f64_to_hex(1.0)
        );
        assert!(payload.ends_with(&tail), "{payload}");

        // 17 cells need two digits a point line; an arrival order that is
        // not the key order still names each cell by its dump position.
        let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(32).build());
        let mut rows = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        rows.extend((0..15).rev().map(|i| vec![0.05 * f64::from(i) + 0.01, 0.5]));
        rows.push(vec![f64::NAN, 0.0]);
        let points = PointMatrix::from_rows(rows).unwrap();
        stream.ingest(points.view()).unwrap();
        assert_eq!(stream.occupied_cells(), 17);
        let payload = stream.snapshot();
        let dump: Vec<&str> = payload[payload.rfind("cells 17").unwrap()..]
            .lines()
            .skip(1)
            .take(17)
            .map(|line| line.split_once(' ').unwrap().0)
            .collect();
        assert!(dump.iter().all(|key| key.len() == 3), "{dump:?}");
        let point_lines: Vec<&str> = payload.lines().rev().take(18).collect();
        assert_eq!(point_lines[0], "-");
        for (line, row) in point_lines[1..].iter().zip(points.rows().rev().skip(1)) {
            assert_eq!(line.len(), 2, "{line}");
            let position = usize::from_str_radix(line, 16).unwrap();
            let key = u128::from_str_radix(dump[position], 16).unwrap();
            let frozen = stream.frozen.as_ref().unwrap();
            assert_eq!(key, frozen.quantizer.cell_key(row), "{row:?}");
        }
        let restored = StreamingAdaWave::restore(&payload).unwrap();
        assert_eq!(restored.snapshot(), payload);
    }

    #[test]
    fn malformed_payloads_are_rejected_with_context() {
        // Targeted corruptions of a known-good v1 payload, read by the v1
        // reader.
        let good = V1_TWO_POINTS;
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
            (
                // A grid key with a bit above the 6-bit 8 x 8 codec.
                Box::new(|s: &str| {
                    let dump = s.rfind("cells ").unwrap();
                    let zero = format!("\n{:032x} ", 0);
                    let wide = format!("\n{:032x} ", 1 << 6);
                    format!("{}{}", &s[..dump], s[dump..].replacen(&zero, &wide, 1))
                }),
                "outside the frozen space",
            ),
            (
                // A point key that is a key of the codec but no cell of
                // the grid: (1, 0) of the 8 x 8 codec, an empty cell.
                Box::new(|s: &str| {
                    s.replacen(&format!("{:032x}\n", 0), &format!("{:032x}\n", 1), 1)
                }),
                "not one of the grid's cells",
            ),
            (
                // The grid dump lists its first cell twice.
                Box::new(|s: &str| {
                    let dump = s.rfind("cells ").unwrap();
                    let mut lines: Vec<&str> = s[dump..].lines().collect();
                    let count = lines.len() - 1;
                    let first = lines[1];
                    lines.insert(1, first);
                    let header = format!("cells {}", count + 1);
                    lines[0] = &header;
                    format!("{}{}\n", &s[..dump], lines.join("\n"))
                }),
                "twice",
            ),
            (
                // A grid cell's count raised from 1 to 100 while one point
                // line still names it.
                Box::new(|s: &str| {
                    let dump = s.rfind("cells ").unwrap();
                    let one = format!(" {}\n", f64_to_hex(1.0));
                    let hundred = format!(" {}\n", f64_to_hex(100.0));
                    format!("{}{}", &s[..dump], s[dump..].replacen(&one, &hundred, 1))
                }),
                "counts 100 points but 1 point lines name it",
            ),
            (
                // The first point line names the second point's cell, so
                // the first cell is named by none and the counts still sum
                // to the points.
                Box::new(|s: &str| {
                    let at = s.find("points 2\n").unwrap() + "points 2\n".len();
                    let (_, rest) = s[at..].split_once('\n').unwrap();
                    let second = rest.lines().next().unwrap();
                    format!("{}{second}\n{rest}", &s[..at])
                }),
                "is named by no point line",
            ),
        ] {
            let err = restore_v1(&mutate(good)).unwrap_err();
            assert!(err.contains(needle), "v1: {needle:?} not in {err:?}");
        }

        // The same session's v2 payload: cell lines `00` and `3f`, then
        // the point lines `0` and `1`.
        let good = two_point_session().snapshot();
        assert!(good.ends_with("\n0\n1\n"), "{good}");
        let unfrozen = {
            let mut stream = StreamingAdaWave::new(AdaWaveConfig::default());
            let nan = PointMatrix::from_rows(vec![vec![f64::NAN, 0.5]]).unwrap();
            stream.ingest(nan.view()).unwrap();
            stream.snapshot()
        };
        assert!(unfrozen.ends_with("frozen none\n-\n"), "{unfrozen}");
        for (payload, needle) in [
            // A point index at the cell count, and one far past it.
            (
                replace_line_from_end(&good, 1, "2"),
                "point index 2 is past the grid's 2 cells",
            ),
            (
                replace_line_from_end(&good, 1, "f"),
                "is past the grid's 2 cells",
            ),
            // Not a lowercase hex index of the dump's width.
            (replace_line_from_end(&good, 1, "g"), "bad point index 'g'"),
            (
                replace_line_from_end(&good, 1, "01"),
                "bad point index '01'",
            ),
            (replace_line_from_end(&good, 1, "+1"), "bad point index"),
            (replace_line_from_end(&good, 1, ""), "bad point index"),
            // An index line where a session without a frozen space can
            // only list outliers.
            (replace_line_from_end(&unfrozen, 1, "0"), "no frozen space"),
            // The point section cut short.
            (good[..good.len() - 2].to_string(), "truncated"),
            // A cell count that differs from the lines naming the cell.
            (
                edit_dump(&good, |lines| {
                    lines[1] = format!("00 {}", f64_to_hex(100.0));
                }),
                "counts 100 points but 1 point lines name it",
            ),
            // The first cell named by no line: both lines name the second.
            (
                replace_line_from_end(&good, 2, "1"),
                "is named by no point line",
            ),
            (good.replace("outliers 0", "outliers 7"), "outlier count"),
            (
                edit_dump(&good, |lines| {
                    lines[0] = "cells 3".to_string();
                    lines.insert(1, lines[1].clone());
                }),
                "twice",
            ),
            // A dump key with a bit above the 6-bit codec, at its width.
            (
                edit_dump(&good, |lines| {
                    lines[1] = lines[1].replacen("00 ", "40 ", 1);
                }),
                "outside the frozen space",
            ),
            // A dump key at v1's 32 digits instead of the codec's two.
            (
                edit_dump(&good, |lines| {
                    lines[1] = format!("{:032x} {}", 0, f64_to_hex(1.0));
                }),
                "expected 2 hex digits",
            ),
        ] {
            let err = StreamingAdaWave::restore(&payload).unwrap_err();
            assert!(err.contains(needle), "v2: {needle:?} not in {err:?}");
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
        // A version this build does not read is refused, naming the ones
        // it does.
        std::fs::write(&path, "adawave-accumulator v3\nalgorithm adawave\nx\n").unwrap();
        let err = load_accumulator(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("format version 'v3' (this build reads v1, v2)"),
            "{err}"
        );
        // Both layouts load, each through its own reader.
        let header = |version: &str| format!("adawave-accumulator {version}\nalgorithm adawave\n");
        let session = two_point_session();
        for text in [
            header("v1") + V1_TWO_POINTS,
            header("v2") + &session.snapshot(),
        ] {
            std::fs::write(&path, text).unwrap();
            assert_eq!(
                load_accumulator(&path).unwrap().snapshot(),
                session.snapshot()
            );
        }
        // A header that does not match its payload's layout is refused.
        std::fs::write(&path, header("v2") + V1_TWO_POINTS).unwrap();
        assert!(load_accumulator(&path).is_err());
        std::fs::write(&path, header("v1") + &session.snapshot()).unwrap();
        assert!(load_accumulator(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
