//! Minimal CSV reading/writing for labeled point sets.
//!
//! Format: one point per line, `d` comma-separated feature values followed
//! by an integer label in the last column. This is the layout the paper's
//! (never released) datasets would most plausibly use, and it lets users
//! run the examples on their own data.
//!
//! Every reader scans rows with [`adawave_api::scan_row`] through one
//! reused row buffer, so no row costs an allocation. [`parse_csv`] and
//! [`load_csv`] parse fixed 1 MiB newline-aligned chunks in parallel under
//! the runtime's fixed-chunk contract: each chunk fills its own region of
//! one output buffer, the regions are compacted in chunk order, and the
//! first error in file order is the one reported, with its absolute line
//! number.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use adawave_api::{scan_row, PointMatrix};
use adawave_runtime::Runtime;

use crate::dataset::Dataset;

/// Bytes per parse chunk of [`parse_csv`] (each chunk then extends to the
/// end of its last line).
const CHUNK_BYTES: usize = 1 << 20;

/// Read-buffer size of [`CsvBatches`].
const READ_BUFFER_BYTES: usize = 1 << 16;

/// Errors produced by CSV I/O.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (wrong arity or unparsable number).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The error a reader reports for bytes that are not UTF-8 (the wording of
/// std's line readers).
fn invalid_utf8() -> CsvError {
    CsvError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// The data content of a raw line: `None` for blank and `#` comment lines.
fn data_line(raw: &str) -> Option<&str> {
    let line = raw.trim();
    (!line.is_empty() && !line.starts_with('#')).then_some(line)
}

/// Parse one data line (`features..., label`) into `row` (which is
/// cleared first) and return the label. `expected_dims` enforces arity
/// consistency across lines once the first row has fixed it; a wrong
/// arity is reported before a bad value on the same line.
fn parse_row(
    line_no: usize,
    line: &str,
    expected_dims: Option<usize>,
    row: &mut Vec<f64>,
) -> Result<usize, CsvError> {
    let error = |message: String| CsvError::Parse {
        line: line_no,
        message,
    };
    let Some((features, label)) = line.rsplit_once(',') else {
        return Err(error("need at least one feature and a label".to_string()));
    };
    row.clear();
    let scanned = scan_row(features, row);
    if let Some(expected) = expected_dims {
        let d = match scanned {
            Ok(found) => found,
            Err(_) => features.split(',').count(),
        };
        if d != expected {
            return Err(error(format!("expected {expected} features, found {d}")));
        }
    }
    if let Err(bad) = scanned {
        return Err(error(format!(
            "bad feature value '{}': {}",
            bad.text, bad.error
        )));
    }
    let label = label.trim();
    label
        .parse::<usize>()
        .map_err(|e| error(format!("bad label '{label}': {e}")))
}

/// Cut `text` into chunks of at least `chunk_bytes` bytes that each end
/// right after a newline (the last one at the end of the text). The cuts
/// depend only on the text and `chunk_bytes`, never on the thread count.
fn split_chunks(text: &str, chunk_bytes: usize) -> Vec<&str> {
    let mut chunks = Vec::with_capacity(text.len() / chunk_bytes + 1);
    let mut rest = text;
    while !rest.is_empty() {
        let cut = rest.as_bytes()[chunk_bytes.min(rest.len())..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| chunk_bytes + i + 1);
        let (chunk, tail) = rest.split_at(cut);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// One parse chunk and the slots of the output it may fill: one row and
/// one label per line, since no line holds more than one row.
struct Task<'a> {
    text: &'a str,
    points: &'a mut [f64],
    labels: &'a mut [usize],
}

/// Parse a task's rows (each with `dims` features) into its slots and
/// return how many it filled. Error line numbers are relative to the
/// chunk's first line.
fn parse_task(task: &mut Task<'_>, dims: usize) -> Result<usize, CsvError> {
    let mut row = Vec::with_capacity(dims);
    let mut rows = 0;
    for (i, raw) in task.text.lines().enumerate() {
        if let Some(line) = data_line(raw) {
            task.labels[rows] = parse_row(i + 1, line, Some(dims), &mut row)?;
            task.points[rows * dims..(rows + 1) * dims].copy_from_slice(&row);
            rows += 1;
        }
    }
    Ok(rows)
}

/// Parse `text` in `chunk_bytes` chunks on `runtime`: every chunk fills
/// its own region of one output buffer, and the regions are then
/// compacted in place in chunk order. The first error in file order is
/// returned, with its absolute line number.
///
/// One shared buffer, not one per chunk: freeing ~400 KB chunk buffers
/// after concatenating them raises glibc's dynamic mmap threshold, and
/// the 128 KB quantization shards that follow then stay resident in
/// thread arenas (+14 MB peak RSS in `cluster` on 1M 2-d points).
fn parse_chunks(
    text: &str,
    runtime: Runtime,
    chunk_bytes: usize,
) -> Result<(PointMatrix, Vec<usize>), CsvError> {
    // The first data line fixes the arity of every row in every chunk.
    let Some(first) = text.lines().find_map(data_line) else {
        return Ok((PointMatrix::default(), Vec::new()));
    };
    let dims = first.bytes().filter(|&b| b == b',').count();
    let chunks = split_chunks(text, chunk_bytes);
    let newlines: Vec<usize> = runtime.par_chunks(&chunks, 1, |_, chunk| {
        chunk[0].bytes().filter(|&b| b == b'\n').count()
    });
    let slots: usize = newlines.iter().map(|n| n + 1).sum();
    let mut points = vec![0.0; slots * dims];
    let mut labels = vec![0; slots];
    let mut tasks = Vec::with_capacity(chunks.len());
    let (mut points_rest, mut labels_rest) = (&mut points[..], &mut labels[..]);
    for (&text, &n) in chunks.iter().zip(&newlines) {
        let (points, tail) = std::mem::take(&mut points_rest).split_at_mut((n + 1) * dims);
        points_rest = tail;
        let (labels, tail) = std::mem::take(&mut labels_rest).split_at_mut(n + 1);
        labels_rest = tail;
        tasks.push(Task {
            text,
            points,
            labels,
        });
    }
    let parsed = runtime.par_chunks_mut(&mut tasks, 1, |_, task| parse_task(&mut task[0], dims));
    drop(tasks);
    let (mut rows, mut slot, mut lines_before) = (0, 0, 0);
    for (result, &n) in parsed.into_iter().zip(&newlines) {
        let filled = result.map_err(|e| match e {
            CsvError::Parse { line, message } => CsvError::Parse {
                line: lines_before + line,
                message,
            },
            e => e,
        })?;
        points.copy_within(slot * dims..(slot + filled) * dims, rows * dims);
        labels.copy_within(slot..slot + filled, rows);
        rows += filled;
        slot += n + 1;
        lines_before += n;
    }
    points.truncate(rows * dims);
    labels.truncate(rows);
    let points = PointMatrix::from_flat(points, dims).expect("rows * dims coordinates");
    Ok((points, labels))
}

/// Parse a dataset from CSV text (features..., label). Empty lines and
/// lines starting with `#` are skipped.
pub fn parse_csv(name: &str, text: &str) -> Result<Dataset, CsvError> {
    let (points, labels) = parse_chunks(text, Runtime::from_env(), CHUNK_BYTES)?;
    Ok(Dataset::new(name, points, labels, None))
}

/// An iterator over a CSV file read in bounded batches of at most
/// `batch_rows` points — the constant-memory ingestion path of the
/// `adawave stream` subcommand. Each item is a [`Dataset`] holding one
/// batch; feature arity must stay consistent across the whole file, and
/// the first error (I/O or parse) ends the iteration. Lines are read into
/// one reused buffer and scanned through one reused row.
#[derive(Debug)]
pub struct CsvBatches {
    reader: std::io::BufReader<std::fs::File>,
    line: Vec<u8>,
    row: Vec<f64>,
    name: String,
    batch_rows: usize,
    line_no: usize,
    dims: Option<usize>,
    failed: bool,
}

impl CsvBatches {
    /// Open a CSV file for batched reading.
    ///
    /// # Panics
    /// Panics if `batch_rows` is zero.
    pub fn open(path: &Path, batch_rows: usize) -> Result<Self, CsvError> {
        assert!(batch_rows > 0, "CsvBatches: batch_rows must be positive");
        let file = std::fs::File::open(path)?;
        Ok(Self {
            reader: std::io::BufReader::with_capacity(READ_BUFFER_BYTES, file),
            line: Vec::new(),
            row: Vec::new(),
            name: dataset_name(path),
            batch_rows,
            line_no: 0,
            dims: None,
            failed: false,
        })
    }

    /// Parse the next `batch_rows` rows into `points` (created on the
    /// first row when the arity is not known yet) and return their labels.
    fn fill(&mut self, points: &mut Option<PointMatrix>) -> Result<Vec<usize>, CsvError> {
        let mut labels = Vec::new();
        while labels.len() < self.batch_rows {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                break;
            }
            self.line_no += 1;
            let text = std::str::from_utf8(&self.line).map_err(|_| invalid_utf8())?;
            if let Some(line) = data_line(text) {
                labels.push(parse_row(self.line_no, line, self.dims, &mut self.row)?);
                let matrix = points.get_or_insert_with(|| PointMatrix::new(self.row.len()));
                matrix.push_row(&self.row);
                self.dims = Some(matrix.dims());
            }
        }
        Ok(labels)
    }
}

impl Iterator for CsvBatches {
    type Item = Result<Dataset, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut points = self.dims.map(PointMatrix::new);
        match self.fill(&mut points) {
            Ok(labels) if labels.is_empty() => None,
            Ok(labels) => {
                points.map(|points| Ok(Dataset::new(self.name.clone(), points, labels, None)))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// The dataset name of a CSV file: its file stem.
fn dataset_name(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "csv".to_string())
}

/// Load a dataset from a CSV file: one read, one UTF-8 check, then the
/// chunk-parallel parse of [`parse_csv`].
pub fn load_csv(path: &Path) -> Result<Dataset, CsvError> {
    let text = String::from_utf8(std::fs::read(path)?).map_err(|_| invalid_utf8())?;
    let (points, labels) = parse_chunks(&text, Runtime::from_env(), CHUNK_BYTES)?;
    Ok(Dataset::new(dataset_name(path), points, labels, None))
}

/// Write a dataset to a CSV file (features..., label).
pub fn save_csv(dataset: &Dataset, path: &Path) -> Result<(), CsvError> {
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    for (point, label) in dataset.points.rows().zip(dataset.labels.iter()) {
        let mut line = String::new();
        for v in point {
            line.push_str(&format!("{v},"));
        }
        line.push_str(&label.to_string());
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn parse_basic_csv() {
        let text = "1.0,2.0,0\n3.0,4.0,1\n# comment\n\n5.5,-1.25,0\n";
        let ds = parse_csv("test", text).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.labels, vec![0, 1, 0]);
        assert_eq!(&ds.points[2], &[5.5, -1.25][..]);
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        let text = "1.0,2.0,0\n3.0,1\n";
        assert!(parse_csv("bad", text).is_err());
    }

    #[test]
    fn parse_rejects_bad_numbers() {
        assert!(parse_csv("bad", "1.0,x,0\n").is_err());
        assert!(parse_csv("bad", "1.0,2.0,notalabel\n").is_err());
        assert!(parse_csv("bad", "1.0\n").is_err());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let ds = Dataset::from_rows(
            "roundtrip",
            vec![vec![0.5, 1.5], vec![-2.0, 3.25]],
            vec![1, 0],
            None,
        );
        let dir = std::env::temp_dir();
        let path = dir.join("adawave_csv_roundtrip_test.csv");
        save_csv(&ds, &path).unwrap();
        let loaded = load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.points, ds.points);
        assert_eq!(loaded.labels, ds.labels);
    }

    #[test]
    fn empty_text_is_empty_dataset() {
        let ds = parse_csv("empty", "").unwrap();
        assert!(ds.is_empty());
    }

    fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn batches_cover_the_file_in_order_and_match_the_one_shot_parse() {
        let mut text = String::from("# header comment\n");
        for i in 0..25 {
            text.push_str(&format!("{}.5,{},{}\n", i, i * 2, i % 3));
        }
        text.push('\n');
        let path = write_temp("adawave_csv_batches_test.csv", &text);
        let whole = load_csv(&path).unwrap();

        let mut rebuilt: Option<Dataset> = None;
        let mut batch_sizes = Vec::new();
        for batch in CsvBatches::open(&path, 7).unwrap() {
            let batch = batch.unwrap();
            batch_sizes.push(batch.len());
            match &mut rebuilt {
                None => rebuilt = Some(batch),
                Some(ds) => {
                    ds.points.append(&batch.points);
                    ds.labels.extend_from_slice(&batch.labels);
                }
            }
        }
        std::fs::remove_file(&path).ok();
        assert_eq!(batch_sizes, vec![7, 7, 7, 4]);
        let rebuilt = rebuilt.unwrap();
        assert_eq!(rebuilt.points, whole.points);
        assert_eq!(rebuilt.labels, whole.labels);
    }

    #[test]
    fn batches_surface_parse_errors_and_stop() {
        let path = write_temp(
            "adawave_csv_batches_error_test.csv",
            "1.0,2.0,0\n1.0,1\nnever,reached,0\n",
        );
        let mut batches = CsvBatches::open(&path, 10).unwrap();
        // The arity error on line 2 surfaces on the first (partial) pull...
        let err = batches.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // ...and iteration ends instead of resynchronizing mid-file.
        assert!(batches.next().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batches_enforce_arity_across_batch_boundaries() {
        // 2 features in the first batch, 3 in the second: rejected even
        // though each batch alone would be self-consistent.
        let path = write_temp(
            "adawave_csv_batches_arity_test.csv",
            "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,7.0,1\n",
        );
        let mut batches = CsvBatches::open(&path, 2).unwrap();
        assert!(batches.next().unwrap().is_ok());
        assert!(batches.next().unwrap().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batches_of_an_empty_file_yield_nothing() {
        let path = write_temp("adawave_csv_batches_empty_test.csv", "# only a comment\n");
        assert!(CsvBatches::open(&path, 4).unwrap().next().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// The line-by-line parser the chunk-parallel readers replaced, kept
    /// as the reference of the differential tests below.
    mod reference {
        use std::io::BufRead;
        use std::path::Path;

        use adawave_api::PointMatrix;

        use crate::csv::CsvError;
        use crate::dataset::Dataset;

        fn parse_row(
            line_no: usize,
            line: &str,
            expected_dims: Option<usize>,
            row: &mut Vec<f64>,
        ) -> Result<usize, CsvError> {
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() < 2 {
                return Err(CsvError::Parse {
                    line: line_no,
                    message: "need at least one feature and a label".to_string(),
                });
            }
            let d = fields.len() - 1;
            if let Some(expected) = expected_dims {
                if d != expected {
                    return Err(CsvError::Parse {
                        line: line_no,
                        message: format!("expected {expected} features, found {d}"),
                    });
                }
            }
            row.clear();
            for f in &fields[..d] {
                row.push(f.parse::<f64>().map_err(|e| CsvError::Parse {
                    line: line_no,
                    message: format!("bad feature value '{f}': {e}"),
                })?);
            }
            fields[d].parse::<usize>().map_err(|e| CsvError::Parse {
                line: line_no,
                message: format!("bad label '{}': {e}", fields[d]),
            })
        }

        pub fn parse_csv(name: &str, text: &str) -> Result<Dataset, CsvError> {
            let mut points: Option<PointMatrix> = None;
            let mut labels = Vec::new();
            let mut row = Vec::new();
            for (line_no, raw) in text.lines().enumerate() {
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let label = parse_row(
                    line_no + 1,
                    line,
                    points.as_ref().map(PointMatrix::dims),
                    &mut row,
                )?;
                let matrix = points.get_or_insert_with(|| PointMatrix::new(row.len()));
                matrix.push_row(&row);
                labels.push(label);
            }
            Ok(Dataset::new(name, points.unwrap_or_default(), labels, None))
        }

        pub fn load_csv(path: &Path) -> Result<Dataset, CsvError> {
            let file = std::fs::File::open(path)?;
            let reader = std::io::BufReader::new(file);
            let mut text = String::new();
            for line in reader.lines() {
                text.push_str(&line?);
                text.push('\n');
            }
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| "csv".to_string());
            parse_csv(&name, &text)
        }

        /// Every item the batched reader yields, up to and including the
        /// first error.
        pub fn batches(path: &Path, batch_rows: usize) -> Vec<Result<Dataset, CsvError>> {
            let name = path.file_stem().unwrap().to_string_lossy().to_string();
            let mut lines = std::io::BufReader::new(std::fs::File::open(path).unwrap()).lines();
            let (mut line_no, mut dims, mut out) = (0, None, Vec::new());
            loop {
                let mut points: Option<PointMatrix> = dims.map(PointMatrix::new);
                let mut labels = Vec::new();
                let mut row = Vec::new();
                while labels.len() < batch_rows {
                    let Some(line) = lines.next() else { break };
                    line_no += 1;
                    let line = match line {
                        Ok(line) => line,
                        Err(e) => {
                            out.push(Err(e.into()));
                            return out;
                        }
                    };
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    match parse_row(line_no, trimmed, dims, &mut row) {
                        Ok(label) => {
                            let matrix = points.get_or_insert_with(|| PointMatrix::new(row.len()));
                            dims = Some(matrix.dims());
                            matrix.push_row(&row);
                            labels.push(label);
                        }
                        Err(e) => {
                            out.push(Err(e));
                            return out;
                        }
                    }
                }
                if labels.is_empty() {
                    return out;
                }
                out.push(Ok(Dataset::new(
                    name.clone(),
                    points.unwrap(),
                    labels,
                    None,
                )));
            }
        }
    }

    /// A dataset as comparable bits (NaN coordinates included), or the
    /// error's text.
    type Outcome = Result<(String, usize, Vec<u64>, Vec<usize>), String>;

    fn outcome(result: Result<Dataset, CsvError>) -> Outcome {
        result
            .map(|ds| {
                let bits = ds.points.as_slice().iter().map(|v| v.to_bits()).collect();
                (ds.name.clone(), ds.dims(), bits, ds.labels)
            })
            .map_err(|e| e.to_string())
    }

    fn batch_outcomes(path: &Path, batch_rows: usize) -> Vec<Outcome> {
        CsvBatches::open(path, batch_rows)
            .unwrap()
            .map(outcome)
            .collect()
    }

    /// One generated line (without its ending). Before the first "bad"
    /// position only well-formed kinds are drawn, so the first error can
    /// sit anywhere in the input, late chunks included.
    fn gen_line(dims: usize, (kind, a, b): (u32, u32, u32), bad: bool) -> Vec<u8> {
        const VALUES: [&str; 14] = [
            "0.5",
            "-1.25",
            "+3",
            "1e3",
            "2.5E-2",
            "-0",
            ".5",
            "7.",
            "nan",
            "NaN",
            "inf",
            "-infinity",
            "0.1234567890123456789",
            "1e400",
        ];
        const PADS: [&str; 6] = ["", " ", "\t", "\u{a0}", "\u{3000}", " \u{2003} "];
        let pad = |i: u32| PADS[i as usize % PADS.len()];
        let value = |i: u32| VALUES[i as usize % VALUES.len()];
        let row = |dims: usize, label: &str| {
            let mut line = String::new();
            for j in 0..dims {
                let k = a.wrapping_add(j as u32 * 7);
                line.push_str(&format!("{}{}{},", pad(k / 3), value(k), pad(b + j as u32)));
            }
            line.push_str(&format!("{}{label}{}", pad(b / 5), pad(a / 7)));
            line
        };
        let kind = if bad { kind % 100 } else { kind % 70 };
        let line = match kind {
            0..=49 => row(dims, &(b % 13).to_string()),
            50..=59 => pad(a).to_string(),
            60..=69 => format!("{}#{}", pad(a), row(dims, "x")),
            70..=84 => {
                // dims - 1 ..= dims + 2 features, half the time one bad.
                let n = dims - 1 + (a % 4) as usize;
                if b % 2 == 0 && n > 0 {
                    let bad = ["abc", "", "1..2", "0x10", "1,5"][(b / 2) as usize % 5];
                    format!("{bad},{}", row(n - 1, "0"))
                } else {
                    row(n, "1")
                }
            }
            85..=89 => row(dims, ["-1", "1.5", "x", "", "+"][b as usize % 5]),
            90..=94 => value(a).to_string(),
            _ => {
                let mut bytes = row(dims, "0").into_bytes();
                bytes.insert(
                    a as usize % (bytes.len() + 1),
                    [0xff, 0xc3, 0x80][b as usize % 3],
                );
                return bytes;
            }
        };
        line.into_bytes()
    }

    fn gen_input(
        dims: usize,
        lines: &[(u32, u32, u32)],
        bad_from: usize,
        crlf: u32,
        final_newline: bool,
    ) -> Vec<u8> {
        let mut text = Vec::new();
        for (i, &spec) in lines.iter().enumerate() {
            text.extend(gen_line(dims, spec, i >= bad_from));
            let last = i + 1 == lines.len();
            if !last || final_newline {
                let ending: &[u8] = if (spec.1 ^ crlf).is_multiple_of(3) {
                    b"\r\n"
                } else {
                    b"\n"
                };
                text.extend_from_slice(ending);
            }
        }
        text
    }

    fn temp_file(bytes: &[u8]) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("adawave_csv_diff_{}_{n}.csv", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        #[test]
        fn every_reader_matches_the_reference_parser(
            dims in 1usize..4,
            lines in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000), 0..60),
            (bad_from, crlf, final_newline) in (0usize..80, 0u32..3, 0u8..4),
            chunk_bytes in 1usize..160,
        ) {
            let bytes = gen_input(dims, &lines, bad_from, crlf, final_newline != 0);
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let expected = outcome(reference::parse_csv("t", text));
                proptest::prop_assert_eq!(&outcome(parse_csv("t", text)), &expected);
                for threads in [1, 4] {
                    let runtime = Runtime::with_threads(threads);
                    let chunked = parse_chunks(text, runtime, chunk_bytes)
                        .map(|(points, labels)| Dataset::new("t", points, labels, None));
                    proptest::prop_assert_eq!(
                        &outcome(chunked),
                        &expected,
                        "threads {}, chunks of {} bytes, input {:?}",
                        threads,
                        chunk_bytes,
                        text
                    );
                }
            }
            let path = temp_file(&bytes);
            let loaded = outcome(load_csv(&path));
            let expected = outcome(reference::load_csv(&path));
            let mut batches = Vec::new();
            for batch_rows in [1, 7, 8192] {
                let expected: Vec<Outcome> =
                    reference::batches(&path, batch_rows).into_iter().map(outcome).collect();
                batches.push((batch_outcomes(&path, batch_rows), expected));
            }
            std::fs::remove_file(&path).ok();
            proptest::prop_assert_eq!(&loaded, &expected, "input {:?}", bytes);
            for (got, expected) in batches {
                proptest::prop_assert_eq!(&got, &expected, "input {:?}", bytes);
            }
        }
    }

    #[test]
    fn inputs_spanning_many_chunks_report_the_first_error_in_file_order() {
        let mut text = String::from("# x, y, class\n");
        for i in 0..250_000 {
            text.push_str(&format!("{}.{:06},{},{}\n", i % 97, i, i % 13, i % 5));
        }
        assert!(text.len() > 3 * CHUNK_BYTES, "spans several parse chunks");
        let clean = outcome(reference::parse_csv("big", &text));
        assert!(clean.is_ok());
        let mut late = text.clone();
        // Two bad lines, both past the first chunk: the earlier one wins,
        // even though a later chunk holds the other.
        for line in [100_000, 70_001] {
            let at = late.match_indices('\n').nth(line - 2).unwrap().0 + 1;
            late.insert_str(at, "1.0,oops,0\n");
        }
        let failing = outcome(reference::parse_csv("big", &late));
        assert_eq!(
            failing,
            Err("line 70001: bad feature value 'oops': invalid float literal".to_string())
        );
        for (text, expected) in [(&text, &clean), (&late, &failing)] {
            assert_eq!(&outcome(parse_csv("big", text)), expected);
            for threads in [1, 4] {
                let parsed = parse_chunks(text, Runtime::with_threads(threads), CHUNK_BYTES)
                    .map(|(points, labels)| Dataset::new("big", points, labels, None));
                assert_eq!(&outcome(parsed), expected);
            }
            let path = temp_file(text.as_bytes());
            let loaded = outcome(load_csv(&path));
            std::fs::remove_file(&path).ok();
            assert_eq!(
                loaded.map(|(_, d, p, l)| (d, p, l)),
                expected.clone().map(|(_, d, p, l)| (d, p, l))
            );
        }
    }

    #[test]
    fn chunks_end_after_a_newline_and_cover_the_text() {
        let text = "a,1\nbb,2\n\nccc,3\nd";
        for chunk_bytes in 1..=text.len() + 1 {
            let chunks = split_chunks(text, chunk_bytes);
            assert_eq!(chunks.concat(), text, "chunk_bytes = {chunk_bytes}");
            for chunk in &chunks[..chunks.len() - 1] {
                assert!(chunk.len() > chunk_bytes && chunk.ends_with('\n'));
            }
        }
        assert!(split_chunks("", 4).is_empty());
    }
}
