//! The versioned artifact layer: one header format, one payload parser and
//! one error type for every on-disk artifact the workspace writes.
//!
//! An artifact is a dependency-free line-oriented text file:
//!
//! ```text
//! <magic> <version>
//! algorithm <name>
//! <kind-specific payload>
//! ```
//!
//! Two [`ArtifactKind`]s exist today: trained **models**
//! (`adawave-model`, written by the umbrella crate's persistence layer)
//! and streaming **accumulators** (`adawave-accumulator`, written by
//! `adawave-stream` for shard ingestion and checkpoint/resume). Both share
//! the header discipline here, the [`PayloadReader`] line parser and the
//! [`f64_to_hex`] bit-exact float encoding, so a save → load round trip
//! reproduces the in-memory artifact bit for bit. Each kind has its own
//! version ([`ArtifactKind::version`]): changing a payload shape bumps
//! it, and a load accepts only the versions the kind still reads
//! ([`ArtifactKind::readable_versions`]).

use std::io::Write;
use std::path::Path;

/// The kinds of on-disk artifact the workspace knows, each with its own
/// leading magic so a model file can never be mistaken for an accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A trained model (`adawave-model`): the serving artifact of
    /// `fit_model`, persisted by the umbrella crate.
    Model,
    /// A streaming accumulator (`adawave-accumulator`): a
    /// `StreamingAdaWave` snapshot for shard merge and checkpoint/resume.
    Accumulator,
}

impl ArtifactKind {
    /// The magic word opening every file of this kind.
    pub fn magic(self) -> &'static str {
        match self {
            ArtifactKind::Model => "adawave-model",
            ArtifactKind::Accumulator => "adawave-accumulator",
        }
    }

    /// The noun used in error messages ("model" / "accumulator").
    pub fn noun(self) -> &'static str {
        match self {
            ArtifactKind::Model => "model",
            ArtifactKind::Accumulator => "accumulator",
        }
    }

    /// The format version every file of this kind is written in, part of
    /// its header line: `v1` for models, `v2` for accumulators (whose
    /// point lines name cells by their position in the grid dump).
    pub fn version(self) -> &'static str {
        match self {
            ArtifactKind::Model => "v1",
            ArtifactKind::Accumulator => "v2",
        }
    }

    /// Every format version a file of this kind may carry to be read,
    /// oldest first: the written [`version`](Self::version) and the
    /// older ones a loader still converts (`v1` accumulators).
    pub fn readable_versions(self) -> &'static [&'static str] {
        match self {
            ArtifactKind::Model => &["v1"],
            ArtifactKind::Accumulator => &["v1", "v2"],
        }
    }
}

/// Errors produced while reading or writing an artifact file.
#[derive(Debug)]
pub enum ArtifactError {
    /// The filesystem said no.
    Io {
        /// Which kind of artifact was being read or written.
        kind: ArtifactKind,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The file is not a well-formed artifact of this kind and version.
    Format {
        /// Which kind of artifact was expected.
        kind: ArtifactKind,
        /// Human-readable description of the problem.
        context: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { kind, error } => write!(f, "{} file i/o: {error}", kind.noun()),
            ArtifactError::Format { kind, context } => {
                write!(f, "bad {} file: {context}", kind.noun())
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { error, .. } => Some(error),
            ArtifactError::Format { .. } => None,
        }
    }
}

/// The decoded pieces of an artifact file: the format version and the
/// algorithm named in the header plus the kind-specific payload (header
/// lines stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The header's format version, one of the kind's
    /// [`readable_versions`](ArtifactKind::readable_versions): which
    /// payload layout follows.
    pub version: &'static str,
    /// The `algorithm <name>` header value.
    pub algorithm: String,
    /// Everything after the two header lines, verbatim.
    pub payload: String,
}

/// The two header lines (magic and the kind's version, then the
/// algorithm) every artifact file opens with.
fn header(kind: ArtifactKind, algorithm: &str) -> String {
    format!(
        "{} {}\nalgorithm {algorithm}\n",
        kind.magic(),
        kind.version()
    )
}

/// Split an artifact file's text into its version, algorithm name and
/// payload, validating the magic and checking the version is one the
/// kind reads. The error contexts name the exact missing or mismatched
/// piece. The payload is the tail of `text` with
/// the two header lines stripped in place, so a payload that runs to
/// megabytes is never copied into a second string.
pub fn decode_artifact(kind: ArtifactKind, mut text: String) -> Result<Artifact, ArtifactError> {
    let format = |context: String| ArtifactError::Format { kind, context };
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format("empty file".into()))?;
    let readable = kind.readable_versions();
    let version = match header.split_once(' ') {
        Some((magic, version)) if magic == kind.magic() => readable
            .iter()
            .find(|&&known| known == version)
            .copied()
            .ok_or_else(|| {
                format(format!(
                    "format version '{version}' (this build reads {})",
                    readable.join(", ")
                ))
            })?,
        _ => {
            return Err(format(format!(
                "missing '{} {}' header",
                kind.magic(),
                kind.version()
            )))
        }
    };
    let algorithm = lines
        .next()
        .and_then(|line| line.strip_prefix("algorithm "))
        .ok_or_else(|| format("missing 'algorithm <name>' line".into()))?
        .to_string();
    let payload_len = text
        .splitn(3, '\n')
        .nth(2)
        .ok_or_else(|| format("missing payload".into()))?
        .len();
    text.drain(..text.len() - payload_len);
    Ok(Artifact {
        version,
        algorithm,
        payload: text,
    })
}

/// Create `path` and write the header, then the payload: two writes, so a
/// payload that runs to megabytes is never copied into a concatenation.
fn write_artifact(
    path: &Path,
    kind: ArtifactKind,
    algorithm: &str,
    payload: &str,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(header(kind, algorithm).as_bytes())?;
    file.write_all(payload.as_bytes())
}

/// Write an artifact file in one shot, headed by the kind's
/// [`version`](ArtifactKind::version).
pub fn save_artifact(
    path: &Path,
    kind: ArtifactKind,
    algorithm: &str,
    payload: &str,
) -> Result<(), ArtifactError> {
    write_artifact(path, kind, algorithm, payload)
        .map_err(|error| ArtifactError::Io { kind, error })
}

/// Write an artifact file atomically: the text lands in a `.tmp` sibling
/// first and is renamed over `path`, so a reader (or a crash mid-write)
/// never observes a half-written artifact — the checkpoint discipline of
/// the streaming layer.
pub fn save_artifact_atomic(
    path: &Path,
    kind: ArtifactKind,
    algorithm: &str,
    payload: &str,
) -> Result<(), ArtifactError> {
    let io = |error: std::io::Error| ArtifactError::Io { kind, error };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    write_artifact(&tmp, kind, algorithm, payload).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Read and decode an artifact file of the given kind.
pub fn load_artifact(path: &Path, kind: ArtifactKind) -> Result<Artifact, ArtifactError> {
    let text = std::fs::read_to_string(path).map_err(|error| ArtifactError::Io { kind, error })?;
    decode_artifact(kind, text)
}

/// Render an `f64` as the 16-digit hex of its IEEE-754 bits — the
/// bit-exact float encoding every artifact payload uses.
pub fn f64_to_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Append the `digits` low-order hex digits of `value`, zero-padded and
/// lowercase: what `format!("{value:0digits$x}")` writes for a value
/// below `16^digits`, without the allocation. Payloads write grid keys at
/// their codec's width and every float's bits as 16 ([`f64_to_hex`]). The
/// digits are formed in a stack buffer and appended with one `push_str`;
/// [`parse_hex`] reads them back.
///
/// # Panics
/// Panics if `digits` exceeds 32, the width of a `u128`.
///
/// ```
/// use adawave_api::{f64_to_hex, push_hex};
///
/// let mut out = String::new();
/// push_hex(&mut out, 0xbeef, 32);
/// push_hex(&mut out, u128::from(1.5f64.to_bits()), 16);
/// assert_eq!(out, format!("{:032x}{}", 0xbeef, f64_to_hex(1.5)));
/// ```
pub fn push_hex(out: &mut String, value: u128, digits: u32) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 32];
    let buf = &mut buf[..digits as usize];
    for (i, byte) in buf.iter_mut().rev().enumerate() {
        *byte = HEX[(value >> (4 * i)) as usize & 0xf];
    }
    // Hex digits are ASCII, so the conversion never falls back.
    out.push_str(std::str::from_utf8(buf).unwrap_or_default());
}

/// Parse exactly `digits` lowercase hex digits, the form [`push_hex`]
/// writes, with `digits` from 1 to 32, from text or raw bytes. Any other
/// length, a sign, an upper-case digit or any other byte gives `None`, so
/// a payload field read with this has one spelling only.
///
/// ```
/// use adawave_api::parse_hex;
///
/// assert_eq!(parse_hex("00be", 4), Some(0xbe));
/// assert_eq!(parse_hex(b"00be", 4), Some(0xbe));
/// assert_eq!(parse_hex("be", 4), None);
/// assert_eq!(parse_hex("00BE", 4), None);
/// assert_eq!(parse_hex("+0be", 4), None);
/// ```
pub fn parse_hex(text: &(impl AsRef<[u8]> + ?Sized), digits: u32) -> Option<u128> {
    let text = text.as_ref();
    if !(1..=32).contains(&digits) || text.len() != digits as usize {
        return None;
    }
    // One table read a digit and no branch on its value: a point index
    // is a handful of random digits, which a per-digit `match` mispredicts.
    let (mut value, mut seen) = (0u128, 0u8);
    for &byte in text {
        let digit = HEX_DIGITS[usize::from(byte)];
        seen |= digit;
        value = value << 4 | u128::from(digit & 0xf);
    }
    (seen < 16).then_some(value)
}

/// The value of every lowercase hex digit, and 0xff for every other byte.
static HEX_DIGITS: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        table[b"0123456789abcdef"[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// Parse an [`f64_to_hex`]-encoded float back, bit for bit.
pub fn f64_from_hex(text: &str) -> Option<f64> {
    u64::from_str_radix(text, 16).ok().map(f64::from_bits)
}

/// Line-oriented reader for artifact payloads: every line is
/// `<field> <values...>` with fields in a fixed per-format order. The one
/// parser every persistable artifact shares, so the error wording and
/// format rules cannot drift between crates. A clone reads on from the
/// same line, so a format whose lines refer forward can be read twice.
///
/// Lines end as [`str::lines`] ends them: at `\n` or `\r\n`, the last one
/// optionally. The reader keeps the unread rest of the payload itself, so
/// a run of fixed-width lines can be read by position
/// ([`hex_line`](Self::hex_line)) instead of by searching for each end.
#[derive(Clone)]
pub struct PayloadReader<'a> {
    rest: &'a str,
}

impl<'a> PayloadReader<'a> {
    /// Read `payload` line by line.
    pub fn new(payload: &'a str) -> Self {
        Self { rest: payload }
    }

    /// The next raw line, or an error on a truncated payload.
    pub fn line(&mut self) -> Result<&'a str, String> {
        if self.rest.is_empty() {
            return Err("truncated payload".to_string());
        }
        Ok(match self.rest.split_once('\n') {
            // A carriage return is part of a line end only before `\n`.
            Some((line, rest)) => {
                self.rest = rest;
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        })
    }

    /// The next line when it is exactly `digits` lowercase hex digits
    /// ended by `\n`, parsed ([`parse_hex`]) and consumed; `None`, with
    /// nothing consumed, for any other line, which [`line`](Self::line)
    /// then reads as usual. One check at the expected line end replaces
    /// the search for it: the fast path of a section of fixed-width
    /// index lines.
    pub fn hex_line(&mut self, digits: u32) -> Option<u128> {
        let end = digits as usize;
        if self.rest.as_bytes().get(end) != Some(&b'\n') {
            return None;
        }
        let value = parse_hex(&self.rest.as_bytes()[..end], digits)?;
        // Past an ASCII newline, so on a character boundary.
        self.rest = self.rest.get(end + 1..)?;
        Some(value)
    }

    /// The value part of the next line, which must be `<name> <value...>`.
    pub fn field(&mut self, name: &str) -> Result<&'a str, String> {
        let line = self.line()?;
        let (field, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad line '{line}'"))?;
        if field != name {
            return Err(format!("expected field '{name}', found '{field}'"));
        }
        Ok(rest)
    }

    /// Parse the next line's value as one `T`.
    pub fn scalar<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        let raw = self.field(name)?;
        raw.parse()
            .map_err(|_| format!("bad value '{raw}' for field '{name}'"))
    }

    /// Parse the next line's value as exactly `expected` whitespace-
    /// separated `T`s.
    pub fn list<T: std::str::FromStr>(
        &mut self,
        name: &str,
        expected: usize,
    ) -> Result<Vec<T>, String> {
        let raw = self.field(name)?;
        let values: Vec<T> = raw
            .split_whitespace()
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value '{v}' in '{name}'"))
            })
            .collect::<Result<_, _>>()?;
        if values.len() != expected {
            return Err(format!(
                "field '{name}' holds {} values, expected {expected}",
                values.len()
            ));
        }
        Ok(values)
    }

    /// Parse the next line as a bare (unnamed) row of exactly `expected`
    /// [`f64_to_hex`]-encoded floats — the row format point matrices
    /// (centroids, training batches, mode representatives) use in
    /// persistence payloads.
    pub fn float_row(&mut self, expected: usize) -> Result<Vec<f64>, String> {
        let line = self.line()?;
        let values: Vec<f64> = line
            .split_whitespace()
            .map(|v| f64_from_hex(v).ok_or_else(|| format!("bad float bits '{v}'")))
            .collect::<Result<_, _>>()?;
        if values.len() != expected {
            return Err(format!(
                "row holds {} values, expected {expected}",
                values.len()
            ));
        }
        Ok(values)
    }

    /// Parse the next line's value as exactly `expected`
    /// [`f64_to_hex`]-encoded floats, bit-exactly.
    pub fn float_list(&mut self, name: &str, expected: usize) -> Result<Vec<f64>, String> {
        let raw = self.field(name)?;
        let values: Vec<f64> = raw
            .split_whitespace()
            .map(|v| f64_from_hex(v).ok_or_else(|| format!("bad float bits '{v}' in '{name}'")))
            .collect::<Result<_, _>>()?;
        if values.len() != expected {
            return Err(format!(
                "field '{name}' holds {} values, expected {expected}",
                values.len()
            ));
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_lines_end_as_str_lines_end_them() {
        for text in [
            "",
            "\n",
            "a",
            "a\n",
            "a\r\nb",
            "a\r\r\n\r\n\nb\r",
            "\r",
            "x\ny\r",
            "é\r\n-\n",
        ] {
            let mut reader = PayloadReader::new(text);
            for want in text.lines() {
                assert_eq!(reader.line(), Ok(want), "{text:?}");
            }
            assert_eq!(
                reader.line(),
                Err("truncated payload".to_string()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn hex_lines_are_read_by_position_or_left_alone() {
        let mut reader = PayloadReader::new("0a\n0b\r\n0c\n-\n0D\n0e\ntail");
        assert_eq!(reader.hex_line(2), Some(0x0a));
        // A CRLF line, `-`, an upper-case digit and a width mismatch are
        // not consumed; `line` reads each of them as it always did.
        assert_eq!(reader.hex_line(2), None);
        assert_eq!(reader.line(), Ok("0b"));
        assert_eq!(reader.hex_line(3), None);
        assert_eq!(reader.hex_line(2), Some(0x0c));
        assert_eq!(reader.hex_line(2), None);
        assert_eq!(reader.line(), Ok("-"));
        assert_eq!(reader.hex_line(2), None);
        assert_eq!(reader.line(), Ok("0D"));
        assert_eq!(reader.hex_line(2), Some(0x0e));
        // The last line has no `\n` to check against.
        assert_eq!(reader.hex_line(4), None);
        assert_eq!(reader.line(), Ok("tail"));
        assert_eq!(reader.hex_line(1), None);
    }

    #[test]
    fn float_hex_round_trips_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = f64_from_hex(&f64_to_hex(f64::NAN)).unwrap();
        assert!(nan.is_nan());
        assert_eq!(f64_from_hex("xyz"), None);
    }

    #[test]
    fn payload_reader_parses_bare_float_rows() {
        let payload = format!(
            "{} {}\n{}\n",
            f64_to_hex(1.5),
            f64_to_hex(-0.25),
            f64_to_hex(f64::MAX)
        );
        let mut reader = PayloadReader::new(&payload);
        assert_eq!(reader.float_row(2).unwrap(), vec![1.5, -0.25]);
        assert!(reader.float_row(2).is_err(), "wrong arity");
        let mut reader = PayloadReader::new("xyz pqr\n");
        assert!(reader.float_row(2).is_err(), "bad bits");
        let mut reader = PayloadReader::new("");
        assert!(reader.float_row(1).is_err(), "truncated");
    }

    #[test]
    fn encode_decode_round_trips_both_kinds() {
        for (kind, version) in [
            (ArtifactKind::Model, "v1"),
            (ArtifactKind::Accumulator, "v2"),
        ] {
            let text = header(kind, "adawave") + "dims 2\npayload body\n";
            let head = format!("{} {version}\nalgorithm adawave\n", kind.magic());
            assert!(text.starts_with(&head), "{text:?}");
            let artifact = decode_artifact(kind, text).unwrap();
            assert_eq!(artifact.version, version);
            assert_eq!(artifact.algorithm, "adawave");
            assert_eq!(artifact.payload, "dims 2\npayload body\n");
        }
        // An accumulator written before the bump still decodes, and says
        // which layout its payload has.
        let old = "adawave-accumulator v1\nalgorithm adawave\ndims 2\n".to_string();
        let artifact = decode_artifact(ArtifactKind::Accumulator, old).unwrap();
        assert_eq!(artifact.version, "v1");
        assert_eq!(artifact.payload, "dims 2\n");
    }

    #[test]
    fn parse_hex_reads_only_what_push_hex_writes() {
        for (value, digits) in [(0u128, 1), (0xbeef, 4), (0xbeef, 7), (u128::MAX, 32)] {
            let mut text = String::new();
            push_hex(&mut text, value, digits);
            assert_eq!(parse_hex(&text, digits), Some(value), "{text}");
        }
        for (text, digits) in [
            ("", 0),
            ("", 1),
            ("0", 0),
            ("00", 1),
            ("0", 2),
            ("+f", 2),
            ("-f", 2),
            ("0F", 2),
            ("0g", 2),
            (" f", 2),
            ("0000000000000000000000000000000000", 33),
        ] {
            assert_eq!(parse_hex(text, digits), None, "{text:?} at {digits}");
        }
    }

    #[test]
    fn decode_rejects_malformed_headers_with_context() {
        let kind = ArtifactKind::Accumulator;
        for (text, needle) in [
            ("", "empty"),
            ("wrong-magic v1\n", "header"),
            ("adawave-model v1\nalgorithm adawave\nx\n", "header"),
            (
                "adawave-accumulator v999\nalgorithm adawave\n",
                "reads v1, v2",
            ),
            (
                "adawave-accumulator v3\nalgorithm adawave\nx\n",
                "version 'v3'",
            ),
            ("adawave-accumulator v1\nno-algo\n", "algorithm"),
            ("adawave-accumulator v1\nalgorithm adawave", "payload"),
        ] {
            let err = decode_artifact(kind, text.to_string()).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} -> {err}");
            assert!(err.to_string().contains("accumulator"), "{err}");
        }
        // Models were never bumped: an accumulator's version is no model's.
        let err = decode_artifact(
            ArtifactKind::Model,
            "adawave-model v2\nalgorithm adawave\nx\n".to_string(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("(this build reads v1)"), "{err}");
    }

    #[test]
    fn atomic_save_leaves_no_temp_file_and_loads_back() {
        let path = std::env::temp_dir().join(format!(
            "adawave_artifact_atomic_{}.awa",
            std::process::id()
        ));
        let kind = ArtifactKind::Accumulator;
        save_artifact_atomic(&path, kind, "adawave", "dims 1\n").unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temp file renamed away"
        );
        let artifact = load_artifact(&path, kind).unwrap();
        assert_eq!(artifact.algorithm, "adawave");
        assert_eq!(artifact.payload, "dims 1\n");
        // The wrong kind refuses the file instead of misreading it.
        let err = load_artifact(&path, ArtifactKind::Model).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_artifact(Path::new("/definitely/not/here.awa"), kind),
            Err(ArtifactError::Io { .. })
        ));
    }
}
