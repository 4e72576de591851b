//! The one CSV row scanner behind every CSV reader of the workspace: the
//! dataset reader of `adawave-data` (one-shot and batched) and the
//! predict-batch body of `adawave-serve`.
//!
//! [`scan_row`] splits a line on `,`, trims every field with [`str::trim`]
//! and parses it with std's correctly rounded `str::parse::<f64>`,
//! appending the values to a buffer the caller owns. Scanning a file
//! therefore allocates nothing per row, and every reader accepts exactly
//! the same spellings (`1e-3`, `+2`, `nan`, `inf`, surrounding ASCII or
//! Unicode whitespace).

use std::num::ParseFloatError;

/// A field [`scan_row`] could not parse as a number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadField<'a> {
    /// The trimmed field text.
    pub text: &'a str,
    /// Why `str::parse::<f64>` refused it.
    pub error: ParseFloatError,
}

/// Parse every comma-separated field of `line` as an `f64` and append the
/// values to `row`, returning how many were appended. Each field is
/// trimmed with [`str::trim`] first. On the first field that does not
/// parse, `row` is truncated back to its length on entry and that field is
/// returned.
///
/// ```
/// use adawave_api::scan_row;
///
/// let mut row = vec![9.0];
/// assert_eq!(scan_row(" 1.5, -2e3 ,+4", &mut row), Ok(3));
/// assert_eq!(row, [9.0, 1.5, -2000.0, 4.0]);
/// let bad = scan_row("1,x ", &mut row).unwrap_err();
/// assert_eq!(bad.text, "x");
/// assert_eq!(row.len(), 4);
/// ```
pub fn scan_row<'a>(line: &'a str, row: &mut Vec<f64>) -> Result<usize, BadField<'a>> {
    let start = row.len();
    for field in line.split(',') {
        let text = field.trim();
        match text.parse::<f64>() {
            Ok(value) => row.push(value),
            Err(error) => {
                row.truncate(start);
                return Err(BadField { text, error });
            }
        }
    }
    Ok(row.len() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_std_spelling_and_reports_the_trimmed_field() {
        let mut row = Vec::new();
        let line = "\u{2003}nan ,inf,-inf, 1E3\t,+.5,\r-0";
        assert_eq!(scan_row(line, &mut row), Ok(6));
        assert!(row[0].is_nan());
        assert_eq!(
            row[1..],
            [f64::INFINITY, f64::NEG_INFINITY, 1000.0, 0.5, -0.0]
        );
        assert!(row[5].is_sign_negative());

        let bad = scan_row("1, 2 , , 3", &mut row).unwrap_err();
        assert_eq!(bad.text, "");
        assert_eq!(bad.error, "".parse::<f64>().unwrap_err());
        assert_eq!(row.len(), 6, "a bad row leaves the buffer as it was");
    }
}
