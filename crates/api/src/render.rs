//! The one renderer of per-point labels, shared by the `adawave` CLI
//! (`--output csv|json`) and the serve daemon's predict-batch replies, so
//! the two are byte-identical by construction.

/// A per-point label output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelFormat {
    /// A `label` header, then one label per line; noise is an empty line.
    Csv,
    /// A JSON document with point, cluster and noise counts plus a
    /// `labels` array; noise is `null`.
    Json,
}

/// Render per-point labels (`None` = noise) in `format`. Labels are
/// written digit by digit into one buffer, with no `String` per label.
///
/// ```
/// use adawave_api::{render_labels, LabelFormat};
///
/// let labels = [Some(1), None, Some(0)];
/// assert_eq!(render_labels(labels, LabelFormat::Csv), "label\n1\n\n0\n");
/// assert_eq!(
///     render_labels(labels, LabelFormat::Json),
///     "{\n  \"points\": 3,\n  \"clusters\": 2,\n  \"noise_points\": 1,\n  \"labels\": [1, null, 0]\n}\n"
/// );
/// ```
pub fn render_labels<I>(labels: I, format: LabelFormat) -> String
where
    I: IntoIterator<Item = Option<usize>>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let labels = labels.into_iter();
    match format {
        LabelFormat::Csv => {
            let mut out = String::with_capacity(labels.len() * 4 + 6);
            out.push_str("label\n");
            for label in labels {
                if let Some(l) = label {
                    push_decimal(&mut out, l);
                }
                out.push('\n');
            }
            out
        }
        LabelFormat::Json => {
            let clusters = labels.clone().flatten().max().map_or(0, |m| m + 1);
            let noise = labels.clone().filter(Option::is_none).count();
            let mut out = String::with_capacity(labels.len() * 6 + 64);
            out.push_str(&format!(
                "{{\n  \"points\": {},\n  \"clusters\": {clusters},\n  \"noise_points\": {noise},\n  \"labels\": [",
                labels.len()
            ));
            for (i, label) in labels.enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match label {
                    Some(l) => push_decimal(&mut out, l),
                    None => out.push_str("null"),
                }
            }
            out.push_str("]\n}\n");
            out
        }
    }
}

/// Append `value` in decimal: what `value.to_string()` writes, without
/// the allocation.
fn push_decimal(out: &mut String, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_digits_match_to_string() {
        for value in [0, 7, 10, 99, 1234567, usize::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
    }

    #[test]
    fn empty_and_all_noise_inputs_render() {
        let none: [Option<usize>; 0] = [];
        assert_eq!(render_labels(none, LabelFormat::Csv), "label\n");
        assert_eq!(
            render_labels([None, None], LabelFormat::Json),
            "{\n  \"points\": 2,\n  \"clusters\": 0,\n  \"noise_points\": 2,\n  \"labels\": [null, null]\n}\n"
        );
    }
}
