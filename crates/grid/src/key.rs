//! Packed grid keys.
//!
//! A grid cell is identified by its integer coordinate in every dimension.
//! Instead of hashing a `Vec<u32>` per cell (one heap allocation per key),
//! the coordinates are packed into a single `u128`, using
//! `ceil(log2(intervals_j))` bits for dimension `j`. For the paper's default
//! configuration (scale 128 → 7 bits per dimension) this supports up to 18
//! dimensions; lower scales allow proportionally more dimensions, e.g. the
//! 33-dimensional Dermatology dataset fits at scale ≤ 16.

use adawave_api::PayloadReader;

use crate::{GridError, Result};

/// Encodes/decodes per-dimension cell coordinates into a packed `u128` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCodec {
    bits: Vec<u32>,
    intervals: Vec<u32>,
    offsets: Vec<u32>,
}

impl KeyCodec {
    /// Build a codec for the given number of intervals per dimension.
    ///
    /// Returns [`GridError::KeyOverflow`] if the total number of bits
    /// exceeds 128 and [`GridError::ZeroScale`] if any dimension has zero
    /// intervals.
    pub fn new(intervals: &[u32]) -> Result<Self> {
        if intervals.is_empty() {
            return Err(GridError::InvalidData {
                context: "codec needs at least one dimension".to_string(),
            });
        }
        let mut bits = Vec::with_capacity(intervals.len());
        for &m in intervals {
            if m == 0 {
                return Err(GridError::ZeroScale);
            }
            // Number of bits needed to represent coordinates 0..m-1.
            let b = if m == 1 {
                1
            } else {
                32 - (m - 1).leading_zeros()
            };
            bits.push(b);
        }
        let total: u32 = bits.iter().sum();
        if total > 128 {
            return Err(GridError::KeyOverflow {
                dims: intervals.len(),
                bits_required: total,
            });
        }
        // Offsets: dimension j occupies bits [offset_j, offset_j + bits_j).
        let mut offsets = Vec::with_capacity(bits.len());
        let mut acc = 0;
        for &b in &bits {
            offsets.push(acc);
            acc += b;
        }
        Ok(Self {
            bits,
            intervals: intervals.to_vec(),
            offsets,
        })
    }

    /// Build a codec with the same number of intervals in every dimension.
    pub fn uniform(dims: usize, intervals: u32) -> Result<Self> {
        Self::new(&vec![intervals; dims])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.bits.len()
    }

    /// Number of intervals in dimension `j`.
    pub fn intervals(&self, j: usize) -> u32 {
        self.intervals[j]
    }

    /// Intervals per dimension.
    pub fn all_intervals(&self) -> &[u32] {
        &self.intervals
    }

    /// Width of a packed key in bits: the sum of every dimension's bits.
    ///
    /// ```
    /// use adawave_grid::KeyCodec;
    ///
    /// assert_eq!(KeyCodec::new(&[16, 10, 1]).unwrap().key_bits(), 9);
    /// ```
    pub fn key_bits(&self) -> u32 {
        self.bits.iter().sum()
    }

    /// Hex digits of a packed key written at the codec's width:
    /// [`key_bits`](Self::key_bits) / 4, rounded up — the width of the
    /// keys in an accumulator's grid dump.
    ///
    /// ```
    /// use adawave_grid::KeyCodec;
    ///
    /// assert_eq!(KeyCodec::new(&[16, 10, 1]).unwrap().key_hex_digits(), 3);
    /// assert_eq!(KeyCodec::new(&[128, 128]).unwrap().key_hex_digits(), 4);
    /// ```
    pub fn key_hex_digits(&self) -> u32 {
        self.key_bits().div_ceil(4)
    }

    /// Whether `key` is a cell of this codec: no bit above
    /// [`key_bits`](Self::key_bits) is set and every coordinate lies
    /// below its dimension's interval count. Every key the codec packs
    /// passes; a key read from untrusted bytes is checked with this before
    /// it can index anything.
    ///
    /// ```
    /// use adawave_grid::KeyCodec;
    ///
    /// let codec = KeyCodec::new(&[16, 10]).unwrap();
    /// assert!(codec.contains(codec.pack(&[15, 9])));
    /// assert!(!codec.contains(codec.pack(&[15, 9]) + 1)); // coordinate 10 of 10
    /// assert!(!codec.contains(1 << 8));                   // above the 8 key bits
    /// ```
    pub fn contains(&self, key: u128) -> bool {
        key.checked_shr(self.key_bits()).unwrap_or(0) == 0
            && (0..self.dims()).all(|j| self.coordinate(key, j) < self.intervals[j])
    }

    /// Total number of cells in the (dense) grid, saturating at `u128::MAX`.
    pub fn dense_cell_count(&self) -> u128 {
        self.intervals
            .iter()
            .fold(1u128, |acc, &m| acc.saturating_mul(m as u128))
    }

    /// Pack per-dimension coordinates into a key.
    ///
    /// # Panics
    /// Panics (debug assertion) if a coordinate is out of range or the
    /// number of coordinates does not match the codec dimensionality.
    pub fn pack(&self, coords: &[u32]) -> u128 {
        debug_assert_eq!(coords.len(), self.dims(), "pack: dimensionality mismatch");
        let mut key = 0u128;
        for (j, &c) in coords.iter().enumerate() {
            debug_assert!(
                c < self.intervals[j],
                "pack: coordinate {c} out of range for dimension {j}"
            );
            key |= (c as u128) << self.offsets[j];
        }
        key
    }

    /// Contribution of coordinate `c` in dimension `j` to a packed key.
    /// OR-ing `pack_coord(j, c_j)` over all dimensions equals
    /// [`pack`](Self::pack) of the full coordinate vector — this is the
    /// allocation-free streaming form used by the point-quantization hot
    /// loop.
    #[inline]
    pub fn pack_coord(&self, j: usize, c: u32) -> u128 {
        debug_assert!(
            c < self.intervals[j],
            "pack_coord: coordinate {c} out of range for dimension {j}"
        );
        (c as u128) << self.offsets[j]
    }

    /// The bit positions dimension `j` occupies in a packed key: the
    /// coordinate is `(key >> start) & ((1 << len) - 1)`. Dimension 0 holds
    /// the lowest bits and each later dimension sits directly above the
    /// previous one.
    ///
    /// ```
    /// use adawave_grid::KeyCodec;
    ///
    /// let codec = KeyCodec::new(&[16, 10, 1]).unwrap();
    /// assert_eq!(codec.bit_range(0), 0..4);
    /// assert_eq!(codec.bit_range(1), 4..8);
    /// assert_eq!(codec.bit_range(2), 8..9);
    /// ```
    pub fn bit_range(&self, j: usize) -> std::ops::Range<u32> {
        self.offsets[j]..self.offsets[j] + self.bits[j]
    }

    /// Unpack a key into per-dimension coordinates.
    pub fn unpack(&self, key: u128) -> Vec<u32> {
        let mut coords = Vec::with_capacity(self.dims());
        for j in 0..self.dims() {
            let mask: u128 = if self.bits[j] == 128 {
                u128::MAX
            } else {
                (1u128 << self.bits[j]) - 1
            };
            coords.push(((key >> self.offsets[j]) & mask) as u32);
        }
        coords
    }

    /// Extract the coordinate of a single dimension from a key.
    pub fn coordinate(&self, key: u128, j: usize) -> u32 {
        let mask: u128 = if self.bits[j] == 128 {
            u128::MAX
        } else {
            (1u128 << self.bits[j]) - 1
        };
        ((key >> self.offsets[j]) & mask) as u32
    }

    /// Replace the coordinate of dimension `j` in a key.
    pub fn with_coordinate(&self, key: u128, j: usize, coord: u32) -> u128 {
        debug_assert!(coord < self.intervals[j] || self.intervals[j] == 0);
        let mask: u128 = if self.bits[j] == 128 {
            u128::MAX
        } else {
            (1u128 << self.bits[j]) - 1
        };
        (key & !(mask << self.offsets[j])) | ((coord as u128) << self.offsets[j])
    }

    /// Re-encode `key` into `target`'s layout without allocating: the one
    /// coordinate-by-coordinate re-encode behind point labeling, model
    /// lookups and the sparse transform's scatter. Every coordinate is
    /// shifted right by `levels` (saturating to 0 past 31 levels, by when
    /// every u32 coordinate has collapsed), coordinate `set.0` is then
    /// replaced by `set.1` when given, and each coordinate is clamped to
    /// `target`'s interval count.
    ///
    /// ```
    /// use adawave_grid::KeyCodec;
    ///
    /// let codec = KeyCodec::new(&[16, 10]).unwrap();
    /// let half = codec.downsampled(1).unwrap();
    /// let key = codec.pack(&[13, 9]);
    /// assert_eq!(half.unpack(codec.remap(key, &half, 1, None)), [6, 4]);
    /// assert_eq!(half.unpack(codec.remap(key, &half, 1, Some((0, 2)))), [2, 4]);
    /// assert_eq!(half.unpack(codec.remap(key, &half, 0, None)), [7, 4]); // clamped
    /// ```
    #[inline]
    pub fn remap(
        &self,
        key: u128,
        target: &KeyCodec,
        levels: u32,
        set: Option<(usize, u32)>,
    ) -> u128 {
        debug_assert_eq!(self.dims(), target.dims(), "remap: dimensionality mismatch");
        let mut out = 0u128;
        for j in 0..self.dims() {
            out |= match set {
                Some((dim, c)) if dim == j => target.pack_downsampled(j, c, 0),
                _ => target.pack_downsampled(j, self.coordinate(key, j), levels),
            };
        }
        out
    }

    /// Contribution to one of this codec's keys of coordinate `c` of
    /// dimension `j` in a grid `levels` halvings finer: `c` shifted right
    /// by `levels` (0 past 31 levels) and clamped to this codec's interval
    /// count. OR-ing it over all dimensions gives [`remap`](Self::remap)
    /// of the finer key, with no finer key packed.
    #[inline]
    pub fn pack_downsampled(&self, j: usize, c: u32, levels: u32) -> u128 {
        let c = c.checked_shr(levels).unwrap_or(0);
        u128::from(c.min(self.intervals[j] - 1)) << self.offsets[j]
    }

    /// Append the codec to an artifact payload as one `intervals <m...>`
    /// line. The bit layout (and therefore every packed key) is a pure
    /// function of the interval counts, so this is the codec's entire
    /// state.
    pub fn serialize_into(&self, out: &mut String) {
        out.push_str("intervals");
        for &m in &self.intervals {
            out.push(' ');
            out.push_str(&m.to_string());
        }
        out.push('\n');
    }

    /// Read a codec written by [`serialize_into`](Self::serialize_into):
    /// exactly `dims` interval counts, re-validated through
    /// [`KeyCodec::new`] (non-zero intervals, ≤ 128 total bits).
    pub fn deserialize_from(
        reader: &mut PayloadReader<'_>,
        dims: usize,
    ) -> std::result::Result<Self, String> {
        let intervals: Vec<u32> = reader.list("intervals", dims)?;
        KeyCodec::new(&intervals).map_err(|e| e.to_string())
    }

    /// A codec describing the grid after `levels` dyadic downsamplings
    /// (each level halves every dimension, rounding up). This is the
    /// transformed feature space the connected-component step runs in.
    pub fn downsampled(&self, levels: u32) -> Result<KeyCodec> {
        let intervals: Vec<u32> = self
            .intervals
            .iter()
            .map(|&m| {
                // A u32 interval count reaches 1 after at most 32 halvings,
                // so larger `levels` need no further iterations.
                let mut v = m;
                for _ in 0..levels.min(32) {
                    v = v.div_ceil(2).max(1);
                }
                v
            })
            .collect();
        KeyCodec::new(&intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let codec = KeyCodec::new(&[128, 128, 16]).unwrap();
        let coords = vec![127u32, 0, 15];
        let key = codec.pack(&coords);
        assert_eq!(codec.unpack(key), coords);
    }

    #[test]
    fn distinct_coords_give_distinct_keys() {
        let codec = KeyCodec::uniform(2, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                assert!(seen.insert(codec.pack(&[x, y])));
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn bits_computation() {
        // 1 interval -> 1 bit, 2 -> 1 bit, 3 -> 2 bits, 128 -> 7 bits, 129 -> 8 bits.
        assert!(KeyCodec::new(&[1]).is_ok());
        let c = KeyCodec::new(&[2, 3, 128, 129]).unwrap();
        assert_eq!(c.pack(&[1, 2, 127, 128]) >> 1 & 0b11, 2);
    }

    #[test]
    fn overflow_detection() {
        // 19 dims at 128 intervals = 133 bits > 128.
        assert!(matches!(
            KeyCodec::uniform(19, 128),
            Err(GridError::KeyOverflow { .. })
        ));
        // 18 dims at 128 intervals = 126 bits: fine.
        assert!(KeyCodec::uniform(18, 128).is_ok());
        // 33 dims at 16 intervals = 132 bits: overflow...
        assert!(KeyCodec::uniform(33, 16).is_err());
        // ...but 33 dims at 8 intervals = 99 bits fits.
        assert!(KeyCodec::uniform(33, 8).is_ok());
    }

    #[test]
    fn zero_scale_rejected() {
        assert!(matches!(KeyCodec::new(&[4, 0]), Err(GridError::ZeroScale)));
        assert!(KeyCodec::new(&[]).is_err());
    }

    #[test]
    fn coordinate_and_with_coordinate() {
        let codec = KeyCodec::new(&[64, 64, 64]).unwrap();
        let key = codec.pack(&[10, 20, 30]);
        assert_eq!(codec.coordinate(key, 0), 10);
        assert_eq!(codec.coordinate(key, 1), 20);
        assert_eq!(codec.coordinate(key, 2), 30);
        let key2 = codec.with_coordinate(key, 1, 5);
        assert_eq!(codec.unpack(key2), vec![10, 5, 30]);
        // original key unchanged in other dims
        assert_eq!(codec.coordinate(key2, 0), 10);
        assert_eq!(codec.coordinate(key2, 2), 30);
    }

    #[test]
    fn downsampled_halves_intervals() {
        let codec = KeyCodec::new(&[128, 100, 3]).unwrap();
        let down = codec.downsampled(1).unwrap();
        assert_eq!(down.all_intervals(), &[64, 50, 2]);
        let down2 = codec.downsampled(2).unwrap();
        assert_eq!(down2.all_intervals(), &[32, 25, 1]);
        let down7 = codec.downsampled(7).unwrap();
        assert_eq!(down7.all_intervals(), &[1, 1, 1]);
    }

    #[test]
    fn dense_cell_count() {
        let codec = KeyCodec::new(&[128, 128]).unwrap();
        assert_eq!(codec.dense_cell_count(), 128 * 128);
        let big = KeyCodec::uniform(18, 128).unwrap();
        assert_eq!(big.dense_cell_count(), (128u128).pow(18));
    }

    #[test]
    fn serde_round_trip_preserves_packing() {
        let codec = KeyCodec::new(&[128, 100, 3]).unwrap();
        let mut payload = String::new();
        codec.serialize_into(&mut payload);
        assert_eq!(payload, "intervals 128 100 3\n");
        let mut reader = PayloadReader::new(&payload);
        let back = KeyCodec::deserialize_from(&mut reader, 3).unwrap();
        assert_eq!(back, codec);
        let coords = [127u32, 99, 2];
        assert_eq!(back.pack(&coords), codec.pack(&coords));
    }

    #[test]
    fn serde_rejects_invalid_interval_lines() {
        for (payload, dims) in [
            ("intervals 4 0\n", 2),     // zero intervals
            ("intervals 4\n", 2),       // wrong arity
            ("intervals 128 128\n", 1), // wrong arity the other way
            ("wrong 4 4\n", 2),         // wrong field name
        ] {
            let mut reader = PayloadReader::new(payload);
            assert!(
                KeyCodec::deserialize_from(&mut reader, dims).is_err(),
                "{payload:?}"
            );
        }
        // 19 x 128 intervals needs 133 bits: the overflow check still runs.
        let payload = format!("intervals{}\n", " 128".repeat(19));
        let mut reader = PayloadReader::new(&payload);
        let err = KeyCodec::deserialize_from(&mut reader, 19).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn uniform_constructor() {
        let c = KeyCodec::uniform(5, 32).unwrap();
        assert_eq!(c.dims(), 5);
        assert!(c.all_intervals().iter().all(|&m| m == 32));
    }
}
