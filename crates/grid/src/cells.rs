//! The cell table: packed cell keys → small integers, behind every
//! per-point pass (quantization counts, point labeling, model lookups).
//!
//! A per-point pass touches one cell per point, so its cost is one table
//! probe per point. When a codec's packed keys are at most
//! [`CellTable::DENSE_KEY_BITS`] wide, the key itself indexes a flat
//! `u32` array and a probe is one load. Wider keys, which no array fits,
//! go through a hash map. Counting is the same on both sides: the table
//! maps a key to its cell's index in a [`SparseGrid`](crate::SparseGrid),
//! and [`SparseGrid::add_interned`](crate::SparseGrid::add_interned) adds
//! to that cell.
//!
//! The width cap is a constant, not an option. The side is a pure
//! function of the codec and every result is identical on both sides, so
//! a setting would only double the configurations to test without
//! changing an output. 22 bits bounds the array at 16 MiB.

use std::collections::HashMap;

use crate::KeyCodec;

/// A map from the packed cell keys of one [`KeyCodec`] to small integers
/// (a cell's index in a caller's list, or its cluster id).
///
/// Keys at most [`DENSE_KEY_BITS`](Self::DENSE_KEY_BITS) wide index a
/// zero-initialized flat array that stores `value + 1` (0 means absent),
/// so building a table needs no fill pass and pages no key lands on are
/// never touched. Wider keys go through a hash map.
///
/// ```
/// use adawave_grid::{CellTable, KeyCodec};
///
/// let codec = KeyCodec::new(&[16, 10]).unwrap();
/// let mut table = CellTable::new(&codec);
/// assert!(table.is_dense());
/// let a = codec.pack(&[3, 9]);
/// assert_eq!(table.insert(a, 7), None);
/// assert_eq!(table.insert(a, 2), Some(7));
/// assert_eq!(table.insert(codec.pack(&[15, 0]), 5), None);
/// assert_eq!(table.get(a), Some(2));
/// assert_eq!(table.get(codec.pack(&[0, 0])), None);
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Clone)]
pub struct CellTable {
    slots: Slots,
    len: usize,
}

#[derive(Clone)]
enum Slots {
    /// Slot `key` holds the key's value + 1, or 0 when absent.
    Dense(Vec<u32>),
    Hashed(HashMap<u128, usize>),
}

impl CellTable {
    /// The widest packed key that indexes a flat array: 2^22 `u32` slots,
    /// a table of at most 16 MiB. Every key of a wider codec is hashed.
    pub const DENSE_KEY_BITS: u32 = 22;

    /// An empty table for the keys of `codec`.
    pub fn new(codec: &KeyCodec) -> Self {
        Self::with_capacity(codec, 0)
    }

    /// An empty table for the keys of `codec`, with room for `capacity`
    /// keys on the hashed side (the array always fits every key).
    pub fn with_capacity(codec: &KeyCodec, capacity: usize) -> Self {
        let bits = codec.key_bits();
        let slots = if bits <= Self::DENSE_KEY_BITS {
            Slots::Dense(vec![0; 1 << bits])
        } else {
            Slots::Hashed(HashMap::with_capacity(capacity))
        };
        Self { slots, len: 0 }
    }

    /// Whether keys index a flat array (`true`) or go through the hash
    /// map.
    pub fn is_dense(&self) -> bool {
        matches!(self.slots, Slots::Dense(_))
    }

    /// The value of `key`, or `None` if it is absent (or lies outside the
    /// codec's keys).
    #[inline]
    pub fn get(&self, key: u128) -> Option<usize> {
        match &self.slots {
            Slots::Dense(slots) => {
                let slot = slots[dense_slot(key, slots.len())?];
                (slot != 0).then(|| slot as usize - 1)
            }
            Slots::Hashed(map) => map.get(&key).copied(),
        }
    }

    /// Set the value of `key`, returning its previous value.
    ///
    /// # Panics
    /// Panics on the dense side if `key` is wider than the codec's keys or
    /// `value` does not fit a slot (`u32::MAX - 1` at most); keys read from
    /// untrusted bytes are checked with [`KeyCodec::contains`] first.
    pub fn insert(&mut self, key: u128, value: usize) -> Option<usize> {
        let previous = match &mut self.slots {
            Slots::Dense(slots) => {
                let slot = slot_mut(slots, key);
                let previous = (*slot != 0).then(|| *slot as usize - 1);
                *slot = dense_value(value);
                previous
            }
            Slots::Hashed(map) => map.insert(key, value),
        };
        self.len += usize::from(previous.is_none());
        previous
    }

    /// The value of `key`, inserting `value` first if the key is absent:
    /// one probe to intern a key as the next index of a caller's list.
    ///
    /// # Panics
    /// As [`insert`](Self::insert).
    #[inline]
    pub fn get_or_insert(&mut self, key: u128, value: usize) -> usize {
        match &mut self.slots {
            Slots::Dense(slots) => {
                let slot = slot_mut(slots, key);
                if *slot == 0 {
                    *slot = dense_value(value);
                    self.len += 1;
                }
                *slot as usize - 1
            }
            Slots::Hashed(map) => *map.entry(key).or_insert_with(|| {
                self.len += 1;
                value
            }),
        }
    }

    /// Every `(key, value)` pair, in unspecified order: ascending keys on
    /// the dense side (a scan of the array), the hash map's order beyond.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u128, usize)> + '_> {
        match &self.slots {
            Slots::Dense(slots) => Box::new(
                (0u128..)
                    .zip(slots)
                    .filter(|&(_, &slot)| slot != 0)
                    .map(|(key, &slot)| (key, slot as usize - 1)),
            ),
            Slots::Hashed(map) => Box::new(map.iter().map(|(&key, &value)| (key, value))),
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The array slot of `key` in a dense table of `len` slots.
#[inline]
fn dense_slot(key: u128, len: usize) -> Option<usize> {
    (key < len as u128).then_some(key as usize)
}

/// The slot of `key` in a dense table, to be written.
#[inline]
fn slot_mut(slots: &mut [u32], key: u128) -> &mut u32 {
    let index = dense_slot(key, slots.len()).expect("cell key is wider than the table's codec");
    &mut slots[index]
}

/// The stored form of `value` in a dense slot: `value + 1`.
#[inline]
fn dense_value(value: usize) -> u32 {
    u32::try_from(value)
        .ok()
        .and_then(|v| v.checked_add(1))
        .expect("cell table value does not fit a u32 slot")
}

impl std::fmt::Debug for CellTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The dense array can hold 2^22 slots; print its shape, not them.
        f.debug_struct("CellTable")
            .field("dense", &self.is_dense())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::hash_reference::labels as reference_labels;
    use crate::lookup::hash_reference::assign_points;
    use crate::quantizer::hash_reference::count_keys;
    use crate::{connected_components, Connectivity, LookupTable, Quantizer, SparseGrid};
    use adawave_api::{PointMatrix, Precision};
    use adawave_runtime::Runtime;
    use proptest::prelude::*;

    /// A codec whose packed keys are exactly `bits` wide: one 7-interval
    /// (3-bit) dimension per three bits, the rest in a last dimension.
    fn codec_of_width(bits: u32) -> KeyCodec {
        let mut intervals = vec![7; (bits / 3) as usize];
        if !bits.is_multiple_of(3) {
            intervals.push((1 << (bits % 3)) - 1);
        }
        let codec = KeyCodec::new(&intervals).unwrap();
        assert_eq!(codec.key_bits(), bits);
        codec
    }

    #[test]
    fn side_follows_the_22_bit_cap() {
        // Spelled out rather than derived from the constant, so moving the
        // cap is a visible change here too.
        assert_eq!(CellTable::DENSE_KEY_BITS, 22);
        for (bits, dense) in [(1, true), (21, true), (22, true), (23, false), (40, false)] {
            let table = CellTable::new(&codec_of_width(bits));
            assert_eq!(table.is_dense(), dense, "{bits} bits");
        }
        let wide = KeyCodec::uniform(4, u32::MAX).unwrap();
        assert!(!CellTable::new(&wide).is_dense());
    }

    #[test]
    fn both_sides_map_keys_to_values() {
        for bits in [21, 22, 23] {
            let codec = codec_of_width(bits);
            let mut table = CellTable::new(&codec);
            let top = codec.pack(
                &codec
                    .all_intervals()
                    .iter()
                    .map(|&m| m - 1)
                    .collect::<Vec<_>>(),
            );
            assert_eq!(table.insert(top, 4), None, "{bits} bits");
            assert_eq!(table.insert(0, 0), None);
            assert_eq!(table.insert(top, 9), Some(4));
            assert_eq!(
                table.get_or_insert(0, 7),
                0,
                "the key 0 is present, not absent"
            );
            assert_eq!(table.get_or_insert(5, 7), 7);
            assert_eq!(table.len(), 3);
            assert_eq!(table.get(top), Some(9));
            assert_eq!(table.get(0), Some(0));
            assert_eq!(table.get(2), None);
            let mut pairs: Vec<_> = table.iter().collect();
            pairs.sort_unstable();
            assert_eq!(pairs, [(0, 0), (5, 7), (top, 9)]);
        }
    }

    #[test]
    fn lookups_outside_the_codec_are_absent_not_panics() {
        for bits in [22, 23] {
            let table = CellTable::new(&codec_of_width(bits));
            assert!(table.is_empty());
            for key in [1u128 << bits, 1 << 64, u128::MAX] {
                assert_eq!(table.get(key), None, "{bits} bits, key {key:x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than the table's codec")]
    fn inserting_a_key_wider_than_a_dense_codec_panics() {
        CellTable::new(&codec_of_width(10)).insert(1 << 10, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a u32 slot")]
    fn a_value_too_wide_for_a_dense_slot_panics() {
        CellTable::new(&codec_of_width(10)).insert(3, u32::MAX as usize);
    }

    /// A `splitmix64` stream: every random choice of a differential case.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Interval counts of a `dims`-dimensional codec whose keys are
    /// `width` bits wide, after `levels` downsamplings when `transformed`.
    /// Every dimension gets at least one bit, and a count of `b` bits is
    /// drawn from `(2^(b-1), 2^b]`, so most counts are not powers of two.
    fn intervals_of_width(
        draws: &mut Draws,
        dims: usize,
        width: u32,
        levels: u32,
        transformed: bool,
    ) -> Vec<u32> {
        let mut bits = vec![1u32; dims];
        for _ in dims as u32..width {
            bits[draws.below(dims as u64) as usize] += 1;
        }
        bits.iter()
            .map(|&b| {
                let half = 1u64 << (b - 1);
                let m = half + 1 + draws.below(half);
                let m = if transformed {
                    (m << levels) - draws.below(1 << levels)
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
    fn clustered_points(draws: &mut Draws, dims: usize) -> PointMatrix {
        let sites: Vec<(Vec<f64>, f64)> = (0..1 + draws.below(5))
            .map(|_| {
                let centre = (0..dims).map(|_| draws.unit()).collect();
                (centre, [0.0, 1e-6, 1e-2][draws.below(3) as usize])
            })
            .collect();
        let mut points = PointMatrix::new(dims);
        for _ in 0..1 + draws.below(600) {
            let row: Vec<f64> = if draws.below(10) < 7 {
                let (centre, jitter) = &sites[draws.below(sites.len() as u64) as usize];
                centre
                    .iter()
                    .map(|&c| c + jitter * (draws.unit() - 0.5))
                    .collect()
            } else {
                (0..dims).map(|_| draws.unit()).collect()
            };
            points.push_row(&row);
        }
        points
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `quantize_with`, `connected_components` and `assign_points`
        /// through the table equal the hash code they replaced, with the
        /// table's codec one bit below, at and one bit above the cap, on
        /// both lanes, at levels 0-2, under both connectivities and at 1
        /// and 4 threads.
        #[test]
        fn table_passes_match_the_hash_reference(seed in 0u64..u64::MAX) {
            let mut draws = Draws(seed);
            let dims = 1 + draws.below(6) as usize;
            let points = clustered_points(&mut draws, dims);
            let view = points.view();
            for width in [21, 22, 23] {
                for levels in 0..3 {
                    // Which codec the width applies to: the quantizer's,
                    // which counting indexes, or the transformed one,
                    // which labeling indexes.
                    let transformed = draws.below(2) == 1;
                    let intervals =
                        intervals_of_width(&mut draws, dims, width, levels, transformed);
                    let q = Quantizer::fit_with_intervals(view, &intervals).unwrap();
                    let down = q.codec().downsampled(levels).unwrap();
                    let indexed = if transformed { &down } else { q.codec() };
                    prop_assert_eq!(indexed.key_bits(), width);
                    let lane = q.f32_lane();
                    let connectivity = [Connectivity::Face, Connectivity::Moore][draws.below(2) as usize];
                    for f32_lane in [false, true] {
                        for threads in [1, 4] {
                            let rt = Runtime::with_threads(threads);
                            let context = format!(
                                "{intervals:?}, levels {levels}, f32 {f32_lane}, threads {threads}"
                            );
                            let (got, want) = if f32_lane {
                                let key = |p: &[f64]| q.cell_key_f32(&lane, p);
                                (q.quantize_f32_with(view, rt), count_keys(view, rt, key))
                            } else {
                                let key = |p: &[f64]| q.cell_key(p);
                                (q.quantize_with(view, rt), count_keys(view, rt, key))
                            };
                            let (want_grid, want_keys) = want;
                            let want = (want_grid.into_iter().collect::<SparseGrid>(), want_keys);
                            prop_assert!(got == want, "quantize: {}", context);
                            let (grid, keys) = got;
                            // The cell-index form: the same grid, cell for
                            // cell in the same order, and each point's
                            // index naming its own key's cell.
                            let precision = if f32_lane { Precision::F32 } else { Precision::F64 };
                            let (cell_grid, cells) = q.quantize_cells(view, precision, rt);
                            let listed: Vec<(u128, f64)> = cell_grid.iter().collect();
                            prop_assert_eq!(&listed, &grid.iter().collect::<Vec<_>>(), "cells: {}", context);
                            prop_assert_eq!(cells.len(), keys.len(), "cells: {}", context);
                            for (i, (&cell, &key)) in cells.iter().zip(&keys).enumerate() {
                                prop_assert_eq!(listed[cell as usize].0, key, "cells: {} row {}", context, i);
                            }
                            // Thresholded transformed grid: singleton cells
                            // go, so some points map to unlabeled cells.
                            let mut down_grid: SparseGrid = keys
                                .iter()
                                .map(|&key| (q.codec().remap(key, &down, levels, None), 1.0))
                                .collect();
                            down_grid.filter_below(2.0);
                            let labels = connected_components(&down_grid, &down, connectivity);
                            // The labels' table takes the side of their codec.
                            let dense = down.key_bits() <= CellTable::DENSE_KEY_BITS;
                            prop_assert!(
                                format!("{labels:?}").contains(&format!("dense: {dense}")),
                                "labels side: {}", context
                            );
                            let down_map: HashMap<u128, f64> = down_grid.iter().collect();
                            let reference = reference_labels(&down_map, &down, connectivity);
                            prop_assert_eq!(
                                &labels.iter().collect::<HashMap<_, _>>(),
                                &reference,
                                "labels: {}", context
                            );
                            let table = LookupTable::new(q.codec().clone(), keys);
                            prop_assert_eq!(
                                table.assign_points(&labels, levels, &down),
                                assign_points(&table, &reference, levels, &down),
                                "assign_points: {}", context
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn debug_prints_the_shape_not_the_slots() {
        let mut table = CellTable::new(&codec_of_width(22));
        table.insert(3, 0);
        assert_eq!(format!("{table:?}"), "CellTable { dense: true, len: 1 }");
    }
}
