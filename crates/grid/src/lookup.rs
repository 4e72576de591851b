//! Lookup table between the original and the transformed feature space
//! (Algorithm 1, steps 5–6: "make the lookup table and map objects to
//! clusters").
//!
//! The wavelet transform halves each dimension per decomposition level, so a
//! cell with coordinates `c` in the original quantized space corresponds to
//! the cell `c >> level` in the transformed space. The lookup table stores,
//! for every data point, the key of its original cell; mapping a point to a
//! cluster is then: original cell → transformed cell → cluster id.

use crate::{ComponentLabels, KeyCodec, Result};

/// Maps data points to grid cells across decomposition levels.
#[derive(Debug, Clone)]
pub struct LookupTable {
    /// Codec of the original (level-0) quantized space.
    original_codec: KeyCodec,
    /// For every point, the key of the original cell it was assigned to.
    point_cells: Vec<u128>,
}

impl LookupTable {
    /// Build a lookup table from the quantizer codec and the per-point cell
    /// assignment returned by [`Quantizer::quantize`](crate::Quantizer::quantize).
    pub fn new(original_codec: KeyCodec, point_cells: Vec<u128>) -> Self {
        Self {
            original_codec,
            point_cells,
        }
    }

    /// Number of points in the table.
    pub fn len(&self) -> usize {
        self.point_cells.len()
    }

    /// Whether the table holds no points.
    pub fn is_empty(&self) -> bool {
        self.point_cells.is_empty()
    }

    /// The codec of the original quantized space.
    pub fn original_codec(&self) -> &KeyCodec {
        &self.original_codec
    }

    /// The codec of the transformed space after `levels` decompositions.
    pub fn transformed_codec(&self, levels: u32) -> Result<KeyCodec> {
        self.original_codec.downsampled(levels)
    }

    /// Key of a point's original (level-0) cell.
    pub fn original_cell(&self, point: usize) -> u128 {
        self.point_cells[point]
    }

    /// Key of the cell a point falls into after `levels` decompositions,
    /// in the coordinate system of `transformed_codec(levels)`.
    pub fn transformed_cell(&self, point: usize, levels: u32, transformed: &KeyCodec) -> u128 {
        self.original_codec
            .remap(self.point_cells[point], transformed, levels, None)
    }

    /// Assign every point the cluster id of its transformed-space cell.
    /// Points whose cell was removed by denoising/thresholding get `None`
    /// (they are noise).
    pub fn assign_points(
        &self,
        labels: &ComponentLabels,
        levels: u32,
        transformed: &KeyCodec,
    ) -> Vec<Option<usize>> {
        let codec = &self.original_codec;
        self.point_cells
            .iter()
            .map(|&cell| labels.cluster_of(codec.remap(cell, transformed, levels, None)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connected_components, Connectivity, Quantizer, SparseGrid};

    #[test]
    fn transformed_cell_halves_coordinates() {
        let codec = KeyCodec::uniform(2, 16).unwrap();
        let cells = vec![codec.pack(&[6, 9]), codec.pack(&[15, 0])];
        let table = LookupTable::new(codec, cells);
        let t1 = table.transformed_codec(1).unwrap();
        assert_eq!(t1.unpack(table.transformed_cell(0, 1, &t1)), vec![3, 4]);
        assert_eq!(t1.unpack(table.transformed_cell(1, 1, &t1)), vec![7, 0]);
        let t2 = table.transformed_codec(2).unwrap();
        assert_eq!(t2.unpack(table.transformed_cell(0, 2, &t2)), vec![1, 2]);
    }

    #[test]
    fn level_zero_is_identity() {
        let codec = KeyCodec::uniform(3, 8).unwrap();
        let key = codec.pack(&[1, 2, 3]);
        let table = LookupTable::new(codec.clone(), vec![key]);
        let t0 = table.transformed_codec(0).unwrap();
        assert_eq!(table.transformed_cell(0, 0, &t0), key);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn assign_points_end_to_end() {
        // Two tight groups of points; cluster at level 0 and map back.
        let points = adawave_api::PointMatrix::from_rows(vec![
            vec![0.1, 0.1],
            vec![0.15, 0.12],
            vec![0.9, 0.95],
            vec![0.92, 0.9],
            vec![0.5, 0.5],
        ])
        .unwrap();
        let quantizer = Quantizer::fit(points.view(), 16).unwrap();
        let (grid, assignment) = quantizer.quantize(points.view());
        let table = LookupTable::new(quantizer.codec().clone(), assignment);

        // Remove the lone middle cell to simulate noise filtering.
        let mut filtered = grid.clone();
        let middle_key = quantizer.cell_key(&[0.5, 0.5]);
        filtered.remove(middle_key);

        let labels = connected_components(&filtered, quantizer.codec(), Connectivity::Face);
        let t0 = table.transformed_codec(0).unwrap();
        let point_labels = table.assign_points(&labels, 0, &t0);
        assert_eq!(point_labels.len(), 5);
        assert!(point_labels[0].is_some());
        assert_eq!(point_labels[0], point_labels[1]);
        assert_eq!(point_labels[2], point_labels[3]);
        assert_ne!(point_labels[0], point_labels[2]);
        assert_eq!(point_labels[4], None, "filtered cell becomes noise");
    }

    #[test]
    fn assign_points_after_downsampling() {
        // Build a grid at scale 8, downsample once (scale 4) and label in
        // the downsampled space.
        let points = adawave_api::PointMatrix::from_rows(vec![
            vec![0.05, 0.05],
            vec![0.10, 0.12],
            vec![0.95, 0.9],
        ])
        .unwrap();
        let quantizer = Quantizer::fit(points.view(), 8).unwrap();
        let (_, assignment) = quantizer.quantize(points.view());
        let table = LookupTable::new(quantizer.codec().clone(), assignment.clone());

        let down_codec = table.transformed_codec(1).unwrap();
        let mut down_grid = SparseGrid::new();
        for &cell in &assignment {
            down_grid.increment(quantizer.codec().remap(cell, &down_codec, 1, None));
        }
        let labels = connected_components(&down_grid, &down_codec, Connectivity::Face);
        let point_labels = table.assign_points(&labels, 1, &down_codec);
        assert_eq!(point_labels[0], point_labels[1]);
        assert_ne!(point_labels[0], point_labels[2]);
        assert!(point_labels.iter().all(|l| l.is_some()));
    }

    #[test]
    fn empty_table() {
        let codec = KeyCodec::uniform(2, 8).unwrap();
        let table = LookupTable::new(codec, vec![]);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }
}
