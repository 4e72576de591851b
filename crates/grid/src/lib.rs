//! # adawave-grid
//!
//! The "grid labeling" data structure of the AdaWave paper (§IV-A).
//!
//! AdaWave quantizes the feature space into `M^d` grid cells but — unlike
//! the original WaveCluster — **only stores cells with non-zero density**.
//! A cell is identified by its integer coordinates in each dimension,
//! packed into a single 128-bit key, and the populated cells live in one
//! vector of `(key, density)` pairs. This keeps memory proportional to the
//! number of *occupied* cells rather than the full (exponential in `d`)
//! grid volume, which is what lets AdaWave run on relatively
//! high-dimensional data.
//!
//! The crate provides:
//!
//! * [`BoundingBox`] — axis-aligned bounds of a dataset.
//! * [`KeyCodec`] — packing/unpacking of per-dimension cell coordinates
//!   into a `u128` key.
//! * [`Quantizer`] — maps points to cells (Algorithm 2 of the paper);
//!   [`fill_row_keys`] is its parallel one-key-per-row pass.
//! * [`CellTable`] — packed keys → small integers: a flat array for keys of
//!   at most [`CellTable::DENSE_KEY_BITS`] bits, a hash map beyond. Every
//!   per-point count and lookup (quantization, labeling, model serving)
//!   goes through it.
//! * [`SparseGrid`] — the occupied cells as one `(key, density)` vector,
//!   with mass/density statistics and its canonical dump. Counting adds
//!   each point to its cell through a [`CellTable`]
//!   ([`SparseGrid::add_interned`]), which interns a new key as the grid's
//!   next cell.
//! * [`prune_to_top`] — the cell budget of the sparse wavelet transform,
//!   applied to a grid's cells as a flat `(key, density)` vector.
//! * [`Connectivity`] and [`connected_components`] — grouping of adjacent
//!   cells into clusters (step 4 of Algorithm 1) via union-find.
//! * [`LookupTable`] — mapping points ↔ cells across decomposition levels
//!   (step 5/6 of Algorithm 1).
//!
//! Points arrive as the flat row-major [`adawave_api::PointsView`], so
//! quantization walks one contiguous buffer:
//!
//! ```
//! use adawave_api::PointMatrix;
//! use adawave_grid::{Connectivity, Quantizer, connected_components};
//!
//! let points = PointMatrix::from_rows(vec![
//!     vec![0.1, 0.1], vec![0.12, 0.11], vec![0.9, 0.9], vec![0.88, 0.91],
//! ]).unwrap();
//! let quantizer = Quantizer::fit(points.view(), 8).unwrap();
//! let (grid, assignment) = quantizer.quantize(points.view());
//! assert_eq!(grid.occupied_cells(), 2);
//! let labels = connected_components(&grid, quantizer.codec(), Connectivity::Face);
//! assert_eq!(labels.cluster_count(), 2);
//! # let _ = assignment;
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bounds;
pub mod cells;
pub mod components;
pub mod key;
pub mod lookup;
pub mod neighbors;
pub mod quantizer;
pub mod sparse;

pub use bounds::BoundingBox;
pub use cells::CellTable;
pub use components::{connected_components, ComponentLabels, UnionFind};
pub use key::KeyCodec;
pub use lookup::LookupTable;
pub use neighbors::Connectivity;
pub use quantizer::{fill_row_keys, F32Lane, Quantizer};
pub use sparse::{prune_to_top, SparseGrid};

/// Errors produced by grid construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// The dataset is empty or has inconsistent dimensionality.
    InvalidData {
        /// Human-readable description.
        context: String,
    },
    /// The requested quantization does not fit in a 128-bit packed key.
    /// Reduce the number of intervals per dimension (the same practical
    /// limit the paper acknowledges for grid-based methods in high `d`).
    KeyOverflow {
        /// Dimensions of the data.
        dims: usize,
        /// Total bits required.
        bits_required: u32,
    },
    /// A scale (number of intervals) of zero was requested.
    ZeroScale,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::InvalidData { context } => write!(f, "invalid data: {context}"),
            GridError::KeyOverflow {
                dims,
                bits_required,
            } => write!(
                f,
                "grid key overflow: {dims} dimensions need {bits_required} bits (max 128); \
                 reduce the per-dimension scale"
            ),
            GridError::ZeroScale => write!(f, "scale (intervals per dimension) must be >= 1"),
        }
    }
}

impl std::error::Error for GridError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GridError>;
