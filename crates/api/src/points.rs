//! The flat, row-major point-matrix data layer shared by every crate.
//!
//! Historically the workspace passed points as `&[Vec<f64>]`, paying one
//! heap allocation plus one pointer indirection per point in every distance
//! and quantization kernel. [`PointMatrix`] stores an `n x d` point set as
//! one contiguous row-major `Vec<f64>`, and [`PointsView`] is the zero-copy
//! borrowed form every `fit` takes: rows are contiguous (`row(i)` is a
//! plain subslice), iteration is a pointer walk over one buffer, and
//! downstream layers can `chunks_exact(dims)` the whole dataset at once.
//!
//! Nested `Vec<Vec<f64>>` survives only at ingestion boundaries — convert
//! it once with [`PointMatrix::from_rows`]:
//!
//! ```
//! use adawave_api::PointMatrix;
//!
//! let matrix = PointMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
//! assert_eq!(matrix.len(), 2);
//! assert_eq!(matrix.dims(), 2);
//! assert_eq!(matrix.row(1), &[2.0, 3.0]);
//! let view = matrix.view(); // what `Clusterer::fit` takes
//! assert_eq!(view.rows().count(), 2);
//! ```

use crate::ClusterError;

/// An owned `n x d` point set in one contiguous row-major buffer.
///
/// Every row has exactly [`dims`](Self::dims) coordinates; the invariant
/// `data.len() == len * dims` holds at all times, so the matrix can never
/// be ragged. Zero-dimensional rows are representable (`dims == 0` with a
/// positive row count) so degenerate inputs stay expressible, but every
/// clustering entry point rejects them as invalid input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointMatrix {
    data: Vec<f64>,
    dims: usize,
    len: usize,
}

impl PointMatrix {
    /// An empty matrix of `dims`-dimensional points.
    pub fn new(dims: usize) -> Self {
        Self {
            data: Vec::new(),
            dims,
            len: 0,
        }
    }

    /// An empty matrix with room for `rows` points of `dims` coordinates.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(dims.saturating_mul(rows)),
            dims,
            len: 0,
        }
    }

    /// Convert a nested point list into a flat matrix (the one ingestion
    /// path for `Vec<Vec<f64>>` data). The dimensionality is taken from the
    /// first row; an empty list yields an empty 0-dimensional matrix.
    ///
    /// Returns [`ClusterError::InvalidInput`] if the rows are ragged.
    ///
    /// ```
    /// use adawave_api::PointMatrix;
    ///
    /// let matrix = PointMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
    /// assert_eq!((matrix.len(), matrix.dims()), (2, 2));
    /// assert_eq!(matrix.row(1), &[2.0, 3.0]);
    /// // Ragged input is a typed error, not a panic.
    /// assert!(PointMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0]]).is_err());
    /// ```
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, ClusterError> {
        let dims = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(dims * rows.len());
        let len = rows.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dims {
                return Err(ClusterError::InvalidInput {
                    context: format!(
                        "ragged point set: row {i} has {} coordinates, expected {dims}",
                        row.len()
                    ),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { data, dims, len })
    }

    /// Wrap an already-flat row-major buffer.
    ///
    /// Returns [`ClusterError::InvalidInput`] if `data.len()` is not a
    /// multiple of `dims` (or if `dims == 0` while data is non-empty).
    pub fn from_flat(data: Vec<f64>, dims: usize) -> Result<Self, ClusterError> {
        if dims == 0 {
            if !data.is_empty() {
                return Err(ClusterError::InvalidInput {
                    context: format!(
                        "{} coordinates cannot form 0-dimensional points",
                        data.len()
                    ),
                });
            }
            return Ok(Self { data, dims, len: 0 });
        }
        if !data.len().is_multiple_of(dims) {
            return Err(ClusterError::InvalidInput {
                context: format!(
                    "{} coordinates do not divide into {dims}-dimensional rows",
                    data.len()
                ),
            });
        }
        let len = data.len() / dims;
        Ok(Self { data, dims, len })
    }

    /// Number of points (rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of coordinates per point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.len,
            "row index {i} out of bounds (len {})",
            self.len
        );
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Mutable access to row `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.len,
            "row index {i} out of bounds (len {})",
            self.len
        );
        &mut self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> Rows<'_> {
        self.view().rows()
    }

    /// Borrow the whole matrix as a zero-copy [`PointsView`].
    pub fn view(&self) -> PointsView<'_> {
        PointsView {
            data: &self.data,
            dims: self.dims,
            len: self.len,
        }
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Append one point.
    ///
    /// # Panics
    /// Panics if `row.len() != dims()` (programming error).
    #[inline]
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dims,
            "push_row: {}-dimensional row into a {}-dimensional matrix",
            row.len(),
            self.dims
        );
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Parse one CSV line straight into a new last row with
    /// [`scan_row`](crate::scan_row) and return the line's field count.
    /// An empty *dimensionless* matrix adopts that count as its width, as
    /// in [`append`](Self::append). A line of any other width than
    /// [`dims`](Self::dims), or with a field that is not a number, leaves
    /// the matrix unchanged.
    ///
    /// ```
    /// use adawave_api::PointMatrix;
    ///
    /// let mut m = PointMatrix::new(0);
    /// assert_eq!(m.push_csv_row("1.5, 2"), Ok(2));
    /// assert_eq!(m.push_csv_row("3"), Ok(1)); // wrong width: not kept
    /// assert!(m.push_csv_row("3,x").is_err());
    /// assert_eq!((m.len(), m.dims()), (1, 2));
    /// ```
    pub fn push_csv_row<'a>(&mut self, line: &'a str) -> Result<usize, crate::BadField<'a>> {
        let found = crate::scan_row(line, &mut self.data)?;
        if self.len == 0 && self.dims == 0 {
            self.dims = found;
        }
        if found == self.dims {
            self.len += 1;
        } else {
            self.data.truncate(self.data.len() - found);
        }
        Ok(found)
    }

    /// Append every row of `other`. An empty *dimensionless* matrix
    /// (`dims == 0`, no rows — e.g. `from_rows(vec![])`) adopts the
    /// other's dimensionality; an empty matrix with a declared width keeps
    /// it, so appending the wrong width is caught here rather than at a
    /// later `push_row`.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ (after adoption).
    pub fn append(&mut self, other: &PointMatrix) {
        if self.len == 0 && self.dims == 0 {
            self.dims = other.dims;
        }
        assert_eq!(self.dims, other.dims, "append: dimension mismatch");
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        assert!(i < self.len && j < self.len, "swap_rows out of bounds");
        if i == j {
            return;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = self.data.split_at_mut(hi * self.dims);
        head[lo * self.dims..(lo + 1) * self.dims].swap_with_slice(&mut tail[..self.dims]);
    }

    /// Reverse the row order in place.
    pub fn reverse_rows(&mut self) {
        let n = self.len;
        for i in 0..n / 2 {
            self.swap_rows(i, n - 1 - i);
        }
    }

    /// Gather the given rows into a new matrix (used by subsampling).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointMatrix {
        let mut out = PointMatrix::with_capacity(self.dims, indices.len());
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Convert back to a nested point list (test-fixture boundary only).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }
}

impl std::ops::Index<usize> for PointMatrix {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl FromIterator<Vec<f64>> for PointMatrix {
    /// Collect rows into a matrix.
    ///
    /// # Panics
    /// Panics if the rows are ragged; use [`PointMatrix::from_rows`] for a
    /// fallible conversion.
    fn from_iter<I: IntoIterator<Item = Vec<f64>>>(iter: I) -> Self {
        let mut out: Option<PointMatrix> = None;
        for row in iter {
            out.get_or_insert_with(|| PointMatrix::new(row.len()))
                .push_row(&row);
        }
        out.unwrap_or_default()
    }
}

/// A zero-copy borrowed view of an `n x d` row-major point set — the input
/// type of every [`Clusterer::fit`](crate::Clusterer::fit) in the
/// workspace. `Copy`, so it can be passed around freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointsView<'a> {
    data: &'a [f64],
    dims: usize,
    len: usize,
}

impl<'a> PointsView<'a> {
    /// View a flat row-major buffer as `dims`-dimensional points.
    ///
    /// Returns [`ClusterError::InvalidInput`] under the same conditions as
    /// [`PointMatrix::from_flat`].
    pub fn from_flat(data: &'a [f64], dims: usize) -> Result<Self, ClusterError> {
        if dims == 0 {
            if !data.is_empty() {
                return Err(ClusterError::InvalidInput {
                    context: format!(
                        "{} coordinates cannot form 0-dimensional points",
                        data.len()
                    ),
                });
            }
            return Ok(Self { data, dims, len: 0 });
        }
        if !data.len().is_multiple_of(dims) {
            return Err(ClusterError::InvalidInput {
                context: format!(
                    "{} coordinates do not divide into {dims}-dimensional rows",
                    data.len()
                ),
            });
        }
        Ok(Self {
            data,
            dims,
            len: data.len() / dims,
        })
    }

    /// Number of points (rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of coordinates per point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(
            i < self.len,
            "row index {i} out of bounds (len {})",
            self.len
        );
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> Rows<'a> {
        if self.dims == 0 {
            Rows {
                chunks: [].chunks_exact(1),
                empty_rows: self.len,
            }
        } else {
            Rows {
                chunks: self.data.chunks_exact(self.dims),
                empty_rows: 0,
            }
        }
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Copy the viewed rows into an owned [`PointMatrix`].
    pub fn to_matrix(&self) -> PointMatrix {
        PointMatrix {
            data: self.data.to_vec(),
            dims: self.dims,
            len: self.len,
        }
    }

    /// Gather the given rows into a new owned matrix.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointMatrix {
        let mut out = PointMatrix::with_capacity(self.dims, indices.len());
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }
}

impl<'a> From<&'a PointMatrix> for PointsView<'a> {
    fn from(matrix: &'a PointMatrix) -> Self {
        matrix.view()
    }
}

impl std::ops::Index<usize> for PointsView<'_> {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

/// Iterator over the rows of a [`PointMatrix`] / [`PointsView`].
///
/// Backed by [`std::slice::ChunksExact`] (the optimizer-friendly way to
/// walk a flat row-major buffer); `empty_rows` carries the degenerate
/// `dims == 0` case, where every row is the empty slice.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    chunks: std::slice::ChunksExact<'a, f64>,
    empty_rows: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [f64];

    #[inline]
    fn next(&mut self) -> Option<&'a [f64]> {
        if self.empty_rows > 0 {
            self.empty_rows -= 1;
            return Some(&[]);
        }
        self.chunks.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.chunks.len() + self.empty_rows;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> DoubleEndedIterator for Rows<'a> {
    fn next_back(&mut self) -> Option<&'a [f64]> {
        if self.empty_rows > 0 {
            self.empty_rows -= 1;
            return Some(&[]);
        }
        self.chunks.next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = PointMatrix::from_rows(rows.clone()).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.dims(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn from_rows_empty_and_zero_dimensional() {
        let m = PointMatrix::from_rows(vec![]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.dims(), 0);
        // Zero-dimensional rows are representable (and later rejected by fit).
        let m = PointMatrix::from_rows(vec![vec![], vec![], vec![]]).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.dims(), 0);
        assert_eq!(m.row(1), &[] as &[f64]);
        assert_eq!(m.rows().count(), 3);
    }

    #[test]
    fn from_flat_checks_divisibility() {
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(m.len(), 2);
        assert!(PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0], 0).is_err());
        assert!(PointsView::from_flat(&[1.0, 2.0, 3.0], 2).is_err());
        let v = PointsView::from_flat(&[1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn push_append_swap_reverse_select() {
        let mut m = PointMatrix::new(2);
        m.push_row(&[0.0, 0.0]);
        m.push_row(&[1.0, 1.0]);
        m.push_row(&[2.0, 2.0]);
        assert_eq!(m.len(), 3);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[2.0, 2.0]);
        m.reverse_rows();
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[2.0, 2.0]);
        let sel = m.select(&[2, 0]);
        assert_eq!(sel.to_rows(), vec![vec![2.0, 2.0], vec![0.0, 0.0]]);
        let mut other = PointMatrix::new(0);
        other.append(&m);
        assert_eq!(other.dims(), 2);
        assert_eq!(other.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn append_rejects_width_mismatch_even_when_empty() {
        // An empty matrix with a *declared* width keeps it: appending 1-D
        // rows into an empty 2-D matrix is a mistake caught here, not at a
        // later push_row.
        let mut m = PointMatrix::new(2);
        let other = PointMatrix::from_rows(vec![vec![1.0]]).unwrap();
        m.append(&other);
    }

    #[test]
    #[should_panic(expected = "push_row")]
    fn push_row_rejects_wrong_dims() {
        PointMatrix::new(2).push_row(&[1.0]);
    }

    #[test]
    fn view_and_iteration_match_rows() {
        let m = PointMatrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let v = m.view();
        assert_eq!(v.len(), 3);
        assert_eq!(v.dims(), 1);
        let collected: Vec<&[f64]> = v.rows().collect();
        assert_eq!(collected, vec![&[1.0][..], &[2.0][..], &[3.0][..]]);
        // Reverse iteration and indexing agree.
        let back: Vec<f64> = v.rows().rev().map(|r| r[0]).collect();
        assert_eq!(back, vec![3.0, 2.0, 1.0]);
        assert_eq!(&m[1], &[2.0][..]);
        assert_eq!(&v[1], &[2.0][..]);
        assert_eq!(v.to_matrix(), m);
        assert_eq!(PointsView::from(&m), v);
        assert_eq!(v.rows().len(), 3);
    }

    #[test]
    fn collects_from_row_iterator() {
        let m: PointMatrix = (0..4).map(|i| vec![i as f64, 0.0]).collect();
        assert_eq!(m.len(), 4);
        assert_eq!(m.dims(), 2);
        let empty: PointMatrix = std::iter::empty::<Vec<f64>>().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn mutation_through_row_mut() {
        let mut m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.row(1), &[9.0, 4.0]);
        m.as_mut_slice()[0] = -1.0;
        assert_eq!(m.row(0), &[-1.0, 2.0]);
    }
}
