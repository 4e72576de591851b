//! Sparse per-dimension wavelet smoothing (Algorithm 3 of the paper).
//!
//! The dense WaveCluster transform convolves the full `M^d` grid; AdaWave
//! instead applies the same low-pass filter + downsample **directly on the
//! sparse `{key: density}` map** in scatter form: every occupied cell
//! contributes `kernel[t] · density` to the half-resolution output cell it
//! overlaps. The cost is `O(l · d · m)` for `m` occupied cells and a filter
//! of length `l`, independent of the dense grid volume — this is what makes
//! the paper's `O(nm)` total complexity and its memory frugality possible.

use adawave_grid::{KeyCodec, Result as GridResult, SparseGrid};
use adawave_wavelet::BoundaryMode;

/// Apply the low-pass filter along a single dimension of a sparse grid,
/// halving that dimension. The kernel is centered (offset `(l-1)/2`), so an
/// input coordinate `c` lands mainly in output coordinate `c >> 1`,
/// matching the lookup-table mapping used to label points later.
///
/// Returns the new grid together with the codec describing it.
pub fn sparse_lowpass_dimension(
    grid: &SparseGrid,
    codec: &KeyCodec,
    dim: usize,
    kernel: &[f64],
    boundary: BoundaryMode,
) -> GridResult<(SparseGrid, KeyCodec)> {
    let old_m = codec.intervals(dim);
    let new_m = old_m.div_ceil(2).max(1);
    let mut new_intervals: Vec<u32> = codec.all_intervals().to_vec();
    new_intervals[dim] = new_m;
    let new_codec = KeyCodec::new(&new_intervals)?;

    let offset = (kernel.len() as isize - 1) / 2;
    // Scatter in sorted-key order so each output cell accumulates its
    // floating-point contributions in a fixed sequence. Hash-map iteration
    // order differs per map instance, and for wavelets with irrational
    // taps (db2/db3) a different summation order rounds differently —
    // sorting makes the transform a pure function of the grid *content*,
    // which is what lets a streamed accumulator refit bit-identically to a
    // freshly quantized one (and two `fit` calls agree with each other).
    let mut entries: Vec<(u128, f64)> = grid.iter().collect();
    entries.sort_unstable_by_key(|&(key, _)| key);
    let mut out = SparseGrid::with_capacity(grid.occupied_cells());
    for (key, density) in entries {
        let c = codec.coordinate(key, dim) as isize;
        // Every other coordinate carries over unchanged, so re-encode the
        // key once with `dim` at 0 and OR each tap's output coordinate in.
        let base = codec.remap(key, &new_codec, 0, Some((dim, 0)));
        // Input index c appears at kernel tap t of output i when
        // 2i - offset + t = c  =>  i = (c + offset - t) / 2.
        for (t, &h) in kernel.iter().enumerate() {
            if h == 0.0 {
                continue;
            }
            let numerator = c + offset - t as isize;
            if boundary == BoundaryMode::Periodic {
                // Periodic extension wraps *input* coordinates, so reduce
                // modulo `old_m` before halving. Reducing modulo
                // `2 * new_m` instead — which equals `old_m + 1` when
                // `old_m` is odd — would send boundary mass to a phantom
                // input coordinate that does not exist on the ring.
                // `2i ≡ numerator (mod old_m)` has a solution with
                // `i < new_m` exactly when the wrapped position is even.
                let wrapped = numerator.rem_euclid(old_m as isize);
                if wrapped % 2 != 0 {
                    continue;
                }
                let i = (wrapped / 2) as u32;
                debug_assert!(i < new_m);
                out.add(base | new_codec.pack_coord(dim, i), h * density);
                continue;
            }
            // Zero boundary handling: out-of-range contributions (negative,
            // odd, or beyond the halved extent) are dropped.
            if numerator < 0 || numerator % 2 != 0 {
                continue;
            }
            let i = numerator / 2;
            if i >= new_m as isize {
                continue;
            }
            out.add(base | new_codec.pack_coord(dim, i as u32), h * density);
        }
    }
    Ok((out, new_codec))
}

/// One full decomposition level: smooth and halve every dimension in turn
/// (Algorithm 3). Returns the transformed grid and its codec.
pub fn sparse_wavelet_level(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
) -> GridResult<(SparseGrid, KeyCodec)> {
    sparse_wavelet_level_budgeted(grid, codec, kernel, boundary, usize::MAX)
}

/// [`sparse_wavelet_level`] with a cap on the number of occupied cells kept
/// after each per-dimension pass.
///
/// The scatter of an `l`-tap kernel can multiply the number of occupied
/// cells by up to `ceil(l/2) + 1` once per dimension, which in high
/// dimensions turns a sparse grid into an exponentially large one. After
/// each dimension the lowest-magnitude cells beyond `cell_budget` are
/// discarded; the densest cells — the ones the clustering step keeps anyway —
/// always survive. Pass `usize::MAX` to disable the guard.
pub fn sparse_wavelet_level_budgeted(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    cell_budget: usize,
) -> GridResult<(SparseGrid, KeyCodec)> {
    let mut current = grid.clone();
    let mut current_codec = codec.clone();
    for dim in 0..codec.dims() {
        let (mut next, next_codec) =
            sparse_lowpass_dimension(&current, &current_codec, dim, kernel, boundary)?;
        if next.occupied_cells() > cell_budget {
            next.prune_to_top(cell_budget);
        }
        current = next;
        current_codec = next_codec;
    }
    Ok((current, current_codec))
}

/// Apply `levels` full decomposition levels.
pub fn sparse_wavelet_smooth(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    levels: u32,
) -> GridResult<(SparseGrid, KeyCodec)> {
    sparse_wavelet_smooth_budgeted(grid, codec, kernel, boundary, levels, usize::MAX)
}

/// [`sparse_wavelet_smooth`] with the per-dimension cell budget of
/// [`sparse_wavelet_level_budgeted`].
pub fn sparse_wavelet_smooth_budgeted(
    grid: &SparseGrid,
    codec: &KeyCodec,
    kernel: &[f64],
    boundary: BoundaryMode,
    levels: u32,
    cell_budget: usize,
) -> GridResult<(SparseGrid, KeyCodec)> {
    let mut current = grid.clone();
    let mut current_codec = codec.clone();
    for _ in 0..levels {
        let (next, next_codec) =
            sparse_wavelet_level_budgeted(&current, &current_codec, kernel, boundary, cell_budget)?;
        current = next;
        current_codec = next_codec;
    }
    Ok((current, current_codec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_wavelet::Wavelet;

    fn kernel() -> Vec<f64> {
        Wavelet::Cdf22.density_smoothing_kernel()
    }

    #[test]
    fn single_dimension_halves_coordinates() {
        let codec = KeyCodec::uniform(1, 16).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[10]), 4.0);
        let (out, out_codec) =
            sparse_lowpass_dimension(&grid, &codec, 0, &kernel(), BoundaryMode::Zero).unwrap();
        assert_eq!(out_codec.intervals(0), 8);
        // The dominant contribution of input 10 is output 5.
        let mut best = (0u32, f64::MIN);
        for (k, v) in out.iter() {
            if v > best.1 {
                best = (out_codec.coordinate(k, 0), v);
            }
        }
        assert_eq!(best.0, 5);
    }

    #[test]
    fn level_halves_every_dimension() {
        let codec = KeyCodec::new(&[16, 8, 4]).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[3, 3, 3]), 1.0);
        let (_, out_codec) =
            sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        assert_eq!(out_codec.all_intervals(), &[8, 4, 2]);
    }

    #[test]
    fn dense_block_keeps_its_level_and_aligns_with_halved_coords() {
        // An 8x8 block of density 10 at [16..24)^2 in a 32x32 grid maps to
        // [8..12)^2 after one level, with interior density preserved.
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let mut grid = SparseGrid::new();
        for x in 16..24u32 {
            for y in 16..24u32 {
                grid.add(codec.pack(&[x, y]), 10.0);
            }
        }
        let (out, out_codec) =
            sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        assert_eq!(out_codec.all_intervals(), &[16, 16]);
        let interior = out.density(out_codec.pack(&[10, 10]));
        assert!((interior - 10.0).abs() < 1e-9, "interior {interior}");
        let far_away = out.density(out_codec.pack(&[4, 4]));
        assert!(far_away.abs() < 1e-9);
    }

    #[test]
    fn isolated_noise_cell_is_attenuated_relative_to_blocks() {
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut grid = SparseGrid::new();
        // Dense 4x4 block of 5s and one isolated cell of 5.
        for x in 10..14u32 {
            for y in 10..14u32 {
                grid.add(codec.pack(&[x, y]), 5.0);
            }
        }
        grid.add(codec.pack(&[40, 40]), 5.0);
        let (out, out_codec) =
            sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        let block_center = out.density(out_codec.pack(&[6, 6]));
        let noise = out.density(out_codec.pack(&[20, 20]));
        assert!(
            block_center > 2.0 * noise,
            "block {block_center} vs noise {noise}"
        );
    }

    #[test]
    fn density_level_is_preserved_and_mass_scales_with_downsampling() {
        // A unit-sum kernel preserves the *density level* of a flat block;
        // since every dimension is halved, the total mass of the block drops
        // by roughly 2^d (modulo edge effects).
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut grid = SparseGrid::new();
        for x in 20..28u32 {
            for y in 20..28u32 {
                grid.add(codec.pack(&[x, y]), 3.0);
            }
        }
        let before = grid.total_mass();
        let (out, out_codec) =
            sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        let after = out.total_mass();
        assert!(
            after > 0.15 * before && after < 0.4 * before,
            "mass {before} -> {after} (expected ~1/4)"
        );
        // Interior density level is unchanged.
        let interior = out.density(out_codec.pack(&[12, 12]));
        assert!((interior - 3.0).abs() < 1e-9, "interior {interior}");
    }

    #[test]
    fn multi_level_reduces_resolution_geometrically() {
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[32, 32]), 1.0);
        let (_, c1) =
            sparse_wavelet_smooth(&grid, &codec, &kernel(), BoundaryMode::Zero, 1).unwrap();
        let (_, c3) =
            sparse_wavelet_smooth(&grid, &codec, &kernel(), BoundaryMode::Zero, 3).unwrap();
        assert_eq!(c1.all_intervals(), &[32, 32]);
        assert_eq!(c3.all_intervals(), &[8, 8]);
    }

    #[test]
    fn occupied_cells_stay_proportional_to_input_cells() {
        // Sparsity: the output never has more than (kernel support) times
        // the input cells, far below the dense grid volume.
        let codec = KeyCodec::uniform(3, 64).unwrap();
        let mut grid = SparseGrid::new();
        let mut state = 12345u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) as u32 % 64;
            let y = (state >> 22) as u32 % 64;
            let z = (state >> 11) as u32 % 64;
            grid.add(codec.pack(&[x, y, z]), 1.0);
        }
        let (out, _) = sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        assert!(out.occupied_cells() <= grid.occupied_cells() * 27);
        assert!(out.occupied_cells() < 64 * 64 * 64 / 8);
    }

    #[test]
    fn cell_budget_keeps_the_densest_cells_and_bounds_memory() {
        // A dense 6x6 block plus many isolated unit cells: with a tight
        // budget only the neighbourhood of the block survives.
        let codec = KeyCodec::uniform(2, 64).unwrap();
        let mut grid = SparseGrid::new();
        for x in 10..16u32 {
            for y in 10..16u32 {
                grid.add(codec.pack(&[x, y]), 20.0);
            }
        }
        let mut state = 99u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = 32 + (state >> 33) as u32 % 32;
            let y = 32 + (state >> 22) as u32 % 32;
            grid.add(codec.pack(&[x, y]), 1.0);
        }
        let budget = 16;
        let (out, out_codec) =
            sparse_wavelet_level_budgeted(&grid, &codec, &kernel(), BoundaryMode::Zero, budget)
                .unwrap();
        assert!(out.occupied_cells() <= budget);
        // The interior of the block survives at full density.
        let interior = out.density(out_codec.pack(&[6, 6]));
        assert!(interior > 10.0, "interior {interior}");
    }

    #[test]
    fn unlimited_budget_matches_the_unbudgeted_transform() {
        let codec = KeyCodec::uniform(2, 32).unwrap();
        let mut grid = SparseGrid::new();
        for x in 4..12u32 {
            for y in 4..12u32 {
                grid.add(codec.pack(&[x, y]), (x + y) as f64);
            }
        }
        let plain = sparse_wavelet_level(&grid, &codec, &kernel(), BoundaryMode::Zero).unwrap();
        let budgeted =
            sparse_wavelet_level_budgeted(&grid, &codec, &kernel(), BoundaryMode::Zero, usize::MAX)
                .unwrap();
        assert_eq!(plain.0, budgeted.0);
    }

    #[test]
    fn periodic_boundary_wraps_contributions() {
        // Use the Haar kernel (non-negative taps) so total mass is a valid
        // proxy for "contributions kept": with periodic wrapping no tap of a
        // boundary cell is dropped, with zero padding some are.
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let codec = KeyCodec::uniform(1, 8).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[0]), 1.0);
        grid.add(codec.pack(&[7]), 1.0);
        let zero = sparse_lowpass_dimension(&grid, &codec, 0, &haar, BoundaryMode::Zero)
            .unwrap()
            .0;
        let periodic = sparse_lowpass_dimension(&grid, &codec, 0, &haar, BoundaryMode::Periodic)
            .unwrap()
            .0;
        assert!(periodic.total_mass() >= zero.total_mass() - 1e-12);

        // With a wider kernel that has negative taps the periodic transform
        // must still produce at least as many occupied cells near the edges.
        let zero = sparse_lowpass_dimension(&grid, &codec, 0, &kernel(), BoundaryMode::Zero)
            .unwrap()
            .0;
        let periodic =
            sparse_lowpass_dimension(&grid, &codec, 0, &kernel(), BoundaryMode::Periodic)
                .unwrap()
                .0;
        assert!(periodic.occupied_cells() >= zero.occupied_cells());
    }

    #[test]
    fn periodic_wrap_on_odd_dimension_reaches_the_last_cell_not_a_phantom() {
        // Regression for the negative-numerator wrap branch: with
        // `old_m = 7` (odd), `new_m = 4` and the Haar kernel
        // `[0.5, 0.5]` (offset 0), the cell at input coordinate 0 feeds
        // output 0 (tap 0) and — through the periodic wrap `-1 ≡ 6
        // (mod 7)` — output 3 (tap 1): `output[3] = (in[6] + in[7 mod 7 =
        // 0]) / 2`. The old code reduced modulo `2 * new_m = 8`, landing
        // the wrap on the phantom input coordinate 7 and dropping it.
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let codec = KeyCodec::new(&[7]).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[0]), 1.0);
        let (out, out_codec) =
            sparse_lowpass_dimension(&grid, &codec, 0, &haar, BoundaryMode::Periodic).unwrap();
        assert_eq!(out_codec.intervals(0), 4);
        assert!((out.density(out_codec.pack(&[0])) - 0.5).abs() < 1e-15);
        assert!((out.density(out_codec.pack(&[3])) - 0.5).abs() < 1e-15);
        assert!((out.total_mass() - 1.0).abs() < 1e-15, "no tap was lost");
    }

    #[test]
    fn periodic_wrap_on_odd_dimension_matches_direct_convolution() {
        // Regression for the overflowing-index wrap branch: with the
        // 5-tap CDF(2,2) kernel (offset 2) over `old_m = 7`, the cell at
        // input coordinate 6 produces `numerator = 8` at tap 0 — the old
        // code wrapped the *output* index modulo `new_m`, adding a
        // spurious `-0.125` at output 0. The direct periodic convolution
        // `output[i] = Σ_t h[t] · input[(2i + t - 2) mod 7]` says input 6
        // feeds exactly outputs {0: 0.25, 2: -0.125, 3: 0.75}.
        let codec = KeyCodec::new(&[7]).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[6]), 1.0);
        let (out, out_codec) =
            sparse_lowpass_dimension(&grid, &codec, 0, &kernel(), BoundaryMode::Periodic).unwrap();
        let expected = [(0u32, 0.25), (2, -0.125), (3, 0.75)];
        assert_eq!(out.occupied_cells(), expected.len());
        for (coord, value) in expected {
            let got = out.density(out_codec.pack(&[coord]));
            assert!((got - value).abs() < 1e-15, "output {coord}: {got}");
        }
        // Exhaustive cross-check over every input cell of the odd ring:
        // scatter output == gather (direct convolution) output.
        for c in 0..7u32 {
            let mut grid = SparseGrid::new();
            grid.add(codec.pack(&[c]), 1.0);
            let (out, out_codec) =
                sparse_lowpass_dimension(&grid, &codec, 0, &kernel(), BoundaryMode::Periodic)
                    .unwrap();
            let k = kernel();
            for i in 0..4u32 {
                let direct: f64 = k
                    .iter()
                    .enumerate()
                    .map(|(t, &h)| {
                        let pos = (2 * i as i64 + t as i64 - 2).rem_euclid(7);
                        if pos == c as i64 {
                            h
                        } else {
                            0.0
                        }
                    })
                    .sum();
                let got = out.density(out_codec.pack(&[i]));
                assert!(
                    (got - direct).abs() < 1e-15,
                    "input {c} output {i}: scatter {got} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn haar_kernel_gives_exact_pairwise_average() {
        let codec = KeyCodec::uniform(1, 8).unwrap();
        let mut grid = SparseGrid::new();
        grid.add(codec.pack(&[2]), 4.0);
        grid.add(codec.pack(&[3]), 6.0);
        let haar = Wavelet::Haar.density_smoothing_kernel();
        let (out, out_codec) =
            sparse_lowpass_dimension(&grid, &codec, 0, &haar, BoundaryMode::Zero).unwrap();
        assert!((out.density(out_codec.pack(&[1])) - 5.0).abs() < 1e-12);
    }
}
