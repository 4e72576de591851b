//! Single-level 1-D discrete wavelet analysis (one step of the Mallat
//! pyramid, Fig. 3 of the paper).

use crate::{BoundaryMode, FilterBank};

/// Single-level analysis: split `signal` into (approximation, detail)
/// coefficient vectors, each of length `ceil(n / 2)`.
///
/// `a[i] = Σ_t dec_lo[t] · x[2i + t]` and
/// `d[i] = Σ_t dec_hi[t] · x[2i + t]`, with out-of-range samples supplied by
/// the chosen [`BoundaryMode`].
///
/// # Panics
/// Panics if `signal` is empty.
pub fn dwt1d(signal: &[f64], bank: &FilterBank, mode: BoundaryMode) -> (Vec<f64>, Vec<f64>) {
    assert!(!signal.is_empty(), "dwt1d: empty signal");
    (
        filter_downsample(signal, bank.dec_lo(), 0, mode),
        filter_downsample(signal, bank.dec_hi(), 0, mode),
    )
}

/// Centered low-pass smoothing + downsample by two.
///
/// Unlike the analysis filters of [`dwt1d`] (the causal filter phase of the
/// Mallat recursion), the kernel here is centred on the retained sample:
/// `out[i] = Σ_t kernel[t] · x[2i + t - (len-1)/2]`. This keeps cell `c` of
/// a quantized grid aligned with cell `c >> 1` of the smoothed grid, which
/// is what the grid-clustering lookup tables assume.
///
/// # Panics
/// Panics if `signal` is empty.
pub fn smooth_downsample(signal: &[f64], kernel: &[f64], mode: BoundaryMode) -> Vec<f64> {
    assert!(!signal.is_empty(), "smooth_downsample: empty signal");
    let offset = (kernel.len() as isize - 1) / 2;
    filter_downsample(signal, kernel, offset, mode)
}

/// `out[i] = Σ_t taps[t] · x[2i + t - offset]` for `i < ceil(n / 2)`,
/// summed in ascending tap order from `0.0`.
fn filter_downsample(signal: &[f64], taps: &[f64], offset: isize, mode: BoundaryMode) -> Vec<f64> {
    (0..signal.len().div_ceil(2))
        .map(|i| {
            let base = 2 * i as isize - offset;
            let mut sum = 0.0;
            for (t, &h) in taps.iter().enumerate() {
                sum += h * mode.sample(signal, base + t as isize);
            }
            sum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wavelet;

    #[test]
    fn haar_of_constant_signal_has_zero_detail() {
        let signal = vec![5.0; 8];
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Periodic);
        assert_eq!(a.len(), 4);
        assert!(d.iter().all(|&x| x.abs() < 1e-12));
        // Approximation of a constant is the constant times sqrt(2).
        for &c in &a {
            assert!((c - 5.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        }
    }

    #[test]
    fn haar_known_coefficients() {
        let signal = vec![1.0, 3.0, 2.0, 8.0];
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Periodic);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((a[0] - (1.0 + 3.0) * s).abs() < 1e-12);
        assert!((a[1] - (2.0 + 8.0) * s).abs() < 1e-12);
        assert!((d[0] - (1.0 - 3.0) * s).abs() < 1e-12);
        assert!((d[1] - (2.0 - 8.0) * s).abs() < 1e-12);
    }

    #[test]
    fn energy_conservation_orthogonal() {
        let signal: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() * 2.0 + 1.0)
            .collect();
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies3] {
            let bank = w.filter_bank();
            let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Periodic);
            let sig_e: f64 = signal.iter().map(|x| x * x).sum();
            let coeff_e: f64 = a.iter().chain(d.iter()).map(|x| x * x).sum();
            assert!(
                (sig_e - coeff_e).abs() < 1e-8 * sig_e,
                "{w}: {sig_e} vs {coeff_e}"
            );
        }
    }

    #[test]
    fn odd_length_signal_produces_half_rounded_up() {
        let signal = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Zero);
        assert_eq!(a.len(), 3);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn cdf22_lowpass_smooths_impulse_noise() {
        // A unit impulse (isolated noisy grid) spreads and shrinks: the
        // de-noising behaviour the paper relies on. A flat dense block
        // keeps its level (`smooth_downsample_preserves_flat_signal`).
        let mut impulse = vec![0.0; 16];
        impulse[7] = 1.0;
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let smoothed = smooth_downsample(&impulse, &kernel, BoundaryMode::Zero);
        let max_after = smoothed.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max_after < 1.0,
            "impulse should be attenuated, got {max_after}"
        );
    }

    #[test]
    fn smooth_downsample_is_phase_aligned() {
        // A spike at even index c should produce its maximum response at
        // output index c / 2 when the kernel is centered.
        let mut signal = vec![0.0; 32];
        signal[20] = 1.0;
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = smooth_downsample(&signal, &kernel, BoundaryMode::Zero);
        let argmax = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmax, 10);
    }

    #[test]
    fn smooth_downsample_preserves_flat_signal() {
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        for (level, len) in [(2.0, 20), (1.0, 16)] {
            let out = smooth_downsample(&vec![level; len], &kernel, BoundaryMode::Periodic);
            assert_eq!(out.len(), len / 2);
            for &v in &out {
                assert!((v - level).abs() < 1e-12, "flat block should stay flat");
            }
        }
    }

    #[test]
    fn smooth_downsample_haar_is_pairwise_average() {
        let signal = vec![1.0, 3.0, 5.0, 7.0];
        let kernel = Wavelet::Haar.density_smoothing_kernel(); // [0.5, 0.5]
        let out = smooth_downsample(&signal, &kernel, BoundaryMode::Zero);
        assert_eq!(out, vec![2.0, 6.0]);
    }
}
