//! # adawave-wavelet
//!
//! Discrete wavelet analysis for the AdaWave reproduction.
//!
//! The paper (§III) relies on the Mallat pyramid algorithm: a signal is
//! repeatedly split into a *scale space* (low-pass, "outline of the signal")
//! and a *wavelet space* (high-pass, "detail") by a pair of filters, with
//! downsampling by two after each filter. AdaWave uses the low-pass branch
//! of a Cohen–Daubechies–Feauveau (2,2) biorthogonal wavelet to smooth grid
//! densities; the WaveCluster baseline uses the same machinery on a dense
//! grid.
//!
//! This crate provides:
//!
//! * [`Wavelet`] — the filter families used in the paper's discussion
//!   (Haar, Daubechies, CDF biorthogonal) with their analysis filter banks
//!   and unit-sum density smoothing kernels.
//! * [`dwt1d`] — single-level 1-D analysis with selectable
//!   [`BoundaryMode`], and [`smooth_downsample`], the centred low-pass
//!   step grid clustering runs.
//! * [`DenseGrid`] and separable d-dimensional transforms, used by the
//!   WaveCluster baseline and by the Fig. 5 experiment ([`dwt2d`]).
//!
//! No external wavelet crate is used: everything is implemented from the
//! published filter coefficients and tested for orthogonality, vanishing
//! moments and energy conservation.
//!
//! ```
//! use adawave_wavelet::{dwt1d, smooth_downsample, BoundaryMode, Wavelet};
//!
//! let signal = [1.0, 3.0, 2.0, 8.0];
//! let bank = Wavelet::Haar.filter_bank();
//! let (approx, detail) = dwt1d(&signal, &bank, BoundaryMode::Periodic);
//! let s = std::f64::consts::FRAC_1_SQRT_2;
//! assert!((approx[1] - 10.0 * s).abs() < 1e-12);
//! assert!((detail[1] + 6.0 * s).abs() < 1e-12);
//!
//! // The unit-sum Haar kernel averages each pair of samples.
//! let kernel = Wavelet::Haar.density_smoothing_kernel();
//! let smoothed = smooth_downsample(&signal, &kernel, BoundaryMode::Zero);
//! assert_eq!(smoothed, vec![2.0, 5.0]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod boundary;
pub mod dense;
pub mod family;
pub mod filter;
pub mod transform;

pub use boundary::BoundaryMode;
pub use dense::{dwt2d, DenseGrid, Subbands2d};
pub use family::Wavelet;
pub use filter::FilterBank;
pub use transform::{dwt1d, smooth_downsample};

/// Errors produced by wavelet routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveletError {
    /// Dense-grid shape mismatch.
    ShapeMismatch {
        /// Human readable description.
        context: &'static str,
    },
}

impl std::fmt::Display for WaveletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveletError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
        }
    }
}

impl std::error::Error for WaveletError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, WaveletError>;
