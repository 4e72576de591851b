//! Property-based tests for the wavelet substrate.

use adawave_wavelet::{dwt1d, BoundaryMode, DenseGrid, Wavelet};
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 2..max_len)
}

/// Even-length signals, where the periodic orthogonal DWT conserves energy.
fn even_signal_strategy(max_half: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..max_half)
        .prop_map(|pairs| pairs.into_iter().flat_map(|(a, b)| [a, b]).collect())
}

proptest! {
    #[test]
    fn orthogonal_energy_conservation(signal in even_signal_strategy(64)) {
        let bank = Wavelet::Haar.filter_bank();
        let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Periodic);
        let sig_e: f64 = signal.iter().map(|x| x * x).sum();
        let coef_e: f64 = a.iter().chain(d.iter()).map(|x| x * x).sum();
        prop_assert!((sig_e - coef_e).abs() <= 1e-8 * (1.0 + sig_e));
    }

    #[test]
    fn boundary_modes_agree_inside_signal(signal in signal_strategy(64), idx in 0usize..32) {
        prop_assume!(idx < signal.len());
        let z = BoundaryMode::Zero.sample(&signal, idx as isize);
        let p = BoundaryMode::Periodic.sample(&signal, idx as isize);
        let s = BoundaryMode::Symmetric.sample(&signal, idx as isize);
        prop_assert_eq!(z, p);
        prop_assert_eq!(p, s);
    }

    #[test]
    fn dense_lowpass_total_mass_bounded(values in prop::collection::vec(0.0f64..10.0, 64)) {
        // Smoothing with a unit-sum kernel and zero padding can only lose
        // mass at the boundary, never create it.
        let grid = DenseGrid::from_vec(&[8, 8], values).unwrap();
        let kernel = Wavelet::Cdf22.density_smoothing_kernel();
        let out = grid.smooth_all_axes(&kernel, BoundaryMode::Zero);
        // Negative lobes of CDF(2,2) can slightly overshoot; allow 25% slack.
        prop_assert!(out.total() <= grid.total() * 1.25 + 1e-9);
    }

    #[test]
    fn dwt_output_lengths(signal in signal_strategy(100)) {
        let bank = Wavelet::Daubechies2.filter_bank();
        let (a, d) = dwt1d(&signal, &bank, BoundaryMode::Zero);
        prop_assert_eq!(a.len(), signal.len().div_ceil(2));
        prop_assert_eq!(d.len(), signal.len().div_ceil(2));
    }
}
