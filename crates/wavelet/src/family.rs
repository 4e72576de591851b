//! Wavelet families and their published filter coefficients.
//!
//! The paper highlights the "flexibility of choosing basis" (§III-B) and
//! uses the Cohen–Daubechies–Feauveau (2,2) biorthogonal wavelet for its
//! experiments (§V-B). We provide the families most commonly paired with
//! WaveCluster-style grid smoothing.

use crate::filter::FilterBank;

/// Supported wavelet families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Haar wavelet (Daubechies-1): shortest orthogonal filter, 2 taps.
    Haar,
    /// Daubechies-2 (often called D4): 4-tap orthogonal filter.
    Daubechies2,
    /// Daubechies-3 (D6): 6-tap orthogonal filter.
    Daubechies3,
    /// Cohen–Daubechies–Feauveau (2,2) biorthogonal wavelet, also known as
    /// the LeGall 5/3 wavelet. This is the basis the paper uses for AdaWave.
    Cdf22,
    /// Cohen–Daubechies–Feauveau (1,3) biorthogonal wavelet: a 6-tap
    /// analysis low-pass and the 2-tap Haar high-pass.
    Cdf13,
}

/// 1/sqrt(2), the normalization used by orthonormal filter banks.
const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

impl Wavelet {
    /// All supported families, useful for ablation sweeps.
    pub const ALL: [Wavelet; 5] = [
        Wavelet::Haar,
        Wavelet::Daubechies2,
        Wavelet::Daubechies3,
        Wavelet::Cdf22,
        Wavelet::Cdf13,
    ];

    /// Short lowercase name (e.g. for CLI arguments and bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            Wavelet::Haar => "haar",
            Wavelet::Daubechies2 => "db2",
            Wavelet::Daubechies3 => "db3",
            Wavelet::Cdf22 => "cdf22",
            Wavelet::Cdf13 => "cdf13",
        }
    }

    /// Parse a family from its [`name`](Self::name). Returns `None` for
    /// unknown names.
    pub fn from_name(name: &str) -> Option<Wavelet> {
        match name.to_ascii_lowercase().as_str() {
            "haar" | "db1" => Some(Wavelet::Haar),
            "db2" | "d4" | "daubechies2" => Some(Wavelet::Daubechies2),
            "db3" | "d6" | "daubechies3" => Some(Wavelet::Daubechies3),
            "cdf22" | "bior2.2" | "legall53" | "cdf(2,2)" => Some(Wavelet::Cdf22),
            "cdf13" | "bior1.3" | "cdf(1,3)" => Some(Wavelet::Cdf13),
            _ => None,
        }
    }

    /// Analysis filter bank for this family.
    pub fn filter_bank(&self) -> FilterBank {
        match self {
            Wavelet::Haar => {
                let dec_lo = vec![INV_SQRT2, INV_SQRT2];
                FilterBank::orthogonal(dec_lo)
            }
            Wavelet::Daubechies2 => {
                // Standard db2 (D4) coefficients.
                let s = 4.0 * std::f64::consts::SQRT_2;
                let r3 = 3.0f64.sqrt();
                let dec_lo = vec![
                    (1.0 + r3) / s,
                    (3.0 + r3) / s,
                    (3.0 - r3) / s,
                    (1.0 - r3) / s,
                ];
                FilterBank::orthogonal(dec_lo)
            }
            Wavelet::Daubechies3 => {
                // Standard db3 (D6) coefficients (orthonormal convention).
                let dec_lo = vec![
                    0.332_670_552_950_082_6,
                    0.806_891_509_311_092_3,
                    0.459_877_502_118_491_4,
                    -0.135_011_020_010_254_6,
                    -0.085_441_273_882_026_7,
                    0.035_226_291_885_709_5,
                ];
                FilterBank::orthogonal(dec_lo)
            }
            Wavelet::Cdf22 => {
                // LeGall 5/3 analysis filters, sqrt(2) normalized.
                // Low-pass  (5 taps): [-1/8, 1/4, 3/4, 1/4, -1/8] * sqrt(2)
                // High-pass (3 taps): [-1/2, 1, -1/2] / sqrt(2)
                let s2 = std::f64::consts::SQRT_2;
                let dec_lo = vec![-0.125 * s2, 0.25 * s2, 0.75 * s2, 0.25 * s2, -0.125 * s2];
                let dec_hi = vec![-0.5 / s2, 1.0 / s2, -0.5 / s2];
                FilterBank::biorthogonal(dec_lo, dec_hi)
            }
            Wavelet::Cdf13 => {
                // CDF(1,3): analysis low-pass has 6 taps, high-pass 2 taps.
                let s2 = std::f64::consts::SQRT_2;
                let dec_lo = vec![
                    -1.0 / 16.0 * s2,
                    1.0 / 16.0 * s2,
                    0.5 * s2,
                    0.5 * s2,
                    1.0 / 16.0 * s2,
                    -1.0 / 16.0 * s2,
                ];
                let dec_hi = vec![-0.5 * s2, 0.5 * s2];
                FilterBank::biorthogonal(dec_lo, dec_hi)
            }
        }
    }

    /// The low-pass analysis filter normalized to unit sum. This is the
    /// smoothing kernel AdaWave applies to sparse grid densities: unit sum
    /// keeps the relative density scale of the grid comparable across
    /// wavelet families and decomposition levels.
    pub fn density_smoothing_kernel(&self) -> Vec<f64> {
        let bank = self.filter_bank();
        let sum: f64 = bank.dec_lo().iter().sum();
        bank.dec_lo().iter().map(|c| c / sum).collect()
    }
}

impl std::fmt::Display for Wavelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Wavelet::ALL {
            assert_eq!(Wavelet::from_name(w.name()), Some(w));
        }
        assert_eq!(Wavelet::from_name("nope"), None);
        assert_eq!(Wavelet::from_name("BIOR2.2"), Some(Wavelet::Cdf22));
    }

    #[test]
    fn orthogonal_lowpass_sums_to_sqrt2() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies3] {
            let bank = w.filter_bank();
            let sum: f64 = bank.dec_lo().iter().sum();
            assert!(
                (sum - std::f64::consts::SQRT_2).abs() < 1e-10,
                "{w}: sum {sum}"
            );
        }
    }

    #[test]
    fn orthogonal_lowpass_has_unit_energy() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies3] {
            let bank = w.filter_bank();
            let energy: f64 = bank.dec_lo().iter().map(|c| c * c).sum();
            assert!((energy - 1.0).abs() < 1e-10, "{w}: energy {energy}");
        }
    }

    #[test]
    fn orthogonal_highpass_sums_to_zero() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies3] {
            let bank = w.filter_bank();
            let sum: f64 = bank.dec_hi().iter().sum();
            assert!(sum.abs() < 1e-10, "{w}: sum {sum}");
        }
    }

    #[test]
    fn cdf22_highpass_kills_constants_and_lowpass_is_symmetric() {
        let bank = Wavelet::Cdf22.filter_bank();
        let hi_sum: f64 = bank.dec_hi().iter().sum();
        assert!(hi_sum.abs() < 1e-12);
        let lo = bank.dec_lo();
        for i in 0..lo.len() {
            assert!((lo[i] - lo[lo.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf22_highpass_kills_linear_ramps() {
        // A (2,2) biorthogonal wavelet has two vanishing moments: the
        // analysis high-pass filter annihilates constants and linear ramps.
        let bank = Wavelet::Cdf22.filter_bank();
        let hi = bank.dec_hi();
        let moment1: f64 = hi.iter().enumerate().map(|(k, c)| k as f64 * c).sum();
        assert!(moment1.abs() < 1e-12);
    }

    #[test]
    fn density_kernel_sums_to_one() {
        for w in Wavelet::ALL {
            let k = w.density_smoothing_kernel();
            let sum: f64 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{w}");
        }
    }

    #[test]
    fn filter_lengths_match_published_values() {
        assert_eq!(Wavelet::Haar.filter_bank().dec_lo().len(), 2);
        assert_eq!(Wavelet::Daubechies2.filter_bank().dec_lo().len(), 4);
        assert_eq!(Wavelet::Daubechies3.filter_bank().dec_lo().len(), 6);
        assert_eq!(Wavelet::Cdf22.filter_bank().dec_lo().len(), 5);
        assert_eq!(Wavelet::Cdf22.filter_bank().dec_hi().len(), 3);
    }

    #[test]
    fn db2_filter_is_orthogonal_to_even_shifts() {
        // <h, h shifted by 2s> = 0 for every s > 0 for the orthonormal
        // families (with unit energy at s = 0, checked above): the filter
        // half of perfect reconstruction, which pins the published
        // coefficients.
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies3] {
            let h = w.filter_bank().dec_lo().to_vec();
            for shift in (2..h.len()).step_by(2) {
                let inner: f64 = (0..h.len() - shift).map(|i| h[i] * h[i + shift]).sum();
                assert!(inner.abs() < 1e-12, "{w} shift {shift}: {inner}");
            }
        }
    }
}
