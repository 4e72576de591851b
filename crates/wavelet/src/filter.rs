//! Filter banks: the pair of analysis low/high-pass filters that defines
//! one step of a discrete wavelet transform in the Mallat formulation.

/// A two-channel analysis filter bank: the low-pass (`dec_lo`) and
/// high-pass (`dec_hi`) filters applied before downsampling.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterBank {
    dec_lo: Vec<f64>,
    dec_hi: Vec<f64>,
}

impl FilterBank {
    /// Build an orthogonal filter bank from its low-pass analysis filter.
    ///
    /// The high-pass analysis filter is the quadrature mirror
    /// `g[k] = (-1)^k h[L-1-k]`.
    pub fn orthogonal(dec_lo: Vec<f64>) -> Self {
        let l = dec_lo.len();
        let dec_hi: Vec<f64> = (0..l)
            .map(|k| {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sign * dec_lo[l - 1 - k]
            })
            .collect();
        Self { dec_lo, dec_hi }
    }

    /// Build a biorthogonal filter bank from explicit analysis filters.
    pub fn biorthogonal(dec_lo: Vec<f64>, dec_hi: Vec<f64>) -> Self {
        Self { dec_lo, dec_hi }
    }

    /// Analysis low-pass filter.
    pub fn dec_lo(&self) -> &[f64] {
        &self.dec_lo
    }

    /// Analysis high-pass filter.
    pub fn dec_hi(&self) -> &[f64] {
        &self.dec_hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_qmf_relation() {
        let h = vec![0.1, 0.2, 0.3, 0.4];
        let bank = FilterBank::orthogonal(h.clone());
        // g[k] = (-1)^k h[L-1-k]
        assert_eq!(bank.dec_hi(), &[0.4, -0.3, 0.2, -0.1]);
        assert_eq!(bank.dec_lo(), h.as_slice());
    }

    #[test]
    fn biorthogonal_keeps_given_filters() {
        let bank = FilterBank::biorthogonal(vec![1.0, 2.0, 1.0], vec![1.0, -1.0]);
        assert_eq!(bank.dec_lo(), &[1.0, 2.0, 1.0]);
        assert_eq!(bank.dec_hi(), &[1.0, -1.0]);
    }
}
