//! Signal extension (boundary handling) modes for filtering near the edges
//! of a finite signal.

/// How a finite signal is extended beyond its ends during convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundaryMode {
    /// Values outside the signal are zero. Natural for grid densities: an
    /// empty cell outside the populated bounding box really has density 0.
    #[default]
    Zero,
    /// The signal wraps around (circular convolution). With an orthogonal
    /// filter bank and an even length, the transform then conserves energy.
    Periodic,
    /// Half-sample symmetric reflection (`… x1 x0 | x0 x1 …`), the usual
    /// choice in image compression.
    Symmetric,
}

impl BoundaryMode {
    /// Return the sample of `signal` at (possibly out-of-range) index `idx`,
    /// according to this extension mode.
    ///
    /// # Panics
    /// Panics if `signal` is empty.
    pub fn sample(&self, signal: &[f64], idx: isize) -> f64 {
        let n = signal.len() as isize;
        assert!(n > 0, "cannot extend an empty signal");
        match self {
            BoundaryMode::Zero => {
                if idx < 0 || idx >= n {
                    0.0
                } else {
                    signal[idx as usize]
                }
            }
            BoundaryMode::Periodic => {
                let m = idx.rem_euclid(n);
                signal[m as usize]
            }
            BoundaryMode::Symmetric => {
                // Half-sample symmetric: reflect with period 2n.
                let period = 2 * n;
                let mut m = idx.rem_euclid(period);
                if m >= n {
                    m = period - 1 - m;
                }
                signal[m as usize]
            }
        }
    }

    /// All modes, for ablation sweeps.
    pub const ALL: [BoundaryMode; 3] = [
        BoundaryMode::Zero,
        BoundaryMode::Periodic,
        BoundaryMode::Symmetric,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIG: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

    #[test]
    fn zero_mode_outside_is_zero() {
        let m = BoundaryMode::Zero;
        assert_eq!(m.sample(&SIG, -1), 0.0);
        assert_eq!(m.sample(&SIG, 4), 0.0);
        assert_eq!(m.sample(&SIG, 2), 3.0);
    }

    #[test]
    fn periodic_mode_wraps() {
        let m = BoundaryMode::Periodic;
        assert_eq!(m.sample(&SIG, -1), 4.0);
        assert_eq!(m.sample(&SIG, 4), 1.0);
        assert_eq!(m.sample(&SIG, 5), 2.0);
        assert_eq!(m.sample(&SIG, -4), 1.0);
    }

    #[test]
    fn symmetric_mode_reflects() {
        let m = BoundaryMode::Symmetric;
        // ... 2 1 | 1 2 3 4 | 4 3 ...
        assert_eq!(m.sample(&SIG, -1), 1.0);
        assert_eq!(m.sample(&SIG, -2), 2.0);
        assert_eq!(m.sample(&SIG, 4), 4.0);
        assert_eq!(m.sample(&SIG, 5), 3.0);
    }

    #[test]
    fn in_range_indices_are_identity_for_all_modes() {
        for mode in BoundaryMode::ALL {
            for (i, &v) in SIG.iter().enumerate() {
                assert_eq!(mode.sample(&SIG, i as isize), v);
            }
        }
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(BoundaryMode::default(), BoundaryMode::Zero);
    }
}
