//! The [`Clusterer`] trait and the error type shared by every algorithm.

use crate::{Clustering, FitOutcome, PointsView};

/// Candidates from `known` within a small edit distance of `target`,
/// closest first — the "did you mean ...?" suggestions attached to
/// unknown-name errors. At most three are returned, and only candidates
/// whose distance is small relative to the target's length qualify, so a
/// wild typo produces no misleading suggestion.
pub fn closest_matches<'a>(target: &str, known: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let budget = (target.len() / 3).max(2);
    let mut scored: Vec<(usize, &str)> = known
        .into_iter()
        .filter_map(|candidate| {
            let d = edit_distance(target, candidate);
            (d <= budget).then_some((d, candidate))
        })
        .collect();
    scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    scored.into_iter().take(3).map(|(_, c)| c).collect()
}

/// Levenshtein distance over bytes (all our names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitute.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// The `did you mean ...?` fragment for an unknown name, empty when no
/// known name is close enough.
fn did_you_mean(target: &str, known: &[String]) -> String {
    let close = closest_matches(target, known.iter().map(String::as_str));
    if close.is_empty() {
        String::new()
    } else {
        format!(" — did you mean {}?", close.join(" or "))
    }
}

/// Errors produced while resolving or running a clustering algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The requested algorithm name is not registered.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// A parameter key is not accepted by the algorithm.
    UnknownParam {
        /// The algorithm being configured.
        algorithm: String,
        /// The offending key.
        param: String,
        /// The keys the algorithm accepts.
        known: Vec<String>,
    },
    /// A parameter value failed to parse or is out of range.
    InvalidParam {
        /// The offending key.
        param: String,
        /// The raw value.
        value: String,
        /// What was expected instead.
        expected: String,
    },
    /// The input point set is empty or inconsistent.
    InvalidInput {
        /// Human-readable description.
        context: String,
    },
    /// The algorithm started but could not produce a clustering.
    Failed {
        /// The algorithm that failed.
        algorithm: String,
        /// Human-readable description.
        context: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownAlgorithm { name, known } => {
                write!(
                    f,
                    "unknown algorithm '{name}'{} (known: {})",
                    did_you_mean(name, known),
                    known.join(", ")
                )
            }
            ClusterError::UnknownParam {
                algorithm,
                param,
                known,
            } => {
                if known.is_empty() {
                    write!(
                        f,
                        "algorithm '{algorithm}' takes no parameters, got '{param}'"
                    )
                } else {
                    write!(
                        f,
                        "algorithm '{algorithm}' does not accept parameter '{param}'{} (accepted: {})",
                        did_you_mean(param, known),
                        known.join(", ")
                    )
                }
            }
            ClusterError::InvalidParam {
                param,
                value,
                expected,
            } => write!(f, "parameter {param}={value}: expected {expected}"),
            ClusterError::InvalidInput { context } => write!(f, "invalid input: {context}"),
            ClusterError::Failed { algorithm, context } => {
                write!(f, "{algorithm} failed: {context}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A clustering algorithm behind a uniform interface.
///
/// Implementations are configured up front (usually from [`Params`] through
/// the [`AlgorithmRegistry`]) and are immutable during [`fit`]: the same
/// clusterer can be reused across datasets, and all randomness is derived
/// from configured seeds so a given `(config, dataset)` pair is
/// deterministic.
///
/// The trait follows a two-stage fit/predict contract: [`fit_model`] is
/// the one required method and returns a [`FitOutcome`] — the training
/// labels plus a reusable trained [`Model`](crate::Model) for labeling
/// out-of-sample points — while [`fit`] is a default shim that discards
/// the model, so label-only call sites are unchanged. Implementations
/// that can fit labels without building the model artifact should
/// override [`fit`] with the cheaper path.
///
/// [`Params`]: crate::Params
/// [`AlgorithmRegistry`]: crate::AlgorithmRegistry
/// [`fit`]: Clusterer::fit
/// [`fit_model`]: Clusterer::fit_model
pub trait Clusterer {
    /// The registry key of this algorithm (e.g. `"kmeans"`).
    fn name(&self) -> &str;

    /// One line describing the algorithm and its effective configuration.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Cluster a point set and return both the training labels and the
    /// trained [`Model`](crate::Model). Predicting with the model on the
    /// training batch reproduces `clustering` exactly (the contract pinned
    /// for every registered algorithm by `tests/predict_parity.rs`).
    ///
    /// The input is a zero-copy [`PointsView`] over a flat row-major
    /// buffer; owned data converts with [`PointMatrix::view`]. An empty or
    /// zero-dimensional point set is [`ClusterError::InvalidInput`] for
    /// every algorithm.
    ///
    /// [`PointMatrix::view`]: crate::PointMatrix::view
    fn fit_model(&self, points: PointsView<'_>) -> Result<FitOutcome, ClusterError>;

    /// Cluster a point set. Every input point receives a verdict in the
    /// returned [`Clustering`]: a compacted cluster id or noise.
    ///
    /// Default shim over [`fit_model`](Self::fit_model) that discards the
    /// trained model, so pre-existing label-only call sites keep working.
    fn fit(&self, points: PointsView<'_>) -> Result<Clustering, ClusterError> {
        Ok(self.fit_model(points)?.clustering)
    }
}

/// The uniform input validation every [`Clusterer::fit`] applies: empty and
/// zero-dimensional point sets are invalid for all algorithms (dimension
/// now lives on the matrix, so this can never panic on `points[0]`).
pub fn validate_fit_input(points: PointsView<'_>) -> Result<(), ClusterError> {
    validate_row_count(points.len())?;
    if points.is_empty() {
        return Err(ClusterError::InvalidInput {
            context: "empty point set".to_string(),
        });
    }
    if points.dims() == 0 {
        return Err(ClusterError::InvalidInput {
            context: "points have zero dimensions".to_string(),
        });
    }
    Ok(())
}

/// The row limit of every fit and predict: a point set of
/// [`Clustering::MAX_POINTS`] rows at most, since each point's label is a
/// `u32` below the noise marker `u32::MAX`, and so is the index of the
/// grid cell an AdaWave fit files it under. A larger count is
/// [`ClusterError::InvalidInput`] naming the limit.
pub fn validate_row_count(rows: usize) -> Result<(), ClusterError> {
    if rows > Clustering::MAX_POINTS {
        return Err(ClusterError::InvalidInput {
            context: format!(
                "{rows} points are more than the {} a clustering holds (one u32 label a point)",
                Clustering::MAX_POINTS
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = ClusterError::UnknownAlgorithm {
            name: "frob".into(),
            known: vec!["adawave".into(), "kmeans".into()],
        };
        let msg = e.to_string();
        assert!(
            msg.contains("frob") && msg.contains("adawave, kmeans"),
            "{msg}"
        );

        let e = ClusterError::UnknownParam {
            algorithm: "kmeans".into(),
            param: "bandwidth".into(),
            known: vec!["k".into(), "seed".into()],
        };
        assert!(e.to_string().contains("bandwidth"), "{e}");

        let e = ClusterError::InvalidParam {
            param: "k".into(),
            value: "banana".into(),
            expected: "a positive integer".into(),
        };
        assert!(e.to_string().contains("k=banana"), "{e}");
    }

    #[test]
    fn describe_defaults_to_name_and_fit_shims_over_fit_model() {
        struct Noop;
        struct NoopModel;
        impl crate::Model for NoopModel {
            fn algorithm(&self) -> &str {
                "noop"
            }
            fn dims(&self) -> usize {
                1
            }
            fn predict_one(&self, _point: &[f64]) -> Option<usize> {
                None
            }
            fn summary(&self) -> String {
                "noop model: everything is noise".to_string()
            }
        }
        impl Clusterer for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn fit_model(&self, points: PointsView<'_>) -> Result<FitOutcome, ClusterError> {
                Ok(FitOutcome {
                    clustering: Clustering::all_noise(points.len()),
                    model: Box::new(NoopModel),
                })
            }
        }
        assert_eq!(Noop.describe(), "noop");
        let points = crate::PointMatrix::from_rows(vec![vec![0.0]]).unwrap();
        // The default `fit` is a shim over `fit_model`.
        assert_eq!(Noop.fit(points.view()).unwrap().noise_count(), 1);
        let outcome = Noop.fit_model(points.view()).unwrap();
        assert_eq!(outcome.clustering.noise_count(), 1);
        assert_eq!(outcome.model.predict_one(&[0.0]), None);
    }

    #[test]
    fn unknown_names_get_did_you_mean_suggestions() {
        let known: Vec<String> = ["adawave", "kmeans", "dbscan", "meanshift"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // A close typo is suggested...
        let err = ClusterError::UnknownAlgorithm {
            name: "kmean".into(),
            known: known.clone(),
        };
        let msg = err.to_string();
        assert!(msg.contains("did you mean kmeans?"), "{msg}");
        // ...a wild name is not.
        let err = ClusterError::UnknownAlgorithm {
            name: "zzzzzzzzzz".into(),
            known: known.clone(),
        };
        assert!(!err.to_string().contains("did you mean"), "{err}");
        // Unknown params reuse the same suggestion path.
        let err = ClusterError::UnknownParam {
            algorithm: "adawave".into(),
            param: "scal".into(),
            known: vec!["scale".into(), "levels".into()],
        };
        let msg = err.to_string();
        assert!(msg.contains("did you mean scale?"), "{msg}");
    }

    #[test]
    fn closest_matches_ranks_by_distance_and_caps_at_three() {
        let known = ["scale", "seed", "levels", "wavelet", "threshold"];
        let close = closest_matches("scal", known);
        assert_eq!(close.first(), Some(&"scale"));
        assert!(close.len() <= 3);
        assert!(closest_matches("bandwidth", known).is_empty());
        // Exact match ranks first even among near-ties.
        assert_eq!(closest_matches("seed", known).first(), Some(&"seed"));
    }

    #[test]
    fn validate_fit_input_rejects_empty_and_zero_dimensional() {
        let empty = crate::PointMatrix::new(2);
        assert!(matches!(
            validate_fit_input(empty.view()),
            Err(ClusterError::InvalidInput { .. })
        ));
        let zero_dim = crate::PointMatrix::from_rows(vec![vec![], vec![]]).unwrap();
        assert!(matches!(
            validate_fit_input(zero_dim.view()),
            Err(ClusterError::InvalidInput { .. })
        ));
        let fine = crate::PointMatrix::from_rows(vec![vec![0.5]]).unwrap();
        assert!(validate_fit_input(fine.view()).is_ok());
    }

    #[test]
    fn row_counts_stop_below_the_u32_noise_marker() {
        let limit = u32::MAX as usize - 1;
        assert_eq!(Clustering::MAX_POINTS, limit);
        for rows in [0, 1, limit] {
            assert_eq!(validate_row_count(rows), Ok(()), "{rows}");
        }
        for rows in [limit + 1, u32::MAX as usize + 1, usize::MAX] {
            let err = validate_row_count(rows).unwrap_err();
            let ClusterError::InvalidInput { context } = &err else {
                panic!("{rows}: {err}");
            };
            assert!(context.contains(&format!("{rows} points")), "{err}");
            assert!(context.contains("4294967294 a clustering holds"), "{err}");
        }
    }
}
