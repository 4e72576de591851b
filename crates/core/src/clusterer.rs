//! AdaWave behind the unified [`Clusterer`] interface, and its registration
//! into the [`AlgorithmRegistry`].

use adawave_api::{
    AlgorithmRegistry, ClusterError, Clusterer, Clustering, FitOutcome, ParamSpec, Params,
    PointsView, Precision, PredictSupport,
};
use adawave_wavelet::Wavelet;

use crate::{AdaWave, AdaWaveConfig, AdaWaveError, ThresholdStrategy};

impl From<AdaWaveError> for ClusterError {
    fn from(e: AdaWaveError) -> Self {
        match e {
            AdaWaveError::InvalidInput { context } => ClusterError::InvalidInput { context },
            AdaWaveError::Grid(grid) => ClusterError::Failed {
                algorithm: "adawave".to_string(),
                context: format!("grid error: {grid}"),
            },
        }
    }
}

impl Clusterer for AdaWave {
    fn name(&self) -> &str {
        "adawave"
    }

    fn describe(&self) -> String {
        let c = self.config();
        format!(
            "adawave scale={} wavelet={} levels={} threshold={}",
            c.scale,
            c.wavelet.name(),
            c.levels,
            c.threshold.name(),
        )
    }

    /// Run the AdaWave pipeline and return the training labels plus the
    /// native serving model ([`crate::AdaWaveModel`]: grid-cell lookup;
    /// out-of-domain/non-finite points predict noise).
    fn fit_model(&self, points: PointsView<'_>) -> Result<FitOutcome, ClusterError> {
        let (result, model) = self.fit_with_model(points)?;
        Ok(FitOutcome {
            clustering: result.into_clustering(),
            model: Box::new(model),
        })
    }

    /// Run the AdaWave pipeline and return the canonical [`Clustering`]
    /// without building the serving model. The inherent [`AdaWave::fit`]
    /// stays available when the pipeline diagnostics ([`crate::GridStats`],
    /// the Fig. 6 density curve) are needed; this trait method is the
    /// uniform surface the registry, the CLI and the sweeps go through.
    fn fit(&self, points: PointsView<'_>) -> Result<Clustering, ClusterError> {
        Ok(AdaWave::fit(self, points)?.into_clustering())
    }
}

impl AdaWaveConfig {
    /// Parse a configuration from dynamic key-value [`Params`]
    /// (`scale=128 wavelet=cdf22 levels=1 threshold=three-segment`),
    /// the registry-facing counterpart of [`AdaWaveConfig::builder`].
    pub fn from_params(params: &Params) -> Result<Self, ClusterError> {
        let mut builder = Self::builder()
            .scale(params.get_or("scale", 128)?)
            .levels(params.get_or("levels", 1)?)
            .threads(params.get_or("threads", 0)?);
        if let Some(raw) = params.get("precision") {
            let precision: Precision =
                raw.parse()
                    .map_err(|_: String| ClusterError::InvalidParam {
                        param: "precision".to_string(),
                        value: raw.to_string(),
                        expected: "f64 (bit-exact reference) or f32 (throughput lane)".to_string(),
                    })?;
            builder = builder.precision(precision);
        }
        if let Some(name) = params.get("wavelet") {
            let wavelet = Wavelet::from_name(name).ok_or_else(|| ClusterError::InvalidParam {
                param: "wavelet".to_string(),
                value: name.to_string(),
                expected: "one of haar, db2, db3, cdf22, cdf13".to_string(),
            })?;
            builder = builder.wavelet(wavelet);
        }
        if let Some(raw) = params.get("threshold") {
            let strategy: ThresholdStrategy =
                raw.parse()
                    .map_err(|expected: String| ClusterError::InvalidParam {
                        param: "threshold".to_string(),
                        value: raw.to_string(),
                        expected,
                    })?;
            builder = builder.threshold(strategy);
        }
        Ok(builder.build())
    }
}

/// Register AdaWave into an [`AlgorithmRegistry`] (combined with
/// `adawave_baselines::register` this yields the standard registry of the
/// paper's algorithms; see the umbrella `adawave` crate).
pub fn register(registry: &mut AlgorithmRegistry) {
    registry.register(
        "adawave",
        "adaptive wavelet clustering for highly noisy data (this paper)",
        &[
            ParamSpec::new("scale", "u32", "128", "grid intervals per dimension"),
            ParamSpec::new("wavelet", "name", "cdf22", "haar, db2, db3, cdf22 or cdf13"),
            ParamSpec::new(
                "levels",
                "u32",
                "1",
                "wavelet decomposition levels (0 = threshold the raw grid)",
            ),
            ParamSpec::new(
                "threshold",
                "name",
                "three-segment",
                "three-segment, elbow, kneedle, quantile:<f> or fixed:<f>",
            ),
            ParamSpec::new(
                "precision",
                "name",
                "f64",
                "numeric lane: f64 (bit-exact reference) or f32 (opt-in throughput lane)",
            ),
            ParamSpec::THREADS,
        ],
        PredictSupport::Native,
        |params| {
            let config = AdaWaveConfig::from_params(params)?;
            Ok(Box::new(AdaWave::new(config)))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::{AlgorithmSpec, PointMatrix};

    fn blobs() -> PointMatrix {
        let mut points = PointMatrix::new(2);
        for i in 0..150 {
            let t = i as f64 * 0.0004;
            points.push_row(&[0.2 + t, 0.2 - t]);
            points.push_row(&[0.8 - t, 0.8 + t]);
        }
        points
    }

    #[test]
    fn registry_adawave_matches_direct_call() {
        let mut registry = AlgorithmRegistry::new();
        register(&mut registry);
        let points = blobs();
        let spec = AlgorithmSpec::new("adawave").with("scale", 32);
        let via_registry = registry.fit(&spec, points.view()).unwrap();
        let direct = AdaWave::new(AdaWaveConfig::builder().scale(32).build())
            .fit(points.view())
            .unwrap()
            .to_clustering();
        assert_eq!(via_registry, direct);
        assert!(via_registry.cluster_count() >= 2);
    }

    #[test]
    fn from_params_parses_every_knob() {
        let mut params = Params::new();
        params
            .set("scale", 64)
            .set("wavelet", "haar")
            .set("levels", 2)
            .set("threshold", "quantile:0.25")
            .set("precision", "f32");
        let config = AdaWaveConfig::from_params(&params).unwrap();
        assert_eq!(config.scale, 64);
        assert_eq!(config.wavelet, Wavelet::Haar);
        assert_eq!(config.levels, 2);
        assert_eq!(config.threshold, ThresholdStrategy::Quantile(0.25));
        assert_eq!(config.precision, Precision::F32);
    }

    #[test]
    fn from_params_rejects_bad_values() {
        let mut params = Params::new();
        params.set("wavelet", "sinc");
        assert!(matches!(
            AdaWaveConfig::from_params(&params),
            Err(ClusterError::InvalidParam { ref param, .. }) if param == "wavelet"
        ));
        let mut params = Params::new();
        params.set("threshold", "psychic");
        assert!(AdaWaveConfig::from_params(&params).is_err());
        let mut params = Params::new();
        params.set("scale", "-3");
        assert!(AdaWaveConfig::from_params(&params).is_err());
        let mut params = Params::new();
        params.set("precision", "f16");
        assert!(matches!(
            AdaWaveConfig::from_params(&params),
            Err(ClusterError::InvalidParam { ref param, .. }) if param == "precision"
        ));
    }

    #[test]
    fn empty_input_is_a_cluster_error() {
        let mut registry = AlgorithmRegistry::new();
        register(&mut registry);
        let clusterer = registry.resolve(&AlgorithmSpec::new("adawave")).unwrap();
        let empty = PointMatrix::new(2);
        assert!(matches!(
            clusterer.fit(empty.view()),
            Err(ClusterError::InvalidInput { .. })
        ));
    }

    #[test]
    fn describe_names_the_configuration() {
        let clusterer = AdaWave::new(AdaWaveConfig::builder().scale(64).build());
        let text = Clusterer::describe(&clusterer);
        assert!(text.contains("scale=64"), "{text}");
    }
}
