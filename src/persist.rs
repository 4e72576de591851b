//! Versioned model persistence: save a trained [`Model`] to a file and
//! load it back in another process.
//!
//! The format is a dependency-free line-oriented text file (like the
//! workspace's vendored test shims, nothing to install):
//!
//! ```text
//! adawave-model v1
//! algorithm <name>
//! <algorithm-specific payload>
//! ```
//!
//! Floats in payloads are stored as the hex of their IEEE-754 bits, so a
//! save → load → predict roundtrip is *bit-identical* to the in-memory
//! model — the property CI pins end to end through the CLI (`cluster
//! --save-model` → `predict` → diff). The version is checked on load;
//! bumping the payload shape means bumping `v1`.
//!
//! The header discipline, payload parser and float encoding live in the
//! generic [`adawave_api::artifact`] layer (typed kind
//! [`ArtifactKind::Model`], magic `adawave-model`), which the streaming
//! layer shares for its `adawave-accumulator` files — this module adds
//! only the per-algorithm payload dispatch.
//!
//! Every registered algorithm's trained model is persistable, so every
//! registry entry is servable from a file: the native models serialize
//! their decision rule (grid table, centroids, mixture parameters, mode
//! representatives + training density, modal intervals) and the
//! nearest-training fallback models serialize the memorized training
//! batch with its labels — honest about their size scaling with n.
//! [`PersistError::Unsupported`] remains only for algorithm names this
//! build does not know.

use std::path::Path;

use adawave_api::{load_artifact, save_artifact, ArtifactError, ArtifactKind, Model};
use adawave_baselines::{
    CentroidModel, EmModel, IntervalModel, MeanShiftModel, NearestTrainingModel,
};
use adawave_core::AdaWaveModel;

/// The registry algorithms whose models predict via the documented
/// nearest-training-point fallback; they all share one payload shape
/// (memorized training batch + labels), parameterized by the name.
const FALLBACK_ALGORITHMS: [&str; 9] = [
    "dbscan",
    "optics",
    "wavecluster",
    "sting",
    "clique",
    "sync",
    "stsc",
    "skinnydip",
    "ric",
];

/// The typed artifact kind model files use; its magic (`adawave-model`)
/// and its version ([`ArtifactKind::version`], `v1`) form the header.
const KIND: ArtifactKind = ArtifactKind::Model;

/// Errors produced while saving or loading a model file.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// The file is not a well-formed model file of the current version.
    Format(String),
    /// The algorithm named in the file (or by the model) is not one this
    /// build knows how to (de)serialize.
    Unsupported(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model file i/o: {e}"),
            PersistError::Format(context) => write!(f, "bad model file: {context}"),
            PersistError::Unsupported(algorithm) => write!(
                f,
                "model persistence is not supported for '{algorithm}' \
                 (every standard-registry algorithm is supported — is the \
                 file from a newer build?)"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<ArtifactError> for PersistError {
    /// Strip the artifact layer's kind tag: model persistence reports the
    /// same `Io` / `Format` split (and the same `Display` wording) it
    /// always has.
    fn from(e: ArtifactError) -> Self {
        match e {
            ArtifactError::Io { error, .. } => PersistError::Io(error),
            ArtifactError::Format { context, .. } => PersistError::Format(context),
        }
    }
}

/// Save a trained model to `path` in the versioned text format.
///
/// Errors with [`PersistError::Unsupported`] when the model's
/// [`Model::serialize`] returns `None`.
pub fn save_model(path: &Path, model: &dyn Model) -> Result<(), PersistError> {
    let payload = model
        .serialize()
        .ok_or_else(|| PersistError::Unsupported(model.algorithm().to_string()))?;
    save_artifact(path, KIND, model.algorithm(), &payload)?;
    Ok(())
}

/// Load a model saved by [`save_model`], dispatching on the algorithm
/// named in the header.
pub fn load_model(path: &Path) -> Result<Box<dyn Model>, PersistError> {
    let artifact = load_artifact(path, KIND)?;
    let (algorithm, payload) = (artifact.algorithm.as_str(), artifact.payload.as_str());
    let boxed = |m: Result<Box<dyn Model>, String>| m.map_err(PersistError::Format);
    match algorithm {
        "adawave" => boxed(AdaWaveModel::deserialize(payload).map(|m| Box::new(m) as _)),
        "kmeans" | "dipmeans" => {
            boxed(CentroidModel::deserialize(algorithm, payload).map(|m| Box::new(m) as _))
        }
        "em" => boxed(EmModel::deserialize(payload).map(|m| Box::new(m) as _)),
        "meanshift" => boxed(MeanShiftModel::deserialize(payload).map(|m| Box::new(m) as _)),
        "unidip" => boxed(IntervalModel::deserialize(payload).map(|m| Box::new(m) as _)),
        name if FALLBACK_ALGORITHMS.contains(&name) => {
            boxed(NearestTrainingModel::deserialize(name, payload).map(|m| Box::new(m) as _))
        }
        other => Err(PersistError::Unsupported(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_registry, AlgorithmSpec, PointMatrix};
    use adawave_data::{shapes, Rng};

    fn noisy_blobs() -> PointMatrix {
        let mut rng = Rng::new(21);
        let mut points = PointMatrix::new(2);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.02, 0.02], 200);
        shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.02, 0.02], 200);
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 100);
        points
    }

    /// A model file no other call shares: tests run on parallel threads,
    /// and two of them save the same algorithm, so a name-only path let
    /// one test delete the file the other was about to load.
    fn temp_path(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SERIAL: AtomicUsize = AtomicUsize::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "adawave_persist_{name}_{}_{serial}.awm",
            std::process::id()
        ))
    }

    #[test]
    fn adawave_and_kmeans_models_round_trip_through_files() {
        let registry = standard_registry();
        let points = noisy_blobs();
        for (name, spec) in [
            ("adawave", AlgorithmSpec::new("adawave").with("scale", 32)),
            (
                "kmeans",
                AlgorithmSpec::new("kmeans").with("k", 2).with("seed", 7),
            ),
        ] {
            let outcome = registry.fit_model(&spec, points.view()).unwrap();
            let path = temp_path(name);
            save_model(&path, outcome.model.as_ref()).unwrap();
            let loaded = load_model(&path).unwrap();
            assert_eq!(loaded.algorithm(), name);
            // Bit-identical labels through the file roundtrip.
            assert_eq!(
                loaded.predict(points.view()).unwrap(),
                outcome.clustering,
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// Per-algorithm parameters that make the toy dataset meaningful
    /// (mirrors `tests/predict_parity.rs`).
    fn spec_for(name: &str) -> AlgorithmSpec {
        let base = AlgorithmSpec::new(name);
        match name {
            "adawave" | "wavecluster" => base.with("scale", 32),
            "kmeans" | "em" | "stsc" | "ric" => base.with("k", 3).with("seed", 7),
            "dbscan" => base.with("eps", 0.08).with("min-points", 8),
            "skinnydip" | "unidip" | "dipmeans" => base.with("seed", 7),
            "optics" => base.with("eps", 0.08),
            "meanshift" => base.with("bandwidth", 0.1),
            "sync" => base.with("eps", 0.08),
            _ => base, // sting, clique: defaults
        }
    }

    #[test]
    fn every_registry_algorithm_round_trips_through_files() {
        let registry = standard_registry();
        let points = noisy_blobs();
        assert!(registry.len() >= 15, "registry shrank");
        for name in registry.names() {
            let outcome = registry
                .fit_model(&spec_for(name), points.view())
                .unwrap_or_else(|e| panic!("{name} fit_model: {e}"));
            let path = temp_path(name);
            save_model(&path, outcome.model.as_ref())
                .unwrap_or_else(|e| panic!("{name} save: {e}"));
            let loaded = load_model(&path).unwrap_or_else(|e| panic!("{name} load: {e}"));
            assert_eq!(loaded.algorithm(), name);
            assert_eq!(loaded.dims(), 2, "{name}");
            // Bit-identical labels through the file roundtrip.
            assert_eq!(
                loaded.predict(points.view()).unwrap(),
                outcome.clustering,
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn models_that_cannot_serialize_error_instead_of_writing_garbage() {
        /// A model outside the standard registry whose `serialize` is `None`.
        struct Opaque;
        impl Model for Opaque {
            fn algorithm(&self) -> &str {
                "opaque"
            }
            fn dims(&self) -> usize {
                2
            }
            fn predict_one(&self, _point: &[f64]) -> Option<usize> {
                None
            }
            fn summary(&self) -> String {
                "opaque".to_string()
            }
        }
        let path = temp_path("opaque");
        let err = save_model(&path, &Opaque).unwrap_err();
        assert!(matches!(err, PersistError::Unsupported(_)), "{err}");
        assert!(!path.exists());
    }

    #[test]
    fn malformed_files_are_rejected_with_context() {
        let path = temp_path("bad");
        for (text, needle) in [
            ("", "empty"),
            ("wrong-magic v1\n", "header"),
            ("adawave-model v999\nalgorithm adawave\n", "version"),
            ("adawave-model v1\nno-algo\n", "algorithm"),
            (
                "adawave-model v1\nalgorithm frobnicate\npayload\n",
                "frobnicate",
            ),
            (
                "adawave-model v1\nalgorithm adawave\ndims banana\n",
                "banana",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load_model(&path).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} -> {err}");
        }
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_model(Path::new("/definitely/not/here.awm")).map(|_| ()),
            Err(PersistError::Io(_))
        ));
    }
}
