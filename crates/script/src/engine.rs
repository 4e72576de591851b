//! The scenario-script interpreter.
//!
//! An [`Engine`] holds the long-lived wiring (the algorithm registry, the
//! persistence hooks, path resolution roots); each test plan of a script
//! runs in a fresh session environment — current dataset, current
//! clustering, current model, named label snapshots and the streaming
//! session. A failing step aborts its plan (the remaining steps are
//! skipped) but the following plans still run, soft65c02-tester style.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use adawave_api::{AlgorithmRegistry, AlgorithmSpec, Clustering, Model, Params, PointsView};
use adawave_core::AdaWaveConfig;
use adawave_data::scenes;
use adawave_data::{csv, Dataset};
use adawave_metrics::{adjusted_rand_index, ami, ami_ignoring_noise};
use adawave_stream::{finite_bounds, shard_rows, StreamingAdaWave};

use crate::parse::{did_you_mean, Command, Metric, Plan, Script};

/// Persists the current model to a path (e.g. `adawave::save_model`).
pub type SaveHook = Box<dyn Fn(&Path, &dyn Model) -> Result<(), String>>;

/// Loads a persisted model from a path (e.g. `adawave::load_model`).
pub type LoadHook = Box<dyn Fn(&Path) -> Result<Box<dyn Model>, String>>;

/// The scenario-script interpreter: registry + persistence hooks + path
/// resolution roots. Reused across scripts; every plan gets a fresh
/// session environment.
pub struct Engine {
    registry: AlgorithmRegistry,
    save_hook: Option<SaveHook>,
    load_hook: Option<LoadHook>,
    script_dir: PathBuf,
    scratch_dir: PathBuf,
}

impl Engine {
    /// Build an engine over an algorithm registry. Until
    /// [`with_persistence`](Self::with_persistence) is called, `save` and
    /// `load model` steps fail with an explanatory error. Relative paths
    /// of the files a script saves (models, accumulators) resolve against
    /// a fresh per-engine subdirectory of the system temp dir, removed on
    /// drop.
    pub fn new(registry: AlgorithmRegistry) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let scratch_dir = std::env::temp_dir().join(format!(
            "adawave-script-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Engine {
            registry,
            save_hook: None,
            load_hook: None,
            script_dir: PathBuf::from("."),
            scratch_dir,
        }
    }

    /// Wire the persistence hooks used by `save` and `load model`.
    pub fn with_persistence(mut self, save: SaveHook, load: LoadHook) -> Self {
        self.save_hook = Some(save);
        self.load_hook = Some(load);
        self
    }

    /// Resolve relative `load "file.csv"` paths against this directory
    /// (typically the script file's parent).
    pub fn with_script_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.script_dir = dir.into();
        self
    }

    /// Run every plan of a script, each in a fresh environment, and
    /// report per-plan outcomes. Assertion and runtime failures land in
    /// the report — this only allocates, it does not error.
    pub fn run(&self, script: &Script) -> RunReport {
        let plans = script
            .plans
            .iter()
            .map(|plan| self.run_plan(plan))
            .collect();
        RunReport { plans }
    }

    fn run_plan(&self, plan: &Plan) -> PlanReport {
        let mut env = Env {
            engine: self,
            dataset: None,
            clustering: None,
            model: None,
            snapshots: BTreeMap::new(),
            stream: None,
            last_fit: None,
        };
        let mut report = PlanReport {
            title: plan.title.clone(),
            line: plan.line,
            steps_total: plan.steps.len(),
            steps_run: 0,
            failure: None,
        };
        for step in &plan.steps {
            match env.run_command(&step.command) {
                Ok(()) => report.steps_run += 1,
                Err(message) => {
                    report.failure = Some(Failure {
                        line: step.line,
                        step: step.text.clone(),
                        message,
                    });
                    break;
                }
            }
        }
        report
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Best-effort cleanup of the per-engine scratch directory.
        let _ = std::fs::remove_dir_all(&self.scratch_dir);
    }
}

/// The outcome of running one script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// One report per plan, in script order.
    pub plans: Vec<PlanReport>,
}

/// The outcome of one test plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// The plan's marker title.
    pub title: String,
    /// The marker's 1-based source line.
    pub line: usize,
    /// Number of steps in the plan.
    pub steps_total: usize,
    /// Number of steps that ran successfully.
    pub steps_run: usize,
    /// The failure that aborted the plan, if any.
    pub failure: Option<Failure>,
}

/// A failed step: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// 1-based source line of the failing step.
    pub line: usize,
    /// The source text of the failing step.
    pub step: String,
    /// What went wrong.
    pub message: String,
}

impl RunReport {
    /// Whether every plan passed.
    pub fn passed(&self) -> bool {
        self.plans.iter().all(|p| p.failure.is_none())
    }

    /// Human-readable per-plan pass/fail report with a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut failed = 0;
        for plan in &self.plans {
            match &plan.failure {
                None => out.push_str(&format!(
                    "  plan \"{}\" .. ok ({} steps)\n",
                    plan.title, plan.steps_total
                )),
                Some(f) => {
                    failed += 1;
                    out.push_str(&format!(
                        "  plan \"{}\" .. FAILED at line {} (`{}`): {}\n",
                        plan.title, f.line, f.step, f.message
                    ));
                }
            }
        }
        out.push_str(&format!(
            "  {} plan{}: {} passed, {} failed\n",
            self.plans.len(),
            if self.plans.len() == 1 { "" } else { "s" },
            self.plans.len() - failed,
            failed
        ));
        out
    }
}

/// The per-plan session environment.
struct Env<'a> {
    engine: &'a Engine,
    dataset: Option<Dataset>,
    clustering: Option<Clustering>,
    model: Option<Box<dyn Model>>,
    snapshots: BTreeMap<String, Clustering>,
    stream: Option<StreamingAdaWave>,
    last_fit: Option<AlgorithmSpec>,
}

impl Env<'_> {
    fn dataset(&self) -> Result<&Dataset, String> {
        self.dataset
            .as_ref()
            .ok_or_else(|| "no dataset loaded (use `generate` or `load` first)".to_string())
    }

    fn clustering(&self) -> Result<&Clustering, String> {
        self.clustering
            .as_ref()
            .ok_or_else(|| "no clustering yet (use `fit`, `refit` or `predict` first)".to_string())
    }

    fn snapshot(&mut self, save_as: &Option<String>) {
        if let Some(name) = save_as {
            let clustering = self.clustering.clone().expect("set by the caller");
            self.snapshots.insert(name.clone(), clustering);
        }
    }

    fn run_command(&mut self, command: &Command) -> Result<(), String> {
        match command {
            Command::Generate { shape, params } => self.generate(shape, params),
            Command::LoadDataset { path } => self.load_dataset(path),
            Command::Fit {
                algorithm,
                params,
                save_as,
            } => {
                self.fit(algorithm, params)?;
                self.snapshot(save_as);
                Ok(())
            }
            Command::Ingest { params } => self.ingest(params),
            Command::Refit { save_as } => {
                self.refit()?;
                self.snapshot(save_as);
                Ok(())
            }
            Command::SaveModel { path } => self.save_model(path),
            Command::SaveAccumulator { path } => self.save_accumulator(path),
            Command::LoadModel { path } => self.load_model(path),
            Command::LoadAccumulator { path } => self.load_accumulator(path),
            Command::MergeAccumulator { path } => self.merge_accumulator(path),
            Command::Predict { save_as } => {
                self.predict()?;
                self.snapshot(save_as);
                Ok(())
            }
            Command::AssertMetric { metric, cmp, value } => {
                let actual = self.metric(*metric)?;
                if cmp.eval(actual, *value) {
                    Ok(())
                } else {
                    let shown = match metric {
                        Metric::Clusters | Metric::NoisePoints | Metric::Points | Metric::Dims => {
                            format!("{actual}")
                        }
                        _ => format!("{actual:.4}"),
                    };
                    Err(format!(
                        "assert {} {} {} failed: {} = {}",
                        metric.name(),
                        cmp.symbol(),
                        value,
                        metric.name(),
                        shown
                    ))
                }
            }
            Command::AssertLabels { equal, name } => self.assert_labels(*equal, name),
            Command::AssertDeterministic { threads } => self.assert_deterministic(threads),
        }
    }

    fn generate(&mut self, shape: &str, params: &Params) -> Result<(), String> {
        const KEYS: &[&str] = &["k", "n", "noise", "seed"];
        for key in params.keys() {
            if !KEYS.contains(&key) {
                return Err(format!(
                    "unknown generate parameter '{key}'{}",
                    did_you_mean(key, KEYS.iter().copied())
                ));
            }
        }
        let n: usize = params.get_or("n", 600).map_err(|e| e.to_string())?;
        let k: usize = params.get_or("k", 3).map_err(|e| e.to_string())?;
        let noise: f64 = params.get_or("noise", 0.0).map_err(|e| e.to_string())?;
        let seed: u64 = params.get_or("seed", 7).map_err(|e| e.to_string())?;
        if !(0.0..100.0).contains(&noise) {
            return Err(format!("noise={noise} must be a percentage in [0, 100)"));
        }
        let dataset = scenes::generate(shape, n, k, noise, seed).ok_or_else(|| {
            format!(
                "unknown shape '{shape}'{}",
                did_you_mean(shape, scenes::SHAPES.iter().copied())
            )
        })?;
        self.dataset = Some(dataset);
        Ok(())
    }

    fn load_dataset(&mut self, path: &str) -> Result<(), String> {
        let resolved = resolve(path, &self.engine.script_dir);
        let dataset =
            csv::load_csv(&resolved).map_err(|e| format!("loading {}: {e}", resolved.display()))?;
        self.dataset = Some(dataset);
        Ok(())
    }

    /// Build the fit spec for `fit` and `assert deterministic`: strict
    /// key validation against the registry entry (typos surface the
    /// did-you-mean suggestions), with `k` defaulting to the dataset's
    /// ground-truth cluster count for the algorithms that take it — the
    /// paper's protocol, same as the CLI.
    fn fit_spec(&self, algorithm: &str, params: &Params) -> Result<AlgorithmSpec, String> {
        let entry = self
            .engine
            .registry
            .entry(algorithm)
            .map_err(|e| e.to_string())?;
        entry.validate_keys(params).map_err(|e| e.to_string())?;
        let mut spec = AlgorithmSpec::new(entry.name());
        spec.params = params.clone();
        if entry.accepted_keys().contains(&"k") && params.get("k").is_none() {
            let k = self.dataset()?.cluster_count().max(1);
            spec.params.set("k", k);
        }
        Ok(spec)
    }

    fn fit(&mut self, algorithm: &str, params: &Params) -> Result<(), String> {
        let spec = self.fit_spec(algorithm, params)?;
        let dataset = self.dataset()?;
        let outcome = self
            .engine
            .registry
            .fit_model(&spec, dataset.view())
            .map_err(|e| e.to_string())?;
        self.clustering = Some(outcome.clustering);
        self.model = Some(outcome.model);
        self.last_fit = Some(spec);
        Ok(())
    }

    fn ingest(&mut self, params: &Params) -> Result<(), String> {
        let shards: usize = params.get_or("shards", 1).map_err(|e| e.to_string())?;
        let batch_rows: usize = params
            .get_or("batch-rows", 2048)
            .map_err(|e| e.to_string())?;
        if shards == 0 || batch_rows == 0 {
            return Err("shards and batch-rows must be at least 1".to_string());
        }
        let mut config_params = params.clone();
        config_params.retain_keys(
            &self
                .engine
                .registry
                .entry("adawave")
                .map_err(|e| e.to_string())?
                .accepted_keys(),
        );
        // Everything that is neither a reserved ingest key nor an AdaWave
        // configuration key is a typo.
        let entry = self
            .engine
            .registry
            .entry("adawave")
            .map_err(|e| e.to_string())?;
        let mut accepted = entry.accepted_keys();
        accepted.extend(["shards", "batch-rows", "shard"]);
        for key in params.keys() {
            if !accepted.contains(&key) {
                return Err(format!(
                    "unknown ingest parameter '{key}'{}",
                    did_you_mean(key, accepted.iter().copied())
                ));
            }
        }
        let slice = params
            .get("shard")
            .map(|spec| {
                shard_rows(spec).map(|(_, _, rows)| rows).ok_or_else(|| {
                    format!(
                        "bad shard spec '{spec}': expected <i>/<k> with 1 <= i <= k \
                         (e.g. shard=2/3)"
                    )
                })
            })
            .transpose()?;
        let config = AdaWaveConfig::from_params(&config_params).map_err(|e| e.to_string())?;

        let dataset = self.dataset()?;
        let view = dataset.view();
        let domain = finite_bounds(view).ok_or_else(|| {
            "the dataset has no finite points to freeze a domain from".to_string()
        })?;
        let dims = view.dims();
        let flat = view.as_slice();
        let n = view.len();
        // `shard=i/k` restricts ingestion to the i-th of k contiguous row
        // slices; the domain above still spans the whole dataset, so the
        // sessions written by different shards merge exactly.
        let std::ops::Range { start: lo, end: hi } = slice.map_or(0..n, |rows| rows(n));

        // One session per shard over the same frozen domain, each fed its
        // contiguous slice of rows in `batch-rows` batches, then merged in
        // order — so labels line up with the dataset's row order.
        let per_shard = (hi - lo).div_ceil(shards);
        let mut sessions: Vec<StreamingAdaWave> = Vec::new();
        for shard in 0..shards {
            let start = lo + (shard * per_shard).min(hi - lo);
            let end = lo + ((shard + 1) * per_shard).min(hi - lo);
            let mut session = StreamingAdaWave::with_domain(config.clone(), domain.clone())
                .map_err(|e| e.to_string())?;
            let mut row = start;
            while row < end {
                let stop = (row + batch_rows).min(end);
                let batch = PointsView::from_flat(&flat[row * dims..stop * dims], dims)
                    .map_err(|e| e.to_string())?;
                session.ingest(batch).map_err(|e| e.to_string())?;
                row = stop;
            }
            sessions.push(session);
        }
        let mut merged = sessions.remove(0);
        for session in sessions {
            merged
                .merge(session)
                .map_err(|rejected| format!("merge rejected: {}", rejected.error))?;
        }
        self.stream = Some(merged);
        Ok(())
    }

    fn refit(&mut self) -> Result<(), String> {
        let stream = self
            .stream
            .as_ref()
            .ok_or_else(|| "no streaming session (use `ingest` first)".to_string())?;
        let outcome = stream.refit_outcome().map_err(|e| e.to_string())?;
        self.clustering = Some(outcome.clustering);
        self.model = Some(outcome.model);
        Ok(())
    }

    fn save_model(&mut self, path: &str) -> Result<(), String> {
        let model = self
            .model
            .as_deref()
            .ok_or_else(|| "no model to save (use `fit` or `refit` first)".to_string())?;
        let hook = self
            .engine
            .save_hook
            .as_ref()
            .ok_or_else(|| "model persistence is not wired into this engine".to_string())?;
        let resolved = resolve(path, &self.engine.scratch_dir);
        if let Some(parent) = resolved.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        hook(&resolved, model).map_err(|e| format!("saving {}: {e}", resolved.display()))
    }

    fn load_model(&mut self, path: &str) -> Result<(), String> {
        let hook = self
            .engine
            .load_hook
            .as_ref()
            .ok_or_else(|| "model persistence is not wired into this engine".to_string())?;
        let resolved = self.locate(path);
        let model = hook(&resolved).map_err(|e| format!("loading {}: {e}", resolved.display()))?;
        self.model = Some(model);
        Ok(())
    }

    /// Where a `load`/`merge` path points: round-trips look in the scratch
    /// dir first, fixtures next to the script second.
    fn locate(&self, path: &str) -> PathBuf {
        let resolved = resolve(path, &self.engine.scratch_dir);
        if !resolved.exists() {
            let in_script_dir = resolve(path, &self.engine.script_dir);
            if in_script_dir.exists() {
                return in_script_dir;
            }
        }
        resolved
    }

    fn save_accumulator(&mut self, path: &str) -> Result<(), String> {
        let stream = self
            .stream
            .as_ref()
            .ok_or_else(|| "no streaming session to save (use `ingest` first)".to_string())?;
        let resolved = resolve(path, &self.engine.scratch_dir);
        if let Some(parent) = resolved.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        adawave_stream::save_accumulator(&resolved, stream)
            .map_err(|e| format!("saving {}: {e}", resolved.display()))
    }

    fn load_accumulator(&mut self, path: &str) -> Result<(), String> {
        let resolved = self.locate(path);
        let stream = adawave_stream::load_accumulator(&resolved)
            .map_err(|e| format!("loading {}: {e}", resolved.display()))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// `merge "file.awa"` — fold a persisted accumulator into the current
    /// streaming session, or adopt it outright when there is none yet.
    fn merge_accumulator(&mut self, path: &str) -> Result<(), String> {
        let resolved = self.locate(path);
        let loaded = adawave_stream::load_accumulator(&resolved)
            .map_err(|e| format!("loading {}: {e}", resolved.display()))?;
        match self.stream.as_mut() {
            None => self.stream = Some(loaded),
            Some(stream) => stream.merge(loaded).map_err(|rejected| {
                format!("merging {}: {}", resolved.display(), rejected.error)
            })?,
        }
        Ok(())
    }

    fn predict(&mut self) -> Result<(), String> {
        let model = self.model.as_deref().ok_or_else(|| {
            "no model to predict with (use `fit` or `load model` first)".to_string()
        })?;
        let dataset = self.dataset()?;
        let clustering = model.predict(dataset.view()).map_err(|e| e.to_string())?;
        self.clustering = Some(clustering);
        Ok(())
    }

    /// Compute a metric of the current clustering (ari/ami score it
    /// against the dataset's ground truth over the points whose true
    /// label is not noise — the paper's evaluation protocol).
    fn metric(&self, metric: Metric) -> Result<f64, String> {
        match metric {
            Metric::Points => Ok(self.dataset()?.len() as f64),
            Metric::Dims => Ok(self.dataset()?.dims() as f64),
            Metric::Clusters => Ok(self.clustering()?.cluster_count() as f64),
            Metric::Noise => Ok(self.clustering()?.noise_fraction()),
            Metric::NoisePoints => Ok(self.clustering()?.noise_count() as f64),
            Metric::Ari | Metric::Ami => {
                let dataset = self.dataset()?;
                let clustering = self.clustering()?;
                if dataset.len() != clustering.len() {
                    return Err(format!(
                        "the clustering labels {} points but the dataset has {} (did the dataset change after the fit?)",
                        clustering.len(),
                        dataset.len()
                    ));
                }
                // Predicted noise becomes a fresh label so it can never
                // collide with a real predicted cluster id.
                let prediction = clustering.to_labels(clustering.cluster_count());
                match (metric, dataset.noise_label) {
                    (Metric::Ami, Some(noise)) => {
                        Ok(ami_ignoring_noise(&dataset.labels, &prediction, noise))
                    }
                    (Metric::Ami, None) => Ok(ami(&dataset.labels, &prediction)),
                    (_, Some(noise)) => {
                        let mut truth = Vec::with_capacity(dataset.len());
                        let mut pred = Vec::with_capacity(dataset.len());
                        for (&t, &p) in dataset.labels.iter().zip(prediction.iter()) {
                            if t != noise {
                                truth.push(t);
                                pred.push(p);
                            }
                        }
                        Ok(adjusted_rand_index(&truth, &pred))
                    }
                    (_, None) => Ok(adjusted_rand_index(&dataset.labels, &prediction)),
                }
            }
        }
    }

    fn assert_labels(&self, equal: bool, name: &str) -> Result<(), String> {
        let current = self.clustering()?;
        let other = self.snapshots.get(name).ok_or_else(|| {
            let known: Vec<&str> = self.snapshots.keys().map(String::as_str).collect();
            if known.is_empty() {
                format!("no labels snapshot named '{name}' (save one with `fit ... as {name}`)")
            } else {
                format!(
                    "no labels snapshot named '{name}' (known: {})",
                    known.join(", ")
                )
            }
        })?;
        let same = current == other;
        if same == equal {
            return Ok(());
        }
        if equal {
            let differing = current
                .labels()
                .zip(other.labels())
                .filter(|(a, b)| a != b)
                .count();
            Err(format!(
                "labels differ from '{name}': {differing} of {} points (or the label sets have different sizes)",
                current.len()
            ))
        } else {
            Err(format!("labels are identical to '{name}'"))
        }
    }

    /// Re-run the last fit at each thread count and require bit-identical
    /// labels — the fixed-chunk determinism contract as an assertion.
    fn assert_deterministic(&self, threads: &[usize]) -> Result<(), String> {
        let spec = self
            .last_fit
            .as_ref()
            .ok_or_else(|| "no fit to re-run (use `fit` first)".to_string())?;
        let baseline = self.clustering()?;
        let dataset = self.dataset()?;
        for &t in threads {
            let rerun = spec.clone().with("threads", t);
            let clustering = self
                .engine
                .registry
                .fit(&rerun, dataset.view())
                .map_err(|e| format!("re-running {} with threads={t}: {e}", spec.name))?;
            if &clustering != baseline {
                let differing = clustering
                    .labels()
                    .zip(baseline.labels())
                    .filter(|(a, b)| a != b)
                    .count();
                return Err(format!(
                    "labels changed at threads={t}: {differing} of {} points differ",
                    baseline.len()
                ));
            }
        }
        Ok(())
    }
}

/// Resolve a script-given path: absolute paths pass through, relative
/// ones are joined onto `root`.
fn resolve(path: &str, root: &Path) -> PathBuf {
    let p = Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        root.join(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn engine() -> Engine {
        let mut registry = AlgorithmRegistry::new();
        adawave_core::register(&mut registry);
        Engine::new(registry)
    }

    fn run(source: &str) -> RunReport {
        engine().run(&parse(source).unwrap())
    }

    #[test]
    fn a_passing_plan_runs_every_step() {
        let report = run("marker $$adawave on clean blobs$$\n\
             generate blobs n=400 k=2 seed=3\n\
             fit adawave scale=16\n\
             assert clusters == 2\n\
             assert ami >= 0.5\n\
             assert noise <= 0.3\n\
             assert points == 400\n\
             assert dims == 2\n");
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.plans[0].steps_run, 7);
        assert!(
            report.render().contains(".. ok (7 steps)"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn a_failing_assert_aborts_the_plan_but_not_the_script() {
        let report = run("marker $$fails$$\n\
             generate blobs n=200 k=2 seed=3\n\
             fit adawave scale=16\n\
             assert points == 7\n\
             assert ari >= 0.0 // never reached\n\
             marker $$still runs$$\n\
             generate blobs n=200 k=2 seed=3\n\
             fit adawave scale=16\n\
             assert points == 200\n");
        assert!(!report.passed());
        let first = &report.plans[0];
        assert_eq!(first.steps_run, 2);
        let failure = first.failure.as_ref().unwrap();
        assert_eq!(failure.line, 4);
        assert!(failure.message.contains("points == 7"), "{failure:?}");
        assert!(report.plans[1].failure.is_none(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("FAILED at line 4"), "{rendered}");
        assert!(
            rendered.contains("2 plans: 1 passed, 1 failed"),
            "{rendered}"
        );
    }

    #[test]
    fn each_plan_gets_a_fresh_environment() {
        // The second plan must not see the first plan's dataset or fit.
        let report = run("marker $$one$$\n\
             generate blobs n=200 k=2 seed=3\n\
             fit adawave scale=32 as one\n\
             marker $$two$$\n\
             assert clusters == 2\n");
        let failure = report.plans[1].failure.as_ref().unwrap();
        assert!(failure.message.contains("no clustering yet"), "{failure:?}");
    }

    #[test]
    fn unknown_algorithm_surfaces_did_you_mean_with_the_line() {
        let report = run("marker $$typo$$\n\
             generate blobs n=100\n\
             fit adawav scale=32\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert_eq!(failure.line, 3);
        assert!(
            failure.message.contains("did you mean adawave?"),
            "{failure:?}"
        );
        // Unknown parameter keys go through the same suggestion path.
        let report = run("marker $$typo$$\n\
             generate blobs n=100\n\
             fit adawave scal=32\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("did you mean scale?"),
            "{failure:?}"
        );
    }

    #[test]
    fn unknown_shape_and_generate_params_suggest() {
        let report = run("marker $$t$$\ngenerate ringz n=100\nfit adawave\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("did you mean rings?"),
            "{failure:?}"
        );
        let report = run("marker $$t$$\ngenerate rings noize=10\nfit adawave\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("did you mean noise?"),
            "{failure:?}"
        );
    }

    #[test]
    fn steps_without_prerequisites_fail_with_guidance() {
        for (source, needle) in [
            ("marker $$t$$\nfit adawave\n", "no dataset"),
            ("marker $$t$$\nassert clusters == 1\n", "no clustering"),
            ("marker $$t$$\npredict\n", "no model"),
            ("marker $$t$$\nrefit\n", "no streaming session"),
            ("marker $$t$$\nsave \"x.awm\"\n", "no model"),
            (
                "marker $$t$$\ngenerate blobs n=50\nassert deterministic threads=1\n",
                "no fit",
            ),
            (
                "marker $$t$$\ngenerate blobs n=50 k=2\nfit adawave scale=16\nassert labels == labels_from nope\n",
                "no labels snapshot",
            ),
        ] {
            let report = run(source);
            let failure = report.plans[0].failure.as_ref().unwrap();
            assert!(failure.message.contains(needle), "{source:?}: {failure:?}");
        }
    }

    #[test]
    fn persistence_without_hooks_is_a_clear_error() {
        let report = run("marker $$t$$\n\
             generate blobs n=100 k=2\n\
             fit adawave scale=16\n\
             save \"m.awm\"\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(failure.message.contains("not wired"), "{failure:?}");
    }

    #[test]
    fn ingest_refit_matches_batch_fit_and_labels_snapshots_compare() {
        let report = run("marker $$stream equals batch$$\n\
             generate blobs n=900 k=2 noise=30 seed=5\n\
             fit adawave scale=32 as batch\n\
             ingest shards=3 batch-rows=200 scale=32\n\
             refit\n\
             assert labels == labels_from batch\n\
             assert clusters >= 2\n");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn deterministic_assertion_passes_for_adawave() {
        let report = run("marker $$determinism$$\n\
             generate rings n=400 noise=20 seed=9\n\
             fit adawave scale=32\n\
             assert deterministic threads=1,2,4\n");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn ingest_rejects_typoed_keys() {
        let report = run("marker $$t$$\n\
             generate blobs n=100\n\
             ingest batchrows=200 scale=16\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("did you mean batch-rows?"),
            "{failure:?}"
        );
    }

    #[test]
    fn ingest_rejects_malformed_shard_specs() {
        for spec in ["2", "0/3", "4/3", "a/b", "1/0"] {
            let report = run(&format!(
                "marker $$t$$\n\
                 generate blobs n=100\n\
                 ingest shard={spec} scale=16\n"
            ));
            let failure = report.plans[0].failure.as_ref().unwrap();
            assert!(
                failure.message.contains("bad shard spec") && failure.message.contains(spec),
                "{spec}: {failure:?}"
            );
        }
    }

    #[test]
    fn shard_accumulator_files_merge_to_match_the_direct_fit() {
        // Each shard ingests its row slice over the whole-dataset domain
        // and writes an accumulator file; loading and merging the files
        // must reproduce the one-shot fit's labels exactly.
        let report = run("marker $$two shards over files$$\n\
             generate blobs n=400 k=2 noise=20 seed=9\n\
             fit adawave scale=32 as direct\n\
             ingest shard=1/2 scale=32\n\
             save accumulator \"s1.awa\"\n\
             ingest shard=2/2 scale=32\n\
             save accumulator \"s2.awa\"\n\
             load accumulator \"s1.awa\"\n\
             merge \"s2.awa\"\n\
             refit\n\
             assert labels == labels_from direct\n");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn merge_without_a_session_adopts_the_file() {
        // The second plan starts with a fresh environment (no streaming
        // session), so its first `merge` exercises the adopt path; the
        // shard files survive in the run's shared scratch directory.
        let report = run("marker $$produce shards$$\n\
             generate blobs n=300 k=2 seed=4\n\
             ingest shard=1/3 scale=32\n\
             save accumulator \"p1.awa\"\n\
             ingest shard=2/3 scale=32\n\
             save accumulator \"p2.awa\"\n\
             ingest shard=3/3 scale=32\n\
             save accumulator \"p3.awa\"\n\
             marker $$merge-only coordinator$$\n\
             generate blobs n=300 k=2 seed=4\n\
             fit adawave scale=32 as direct\n\
             merge \"p1.awa\"\n\
             merge \"p2.awa\"\n\
             merge \"p3.awa\"\n\
             refit\n\
             assert labels == labels_from direct\n");
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn accumulator_steps_report_their_prerequisites_and_paths() {
        let report = run("marker $$save first$$\n\
             generate blobs n=100\n\
             save accumulator \"x.awa\"\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("no streaming session to save"),
            "{failure:?}"
        );

        let report = run("marker $$missing file$$\n\
             generate blobs n=100\n\
             load accumulator \"missing.awa\"\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("loading") && failure.message.contains("missing.awa"),
            "{failure:?}"
        );

        // Merging a file written under a different configuration is
        // rejected and names the offending file.
        let report = run("marker $$mismatch$$\n\
             generate blobs n=200 k=2 seed=7\n\
             ingest shard=1/2 scale=32\n\
             save accumulator \"a.awa\"\n\
             ingest shard=2/2 scale=16\n\
             save accumulator \"b.awa\"\n\
             load accumulator \"a.awa\"\n\
             merge \"b.awa\"\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("merging") && failure.message.contains("b.awa"),
            "{failure:?}"
        );
    }

    #[test]
    fn metric_requires_matching_dataset_and_clustering_lengths() {
        let report = run("marker $$t$$\n\
             generate blobs n=100 k=2 seed=1\n\
             fit adawave scale=16\n\
             generate blobs n=50 k=2 seed=1\n\
             assert ari >= 0.5\n");
        let failure = report.plans[0].failure.as_ref().unwrap();
        assert!(
            failure.message.contains("did the dataset change"),
            "{failure:?}"
        );
    }
}
