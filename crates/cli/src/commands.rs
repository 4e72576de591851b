//! Implementations of the `adawave` subcommands.
//!
//! Every command is a plain function over in-memory data so it can be unit
//! tested without touching the filesystem; `main.rs` only wires file I/O and
//! argument parsing around these functions.

use std::path::Path;
use std::time::Instant;

use adawave::{
    load_model, save_model, standard_registry, AdaWaveConfig, AlgorithmEntry, AlgorithmSpec,
    ClusterError, Model, Params, PointMatrix, PointsView,
};
use adawave_api::closest_matches;
use adawave_data::csv::CsvBatches;
use adawave_data::synthetic::{running_example, synthetic_benchmark};
use adawave_data::{csv, uci, Dataset};
use adawave_grid::BoundingBox;
use adawave_metrics::{
    adjusted_rand_index, ami, ami_ignoring_noise, calinski_harabasz, davies_bouldin,
    normalized_mutual_information, purity, silhouette_score, v_measure, NOISE_LABEL,
};
use adawave_stream::{load_accumulator, save_accumulator, Checkpointer, StreamingAdaWave};
use adawave_wavelet::Wavelet;

use crate::args::{ArgError, ParsedArgs};

/// Errors surfaced to the user by any command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// The command line parsed but the invocation is malformed (unknown
    /// command, missing operands).
    Usage(String),
    /// Anything that prevented the command from completing.
    Message(String),
}

impl CliError {
    /// The process exit code for this error: `2` for usage errors
    /// (bad/unknown command line), `1` for runtime and assertion
    /// failures. Success is `0`, as usual.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Usage(_) => 2,
            CliError::Message(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Message(m)
    }
}

impl From<ClusterError> for CliError {
    fn from(e: ClusterError) -> Self {
        CliError::Message(e.to_string())
    }
}

/// Result alias for command functions.
pub type CliResult<T> = Result<T, CliError>;

/// The usage text printed by `adawave help`.
pub const USAGE: &str = "\
adawave — adaptive wavelet clustering for highly noisy data

USAGE:
  adawave <command> [--option value]...

COMMANDS:
  generate   Generate a synthetic or surrogate dataset as CSV
             --dataset <running-example|synthetic|roadmap|seeds|iris|glass|
                        dumdh|htru2|dermatology|motor|wholesale>
             [--noise <percent>] [--points-per-cluster <n>] [--seed <n>]
             --out <file.csv>
  cluster    Cluster a CSV file (features..., label per line)
             --input <file.csv> [--algo|--algorithm <name[:key=value,...]>]
             [--out <labels.csv>] [--output csv|json] (per-point labels,
              noise as empty/null; to stdout when --out is absent)
             [--save-model <file>] (persist the trained model for
              `predict` / `serve`; supported for every algorithm)
             [--param <key=value>]... (uniform, see `list-algorithms`;
              on collision: shorthand flag < algo spec < --param)
             [--scale <n>] [--wavelet <haar|db2|db3|cdf22|cdf13>]
             [--levels <n>] [--threshold <three-segment|elbow|kneedle|
              quantile:<f>|fixed:<f>>] [--k <n>] [--eps <f>]
             [--min-points <n>] [--bandwidth <f>] [--seed <n>]
             [--threads <n>] (0 = auto: ADAWAVE_THREADS or all cores;
              labels are identical for every thread count)
             [--reassign-noise] [--quiet]
  predict    Label a CSV with a trained model — no refitting
             --input <file.csv>
             --model <file> (saved by `cluster --save-model`) OR
             --train <train.csv> (fit a model first; same algorithm
              options as `cluster`: --algo, --param, shorthand flags)
             [--out <labels.csv>] [--output csv|json] [--quiet]
             [--verbose] (also print the model's summary())
             Out-of-domain/non-finite points are labeled noise.
  serve      Serve trained models over HTTP until killed
             --model <name>=<file.awm> (repeatable; a bare <file.awm>
              is served under its file stem)
             [--addr <host:port>] (default 127.0.0.1:8355; port 0 picks
              a free port)
             [--workers <n>] (0 = auto: ADAWAVE_THREADS or all cores)
             [--verbose] (also print each model's summary())
             Endpoints: GET /health | GET /models | GET /models/<name> |
             POST /models/<name>/predict {\"point\": [..]} |
             POST /models/<name>/predict-batch (CSV or JSON rows;
              responses match `predict --output csv|json` byte for byte) |
             POST /admin/reload/<name> (atomic hot reload from the file)
  stream     Cluster a CSV by ingesting it in bounded batches (constant
             memory for the points; the model is refit from the grid)
             --input <file.csv> [--batch-rows <n>] (default 8192)
             [--prescan] (extra streaming pass computes the exact domain
              first, so labels match `cluster` on the same file; without
              it the domain freezes on the first batch and later
              out-of-domain points are counted as outliers = noise)
             [--out <labels.csv>] [--output csv|json] [--scale <n>]
             [--wavelet <name>] [--levels <n>] [--threshold <name>]
             [--threads <n>]
             [--param <key=value>]... (adawave params, validated like
              `cluster`; --param beats the shorthand flags) [--quiet]
             [--checkpoint <file.awa>] (write the accumulator to the
              file every --checkpoint-every rows and on completion; if
              the file already exists the stream resumes after the rows
              it holds instead of re-ingesting them — the labels are
              bit-identical to the uninterrupted run)
             [--checkpoint-every <rows>] (default 100000)
  shard-ingest
             Ingest one contiguous shard of a CSV into an accumulator
             file — distributed ingestion: run one process per shard,
             then combine with `merge-accumulators`
             --input <file.csv> --shard <i/k> (shard i of k, 1-based)
             --out <file.awa> [--batch-rows <n>]
             [--scale <n>] [--wavelet <name>] [--levels <n>]
             [--threshold <name>] [--threads <n>] [--param <key=value>]...
             The domain is prescanned over the whole file, so every
             shard freezes the identical grid and the merge is exact;
             every shard must be given the same algorithm options.
  merge-accumulators
             Merge accumulator files and refit — labels are identical
             to one-shot `cluster` on the concatenated shard rows
             --input <file.awa> (repeat once per shard, in row order)
             [--out <labels.csv>] [--output csv|json]
             [--save-model <file>] (persist the refit model for
              `predict` / `serve`) [--quiet]
  evaluate   Score predicted labels against the ground truth in a CSV
             --input <file.csv> --labels <labels.csv> [--noise-label <n>]
  sweep      AMI of AdaWave and the baselines across noise levels (mini Fig. 8)
             [--noise <list, default 20,50,80>] [--points-per-cluster <n>]
             [--seed <n>]
  script     Run scenario scripts (the end-to-end regression DSL; the
             golden corpus lives in scenarios/)
             adawave script <file.adw>... [--list]
             [--list] (dry-run: parse and print each script's test plans
              without executing anything)
             Prints a per-plan pass/fail report per file. Exit codes:
             0 = every plan passed, 1 = a plan failed or a script could
             not be parsed/read, 2 = usage error.
  audit      Static-analysis pass over the workspace sources enforcing
             the determinism, panic-safety and float-discipline
             contracts (same engine as the `adawave-audit` binary)
             adawave audit [--root <dir>] [--list] [lint-name ...]
             [--root <dir>] (audit the workspace containing <dir>;
              default: the current directory)
             [--list] (print the lint table and the escape syntax)
             Exit codes: 0 = clean, 1 = findings, 2 = usage error.
  list-algorithms
             Every registered algorithm with its parameters and defaults
  info       List the available algorithms, wavelets and threshold strategies
  help       Show this message

ALGORITHMS:
  adawave (default) and every baseline in the algorithm registry — run
  `adawave list-algorithms` for the authoritative list with per-algorithm
  parameters and defaults; `--param k=3` passes any listed parameter
  directly to the algorithm.
";

/// Dispatch a parsed command line; returns the text to print on stdout.
pub fn dispatch(args: &ParsedArgs) -> CliResult<String> {
    // Only `script` (files) and `audit` (lint names) take positional
    // operands; everywhere else a bare word is a mistake (e.g. a
    // forgotten `--input`).
    if args.command != "script" && args.command != "audit" {
        args.reject_positionals()?;
    }
    match args.command.as_str() {
        "generate" => generate(args),
        "cluster" => cluster(args),
        "predict" => predict(args),
        "serve" => serve(args),
        "stream" => stream(args),
        "shard-ingest" => shard_ingest(args),
        "merge-accumulators" => merge_accumulators(args),
        "evaluate" => evaluate(args),
        "sweep" => sweep(args),
        "script" => script(args),
        "audit" => audit(args),
        "list-algorithms" => Ok(list_algorithms()),
        "info" => Ok(info()),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => {
            let suggestions = closest_matches(other, COMMANDS.iter().copied());
            let hint = match suggestions.as_slice() {
                [] => String::new(),
                names => format!(" — did you mean {}?", names.join(" or ")),
            };
            Err(CliError::Usage(format!(
                "unknown command '{other}'{hint} (try `adawave help`)"
            )))
        }
    }
}

/// Every subcommand `dispatch` accepts, for the did-you-mean suggestions.
const COMMANDS: &[&str] = &[
    "generate",
    "cluster",
    "predict",
    "serve",
    "stream",
    "shard-ingest",
    "merge-accumulators",
    "evaluate",
    "sweep",
    "script",
    "audit",
    "list-algorithms",
    "info",
    "help",
];

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

/// Build the dataset selected by `--dataset`.
pub fn build_dataset(
    name: &str,
    noise_percent: f64,
    points_per_cluster: usize,
    seed: u64,
) -> CliResult<Dataset> {
    let ds = match name {
        "running-example" => running_example(seed),
        "synthetic" => synthetic_benchmark(noise_percent, points_per_cluster, seed),
        "roadmap" => uci::roadmap_like(points_per_cluster.max(1) * 5, seed),
        "seeds" => uci::seeds(seed),
        "iris" => uci::iris(seed),
        "glass" => uci::glass(seed),
        "dumdh" => uci::dumdh(seed),
        "htru2" => uci::htru2(seed),
        "dermatology" => uci::dermatology(seed),
        "motor" => uci::motor(seed),
        "wholesale" => uci::wholesale(seed),
        other => {
            return Err(CliError::Message(format!(
                "unknown dataset '{other}' (see `adawave help`)"
            )))
        }
    };
    Ok(ds)
}

fn generate(args: &ParsedArgs) -> CliResult<String> {
    let dataset_name = args.require("dataset")?;
    let noise = args.parse_or("noise", 50.0)?;
    let per_cluster = args.parse_or("points-per-cluster", 5600usize)?;
    let seed = args.parse_or("seed", 42u64)?;
    let out = args.require("out")?;
    let ds = build_dataset(dataset_name, noise, per_cluster, seed)?;
    csv::save_csv(&ds, Path::new(out))
        .map_err(|e| CliError::Message(format!("writing {out}: {e}")))?;
    Ok(format!(
        "wrote {} ({} points, {} dims, {} classes, {:.1}% noise) to {}\n",
        ds.name,
        ds.len(),
        ds.dims(),
        ds.class_count(),
        100.0 * ds.noise_fraction(),
        out
    ))
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

/// The outcome of clustering a dataset through the CLI.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-point labels with noise mapped to [`NOISE_LABEL`].
    pub labels: Vec<usize>,
    /// Number of clusters found.
    pub clusters: usize,
    /// Number of points labeled noise.
    pub noise_points: usize,
    /// Wall-clock seconds spent clustering.
    pub seconds: f64,
}

/// Build the [`AlgorithmSpec`] for one CLI invocation from a parsed base
/// spec (the compact `name[:key=value,...]` form of `--algo`). Shorthand
/// flags the user actually gave (`--k`, `--eps`, `--scale`, ...) become
/// parameters that [`resolve_lenient`] trims to whatever the selected
/// algorithm declares; flags the user did not give are left out so the
/// registry defaults shown by `list-algorithms` apply. The one exception
/// is `k`, which defaults to the dataset's class count (the paper's
/// protocol for the centroid/model-based algorithms); `true_k` is called
/// only when the algorithm takes `k` and `--k` was not given, since
/// counting classes is a pass over every label. Compact-spec params
/// and explicit `--param key=value` pairs are validated strictly against
/// the algorithm's parameter list so typos are caught. On key collision,
/// precedence is shorthand flag < compact spec < `--param` — the dedicated
/// parameter channels deliberately beat the shared convenience flags.
///
/// [`resolve_lenient`]: adawave::AlgorithmRegistry::resolve_lenient
pub fn build_spec(
    base: AlgorithmSpec,
    args: &ParsedArgs,
    true_k: impl FnOnce() -> usize,
    entry: &AlgorithmEntry,
) -> CliResult<AlgorithmSpec> {
    entry.validate_keys(&base.params)?;
    let default_k = if args.get("k").is_none() && entry.accepted_keys().contains(&"k") {
        true_k().max(1)
    } else {
        1
    };
    let mut spec = AlgorithmSpec::new(base.name.clone()).with("k", args.parse_or("k", default_k)?);
    for key in [
        "seed",
        "eps",
        "min-points",
        "bandwidth",
        "scale",
        "wavelet",
        "levels",
        "threshold",
        "threads",
    ] {
        if let Some(value) = args.get(key) {
            spec.params.set(key, value);
        }
    }
    spec.params.merge(&base.params);
    let mut explicit = Params::new();
    for pair in args.get_all("param") {
        explicit.set_pair(pair)?;
    }
    entry.validate_keys(&explicit)?;
    spec.params.merge(&explicit);
    Ok(spec)
}

/// Cluster a point set with the algorithm and options from the command
/// line, resolving the algorithm by name through the standard registry.
/// `algorithm` accepts the bare name or the compact spec form
/// `name:key=value,...`; `true_k` counts the ground-truth classes, used
/// as `k` by the centroid/model-based algorithms when `--k` is not given
/// (and called only then).
pub fn run_clustering(
    algorithm: &str,
    points: PointsView<'_>,
    args: &ParsedArgs,
    true_k: impl FnOnce() -> usize,
) -> CliResult<ClusterOutcome> {
    Ok(run_clustering_impl(algorithm, points, args, true_k, false)?.0)
}

/// [`run_clustering`] through the two-stage `fit_model` path, additionally
/// returning the trained model (for `--save-model` and `predict --train`).
pub fn run_clustering_with_model(
    algorithm: &str,
    points: PointsView<'_>,
    args: &ParsedArgs,
    true_k: impl FnOnce() -> usize,
) -> CliResult<(ClusterOutcome, Box<dyn Model>)> {
    let (outcome, model) = run_clustering_impl(algorithm, points, args, true_k, true)?;
    Ok((outcome, model.expect("requested above")))
}

#[allow(clippy::type_complexity)]
fn run_clustering_impl(
    algorithm: &str,
    points: PointsView<'_>,
    args: &ParsedArgs,
    true_k: impl FnOnce() -> usize,
    want_model: bool,
) -> CliResult<(ClusterOutcome, Option<Box<dyn Model>>)> {
    let registry = standard_registry();
    let base = AlgorithmSpec::parse(algorithm)?;
    let entry = registry.entry(&base.name)?;
    let spec = build_spec(base, args, true_k, entry)?;
    let clusterer = registry.resolve_lenient(&spec)?;
    let start = Instant::now();
    let (clustering, model) = if want_model {
        let outcome = clusterer.fit_model(points)?;
        (outcome.clustering, Some(outcome.model))
    } else {
        (clusterer.fit(points)?, None)
    };
    let seconds = start.elapsed().as_secs_f64();

    let labels = if args.flag("reassign-noise") {
        clustering
            .assign_noise_to_nearest_centroid(points)
            .to_labels(NOISE_LABEL)
    } else {
        clustering.to_labels(NOISE_LABEL)
    };
    Ok((
        ClusterOutcome {
            noise_points: labels.iter().filter(|&&l| l == NOISE_LABEL).count(),
            clusters: clustering.cluster_count(),
            labels,
            seconds,
        },
        model,
    ))
}

// ---------------------------------------------------------------------------
// label output (shared by cluster, stream and predict)
// ---------------------------------------------------------------------------

/// Per-point label output format selected by `--output`.
pub use adawave_api::LabelFormat as OutputFormat;

/// Parse the `--output` option (`None` = the default summary/labels-file
/// behavior).
pub fn output_format(args: &ParsedArgs) -> CliResult<Option<OutputFormat>> {
    match args.get("output") {
        None => Ok(None),
        Some("csv") => Ok(Some(OutputFormat::Csv)),
        Some("json") => Ok(Some(OutputFormat::Json)),
        Some(other) => Err(CliError::Args(ArgError::InvalidValue {
            option: "output".to_string(),
            value: other.to_string(),
            expected: "csv or json".to_string(),
        })),
    }
}

/// Render per-point labels in the selected format — the one writer shared
/// by `cluster`, `stream` and `predict` (and, through
/// [`adawave_api::render_labels`], by the serve daemon's batch replies).
/// Noise is an empty field in CSV and `null` in JSON.
pub fn render_labels(labels: &[usize], format: OutputFormat) -> String {
    let labels = labels.iter().map(|&l| (l != NOISE_LABEL).then_some(l));
    adawave_api::render_labels(labels, format)
}

/// Route per-point labels to where the flags say: with `--output`, the
/// formatted labels go to `--out` when given (the summary `report` becomes
/// the stdout text) or straight to stdout otherwise; without `--output`,
/// the legacy labels-file format is written to `--out` and the summary is
/// printed. This is the one emission path `cluster`, `stream` and
/// `predict` share.
fn emit_labels(args: &ParsedArgs, labels: &[usize], report: String) -> CliResult<String> {
    let format = output_format(args)?;
    match (format, args.get("out")) {
        (None, None) => Ok(report),
        (None, Some(out)) => {
            std::fs::write(out, labels_to_text(labels))
                .map_err(|e| CliError::Message(format!("writing {out}: {e}")))?;
            Ok(report)
        }
        (Some(format), None) => Ok(render_labels(labels, format)),
        (Some(format), Some(out)) => {
            std::fs::write(out, render_labels(labels, format))
                .map_err(|e| CliError::Message(format!("writing {out}: {e}")))?;
            Ok(report)
        }
    }
}

/// Render the predicted labels as the text of a labels file: one label per
/// line, with the literal word `noise` for noise points.
pub fn labels_to_text(labels: &[usize]) -> String {
    let mut text = String::with_capacity(labels.len() * 4);
    for &l in labels {
        if l == NOISE_LABEL {
            text.push_str("noise\n");
        } else {
            text.push_str(&l.to_string());
            text.push('\n');
        }
    }
    text
}

/// Parse a labels file produced by [`labels_to_text`] or by
/// `--output csv` ([`render_labels`]): one label per line, where `noise`,
/// `-1` and an **empty line** all mean noise, a leading `label` header is
/// skipped, and `#` lines are comments — so every label format this CLI
/// writes round-trips into `evaluate --labels`.
pub fn labels_from_text(text: &str) -> CliResult<Vec<usize>> {
    let mut labels = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || (line_no == 0 && line == "label") {
            continue;
        }
        if line.is_empty() || line == "noise" || line == "-1" {
            labels.push(NOISE_LABEL);
        } else {
            labels.push(line.parse::<usize>().map_err(|_| {
                CliError::Message(format!(
                    "labels file line {}: bad label '{line}'",
                    line_no + 1
                ))
            })?);
        }
    }
    Ok(labels)
}

fn cluster(args: &ParsedArgs) -> CliResult<String> {
    let input = args.require("input")?;
    let algorithm = args
        .get("algorithm")
        .or_else(|| args.get("algo"))
        .unwrap_or("adawave");
    let ds = csv::load_csv(Path::new(input))
        .map_err(|e| CliError::Message(format!("reading {input}: {e}")))?;
    // Only the two-stage path builds the trained model artifact; plain
    // clustering keeps the cheaper label-only path.
    let (outcome, model) = if let Some(model_path) = args.get("save-model") {
        let (outcome, model) =
            run_clustering_with_model(algorithm, ds.view(), args, || ds.cluster_count())?;
        save_model(Path::new(model_path), model.as_ref())
            .map_err(|e| CliError::Message(format!("saving model to {model_path}: {e}")))?;
        (outcome, Some(model))
    } else {
        (
            run_clustering(algorithm, ds.view(), args, || ds.cluster_count())?,
            None,
        )
    };

    let mut report = format!(
        "{}: {} clusters, {} noise points / {} total in {:.3}s\n",
        algorithm,
        outcome.clusters,
        outcome.noise_points,
        ds.len(),
        outcome.seconds
    );
    if let (Some(model), Some(path)) = (&model, args.get("save-model")) {
        report.push_str(&format!("saved model to {path} ({})\n", model.summary()));
    }
    if !args.flag("quiet") {
        let score = match ds.noise_label {
            Some(noise) => ami_ignoring_noise(&ds.labels, &outcome.labels, noise),
            None => ami(&ds.labels, &outcome.labels),
        };
        report.push_str(&format!("AMI against the labels in {input}: {score:.3}\n"));
    }
    emit_labels(args, &outcome.labels, report)
}

// ---------------------------------------------------------------------------
// predict
// ---------------------------------------------------------------------------

/// Obtain the model `predict` should serve from: load a saved model file,
/// or fit one on a training CSV with the same algorithm options `cluster`
/// accepts.
fn predict_model(args: &ParsedArgs) -> CliResult<Box<dyn Model>> {
    match (args.get("model"), args.get("train")) {
        (Some(path), None) => load_model(Path::new(path))
            .map_err(|e| CliError::Message(format!("loading model from {path}: {e}"))),
        (None, Some(train_path)) => {
            let train = csv::load_csv(Path::new(train_path))
                .map_err(|e| CliError::Message(format!("reading {train_path}: {e}")))?;
            let algorithm = args
                .get("algorithm")
                .or_else(|| args.get("algo"))
                .unwrap_or("adawave");
            let (_, model) =
                run_clustering_with_model(algorithm, train.view(), args, || train.cluster_count())?;
            Ok(model)
        }
        (Some(_), Some(_)) => Err(CliError::Message(
            "give either --model <file> or --train <csv>, not both".to_string(),
        )),
        (None, None) => Err(CliError::Message(
            "predict needs a model: --model <file> (saved by `cluster --save-model`) \
             or --train <csv> (fit one first)"
                .to_string(),
        )),
    }
}

fn predict(args: &ParsedArgs) -> CliResult<String> {
    let input = args.require("input")?;
    // Resolve the model first so a missing/ambiguous source is reported
    // before any input parsing work.
    let model = predict_model(args)?;
    let ds = csv::load_csv(Path::new(input))
        .map_err(|e| CliError::Message(format!("reading {input}: {e}")))?;
    let start = Instant::now();
    let clustering = model.predict(ds.view())?;
    let seconds = start.elapsed().as_secs_f64();
    let labels = clustering.to_labels(NOISE_LABEL);

    let mut report = format!(
        "predict ({}): {} clusters, {} noise points / {} total in {:.3}s\n",
        model.algorithm(),
        clustering.cluster_count(),
        clustering.noise_count(),
        ds.len(),
        seconds,
    );
    if args.flag("verbose") {
        report.push_str(&format!("{}\n", model.summary()));
    }
    if !args.flag("quiet") {
        let score = match ds.noise_label {
            Some(noise) => ami_ignoring_noise(&ds.labels, &labels, noise),
            None => ami(&ds.labels, &labels),
        };
        report.push_str(&format!("AMI against the labels in {input}: {score:.3}\n"));
    }
    emit_labels(args, &labels, report)
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Resolve every `--model` spec (`name=file`, or a bare `file` served
/// under its file stem) into a loaded [`adawave::ModelStore`] and start
/// the daemon, returning it with the startup banner. Split from the
/// blocking `serve` command body so tests can start and stop a server.
pub fn start_serve(args: &ParsedArgs) -> CliResult<(adawave::Server, String)> {
    let specs: Vec<&str> = args.get_all("model").collect();
    if specs.is_empty() {
        return Err(CliError::Message(
            "serve needs at least one --model <name>=<file.awm> \
             (files come from `cluster --save-model`)"
                .to_string(),
        ));
    }
    let store = std::sync::Arc::new(adawave::ModelStore::new(adawave::model_loader()));
    for spec in specs {
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) if !name.is_empty() => (name.to_string(), path),
            _ => {
                let stem = Path::new(spec)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| {
                        CliError::Message(format!("--model {spec}: cannot derive a name"))
                    })?;
                (stem.to_string(), spec)
            }
        };
        store
            .load(&name, Path::new(path))
            .map_err(|e| CliError::Message(format!("loading model '{name}' from {path}: {e}")))?;
    }
    let config = adawave::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8355").to_string(),
        workers: args.parse_or("workers", 0usize)?,
        ..adawave::ServeConfig::default()
    };
    let server = adawave::Server::start(config, std::sync::Arc::clone(&store))
        .map_err(|e| CliError::Message(format!("starting server: {e}")))?;

    let mut banner = format!(
        "serving {} model(s) on http://{} with {} worker(s)\n",
        store.len(),
        server.local_addr(),
        server.workers(),
    );
    for entry in store.entries() {
        banner.push_str(&format!(
            "  {}: {} ({}-d, v{}, {})\n",
            entry.name,
            entry.model.algorithm(),
            entry.model.dims(),
            entry.version,
            entry.path.display(),
        ));
        if args.flag("verbose") {
            banner.push_str(&format!("    {}\n", entry.model.summary()));
        }
    }
    banner.push_str(
        "endpoints: GET /health | GET /models | GET /models/<name> | \
         POST /models/<name>/predict | POST /models/<name>/predict-batch | \
         POST /admin/reload/<name>",
    );
    Ok((server, banner))
}

fn serve(args: &ParsedArgs) -> CliResult<String> {
    let (server, banner) = start_serve(args)?;
    // Print and flush before parking so wrappers (the CI smoke) can wait
    // for the banner as the readiness signal.
    println!("{banner}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    Ok(String::new())
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

/// Build an [`AdaWaveConfig`] from the shared shorthand flags
/// (`--scale`, `--wavelet`, `--levels`, `--threshold`, `--threads`) plus
/// explicit `--param key=value` pairs, reusing the registry-facing
/// parameter parsing and validation so the accepted keys, values,
/// precedence (shorthand < `--param`) and error messages match
/// `cluster --algo adawave`.
fn adawave_config_from_args(args: &ParsedArgs) -> CliResult<AdaWaveConfig> {
    let mut params = Params::new();
    for key in ["scale", "wavelet", "levels", "threshold", "threads"] {
        if let Some(value) = args.get(key) {
            params.set(key, value);
        }
    }
    let mut explicit = Params::new();
    for pair in args.get_all("param") {
        explicit.set_pair(pair)?;
    }
    standard_registry()
        .entry("adawave")?
        .validate_keys(&explicit)?;
    params.merge(&explicit);
    Ok(AdaWaveConfig::from_params(&params)?)
}

/// The outcome of streaming a CSV through [`StreamingAdaWave`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Per-point labels with noise mapped to [`NOISE_LABEL`], in file order.
    pub labels: Vec<usize>,
    /// Ground-truth labels from the CSV's last column, in file order.
    pub truth: Vec<usize>,
    /// Number of clusters found.
    pub clusters: usize,
    /// Number of points labeled noise (outliers included).
    pub noise_points: usize,
    /// Points that fell outside the frozen domain.
    pub outliers: usize,
    /// Number of ingested batches.
    pub batches: usize,
    /// Total points ingested.
    pub points: usize,
    /// Occupied cells of the accumulated grid (the refit cost driver).
    pub occupied_cells: usize,
    /// Wall-clock seconds spent reading + quantizing batches.
    pub ingest_seconds: f64,
    /// Wall-clock seconds spent refitting the model and labeling.
    pub refit_seconds: f64,
    /// Rows restored from a `--checkpoint` file and skipped (0 when the
    /// stream started fresh).
    pub resumed_points: usize,
}

/// Where `stream --checkpoint` persists and resumes the accumulator.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// The accumulator file, written atomically (write-then-rename).
    pub path: std::path::PathBuf,
    /// Flush cadence in ingested rows.
    pub every: usize,
}

/// Rows `lo..hi` of a matrix as a borrowed view (no copying).
fn point_rows(points: &PointMatrix, lo: usize, hi: usize) -> PointsView<'_> {
    let dims = points.dims();
    PointsView::from_flat(&points.as_slice()[lo * dims..hi * dims], dims)
        .expect("row-aligned slice of a valid matrix")
}

/// One streaming pass over a CSV file: the union of its per-batch
/// finite-row boxes and its row count. Rows with a non-finite value stay
/// outliers of the later ingest pass instead of making this pass fatal;
/// a file without a single finite row is an error.
fn prescan_domain(path: &Path, batch_rows: usize) -> CliResult<(BoundingBox, usize)> {
    let read_err = |e: csv::CsvError| CliError::Message(format!("reading {}: {e}", path.display()));
    let mut domain: Option<BoundingBox> = None;
    let mut rows = 0usize;
    for batch in CsvBatches::open(path, batch_rows).map_err(read_err)? {
        let batch = batch.map_err(read_err)?;
        rows += batch.points.len();
        if let Some(bounds) = adawave_stream::finite_bounds(batch.view()) {
            domain = Some(match domain {
                Some(d) => d.union(&bounds),
                None => bounds,
            });
        }
    }
    let domain = domain.ok_or_else(|| {
        CliError::Message(format!("{} holds no finite data points", path.display()))
    })?;
    Ok((domain, rows))
}

/// Stream a CSV file through [`StreamingAdaWave`] in batches of
/// `batch_rows` points. With `prescan`, a first streaming pass computes
/// the exact bounding box of the whole file (batch-box unions — still one
/// batch in memory at a time) so the result is identical to the one-shot
/// `cluster` command; without it the domain freezes on the first batch.
pub fn run_stream(
    path: &Path,
    batch_rows: usize,
    prescan: bool,
    config: AdaWaveConfig,
) -> CliResult<StreamOutcome> {
    run_stream_checkpointed(path, batch_rows, prescan, config, None)
}

/// [`run_stream`] with an optional checkpoint: the accumulator is written
/// to `checkpoint.path` every `checkpoint.every` ingested rows (and once
/// more at the end), and when the file already exists the session restores
/// from it and skips the rows it holds — so a killed run picks up where
/// the last checkpoint left off and still produces bit-identical labels.
pub fn run_stream_checkpointed(
    path: &Path,
    batch_rows: usize,
    prescan: bool,
    config: AdaWaveConfig,
    checkpoint: Option<&CheckpointSpec>,
) -> CliResult<StreamOutcome> {
    let read_err = |e: csv::CsvError| CliError::Message(format!("reading {}: {e}", path.display()));
    let stream_err = |e: adawave_stream::StreamError| {
        CliError::Message(format!("streaming {}: {e}", path.display()))
    };

    // Resume path: the checkpoint file holds the whole session (frozen
    // domain included), so the prescan is unnecessary when it exists.
    let resume = match checkpoint {
        Some(cp) if cp.path.exists() => {
            let restored = load_accumulator(&cp.path).map_err(|e| {
                CliError::Message(format!("reading checkpoint {}: {e}", cp.path.display()))
            })?;
            // The restored config must match the flags of this run — the
            // runtime aside, which never changes results.
            let mut theirs = restored.config().clone();
            theirs.runtime = config.runtime;
            if theirs != config {
                return Err(CliError::Message(format!(
                    "checkpoint {} was written under a different configuration; \
                     rerun with the original flags or delete the file",
                    cp.path.display()
                )));
            }
            Some(restored)
        }
        _ => None,
    };
    let mut stream = match resume {
        Some(restored) => restored,
        None if prescan => {
            let (domain, _) = prescan_domain(path, batch_rows)?;
            StreamingAdaWave::with_domain(config, domain).map_err(stream_err)?
        }
        None => StreamingAdaWave::new(config),
    };
    let resumed_points = stream.points_ingested();

    let mut checkpointer = checkpoint.map(|cp| Checkpointer::new(&cp.path, cp.every));
    let checkpoint_err = |c: &Checkpointer, e: adawave_api::ArtifactError| {
        CliError::Message(format!("writing checkpoint {}: {e}", c.path().display()))
    };
    let mut truth = Vec::new();
    let mut batches = 0usize;
    let mut row = 0usize;
    let ingest_start = Instant::now();
    for batch in CsvBatches::open(path, batch_rows).map_err(read_err)? {
        let batch = batch.map_err(read_err)?;
        let n = batch.points.len();
        truth.extend_from_slice(&batch.labels);
        // Rows the checkpoint already holds are skipped, not re-ingested.
        let skip = resumed_points.saturating_sub(row).min(n);
        if skip < n {
            let report = stream
                .ingest(point_rows(&batch.points, skip, n))
                .map_err(stream_err)?;
            if let Some(c) = checkpointer.as_mut() {
                c.observe(&stream, report.points)
                    .map_err(|e| checkpoint_err(c, e))?;
            }
        }
        row += n;
        batches += 1;
    }
    if stream.points_ingested() != row {
        return Err(CliError::Message(format!(
            "checkpoint holds {resumed_points} rows but {} has {row}; \
             was it written for a different file?",
            path.display()
        )));
    }
    if let Some(c) = checkpointer.as_mut() {
        // Final flush: a rerun of the same command skips every row and
        // goes straight to the refit.
        c.flush(&stream).map_err(|e| checkpoint_err(c, e))?;
    }
    let outliers = stream.outlier_count();
    let ingest_seconds = ingest_start.elapsed().as_secs_f64();

    let refit_start = Instant::now();
    let result = stream.refit().map_err(stream_err)?;
    let refit_seconds = refit_start.elapsed().as_secs_f64();

    // Route through the canonical `Clustering` so the emitted ids follow
    // the same first-appearance numbering as the `cluster` command —
    // `stream --prescan` and `cluster` then agree label for label, not
    // just partition for partition.
    // The cluster count comes from the same clustering: the model's
    // component count also includes components no point falls in.
    let clustering = result.into_clustering();
    let labels = clustering.to_labels(NOISE_LABEL);
    Ok(StreamOutcome {
        noise_points: labels.iter().filter(|&&l| l == NOISE_LABEL).count(),
        clusters: clustering.cluster_count(),
        outliers,
        batches,
        points: labels.len(),
        occupied_cells: stream.occupied_cells(),
        ingest_seconds,
        refit_seconds,
        resumed_points,
        labels,
        truth,
    })
}

fn stream(args: &ParsedArgs) -> CliResult<String> {
    let input = args.require("input")?;
    let batch_rows = args.parse_or("batch-rows", 8192usize)?;
    if batch_rows == 0 {
        return Err(CliError::Args(ArgError::InvalidValue {
            option: "batch-rows".to_string(),
            value: "0".to_string(),
            expected: "a positive batch size".to_string(),
        }));
    }
    let config = adawave_config_from_args(args)?;
    let checkpoint = match (args.get("checkpoint"), args.get("checkpoint-every")) {
        (None, Some(_)) => {
            return Err(CliError::Usage(
                "--checkpoint-every needs --checkpoint <file.awa>".to_string(),
            ))
        }
        (None, None) => None,
        (Some(p), _) => {
            let every = args.parse_or("checkpoint-every", 100_000usize)?;
            if every == 0 {
                return Err(CliError::Args(ArgError::InvalidValue {
                    option: "checkpoint-every".to_string(),
                    value: "0".to_string(),
                    expected: "a positive row interval".to_string(),
                }));
            }
            Some(CheckpointSpec {
                path: std::path::PathBuf::from(p),
                every,
            })
        }
    };
    let outcome = run_stream_checkpointed(
        Path::new(input),
        batch_rows,
        args.flag("prescan"),
        config,
        checkpoint.as_ref(),
    )?;

    let mut report = format!(
        "adawave-stream: {} clusters, {} noise points / {} total \
         ({} batches, {} points outside the frozen domain)\n\
         {} occupied cells; read+ingest {:.3}s, refit {:.3}s\n",
        outcome.clusters,
        outcome.noise_points,
        outcome.points,
        outcome.batches,
        outcome.outliers,
        outcome.occupied_cells,
        outcome.ingest_seconds,
        outcome.refit_seconds,
    );
    if let Some(cp) = &checkpoint {
        if outcome.resumed_points > 0 {
            report.push_str(&format!(
                "resumed from {}: {} already-ingested rows skipped\n",
                cp.path.display(),
                outcome.resumed_points
            ));
        }
        report.push_str(&format!(
            "checkpoint {} (every {} rows)\n",
            cp.path.display(),
            cp.every
        ));
    }
    if !args.flag("quiet") {
        let score = ami(&outcome.truth, &outcome.labels);
        report.push_str(&format!("AMI against the labels in {input}: {score:.3}\n"));
    }
    emit_labels(args, &outcome.labels, report)
}

// ---------------------------------------------------------------------------
// shard-ingest & merge-accumulators
// ---------------------------------------------------------------------------

/// Parse the `--shard i/k` spec into a 1-based `(index, count)` pair.
fn parse_shard(spec: &str) -> CliResult<(usize, usize)> {
    let parsed = spec.split_once('/').and_then(|(i, k)| {
        Some((
            i.trim().parse::<usize>().ok()?,
            k.trim().parse::<usize>().ok()?,
        ))
    });
    match parsed {
        Some((index, count)) if count >= 1 && (1..=count).contains(&index) => Ok((index, count)),
        _ => Err(CliError::Args(ArgError::InvalidValue {
            option: "shard".to_string(),
            value: spec.to_string(),
            expected: "<i>/<k> with 1 <= i <= k (e.g. --shard 2/3)".to_string(),
        })),
    }
}

/// The `shard-ingest` command: ingest rows `[n*(i-1)/k, n*i/k)` of the CSV
/// into an accumulator file. The domain is always prescanned over the
/// *whole* file (like `stream --prescan`), so every shard of the same file
/// freezes the identical quantizer and the accumulators merge exactly —
/// the shards only differ in which rows they count into the grid.
fn shard_ingest(args: &ParsedArgs) -> CliResult<String> {
    let input = args.require("input")?;
    let out = args.require("out")?;
    let (index, count) = parse_shard(args.require("shard")?)?;
    let batch_rows = args.parse_or("batch-rows", 8192usize)?;
    if batch_rows == 0 {
        return Err(CliError::Args(ArgError::InvalidValue {
            option: "batch-rows".to_string(),
            value: "0".to_string(),
            expected: "a positive batch size".to_string(),
        }));
    }
    let config = adawave_config_from_args(args)?;
    let path = Path::new(input);
    let read_err = |e: csv::CsvError| CliError::Message(format!("reading {input}: {e}"));
    let stream_err =
        |e: adawave_stream::StreamError| CliError::Message(format!("streaming {input}: {e}"));

    // Pass 1: the exact domain and row count of the whole file — identical
    // for every shard, whichever slice it goes on to ingest.
    let (domain, total) = prescan_domain(path, batch_rows)?;
    let (lo, hi) = (total * (index - 1) / count, total * index / count);

    // Pass 2: ingest only this shard's contiguous row slice.
    let mut stream = StreamingAdaWave::with_domain(config, domain).map_err(stream_err)?;
    let start = Instant::now();
    let mut row = 0usize;
    for batch in CsvBatches::open(path, batch_rows).map_err(read_err)? {
        let batch = batch.map_err(read_err)?;
        let n = batch.points.len();
        let (a, b) = (lo.clamp(row, row + n), hi.clamp(row, row + n));
        if a < b {
            stream
                .ingest(point_rows(&batch.points, a - row, b - row))
                .map_err(stream_err)?;
        }
        row += n;
        if row >= hi {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    save_accumulator(Path::new(out), &stream)
        .map_err(|e| CliError::Message(format!("writing {out}: {e}")))?;
    Ok(format!(
        "shard {index}/{count} of {input}: rows {lo}..{hi} ({} points, {} outliers, \
         {} occupied cells) in {seconds:.3}s -> {out}\n",
        stream.points_ingested(),
        stream.outlier_count(),
        stream.occupied_cells(),
    ))
}

/// The `merge-accumulators` command: load every `--input` accumulator in
/// argument order, merge them, refit once, and emit the labels of all
/// ingested points in shard order — identical to what one-shot `cluster`
/// labels the concatenated rows, because the merged grid is bit-identical.
fn merge_accumulators(args: &ParsedArgs) -> CliResult<String> {
    let inputs: Vec<&str> = args.get_all("input").collect();
    if inputs.is_empty() {
        return Err(CliError::Usage(
            "merge-accumulators needs at least one --input <file.awa> \
             (written by `shard-ingest` or `stream --checkpoint`)"
                .to_string(),
        ));
    }
    let mut merged: Option<StreamingAdaWave> = None;
    for input in &inputs {
        let shard = load_accumulator(Path::new(input))
            .map_err(|e| CliError::Message(format!("reading {input}: {e}")))?;
        merged = Some(match merged.take() {
            None => shard,
            Some(mut acc) => {
                acc.merge(shard)
                    .map_err(|e| CliError::Message(format!("merging {input}: {e}")))?;
                acc
            }
        });
    }
    let stream = merged.expect("inputs is non-empty");
    let refit_err = |e: adawave_stream::StreamError| CliError::Message(format!("refit: {e}"));

    let start = Instant::now();
    // Only the two-stage path builds the serving model artifact.
    let (labels, clusters, model_line) = if let Some(model_path) = args.get("save-model") {
        let outcome = stream.refit_outcome().map_err(refit_err)?;
        save_model(Path::new(model_path), outcome.model.as_ref())
            .map_err(|e| CliError::Message(format!("saving model to {model_path}: {e}")))?;
        let line = format!(
            "saved model to {model_path} ({})\n",
            outcome.model.summary()
        );
        (
            outcome.clustering.to_labels(NOISE_LABEL),
            outcome.clustering.cluster_count(),
            Some(line),
        )
    } else {
        let clustering = stream.refit().map_err(refit_err)?.into_clustering();
        (
            clustering.to_labels(NOISE_LABEL),
            clustering.cluster_count(),
            None,
        )
    };
    let seconds = start.elapsed().as_secs_f64();

    let noise_points = labels.iter().filter(|&&l| l == NOISE_LABEL).count();
    let mut report = format!(
        "merged {} accumulator(s): {} clusters, {} noise points / {} total \
         ({} outliers, {} occupied cells); refit {seconds:.3}s\n",
        inputs.len(),
        clusters,
        noise_points,
        labels.len(),
        stream.outlier_count(),
        stream.occupied_cells(),
    );
    if let Some(line) = model_line {
        report.push_str(&line);
    }
    emit_labels(args, &labels, report)
}

// ---------------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------------

/// Compute the evaluation report for a (truth, predicted) pair.
pub fn evaluation_report(
    points: PointsView<'_>,
    truth: &[usize],
    predicted: &[usize],
    noise_label: Option<usize>,
) -> CliResult<String> {
    if truth.len() != predicted.len() {
        return Err(CliError::Message(format!(
            "{} ground-truth labels but {} predictions",
            truth.len(),
            predicted.len()
        )));
    }
    let mut out = String::new();
    out.push_str(&format!("points                {}\n", truth.len()));
    out.push_str(&format!(
        "AMI                   {:.4}\n",
        ami(truth, predicted)
    ));
    if let Some(noise) = noise_label {
        out.push_str(&format!(
            "AMI (non-noise only)  {:.4}\n",
            ami_ignoring_noise(truth, predicted, noise)
        ));
    }
    out.push_str(&format!(
        "NMI                   {:.4}\n",
        normalized_mutual_information(truth, predicted, adawave_metrics::AverageMethod::Arithmetic)
    ));
    out.push_str(&format!(
        "ARI                   {:.4}\n",
        adjusted_rand_index(truth, predicted)
    ));
    out.push_str(&format!(
        "V-measure             {:.4}\n",
        v_measure(truth, predicted)
    ));
    out.push_str(&format!(
        "purity                {:.4}\n",
        purity(truth, predicted)
    ));
    // Internal indices need the geometry; cap the cost on large inputs.
    if !points.is_empty() && points.len() <= 20_000 {
        let optional: Vec<Option<usize>> = predicted
            .iter()
            .map(|&l| if l == NOISE_LABEL { None } else { Some(l) })
            .collect();
        out.push_str(&format!(
            "silhouette            {:.4}\n",
            silhouette_score(points, &optional)
        ));
        out.push_str(&format!(
            "Davies-Bouldin        {:.4}\n",
            davies_bouldin(points, &optional)
        ));
        out.push_str(&format!(
            "Calinski-Harabasz     {:.1}\n",
            calinski_harabasz(points, &optional)
        ));
    }
    Ok(out)
}

fn evaluate(args: &ParsedArgs) -> CliResult<String> {
    let input = args.require("input")?;
    let labels_path = args.require("labels")?;
    let ds = csv::load_csv(Path::new(input))
        .map_err(|e| CliError::Message(format!("reading {input}: {e}")))?;
    let text = std::fs::read_to_string(labels_path)
        .map_err(|e| CliError::Message(format!("reading {labels_path}: {e}")))?;
    let predicted = labels_from_text(&text)?;
    let noise_label = match args.get("noise-label") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| CliError::Message(format!("bad --noise-label '{raw}'")))?,
        ),
        None => ds.noise_label,
    };
    evaluation_report(ds.view(), &ds.labels, &predicted, noise_label)
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// One row of the sweep table.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Noise percentage of the dataset.
    pub noise_percent: f64,
    /// `(algorithm name, AMI over non-noise points)` pairs.
    pub scores: Vec<(String, f64)>,
}

/// Run the mini Fig. 8 sweep over the given noise levels. `scale` is the
/// AdaWave grid scale — reduced sweeps (a few hundred points per cluster)
/// need a coarser grid than the paper's full-size default of 128, otherwise
/// cluster cells hold as few points as noise cells.
pub fn run_sweep(
    noise_levels: &[f64],
    points_per_cluster: usize,
    seed: u64,
    scale: u32,
) -> Vec<SweepRow> {
    use adawave_data::synthetic::SYNTHETIC_NOISE_LABEL;
    let algorithms = ["adawave", "kmeans", "dbscan", "skinnydip"];
    let scale_arg = scale.to_string();
    let mut rows = Vec::new();
    for &noise in noise_levels {
        let ds = synthetic_benchmark(noise, points_per_cluster, seed);
        let mut scores = Vec::new();
        for algo in algorithms {
            let args = ParsedArgs::parse(["cluster", "--scale", &scale_arg]).expect("static args");
            let outcome = match run_clustering(algo, ds.view(), &args, || ds.cluster_count()) {
                Ok(o) => o,
                Err(_) => continue,
            };
            let score = ami_ignoring_noise(&ds.labels, &outcome.labels, SYNTHETIC_NOISE_LABEL);
            scores.push((algo.to_string(), score));
        }
        rows.push(SweepRow {
            noise_percent: noise,
            scores,
        });
    }
    rows
}

/// Render the sweep table.
pub fn format_sweep(rows: &[SweepRow]) -> String {
    let mut out = String::from("noise%  ");
    if let Some(first) = rows.first() {
        for (name, _) in &first.scores {
            out.push_str(&format!("{name:>10}"));
        }
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:>6.0}  ", row.noise_percent));
        for (_, score) in &row.scores {
            out.push_str(&format!("{score:>10.3}"));
        }
        out.push('\n');
    }
    out
}

fn sweep(args: &ParsedArgs) -> CliResult<String> {
    let noise_levels = args.parse_f64_list("noise", &[20.0, 50.0, 80.0])?;
    let per_cluster = args.parse_or("points-per-cluster", 600usize)?;
    let seed = args.parse_or("seed", 7u64)?;
    let scale = args.parse_or("scale", 64u32)?;
    let rows = run_sweep(&noise_levels, per_cluster, seed, scale);
    Ok(format_sweep(&rows))
}

// ---------------------------------------------------------------------------
// script
// ---------------------------------------------------------------------------

fn script(args: &ParsedArgs) -> CliResult<String> {
    let list = args.flag("list") || args.get("list").is_some();
    // Files are positional; `--list before.adw` makes the file the
    // option's value, so fold those back into the file list too.
    let mut files: Vec<String> = args.positionals().to_vec();
    files.extend(args.get_all("list").map(String::from));
    if files.is_empty() {
        return Err(CliError::Usage(
            "script needs at least one script file: adawave script <file.adw>... [--list]"
                .to_string(),
        ));
    }
    let mut out = String::new();
    let mut failed = 0usize;
    for file in &files {
        let path = Path::new(file);
        let source =
            std::fs::read_to_string(path).map_err(|e| CliError::Message(format!("{file}: {e}")))?;
        let parsed = adawave::script::parse(&source)
            .map_err(|e| CliError::Message(format!("{file}: {e}")))?;
        if list {
            out.push_str(&format!("{file}: {} plan(s)\n", parsed.plans.len()));
            for plan in &parsed.plans {
                out.push_str(&format!("  line {:>3}: {}\n", plan.line, plan.title));
            }
            continue;
        }
        // Relative `load "data.csv"` paths resolve next to the script.
        let dir = match path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let report = adawave::script_engine().with_script_dir(dir).run(&parsed);
        out.push_str(&format!("{file}:\n{}", report.render()));
        if !report.passed() {
            failed += 1;
        }
    }
    if failed > 0 {
        Err(CliError::Message(format!(
            "{out}{failed} of {} script(s) failed",
            files.len()
        )))
    } else {
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

fn audit(args: &ParsedArgs) -> CliResult<String> {
    if args.flag("list") || args.get("list").is_some() {
        return Ok(adawave_audit::list_text());
    }
    let names: Vec<String> = args.positionals().to_vec();
    let filter = adawave_audit::resolve_lint_names(&names).map_err(CliError::Usage)?;
    let filter = (!filter.is_empty()).then_some(filter.as_slice());
    let start = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::current_dir().map_err(|e| {
            CliError::Message(format!("cannot determine the working directory: {e}"))
        })?,
    };
    let root = adawave_audit::find_root(&start).ok_or_else(|| {
        CliError::Usage(format!(
            "no workspace Cargo.toml at or above {} (use --root)",
            start.display()
        ))
    })?;
    let findings = adawave_audit::audit_workspace(&root, filter).map_err(CliError::Message)?;
    if findings.is_empty() {
        return Ok("audit: workspace clean\n".to_string());
    }
    let mut out = String::new();
    for finding in &findings {
        out.push_str(&finding.to_string());
        out.push('\n');
    }
    out.push_str(&format!("audit: {} finding(s)", findings.len()));
    Err(CliError::Message(out))
}

// ---------------------------------------------------------------------------
// info & list-algorithms
// ---------------------------------------------------------------------------

fn info() -> String {
    let mut out = String::new();
    out.push_str(&format!("adawave {}\n\n", env!("CARGO_PKG_VERSION")));
    out.push_str("algorithms: ");
    out.push_str(&standard_registry().names().join(" "));
    out.push('\n');
    out.push_str("wavelets:   ");
    for w in Wavelet::ALL {
        out.push_str(w.name());
        out.push(' ');
    }
    out.push('\n');
    out.push_str("thresholds: three-segment elbow kneedle quantile:<f> fixed:<f>\n");
    out.push_str("datasets:   running-example synthetic roadmap seeds iris glass dumdh htru2 dermatology motor wholesale\n");
    out.push_str("\n(run `adawave list-algorithms` for per-algorithm parameters)\n");
    out
}

/// The `list-algorithms` command: every registered algorithm with its
/// summary, parameters and defaults, straight from the registry.
pub fn list_algorithms() -> String {
    standard_registry().describe()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave::PointMatrix;
    use adawave_data::shapes;
    use adawave_data::Rng;

    fn toy_points() -> (PointMatrix, Vec<usize>) {
        let mut rng = Rng::new(1);
        let mut points = PointMatrix::new(2);
        let mut truth = Vec::new();
        shapes::gaussian_blob(&mut points, &mut rng, &[0.2, 0.2], &[0.02, 0.02], 120);
        truth.extend(std::iter::repeat_n(0usize, 120));
        shapes::gaussian_blob(&mut points, &mut rng, &[0.8, 0.8], &[0.02, 0.02], 120);
        truth.extend(std::iter::repeat_n(1usize, 120));
        // The adaptive threshold expects a noise regime to cut away, so the
        // toy data mirrors the paper's setting: blobs plus uniform noise.
        shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 60);
        truth.extend(std::iter::repeat_n(2usize, 60));
        (points, truth)
    }

    #[test]
    fn every_algorithm_name_runs_on_a_toy_dataset() {
        let (points, _) = toy_points();
        let args = ParsedArgs::parse(["cluster", "--scale", "32", "--eps", "0.08"]).unwrap();
        for algo in [
            "adawave",
            "kmeans",
            "dbscan",
            "em",
            "wavecluster",
            "skinnydip",
            "dipmeans",
            "stsc",
            "ric",
            "optics",
            "meanshift",
            "sync",
            "sting",
            "clique",
        ] {
            let outcome = run_clustering(algo, points.view(), &args, || 2)
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(outcome.labels.len(), points.len(), "{algo}");
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected() {
        let (points, _) = toy_points();
        let args = ParsedArgs::parse(["cluster"]).unwrap();
        let err = run_clustering("definitely-not-real", points.view(), &args, || 2).unwrap_err();
        // The registry error names the known algorithms.
        assert!(err.to_string().contains("adawave"), "{err}");
    }

    #[test]
    fn param_flag_reaches_the_algorithm_and_typos_are_rejected() {
        let (points, _) = toy_points();
        // `--param k=3` overrides the k inferred from the dataset.
        let args = ParsedArgs::parse(["cluster", "--param", "k=3", "--param", "seed=11"]).unwrap();
        let outcome = run_clustering("kmeans", points.view(), &args, || 2).unwrap();
        assert_eq!(outcome.clusters, 3);
        // A typo'd key is rejected with the accepted keys listed...
        let args = ParsedArgs::parse(["cluster", "--param", "kk=3"]).unwrap();
        let err = run_clustering("kmeans", points.view(), &args, || 2).unwrap_err();
        assert!(err.to_string().contains("kk"), "{err}");
        assert!(err.to_string().contains("seed"), "{err}");
        // ...as is a malformed pair and a bad value.
        let args = ParsedArgs::parse(["cluster", "--param", "k"]).unwrap();
        assert!(run_clustering("kmeans", points.view(), &args, || 2).is_err());
        let args = ParsedArgs::parse(["cluster", "--param", "k=banana"]).unwrap();
        assert!(run_clustering("kmeans", points.view(), &args, || 2).is_err());
    }

    #[test]
    fn compact_algo_spec_and_stsc_auto_k() {
        let (points, _) = toy_points();
        // `--algo name:key=value,...` carries params inline.
        let args = ParsedArgs::parse(["cluster"]).unwrap();
        let outcome = run_clustering("kmeans:k=4,seed=3", points.view(), &args, || 2).unwrap();
        assert_eq!(outcome.clusters, 4);
        // Typos in the compact form are caught like --param typos.
        let err = run_clustering("kmeans:kk=4", points.view(), &args, || 2).unwrap_err();
        assert!(err.to_string().contains("kk"), "{err}");
        // `--param` wins over the compact form on collision.
        let args = ParsedArgs::parse(["cluster", "--param", "k=5"]).unwrap();
        let outcome = run_clustering("kmeans:k=2,seed=3", points.view(), &args, || 2).unwrap();
        assert_eq!(outcome.clusters, 5);
        // The documented stsc default (eigengap auto-k) is expressible even
        // though the CLI injects a numeric k by default.
        let args = ParsedArgs::parse(["cluster", "--param", "k=auto"]).unwrap();
        let outcome = run_clustering("stsc", points.view(), &args, || 2).unwrap();
        assert!(outcome.clusters >= 1);
    }

    #[test]
    fn list_algorithms_documents_every_registered_algorithm() {
        let text = list_algorithms();
        for name in adawave::standard_registry().names() {
            assert!(text.contains(name), "{name} missing:\n{text}");
        }
        assert!(text.contains("default"), "{text}");
    }

    #[test]
    fn list_algorithms_is_one_aligned_table_with_types_and_defaults() {
        let text = list_algorithms();
        let lines: Vec<&str> = text.lines().collect();
        // Header row names the columns (the README documents this format).
        let header = lines[0];
        for column in ["algorithm", "param", "type", "default", "description"] {
            assert!(
                header.contains(column),
                "missing column {column}:\n{header}"
            );
        }
        // Every algorithm declares `threads` and a default for it.
        let threads_rows = lines.iter().filter(|l| l.contains(" threads ")).count();
        assert_eq!(threads_rows, adawave::standard_registry().len(), "{text}");
        // Alignment: the `param` column starts at the same offset in the
        // header and in a parameter row.
        let param_col = header.find("param").unwrap();
        let k_row = lines.iter().find(|l| l.trim().starts_with("k ")).unwrap();
        assert_eq!(k_row.find('k').unwrap(), param_col, "{text}");
    }

    #[test]
    fn thread_count_does_not_change_cli_labels() {
        let (points, _) = toy_points();
        for algo in ["adawave", "kmeans", "dbscan", "meanshift"] {
            let one = ParsedArgs::parse(["cluster", "--scale", "32", "--threads", "1"]).unwrap();
            let four = ParsedArgs::parse(["cluster", "--scale", "32", "--threads", "4"]).unwrap();
            let a = run_clustering(algo, points.view(), &one, || 2).unwrap();
            let b = run_clustering(algo, points.view(), &four, || 2).unwrap();
            assert_eq!(a.labels, b.labels, "{algo}");
        }
    }

    #[test]
    fn adawave_separates_the_toy_blobs() {
        let (points, truth) = toy_points();
        let args = ParsedArgs::parse(["cluster", "--scale", "32"]).unwrap();
        let outcome = run_clustering("adawave", points.view(), &args, || 2).unwrap();
        assert!(outcome.clusters >= 2);
        let score = ami_ignoring_noise(&truth, &outcome.labels, 2);
        assert!(score > 0.8, "AMI {score}");
    }

    #[test]
    fn reassign_noise_flag_removes_noise_points() {
        let (points, _) = toy_points();
        let args = ParsedArgs::parse(["cluster", "--scale", "32", "--reassign-noise"]).unwrap();
        let outcome = run_clustering("adawave", points.view(), &args, || 2).unwrap();
        assert_eq!(outcome.noise_points, 0);
    }

    fn save_temp_dataset(name: &str, points: &PointMatrix, truth: &[usize]) -> std::path::PathBuf {
        let ds = Dataset::new(name, points.clone(), truth.to_vec(), None);
        let path = std::env::temp_dir().join(format!("{name}.csv"));
        csv::save_csv(&ds, &path).unwrap();
        path
    }

    #[test]
    fn cluster_defaults_k_to_the_class_count_of_the_input() {
        // toy_points holds three classes: two blobs and the uniform noise.
        let (points, truth) = toy_points();
        let path = save_temp_dataset("adawave_cli_default_k", &points, &truth);
        let input = path.to_str().unwrap();
        let run = |extra: &[&str]| {
            let mut argv = vec!["cluster", "--input", input, "--algo", "kmeans", "--quiet"];
            argv.extend_from_slice(extra);
            reported_clusters(&dispatch(&ParsedArgs::parse(argv).unwrap()).unwrap())
        };
        assert_eq!(run(&[]), 3);
        assert_eq!(run(&["--k", "2"]), 2);
        std::fs::remove_file(&path).ok();
    }

    /// The toy blobs at scale 32, and the 7-d seeds surrogate at scale 16,
    /// whose transformed grid holds components no point falls in — so a
    /// component count and the labels' cluster count differ there.
    fn toy_and_seeds() -> Vec<(&'static str, PointMatrix, Vec<usize>, &'static str)> {
        let (points, truth) = toy_points();
        let seeds = uci::seeds(42);
        vec![
            ("toy", points, truth, "32"),
            ("seeds", seeds.points, seeds.labels, "16"),
        ]
    }

    /// The cluster count in a `cluster` or `merge-accumulators` summary.
    fn reported_clusters(report: &str) -> usize {
        let head = report.split(" clusters").next().unwrap();
        head.rsplit(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn stream_with_prescan_matches_the_one_shot_cluster_command() {
        for (name, points, truth, scale) in toy_and_seeds() {
            let path = save_temp_dataset(
                &format!("adawave_cli_stream_prescan_{name}"),
                &points,
                &truth,
            );
            let config =
                adawave_config_from_args(&ParsedArgs::parse(["stream", "--scale", scale]).unwrap())
                    .unwrap();
            // Small batches force many ingest/merge rounds.
            let outcome = run_stream(&path, 37, true, config).unwrap();
            assert_eq!(outcome.points, points.len());
            assert_eq!(outcome.outliers, 0, "prescan domain covers everything");
            assert!(outcome.batches > 5);

            let args = ParsedArgs::parse(["cluster", "--scale", scale]).unwrap();
            let one_shot = run_clustering("adawave", points.view(), &args, || 2).unwrap();
            assert_eq!(outcome.labels, one_shot.labels, "{name}");
            assert_eq!(outcome.clusters, one_shot.clusters, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn stream_without_prescan_freezes_on_the_first_batch_and_counts_outliers() {
        // First two rows span [0,1]^2; the last row is far outside and must
        // be reported as an outlier (= noise), not clamped into the grid.
        let points = PointMatrix::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![9.0, 9.0],
        ])
        .unwrap();
        let path = save_temp_dataset("adawave_cli_stream_outliers", &points, &[0, 0, 0, 0]);
        let config =
            adawave_config_from_args(&ParsedArgs::parse(["stream", "--scale", "8"]).unwrap())
                .unwrap();
        let outcome = run_stream(&path, 2, false, config).unwrap();
        assert_eq!(outcome.outliers, 1);
        assert_eq!(outcome.labels[3], NOISE_LABEL);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_prescan_tolerates_non_finite_rows_as_outliers() {
        // A NaN row must be an outlier under --prescan too (the prescan
        // unions finite-row boxes), not a fatal error.
        let path = std::env::temp_dir().join("adawave_cli_stream_nan.csv");
        std::fs::write(&path, "nan,0.5,0\n0.0,0.0,0\n1.0,1.0,0\n0.5,0.5,0\n").unwrap();
        let config =
            adawave_config_from_args(&ParsedArgs::parse(["stream", "--scale", "8"]).unwrap())
                .unwrap();
        // Without prescan the domain freezes on the first batch's only
        // finite row (0,0), so the later points are out of domain too;
        // with prescan the finite-row union covers them and only the NaN
        // row stays an outlier.
        for (prescan, expected_outliers) in [(false, 3), (true, 1)] {
            let outcome = run_stream(&path, 2, prescan, config.clone()).unwrap();
            assert_eq!(outcome.outliers, expected_outliers, "prescan = {prescan}");
            assert_eq!(outcome.labels[0], NOISE_LABEL, "prescan = {prescan}");
            assert_eq!(outcome.points, 4, "prescan = {prescan}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_dispatch_reports_and_writes_labels() {
        let (points, truth) = toy_points();
        let path = save_temp_dataset("adawave_cli_stream_dispatch", &points, &truth);
        let out = std::env::temp_dir().join("adawave_cli_stream_dispatch_labels.csv");
        let report = dispatch(
            &ParsedArgs::parse([
                "stream",
                "--input",
                path.to_str().unwrap(),
                "--scale",
                "32",
                "--batch-rows",
                "64",
                "--prescan",
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(report.contains("clusters"), "{report}");
        assert!(report.contains("refit"), "{report}");
        assert!(report.contains("AMI"), "{report}");
        let labels = labels_from_text(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(labels.len(), points.len());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn stream_accepts_and_validates_param_pairs() {
        // `--param` reaches the config with the same precedence as in
        // `cluster` (explicit pair beats the shorthand flag)...
        let args = ParsedArgs::parse(["stream", "--scale", "48", "--param", "scale=16"]).unwrap();
        let config = adawave_config_from_args(&args).unwrap();
        assert_eq!(config.scale, 16);
        let args = ParsedArgs::parse(["stream", "--param", "levels=0"]).unwrap();
        assert_eq!(adawave_config_from_args(&args).unwrap().levels, 0);
        // ...and typo'd keys are rejected with the accepted keys listed
        // instead of being silently ignored.
        let args = ParsedArgs::parse(["stream", "--param", "scal=16"]).unwrap();
        let err = adawave_config_from_args(&args).unwrap_err();
        assert!(err.to_string().contains("scal"), "{err}");
        assert!(err.to_string().contains("scale"), "{err}");
        // Malformed pairs are caught too.
        let args = ParsedArgs::parse(["stream", "--param", "scale"]).unwrap();
        assert!(adawave_config_from_args(&args).is_err());
    }

    #[test]
    fn stream_rejects_bad_arguments() {
        // Zero batch size.
        let args = ParsedArgs::parse(["stream", "--input", "x.csv", "--batch-rows", "0"]).unwrap();
        assert!(dispatch(&args).is_err());
        // Unknown wavelet surfaces the registry-style error.
        let args = ParsedArgs::parse(["stream", "--input", "x.csv", "--wavelet", "sinc"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("wavelet"), "{err}");
        // Missing file.
        let args = ParsedArgs::parse(["stream", "--input", "/definitely/not/here.csv"]).unwrap();
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn predict_with_train_reproduces_cluster_labels() {
        let (points, truth) = toy_points();
        let train = save_temp_dataset("adawave_cli_predict_train", &points, &truth);
        // Fit labels via `cluster`...
        let args = ParsedArgs::parse(["cluster", "--scale", "32"]).unwrap();
        let fit = run_clustering("adawave", points.view(), &args, || 2).unwrap();
        // ...and via `predict --train` on the same file: the model predicts
        // the training batch identically.
        let out = std::env::temp_dir().join("adawave_cli_predict_labels.csv");
        let report = dispatch(
            &ParsedArgs::parse([
                "predict",
                "--train",
                train.to_str().unwrap(),
                "--input",
                train.to_str().unwrap(),
                "--scale",
                "32",
                "--out",
                out.to_str().unwrap(),
                "--verbose",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(report.contains("predict (adawave)"), "{report}");
        // The model summary() rides along only under --verbose.
        assert!(report.contains("model:"), "{report}");
        let plain_report = dispatch(
            &ParsedArgs::parse([
                "predict",
                "--train",
                train.to_str().unwrap(),
                "--input",
                train.to_str().unwrap(),
                "--scale",
                "32",
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(!plain_report.contains("model:"), "{plain_report}");
        let predicted = labels_from_text(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(predicted, fit.labels);
        std::fs::remove_file(&train).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn save_model_then_predict_round_trips_label_identically() {
        let (points, truth) = toy_points();
        let train = save_temp_dataset("adawave_cli_save_model", &points, &truth);
        let model_path = std::env::temp_dir().join("adawave_cli_model.awm");
        let fit_out = std::env::temp_dir().join("adawave_cli_fit_labels.csv");
        let pred_out = std::env::temp_dir().join("adawave_cli_pred_labels.csv");
        for algo in ["adawave", "kmeans"] {
            let report = dispatch(
                &ParsedArgs::parse([
                    "cluster",
                    "--input",
                    train.to_str().unwrap(),
                    "--algo",
                    algo,
                    "--scale",
                    "32",
                    "--seed",
                    "7",
                    "--save-model",
                    model_path.to_str().unwrap(),
                    "--out",
                    fit_out.to_str().unwrap(),
                    "--quiet",
                ])
                .unwrap(),
            )
            .unwrap();
            assert!(report.contains("saved model"), "{report}");
            dispatch(
                &ParsedArgs::parse([
                    "predict",
                    "--model",
                    model_path.to_str().unwrap(),
                    "--input",
                    train.to_str().unwrap(),
                    "--out",
                    pred_out.to_str().unwrap(),
                    "--quiet",
                ])
                .unwrap(),
            )
            .unwrap();
            // The paper-grade contract: save -> load -> predict is label-
            // identical to the fit, byte for byte in the labels file.
            assert_eq!(
                std::fs::read_to_string(&fit_out).unwrap(),
                std::fs::read_to_string(&pred_out).unwrap(),
                "{algo}"
            );
        }
        for p in [&train, &model_path, &fit_out, &pred_out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn save_model_covers_fallback_algorithms() {
        // dbscan persists via the nearest-training fallback payload: the
        // saved file predicts the training set label-identically.
        let (points, truth) = toy_points();
        let train = save_temp_dataset("adawave_cli_save_fallback", &points, &truth);
        let model_path = std::env::temp_dir().join("adawave_cli_fallback.awm");
        let fit_out = std::env::temp_dir().join("adawave_cli_fallback_fit.csv");
        let pred_out = std::env::temp_dir().join("adawave_cli_fallback_pred.csv");
        let report = dispatch(
            &ParsedArgs::parse([
                "cluster",
                "--input",
                train.to_str().unwrap(),
                "--algo",
                "dbscan",
                "--param",
                "eps=0.1",
                "--save-model",
                model_path.to_str().unwrap(),
                "--out",
                fit_out.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(report.contains("saved model"), "{report}");
        dispatch(
            &ParsedArgs::parse([
                "predict",
                "--model",
                model_path.to_str().unwrap(),
                "--input",
                train.to_str().unwrap(),
                "--out",
                pred_out.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&fit_out).unwrap(),
            std::fs::read_to_string(&pred_out).unwrap(),
        );
        for p in [&train, &model_path, &fit_out, &pred_out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn predict_requires_exactly_one_model_source() {
        let args = ParsedArgs::parse(["predict", "--input", "x.csv"]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
        assert!(err.to_string().contains("--train"), "{err}");
    }

    #[test]
    fn output_formats_render_labels_with_noise_as_empty_or_null() {
        let labels = vec![0, NOISE_LABEL, 2, 1];
        let csv = render_labels(&labels, OutputFormat::Csv);
        assert_eq!(csv, "label\n0\n\n2\n1\n");
        let json = render_labels(&labels, OutputFormat::Json);
        assert!(json.contains("\"labels\": [0, null, 2, 1]"), "{json}");
        assert!(json.contains("\"clusters\": 3"), "{json}");
        assert!(json.contains("\"noise_points\": 1"), "{json}");
        // --output validation.
        let bad = ParsedArgs::parse(["cluster", "--output", "xml"]).unwrap();
        assert!(output_format(&bad).is_err());
        assert_eq!(
            output_format(&ParsedArgs::parse(["cluster", "--output", "json"]).unwrap()).unwrap(),
            Some(OutputFormat::Json)
        );
    }

    #[test]
    fn output_flag_replaces_stdout_with_labels_across_commands() {
        let (points, truth) = toy_points();
        let path = save_temp_dataset("adawave_cli_output_flag", &points, &truth);
        // cluster --output csv: stdout IS the label listing.
        let text = dispatch(
            &ParsedArgs::parse([
                "cluster",
                "--input",
                path.to_str().unwrap(),
                "--scale",
                "32",
                "--output",
                "csv",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(text.starts_with("label\n"), "{text}");
        assert_eq!(text.lines().count(), points.len() + 1);
        // stream --output json: a JSON document with one entry per point.
        let text = dispatch(
            &ParsedArgs::parse([
                "stream",
                "--input",
                path.to_str().unwrap(),
                "--scale",
                "32",
                "--prescan",
                "--output",
                "json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(text.trim_start().starts_with('{'), "{text}");
        assert!(
            text.contains(&format!("\"points\": {}", points.len())),
            "{text}"
        );
        // With --out as well, the labels go to the file and stdout keeps
        // the summary.
        let out = std::env::temp_dir().join("adawave_cli_output_flag_labels.json");
        let report = dispatch(
            &ParsedArgs::parse([
                "predict",
                "--train",
                path.to_str().unwrap(),
                "--input",
                path.to_str().unwrap(),
                "--scale",
                "32",
                "--output",
                "json",
                "--out",
                out.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(report.contains("predict (adawave)"), "{report}");
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.contains("\"labels\""), "{doc}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn unknown_algorithm_suggests_the_closest_name() {
        let (points, _) = toy_points();
        let args = ParsedArgs::parse(["cluster"]).unwrap();
        let err = run_clustering("kmean", points.view(), &args, || 2).unwrap_err();
        assert!(err.to_string().contains("did you mean kmeans?"), "{err}");
        // Unknown --param keys reuse the same suggestion path.
        let args = ParsedArgs::parse(["cluster", "--param", "bandwith=0.2"]).unwrap();
        let err = run_clustering("meanshift", points.view(), &args, || 2).unwrap_err();
        assert!(err.to_string().contains("did you mean bandwidth?"), "{err}");
    }

    #[test]
    fn labels_round_trip_through_text() {
        let labels = vec![0, 2, NOISE_LABEL, 1];
        let text = labels_to_text(&labels);
        assert_eq!(labels_from_text(&text).unwrap(), labels);
        // -1 is accepted as noise too.
        assert_eq!(
            labels_from_text("0\n-1\n3\n").unwrap(),
            vec![0, NOISE_LABEL, 3]
        );
        assert!(labels_from_text("0\nbanana\n").is_err());
        // The --output csv format round-trips too: `label` header skipped,
        // empty line = noise — so evaluate can consume predict's output.
        let csv = render_labels(&labels, OutputFormat::Csv);
        assert_eq!(labels_from_text(&csv).unwrap(), labels);
    }

    #[test]
    fn build_dataset_covers_every_name() {
        for name in [
            "running-example",
            "synthetic",
            "roadmap",
            "seeds",
            "iris",
            "glass",
            "dumdh",
            "htru2",
            "dermatology",
            "motor",
            "wholesale",
        ] {
            let ds = build_dataset(name, 50.0, 200, 3).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!ds.is_empty(), "{name}");
        }
        assert!(build_dataset("nope", 50.0, 200, 3).is_err());
    }

    #[test]
    fn evaluation_report_contains_all_metrics() {
        let (points, truth) = toy_points();
        let args = ParsedArgs::parse(["cluster", "--scale", "32"]).unwrap();
        let outcome = run_clustering("kmeans", points.view(), &args, || 2).unwrap();
        let report = evaluation_report(points.view(), &truth, &outcome.labels, None).unwrap();
        for needle in ["AMI", "NMI", "ARI", "V-measure", "purity", "silhouette"] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }
    }

    #[test]
    fn evaluation_report_rejects_length_mismatch() {
        let empty = PointMatrix::new(2);
        assert!(evaluation_report(empty.view(), &[0, 1], &[0], None).is_err());
    }

    #[test]
    fn sweep_produces_one_row_per_noise_level_and_adawave_degrades_gracefully() {
        // Cross-algorithm margins are only meaningful at the paper's full
        // dataset size (see the Fig. 8 bench); this reduced sweep checks the
        // plumbing and that AdaWave does not collapse between 30% and 80%.
        let rows = run_sweep(&[30.0, 80.0], 600, 11, 64);
        assert_eq!(rows.len(), 2);
        let adawave_score = |row: &SweepRow| {
            row.scores
                .iter()
                .find(|(n, _)| n == "adawave")
                .map(|(_, s)| *s)
                .unwrap()
        };
        let low = adawave_score(&rows[0]);
        let high = adawave_score(&rows[1]);
        assert!(low > 0.4, "AdaWave @30% = {low}");
        assert!(high > low - 0.5, "AdaWave collapsed: {low} -> {high}");
        for row in &rows {
            assert_eq!(row.scores.len(), 4, "an algorithm is missing a score");
        }
        let table = format_sweep(&rows);
        assert!(table.contains("adawave"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn dispatch_help_and_info_and_unknown() {
        let help = dispatch(&ParsedArgs::parse(["help"]).unwrap()).unwrap();
        assert!(help.contains("USAGE"));
        assert!(help.contains("serve"));
        let info = dispatch(&ParsedArgs::parse(["info"]).unwrap()).unwrap();
        assert!(info.contains("algorithms"));
        assert!(dispatch(&ParsedArgs::parse(["frobnicate"]).unwrap()).is_err());
    }

    #[test]
    fn serve_answers_batch_predictions_identical_to_the_predict_command() {
        let (points, truth) = toy_points();
        let train = save_temp_dataset("adawave_cli_serve", &points, &truth);
        let model_path = std::env::temp_dir().join("adawave_cli_serve.awm");
        let labels_path = std::env::temp_dir().join("adawave_cli_serve_labels.csv");
        dispatch(
            &ParsedArgs::parse([
                "cluster",
                "--input",
                train.to_str().unwrap(),
                "--algo",
                "kmeans",
                "--param",
                "k=2",
                "--seed",
                "7",
                "--save-model",
                model_path.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();

        // Offline ground truth: `predict --output csv` on the same rows.
        dispatch(
            &ParsedArgs::parse([
                "predict",
                "--model",
                model_path.to_str().unwrap(),
                "--input",
                train.to_str().unwrap(),
                "--output",
                "csv",
                "--out",
                labels_path.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        let expected = std::fs::read_to_string(&labels_path).unwrap();

        let model_spec = format!("blobs={}", model_path.display());
        let (server, banner) = start_serve(
            &ParsedArgs::parse(["serve", "--model", &model_spec, "--addr", "127.0.0.1:0"]).unwrap(),
        )
        .unwrap();
        assert!(banner.contains("blobs: kmeans"), "{banner}");
        // Without --verbose the banner has no model summary() line.
        let summary = load_model(&model_path).unwrap().summary();
        assert!(!banner.contains(&summary), "{banner}");

        // The served batch answer is byte-identical to the offline one.
        let body: String = points
            .rows()
            .map(|row| format!("{},{}\n", row[0], row[1]))
            .collect();
        let mut client =
            adawave::serve::Client::connect(server.local_addr(), std::time::Duration::from_secs(5))
                .unwrap();
        let response = client
            .post("/models/blobs/predict-batch", "text/csv", &body)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, expected);

        let typo = client.get("/models/blods").unwrap();
        assert_eq!(typo.status, 404);
        assert!(typo.body.contains("did you mean blobs?"), "{}", typo.body);

        server.shutdown();
        server.join();
        for p in [&train, &model_path, &labels_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_banner_includes_summaries_only_with_verbose() {
        let (points, truth) = toy_points();
        let train = save_temp_dataset("adawave_cli_serve_verbose", &points, &truth);
        let model_path = std::env::temp_dir().join("adawave_cli_serve_verbose.awm");
        dispatch(
            &ParsedArgs::parse([
                "cluster",
                "--input",
                train.to_str().unwrap(),
                "--algo",
                "kmeans",
                "--param",
                "k=2",
                "--seed",
                "7",
                "--save-model",
                model_path.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();
        let model_spec = model_path.to_str().unwrap().to_string();
        let (server, banner) = start_serve(
            &ParsedArgs::parse([
                "serve",
                "--model",
                &model_spec,
                "--addr",
                "127.0.0.1:0",
                "--verbose",
            ])
            .unwrap(),
        )
        .unwrap();
        // The bare-file spec is served under its stem, with the summary.
        assert!(
            banner.contains("adawave_cli_serve_verbose: kmeans"),
            "{banner}"
        );
        let model = load_model(&model_path).unwrap();
        assert!(banner.contains(&model.summary()), "{banner}");
        server.shutdown();
        server.join();
        for p in [&train, &model_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_rejects_missing_models_and_bad_files() {
        let err = start_serve(&ParsedArgs::parse(["serve"]).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");

        let err = start_serve(
            &ParsedArgs::parse(["serve", "--model", "x=/definitely/not/here.awm"]).unwrap(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("loading model 'x'"), "{err}");
    }

    fn save_temp_script(name: &str, source: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("{name}.adw"));
        std::fs::write(&path, source).unwrap();
        path
    }

    #[test]
    fn script_runs_a_file_and_reports_per_plan() {
        let path = save_temp_script(
            "adawave_cli_script_pass",
            "marker $$kmeans on blobs$$\n\
             generate blobs n=200 k=2 seed=7\n\
             fit kmeans seed=7\n\
             assert clusters == 2\n\
             assert points == 200\n",
        );
        let out = dispatch(&ParsedArgs::parse(["script", path.to_str().unwrap()]).unwrap())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("plan \"kmeans on blobs\" .. ok"), "{out}");
        assert!(out.contains("1 plan: 1 passed, 0 failed"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn script_list_is_a_dry_run_over_plan_titles() {
        // The dataset below doesn't exist: --list must not execute steps.
        let path = save_temp_script(
            "adawave_cli_script_list",
            "marker $$first$$\n\
             load \"no-such-file.csv\"\n\
             fit adawave\n\
             marker $$second$$\n\
             generate blobs n=100\n\
             fit kmeans\n",
        );
        for argv in [
            vec!["script", path.to_str().unwrap(), "--list"],
            // `--list <file>` swallows the file as its value; the command
            // folds it back into the file list.
            vec!["script", "--list", path.to_str().unwrap()],
        ] {
            let out = dispatch(&ParsedArgs::parse(argv).unwrap()).unwrap();
            assert!(out.contains("2 plan(s)"), "{out}");
            assert!(out.contains("first") && out.contains("second"), "{out}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn audit_subcommand_lists_reports_and_suggests() {
        // --list prints the lint table without touching the filesystem.
        let out = dispatch(&ParsedArgs::parse(["audit", "--list"]).unwrap()).unwrap();
        assert!(out.contains("float-sort-unwrap"), "{out}");
        assert!(out.contains("audit:allow"), "{out}");

        // The known-bad fixture workspace: findings, exit code 1, the
        // pinned file:line diagnostics in the message.
        let fixtures = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../audit/tests/fixtures/workspace"
        );
        let err = dispatch(&ParsedArgs::parse(["audit", "--root", fixtures]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let msg = err.to_string();
        assert!(
            msg.contains("grid/src/bad_float.rs:2: float-sort-unwrap"),
            "{msg}"
        );
        assert!(msg.contains("finding(s)"), "{msg}");

        // Restricting the pass to one lint narrows the findings.
        let err =
            dispatch(&ParsedArgs::parse(["audit", "--root", fixtures, "wall-clock"]).unwrap())
                .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("wall-clock"), "{err}");
        assert!(!err.to_string().contains("float-sort-unwrap"), "{err}");

        // A misspelled lint name is a usage error with a suggestion.
        let err =
            dispatch(&ParsedArgs::parse(["audit", "--root", fixtures, "wall-cloak"]).unwrap())
                .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("wall-clock"), "{err}");

        // The live workspace itself audits clean through the subcommand.
        let here = concat!(env!("CARGO_MANIFEST_DIR"));
        let out = dispatch(&ParsedArgs::parse(["audit", "--root", here]).unwrap())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("workspace clean"), "{out}");
    }

    #[test]
    fn script_failures_and_usage_map_to_exit_codes() {
        // No files: usage error, exit code 2.
        let err = dispatch(&ParsedArgs::parse(["script"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().contains("at least one script file"),
            "{err}"
        );

        // Unknown command: usage error, exit code 2.
        let err = dispatch(&ParsedArgs::parse(["frobnicate"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        // Positional operand on an options-only command: exit code 2.
        let err = dispatch(&ParsedArgs::parse(["cluster", "stray.csv"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("stray.csv"), "{err}");

        // A parse error carries the 1-based line number: exit code 1.
        let path = save_temp_script(
            "adawave_cli_script_parse_error",
            "marker $$broken$$\ngenerate blobs n=100\nfrobnicate the grid\n",
        );
        let err =
            dispatch(&ParsedArgs::parse(["script", path.to_str().unwrap()]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("line 3"), "{err}");
        std::fs::remove_file(&path).ok();

        // A failing assertion: exit code 1, report names the line.
        let path = save_temp_script(
            "adawave_cli_script_assert_fail",
            "marker $$fails$$\n\
             generate blobs n=100 k=2 seed=7\n\
             fit kmeans seed=7\n\
             assert clusters == 9\n",
        );
        let err =
            dispatch(&ParsedArgs::parse(["script", path.to_str().unwrap()]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("FAILED at line 4"), "{err}");
        assert!(err.to_string().contains("1 of 1 script(s) failed"), "{err}");
        std::fs::remove_file(&path).ok();

        // A missing file: exit code 1.
        let err = dispatch(&ParsedArgs::parse(["script", "/definitely/not/here.adw"]).unwrap())
            .unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn unknown_command_suggests_the_closest_subcommand() {
        let err = dispatch(&ParsedArgs::parse(["streem"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("did you mean stream?"), "{err}");
        let err = dispatch(&ParsedArgs::parse(["merge-accumulator"]).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("did you mean merge-accumulators?"),
            "{err}"
        );
        // Nothing close: no suggestion, still a usage error.
        let err = dispatch(&ParsedArgs::parse(["frobnicate"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn prescans_reject_a_file_without_finite_points() {
        let data = std::env::temp_dir().join("adawave_cli_prescan_all_nan.csv");
        std::fs::write(&data, "nan,nan,0\nnan,nan,1\n").unwrap();
        let path = data.to_str().unwrap();
        let acc = std::env::temp_dir().join("adawave_cli_prescan_all_nan.awa");
        for argv in [
            vec!["stream", "--input", path, "--prescan"],
            vec![
                "shard-ingest",
                "--input",
                path,
                "--shard",
                "1/1",
                "--out",
                acc.to_str().unwrap(),
            ],
        ] {
            let err = dispatch(&ParsedArgs::parse(argv.clone()).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{argv:?}");
            assert_eq!(
                err.to_string(),
                format!("{path} holds no finite data points"),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn shard_ingest_and_merge_match_the_one_shot_cluster_command() {
        for (name, points, truth, scale) in toy_and_seeds() {
            shard_ingest_and_merge_match_cluster(name, &points, &truth, scale);
        }
    }

    fn shard_ingest_and_merge_match_cluster(
        name: &str,
        points: &PointMatrix,
        truth: &[usize],
        scale: &str,
    ) {
        let data = save_temp_dataset(&format!("adawave_cli_shard_merge_{name}"), points, truth);
        let dir = std::env::temp_dir();
        let fit_out = dir.join(format!("adawave_cli_shard_fit_{name}.csv"));
        let fit_report = dispatch(
            &ParsedArgs::parse([
                "cluster",
                "--input",
                data.to_str().unwrap(),
                "--scale",
                scale,
                "--out",
                fit_out.to_str().unwrap(),
                "--quiet",
            ])
            .unwrap(),
        )
        .unwrap();

        for shards in [1usize, 3] {
            let mut argv: Vec<String> = vec!["merge-accumulators".into()];
            let mut files = Vec::new();
            for i in 1..=shards {
                let acc = dir.join(format!("adawave_cli_shard_{name}_{shards}_{i}.awa"));
                let report = dispatch(
                    &ParsedArgs::parse([
                        "shard-ingest",
                        "--input",
                        data.to_str().unwrap(),
                        "--shard",
                        &format!("{i}/{shards}"),
                        "--scale",
                        scale,
                        "--batch-rows",
                        "64",
                        "--out",
                        acc.to_str().unwrap(),
                    ])
                    .unwrap(),
                )
                .unwrap();
                assert!(report.contains(&format!("shard {i}/{shards}")), "{report}");
                argv.push("--input".into());
                argv.push(acc.to_str().unwrap().into());
                files.push(acc);
            }
            let merged_out = dir.join(format!("adawave_cli_shard_merged_{name}_{shards}.csv"));
            let model_path = dir.join(format!("adawave_cli_shard_model_{name}_{shards}.awm"));
            argv.extend(["--out".into(), merged_out.to_str().unwrap().into()]);
            // Both merge paths, the plain refit and the one that also
            // saves the serving model, report the `cluster` summary's
            // cluster count and write byte-identical labels.
            let plain = argv.clone();
            argv.extend(["--save-model".into(), model_path.to_str().unwrap().into()]);
            for (argv, saves_model) in [(plain, false), (argv, true)] {
                let report = dispatch(&ParsedArgs::parse(argv).unwrap()).unwrap();
                assert!(
                    report.contains(&format!("merged {shards} accumulator(s)")),
                    "{report}"
                );
                assert_eq!(report.contains("saved model"), saves_model, "{report}");
                assert_eq!(
                    reported_clusters(&report),
                    reported_clusters(&fit_report),
                    "{name}, {shards} shard(s): {report}"
                );
                assert_eq!(
                    std::fs::read_to_string(&merged_out).unwrap(),
                    std::fs::read_to_string(&fit_out).unwrap(),
                    "{name}, {shards} shard(s)"
                );
            }
            // And the saved model re-predicts the same labels file.
            let pred_out = dir.join(format!("adawave_cli_shard_pred_{name}_{shards}.csv"));
            dispatch(
                &ParsedArgs::parse([
                    "predict",
                    "--model",
                    model_path.to_str().unwrap(),
                    "--input",
                    data.to_str().unwrap(),
                    "--out",
                    pred_out.to_str().unwrap(),
                    "--quiet",
                ])
                .unwrap(),
            )
            .unwrap();
            assert_eq!(
                std::fs::read_to_string(&pred_out).unwrap(),
                std::fs::read_to_string(&fit_out).unwrap(),
                "{name}, {shards} shard(s)"
            );
            for f in files {
                std::fs::remove_file(f).ok();
            }
            for f in [&merged_out, &model_path, &pred_out] {
                std::fs::remove_file(f).ok();
            }
        }
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&fit_out).ok();
    }

    #[test]
    fn stream_checkpoint_resumes_and_reproduces_the_labels() {
        let (points, truth) = toy_points();
        let data = save_temp_dataset("adawave_cli_stream_ckpt", &points, &truth);
        let ckpt = std::env::temp_dir().join("adawave_cli_stream_ckpt.awa");
        std::fs::remove_file(&ckpt).ok();
        let config =
            adawave_config_from_args(&ParsedArgs::parse(["stream", "--scale", "32"]).unwrap())
                .unwrap();

        // The reference: an uninterrupted prescan stream.
        let reference = run_stream(&data, 64, true, config.clone()).unwrap();

        // "Crash" after 100 rows: a checkpoint written mid-stream by a
        // partial session over the same domain and config.
        let domain = adawave_stream::finite_bounds(points.view()).unwrap();
        let mut partial = StreamingAdaWave::with_domain(config.clone(), domain).unwrap();
        partial.ingest(point_rows(&points, 0, 100)).unwrap();
        save_accumulator(&ckpt, &partial).unwrap();

        // The resumed run skips those 100 rows and matches bit for bit.
        let spec = CheckpointSpec {
            path: ckpt.clone(),
            every: 50,
        };
        let resumed =
            run_stream_checkpointed(&data, 64, true, config.clone(), Some(&spec)).unwrap();
        assert_eq!(resumed.resumed_points, 100);
        assert_eq!(resumed.labels, reference.labels);
        assert_eq!(resumed.points, reference.points);

        // The final flush leaves a complete checkpoint: a rerun skips
        // every row and still produces the same labels.
        let rerun = run_stream_checkpointed(&data, 64, true, config.clone(), Some(&spec)).unwrap();
        assert_eq!(rerun.resumed_points, points.len());
        assert_eq!(rerun.labels, reference.labels);

        // A config mismatch is rejected, naming the checkpoint.
        let other =
            adawave_config_from_args(&ParsedArgs::parse(["stream", "--scale", "16"]).unwrap())
                .unwrap();
        let err = run_stream_checkpointed(&data, 64, true, other, Some(&spec)).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
        assert!(err.to_string().contains(ckpt.to_str().unwrap()), "{err}");

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn stream_checkpoint_flags_report_resume_and_validate() {
        let (points, truth) = toy_points();
        let data = save_temp_dataset("adawave_cli_ckpt_flags", &points, &truth);
        let ckpt = std::env::temp_dir().join("adawave_cli_ckpt_flags.awa");
        std::fs::remove_file(&ckpt).ok();
        let argv = [
            "stream",
            "--input",
            data.to_str().unwrap(),
            "--scale",
            "32",
            "--prescan",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "100",
            "--quiet",
        ];
        let report = dispatch(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert!(report.contains("checkpoint"), "{report}");
        assert!(ckpt.exists(), "final flush must leave the checkpoint");
        // The rerun resumes: every row is already in the file.
        let report = dispatch(&ParsedArgs::parse(argv).unwrap()).unwrap();
        assert!(report.contains("resumed from"), "{report}");
        assert!(
            report.contains(&format!("{} already-ingested rows skipped", points.len())),
            "{report}"
        );
        // --checkpoint-every without --checkpoint is a usage error.
        let err = dispatch(
            &ParsedArgs::parse([
                "stream",
                "--input",
                data.to_str().unwrap(),
                "--checkpoint-every",
                "5",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--checkpoint"), "{err}");
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn shard_and_merge_reject_bad_arguments_and_name_paths() {
        // Bad shard specs: exit 2 before any file is touched.
        for spec in ["0/3", "4/3", "banana", "1/0", "1"] {
            let err = dispatch(
                &ParsedArgs::parse([
                    "shard-ingest",
                    "--input",
                    "x.csv",
                    "--shard",
                    spec,
                    "--out",
                    "y.awa",
                ])
                .unwrap(),
            )
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{spec}");
        }
        // No inputs: usage error.
        let err = dispatch(&ParsedArgs::parse(["merge-accumulators"]).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--input"), "{err}");
        // A missing accumulator file names the offending path.
        let err = dispatch(
            &ParsedArgs::parse(["merge-accumulators", "--input", "/definitely/not/here.awa"])
                .unwrap(),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("/definitely/not/here.awa"),
            "{err}"
        );

        let (points, truth) = toy_points();
        let data = save_temp_dataset("adawave_cli_shard_badout", &points, &truth);
        // An unwritable --out names the path too.
        let err = dispatch(
            &ParsedArgs::parse([
                "shard-ingest",
                "--input",
                data.to_str().unwrap(),
                "--shard",
                "1/1",
                "--scale",
                "32",
                "--out",
                "/definitely/not/here/acc.awa",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("writing /definitely/not/here/acc.awa"),
            "{err}"
        );

        // Shards written under different configurations refuse to merge,
        // and the error names the offending input file.
        let dir = std::env::temp_dir();
        let a = dir.join("adawave_cli_merge_mismatch_a.awa");
        let b = dir.join("adawave_cli_merge_mismatch_b.awa");
        for (path, shard, scale) in [(&a, "1/2", "32"), (&b, "2/2", "16")] {
            dispatch(
                &ParsedArgs::parse([
                    "shard-ingest",
                    "--input",
                    data.to_str().unwrap(),
                    "--shard",
                    shard,
                    "--scale",
                    scale,
                    "--out",
                    path.to_str().unwrap(),
                ])
                .unwrap(),
            )
            .unwrap();
        }
        let err = dispatch(
            &ParsedArgs::parse([
                "merge-accumulators",
                "--input",
                a.to_str().unwrap(),
                "--input",
                b.to_str().unwrap(),
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains(b.to_str().unwrap()), "{err}");
        for p in [&data, &a, &b] {
            std::fs::remove_file(p).ok();
        }
    }
}
