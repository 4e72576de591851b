//! The traced replay: every CLI path and the serve request path rebuilt
//! from the crates' public layer calls, with a span around each call.
//!
//! * `cluster`: `load_csv` → `BoundingBox::from_points` → `quantize_with`
//!   → `sparse_wavelet_smooth_budgeted` → `ThresholdStrategy::choose` →
//!   `connected_components` → `assign_points` → `render_labels`;
//! * `predict`: `load_model` → `load_csv` → `Model::predict` → render;
//! * `stream --prescan --checkpoint`: prescan, `StreamingAdaWave::ingest`,
//!   snapshot + atomic save every interval, `refit`, render;
//! * `shard-ingest` 1/2 and 2/2, then `merge-accumulators`;
//! * serve: the generator's recorded request bytes through
//!   `http::read_request`, `Json::parse`, `Model::predict_one`, JSON
//!   render and `http::write_response` (batches: CSV rows, `Model::predict`,
//!   render).
//!
//! Each replay writes its outputs, which must equal the CLI's byte for
//! byte. Every repetition runs once traced and once with the tracer off;
//! the ratio of the two is the tracing overhead.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use adawave::{load_model, Model};
use adawave_api::{save_artifact, save_artifact_atomic, ArtifactKind, Clustering, Params};
use adawave_api::{PointMatrix, PointsView};
use adawave_cli::commands::{render_labels, OutputFormat};
use adawave_core::{sparse_wavelet_smooth_budgeted, AdaWave, AdaWaveConfig};
use adawave_data::csv::{load_csv, CsvBatches};
use adawave_data::Dataset;
use adawave_grid::{connected_components, BoundingBox, LookupTable};
use adawave_metrics::NOISE_LABEL;
use adawave_serve::http::{read_request, write_response, Request, Response};
use adawave_serve::json::Json;
use adawave_stream::{finite_bounds, load_accumulator, StreamingAdaWave};

use crate::load::{read_record, Expect, Target};
use crate::spans::Tracer;
use crate::Opts;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The server's default request-body limit.
const MAX_BODY: usize = 16 << 20;

/// The name the model is served under, as in the generator's requests.
const MODEL_NAME: &str = "m";

struct Inputs {
    data: PathBuf,
    model: PathBuf,
    config: AdaWaveConfig,
    batch_rows: usize,
    every: usize,
    /// Where the replay writes its outputs.
    out: PathBuf,
}

/// Counts recorded at the layer boundaries (identical in every rep).
#[derive(Default)]
struct Counts {
    occupied_cells: usize,
    transformed_cells: usize,
    surviving_cells: usize,
    clusters: usize,
    output_bytes: usize,
    checkpoints: usize,
    serve_requests: usize,
}

fn write_labels(path: &Path, labels: &[usize]) -> Res<usize> {
    let text = render_labels(labels, OutputFormat::Csv);
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.len())
}

fn next_batch(t: &mut Tracer, id: u64, batches: &mut CsvBatches) -> Res<Option<Dataset>> {
    t.span("data.csv", id, |_| batches.next())
        .transpose()
        .map_err(err("reading the input"))
}

fn open_batches(inp: &Inputs) -> Res<CsvBatches> {
    CsvBatches::open(&inp.data, inp.batch_rows).map_err(err("opening the input"))
}

fn cluster(t: &mut Tracer, id: u64, inp: &Inputs, counts: &mut Counts) -> Res<()> {
    let c = &inp.config;
    t.span("cmd.cluster", id, |t| {
        let ds = t
            .span("data.csv", id, |_| load_csv(&inp.data))
            .map_err(err("reading the input"))?;
        let points = ds.view();
        let bounds = t
            .span("grid.bounds", id, |_| BoundingBox::from_points(points))
            .map_err(err("bounds"))?;
        let (quantizer, grid, lookup) = t.span("grid.quantize", id, |_| -> Res<_> {
            let quantizer = AdaWave::new(c.clone())
                .quantizer_for(&bounds)
                .map_err(err("quantizer"))?;
            let (grid, cells) = quantizer.quantize_with(points, c.runtime);
            let lookup = LookupTable::new(quantizer.codec().clone(), cells);
            Ok((quantizer, grid, lookup))
        })?;
        let (mut transformed, codec) = t
            .span("core.transform", id, |_| {
                let kernel = c.wavelet.density_smoothing_kernel();
                let budget = c.max_transformed_cells.max(1);
                let codec = quantizer.codec();
                sparse_wavelet_smooth_budgeted(&grid, codec, &kernel, c.boundary, c.levels, budget)
            })
            .map_err(err("transform"))?;
        counts.occupied_cells = grid.occupied_cells();
        counts.transformed_cells = transformed.occupied_cells();
        t.span("core.threshold", id, |_| {
            transformed.drop_near_zero(c.coefficient_epsilon);
            transformed.filter_below(0.0);
            let threshold = c.threshold.choose(&transformed.sorted_densities());
            transformed.filter_below(threshold);
        });
        counts.surviving_cells = transformed.occupied_cells();
        let components = t.span("grid.components", id, |_| {
            connected_components(&transformed, &codec, c.connectivity)
        });
        counts.clusters = components.cluster_count();
        let labels = t.span("grid.label", id, |_| {
            let assignment = lookup.assign_points(&components, c.levels, &codec);
            Clustering::new(assignment).to_labels(NOISE_LABEL)
        });
        counts.output_bytes = t.span("cli.render", id, |_| {
            write_labels(&inp.out.join("cluster.csv"), &labels)
        })?;
        Ok(())
    })
}

fn predict(t: &mut Tracer, id: u64, inp: &Inputs) -> Res<()> {
    t.span("cmd.predict", id, |t| {
        let model = t
            .span("persist.load_model", id, |_| load_model(&inp.model))
            .map_err(err("loading the model"))?;
        let ds = t
            .span("data.csv", id, |_| load_csv(&inp.data))
            .map_err(err("reading the input"))?;
        let clustering = t
            .span("core.predict", id, |_| model.predict(ds.view()))
            .map_err(err("predict"))?;
        t.span("cli.render", id, |_| {
            write_labels(
                &inp.out.join("predict.csv"),
                &clustering.to_labels(NOISE_LABEL),
            )
        })?;
        Ok(())
    })
}

/// The exact domain and row count of the whole input, one batch at a
/// time (the prescan of `stream --prescan` and `shard-ingest`).
fn prescan(t: &mut Tracer, id: u64, inp: &Inputs) -> Res<(BoundingBox, usize)> {
    let mut batches = open_batches(inp)?;
    let (mut domain, mut total) = (None::<BoundingBox>, 0);
    while let Some(batch) = next_batch(t, id, &mut batches)? {
        total += batch.len();
        if let Some(b) = t.span("grid.bounds", id, |_| finite_bounds(batch.view())) {
            domain = Some(match domain {
                Some(d) => d.union(&b),
                None => b,
            });
        }
    }
    Ok((domain.ok_or("the input holds no finite points")?, total))
}

/// Snapshot the accumulator and write it as an artifact file.
fn persist(
    t: &mut Tracer,
    id: u64,
    stream: &StreamingAdaWave,
    path: &Path,
    atomic: bool,
) -> Res<()> {
    let payload = t.span("stream.snapshot", id, |_| stream.snapshot());
    t.span("stream.save_accumulator", id, |_| {
        let kind = ArtifactKind::Accumulator;
        if atomic {
            save_artifact_atomic(path, kind, "adawave", &payload)
        } else {
            save_artifact(path, kind, "adawave", &payload)
        }
    })
    .map_err(err("writing the accumulator"))
}

fn stream(t: &mut Tracer, id: u64, inp: &Inputs, counts: &mut Counts) -> Res<()> {
    t.span("cmd.stream", id, |t| {
        let (domain, _) = prescan(t, id, inp)?;
        let mut stream =
            StreamingAdaWave::with_domain(inp.config.clone(), domain).map_err(err("domain"))?;
        let checkpoint = inp.out.join("stream.awa");
        let mut batches = open_batches(inp)?;
        let (mut since, mut checkpoints) = (0, 0);
        while let Some(batch) = next_batch(t, id, &mut batches)? {
            let report = t
                .span("stream.ingest", id, |_| stream.ingest(batch.view()))
                .map_err(err("ingest"))?;
            since += report.points;
            if since >= inp.every {
                persist(t, id, &stream, &checkpoint, true)?;
                (since, checkpoints) = (0, checkpoints + 1);
            }
        }
        persist(t, id, &stream, &checkpoint, true)?;
        counts.checkpoints = checkpoints + 1;
        let result = t
            .span("stream.refit", id, |_| stream.refit())
            .map_err(err("refit"))?;
        t.span("cli.render", id, |_| {
            let labels = result.to_clustering().to_labels(NOISE_LABEL);
            write_labels(&inp.out.join("stream.csv"), &labels)
        })?;
        Ok(())
    })
}

fn shard(t: &mut Tracer, id: u64, inp: &Inputs, index: usize, count: usize) -> Res<()> {
    t.span("cmd.shard_ingest", id, |t| {
        let (domain, total) = prescan(t, id, inp)?;
        let (lo, hi) = (total * (index - 1) / count, total * index / count);
        let mut stream =
            StreamingAdaWave::with_domain(inp.config.clone(), domain).map_err(err("domain"))?;
        let mut batches = open_batches(inp)?;
        let mut row = 0;
        while let Some(batch) = next_batch(t, id, &mut batches)? {
            let n = batch.len();
            let (a, b) = (lo.clamp(row, row + n), hi.clamp(row, row + n));
            if a < b {
                let dims = batch.dims();
                let flat = &batch.points.as_slice()[(a - row) * dims..(b - row) * dims];
                let view = PointsView::from_flat(flat, dims).map_err(err("rows"))?;
                t.span("stream.ingest", id, |_| stream.ingest(view))
                    .map_err(err("ingest"))?;
            }
            row += n;
            if row >= hi {
                break;
            }
        }
        persist(
            t,
            id,
            &stream,
            &inp.out.join(format!("shard{index}.awa")),
            false,
        )
    })
}

fn merge(t: &mut Tracer, id: u64, inp: &Inputs, count: usize) -> Res<()> {
    t.span("cmd.merge", id, |t| {
        let mut merged: Option<StreamingAdaWave> = None;
        for index in 1..=count {
            let path = inp.out.join(format!("shard{index}.awa"));
            let shard = t
                .span("stream.load_accumulator", id, |_| load_accumulator(&path))
                .map_err(err("reading an accumulator"))?;
            merged = Some(match merged.take() {
                None => shard,
                Some(mut acc) => {
                    t.span("stream.merge", id, |_| acc.merge(shard))
                        .map_err(err("merge"))?;
                    acc
                }
            });
        }
        let stream = merged.ok_or("no shards")?;
        let result = t
            .span("stream.refit", id, |_| stream.refit())
            .map_err(err("refit"))?;
        t.span("cli.render", id, |_| {
            let labels = result.to_clustering().to_labels(NOISE_LABEL);
            write_labels(&inp.out.join("merged.csv"), &labels)
        })?;
        Ok(())
    })
}

fn read_http(t: &mut Tracer, id: u64, bytes: &[u8]) -> Res<Request> {
    t.span("serve.http.read", id, |_| {
        read_request(&mut Cursor::new(bytes), MAX_BODY)
    })
    .map_err(err("http"))?
    .ok_or_else(|| "empty request".to_string())
}

fn write_http(t: &mut Tracer, id: u64, response: Response) -> Res<()> {
    t.span("serve.http.write", id, |_| {
        write_response(&mut Vec::new(), &response)
    })
    .map_err(err("http"))
}

fn serve_single(t: &mut Tracer, id: u64, model: &dyn Model, bytes: &[u8]) -> Res<Option<usize>> {
    t.span("serve.single", id, |t| {
        let request = read_http(t, id, bytes)?;
        let point = t.span("serve.json.parse", id, |_| -> Res<Vec<f64>> {
            let doc = Json::parse(request.body_text().map_err(err("body"))?)?;
            let values = doc
                .get("point")
                .and_then(Json::as_array)
                .ok_or("no point")?;
            values
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()
                .ok_or_else(|| "bad point".into())
        })?;
        let label = t.span("serve.predict_one", id, |_| model.predict_one(&point));
        let body = t.span("serve.json.render", id, |_| {
            let label = label.map_or(Json::Null, |l| Json::Number(l as f64));
            Json::Object(vec![
                ("model".to_string(), Json::String(MODEL_NAME.to_string())),
                ("version".to_string(), Json::Number(1.0)),
                ("label".to_string(), label),
            ])
            .render()
        });
        write_http(t, id, Response::json(body))?;
        Ok(label)
    })
}

fn serve_batch(t: &mut Tracer, id: u64, model: &dyn Model, bytes: &[u8]) -> Res<String> {
    t.span("serve.batch", id, |t| {
        let request = read_http(t, id, bytes)?;
        let points = t.span("serve.csv.parse", id, |_| -> Res<PointMatrix> {
            let mut rows = Vec::new();
            for line in request.body_text().map_err(err("body"))?.lines() {
                let row: Result<Vec<f64>, _> = line.split(',').map(|v| v.trim().parse()).collect();
                rows.push(row.map_err(err("batch row"))?);
            }
            PointMatrix::from_rows(rows).map_err(err("batch rows"))
        })?;
        let clustering = t
            .span("serve.batch_predict", id, |_| model.predict(points.view()))
            .map_err(err("batch predict"))?;
        let body = t.span("serve.csv.render", id, |_| {
            render_labels(&clustering.to_labels(NOISE_LABEL), OutputFormat::Csv)
        });
        write_http(t, id, Response::csv(body.clone()))?;
        Ok(body)
    })
}

/// One full replay of every path; `rep` keeps the span ids distinct.
fn replay(
    t: &mut Tracer,
    rep: u64,
    inp: &Inputs,
    model: &dyn Model,
    targets: &(Vec<Target>, Target),
    counts: &mut Counts,
) -> Res<()> {
    let id = rep * 1_000_000;
    cluster(t, id, inp, counts)?;
    predict(t, id + 1, inp)?;
    stream(t, id + 2, inp, counts)?;
    shard(t, id + 3, inp, 1, 2)?;
    shard(t, id + 4, inp, 2, 2)?;
    merge(t, id + 5, inp, 2)?;
    let (singles, batch) = targets;
    for (i, target) in singles.iter().enumerate() {
        let label = serve_single(t, id + 1000 + i as u64, model, &target.request)?;
        if !matches!(target.expect, Expect::Label(expected) if expected == label) {
            return Err(format!("replayed request {i}: label differs from predict"));
        }
    }
    let body = serve_batch(t, id + 999, model, &batch.request)?;
    if !batch.accepts(200, body.as_bytes()) {
        return Err("replayed batch: body differs from `adawave predict`".to_string());
    }
    counts.serve_requests = singles.len() + 1;
    Ok(())
}

/// The replay's outputs must equal the CLI's byte for byte.
fn verify(out: &Path, cli: &Path) -> Res<()> {
    for name in [
        "cluster.csv",
        "predict.csv",
        "stream.csv",
        "merged.csv",
        "stream.awa",
        "shard1.awa",
        "shard2.awa",
    ] {
        let read = |dir: &Path| std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        if read(out)? != read(cli)? {
            return Err(format!("traced {name} differs from the CLI's"));
        }
    }
    Ok(())
}

/// Points the default `stream` mode (domain frozen on the first batch)
/// would record as outliers on this input.
fn frozen_domain_outliers(inp: &Inputs) -> Res<usize> {
    let mut stream = StreamingAdaWave::new(inp.config.clone());
    for batch in open_batches(inp)? {
        let batch = batch.map_err(err("reading the input"))?;
        stream.ingest(batch.view()).map_err(err("ingest"))?;
    }
    Ok(stream.outlier_count())
}

fn json_object<V>(
    entries: impl IntoIterator<Item = (String, V)>,
    value: impl Fn(V) -> String,
) -> String {
    let fields: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {}", value(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `trace --data F --model F --params k=v,... --batch-rows N
///  --checkpoint-every N --targets F --batch-expect F --cli DIR --out DIR
///  --rep N --spans F`: replay every path once traced and once untraced,
/// check the outputs against the CLI's, write the spans and print the
/// per-layer self times, counts and tracing overhead as JSON. `--rep`
/// numbers the repetition (span ids, which side runs first).
pub fn run(opts: &Opts) -> Res<()> {
    let mut params = Params::new();
    for pair in opts.get("params")?.split(',').filter(|p| !p.is_empty()) {
        params.set_pair(pair).map_err(err("params"))?;
    }
    let inp = Inputs {
        data: opts.get("data")?.into(),
        model: opts.get("model")?.into(),
        config: AdaWaveConfig::from_params(&params).map_err(err("params"))?,
        batch_rows: opts.num("batch-rows")?,
        every: opts.num("checkpoint-every")?,
        out: opts.get("out")?.into(),
    };
    if inp.config.precision != adawave_api::Precision::F64 {
        return Err("the replay follows the f64 lane only".to_string());
    }
    let model = load_model(&inp.model).map_err(err("loading the model"))?;
    let batch_expect = std::fs::read(opts.get("batch-expect")?).map_err(err("batch-expect"))?;
    let targets = read_record(opts.get("targets")?, batch_expect)?;
    let cli = PathBuf::from(opts.get("cli")?);
    let rep: u64 = opts.num("rep")?;

    let origin = Instant::now();
    let mut traced = Tracer::new(true, origin);
    let mut counts = Counts::default();
    let (mut on, mut off) = (0.0, 0.0);
    // Alternate across reps which side goes first, so drift favours
    // neither.
    for tracing in [rep.is_multiple_of(2), !rep.is_multiple_of(2)] {
        let mut idle = Tracer::new(false, origin);
        let t = if tracing { &mut traced } else { &mut idle };
        let start = Instant::now();
        replay(t, rep, &inp, model.as_ref(), &targets, &mut counts)?;
        let seconds = start.elapsed().as_secs_f64();
        *(if tracing { &mut on } else { &mut off }) = seconds;
        verify(&inp.out, &cli)?;
    }
    let outliers = frozen_domain_outliers(&inp)?;
    traced
        .write(opts.get("spans")?)
        .map_err(err("writing spans"))?;

    let layers = traced.layer_self_times();
    let self_s = json_object(layers.iter().map(|(root, l)| (root.to_string(), l)), |l| {
        json_object(l.iter().map(|(k, v)| (k.to_string(), *v)), |v| {
            v.to_string()
        })
    });
    let root_s = json_object(
        layers
            .keys()
            .map(|root| (root.to_string(), traced.root_duration(root))),
        |v| v.to_string(),
    );
    let counts = json_object(
        [
            ("grid.occupied_cells", counts.occupied_cells),
            ("core.transformed_cells", counts.transformed_cells),
            ("core.surviving_cells", counts.surviving_cells),
            ("grid.clusters", counts.clusters),
            ("cli.output_bytes", counts.output_bytes),
            ("stream.checkpoints", counts.checkpoints),
            ("stream.outliers", outliers),
            ("serve.requests", counts.serve_requests),
        ]
        .map(|(k, v)| (k.to_string(), v)),
        |v| v.to_string(),
    );
    let overhead = on / off - 1.0;
    println!(
        "{{\"self_s\": {self_s}, \"root_s\": {root_s}, \"counts\": {counts}, \"overhead_ratio\": {overhead}}}"
    );
    Ok(())
}
