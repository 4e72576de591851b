//! The one harness behind every `*_bench` binary.
//!
//! A binary names itself, asks for the shared workload, times its
//! kernels with [`best_of`], adds one [`Row`] per measurement to a
//! [`Report`] and calls [`Report::finish`]. The report prints every row
//! as an aligned table and writes the same rows to `BENCH_<name>.json`
//! in the current directory, in the schema every BENCH file shares:
//!
//! ```text
//! {"bench": name, "host": {...}, "workload": {...},
//!  "claim": text, "parity": text, "rows": [{...}, ...]}
//! ```
//!
//! `host` records `available_parallelism` and the worker count
//! `Runtime::from_env` resolves; `workload` and every row are flat
//! objects of numbers and strings. Under `--smoke` a binary runs on a
//! small workload with the same parity assertions and the report writes
//! nothing, so a smoke run never rewrites a committed file.

use std::path::PathBuf;
use std::time::Instant;

use adawave::serve::json::Json;
use adawave_api::PointsView;
use adawave_data::synthetic::synthetic_benchmark;
use adawave_data::Dataset;
use adawave_runtime::Runtime;

use crate::report::format_table;

/// Noise share of the shared workload, in percent.
const NOISE_PERCENT: f64 = 75.0;
/// Generator seed of the shared workload.
const SEED: u64 = 42;
/// Points per cluster under `--smoke`: 5,000 points in all.
const SMOKE_PER_CLUSTER: usize = 250;

/// One benchmark run: its name, whether `--smoke` was given, and the
/// shared workload, the paper's Fig. 7 scene (five clusters plus 75%
/// uniform noise, seed 42).
pub struct Bench {
    name: &'static str,
    smoke: bool,
    data: Dataset,
}

impl Bench {
    /// Read `--smoke` from the process arguments and generate the
    /// workload with `per_cluster` points per cluster (250 under
    /// `--smoke`). `name` is the `<name>` of `BENCH_<name>.json`.
    pub fn from_args(name: &'static str, per_cluster: usize) -> Self {
        let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
        Self::new(name, smoke, per_cluster)
    }

    fn new(name: &'static str, smoke: bool, per_cluster: usize) -> Self {
        let per_cluster = if smoke {
            SMOKE_PER_CLUSTER
        } else {
            per_cluster
        };
        let data = synthetic_benchmark(NOISE_PERCENT, per_cluster, SEED);
        Self { name, smoke, data }
    }

    /// `full` in a full run, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The workload's points.
    pub fn points(&self) -> PointsView<'_> {
        self.data.view()
    }

    /// An empty report whose `workload` block holds the workload's size,
    /// noise and seed followed by `extra`.
    pub fn report(&self, claim: &str, parity: &str, extra: Row) -> Report {
        let mut workload = Row::new()
            .int("points", self.data.len())
            .int("dims", self.data.dims())
            .num("noise_percent", NOISE_PERCENT)
            .int("seed", SEED as usize);
        workload.0.extend(extra.0);
        Report {
            bench: self.name,
            smoke: self.smoke,
            claim: claim.to_string(),
            parity: parity.to_string(),
            workload,
            rows: Vec::new(),
        }
    }
}

/// Best-of-`repeats` wall-clock seconds of `f`. Each result passes
/// through [`std::hint::black_box`] before the clock stops, so the
/// optimizer cannot delete the work, and is dropped after it stops.
pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    best_of_with(repeats, || (), |()| f())
}

/// [`best_of`] for work that consumes its input: `prepare` builds each
/// repetition's input just before the clock starts.
pub fn best_of_with<S, T>(
    repeats: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..repeats {
        let input = prepare();
        let start = Instant::now();
        let out = std::hint::black_box(f(input));
        best = best.min(start.elapsed().as_secs_f64());
        drop(out);
    }
    best
}

/// The `p`-quantile (`0 <= p <= 1`) of ascending `sorted` samples, by
/// nearest rank.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// One flat JSON object of numbers and strings, in insertion order: a
/// table row, or the `workload` block.
#[derive(Debug, Default)]
pub struct Row(Vec<(&'static str, Json)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an exact count.
    pub fn int(mut self, key: &'static str, value: usize) -> Self {
        self.0.push((key, Json::Number(value as f64)));
        self
    }

    /// Append a measurement, rounded to four significant digits.
    ///
    /// # Panics
    ///
    /// If `value` is not finite: JSON has no spelling for it.
    pub fn num(mut self, key: &'static str, value: f64) -> Self {
        assert!(value.is_finite(), "{key} = {value} is not finite");
        let rounded = format!("{value:.3e}").parse().expect("formatted float");
        self.0.push((key, Json::Number(rounded)));
        self
    }

    /// Append a string.
    pub fn text(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, Json::String(value.to_string())));
        self
    }

    fn json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(key, value)| (key.to_string(), value.clone()))
                .collect(),
        )
    }

    fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(key, _)| key)
    }
}

/// The rows of one benchmark run, printed and written by
/// [`Report::finish`].
pub struct Report {
    bench: &'static str,
    smoke: bool,
    claim: String,
    parity: String,
    workload: Row,
    rows: Vec<Row>,
}

impl Report {
    /// Add one measurement row.
    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The file [`Report::finish`] writes: `BENCH_<name>.json` in the
    /// current directory, or `None` under `--smoke`.
    fn output_path(&self) -> Option<PathBuf> {
        (!self.smoke).then(|| PathBuf::from(format!("BENCH_{}.json", self.bench)))
    }

    /// The JSON document: one line per top-level key and per row.
    fn to_json(&self) -> String {
        let host = Row::new()
            .int(
                "available_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .int("runtime_threads", Runtime::from_env().threads());
        let head = [
            ("bench", Json::String(self.bench.to_string())),
            ("host", host.json()),
            ("workload", self.workload.json()),
            ("claim", Json::String(self.claim.clone())),
            ("parity", Json::String(self.parity.clone())),
        ];
        let rows: Vec<String> = self.rows.iter().map(|r| r.json().render()).collect();
        let mut fields: Vec<String> = head
            .iter()
            .map(|(key, value)| format!("\"{key}\": {}", value.render()))
            .collect();
        fields.push(format!("\"rows\": [\n{}\n]", rows.join(",\n")));
        format!("{{{}}}\n", fields.join(",\n"))
    }

    /// Print the rows, one aligned table per run of rows with the same
    /// keys, then write `BENCH_<name>.json` into the current directory
    /// unless this is a `--smoke` run.
    ///
    /// # Panics
    ///
    /// If there are no rows or the file cannot be written.
    pub fn finish(self) {
        assert!(!self.rows.is_empty(), "{}: no rows measured", self.bench);
        println!("{} (smoke={}):", self.bench, self.smoke);
        for group in self.rows.chunk_by(|a, b| a.keys().eq(b.keys())) {
            let headers: Vec<&str> = group[0].keys().collect();
            let cells: Vec<Vec<String>> = group
                .iter()
                .map(|row| {
                    row.0
                        .iter()
                        .map(|(_, value)| match value {
                            Json::String(s) => s.clone(),
                            other => other.render(),
                        })
                        .collect()
                })
                .collect();
            println!("{}", format_table(&headers, &cells));
        }
        match self.output_path() {
            Some(path) => {
                std::fs::write(&path, self.to_json())
                    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                println!("wrote {}", path.display());
            }
            None => println!("smoke run: parity assertions passed, nothing written"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_calls_its_closure_exactly_repeats_times() {
        let mut calls = 0usize;
        let best = best_of(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!((0.0..f64::MAX).contains(&best));
        let (mut prepared, mut ran) = (0usize, Vec::new());
        best_of_with(
            3,
            || {
                prepared += 1;
                prepared
            },
            |input| ran.push(input),
        );
        assert_eq!(ran, [1, 2, 3], "each run consumes its own prepared input");
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn a_smoke_report_has_no_output_path() {
        let smoke = Bench::new("demo", true, 5_000).report("c", "p", Row::new());
        assert_eq!(smoke.output_path(), None);
        let full = Bench::new("demo", false, 10).report("c", "p", Row::new());
        assert_eq!(full.output_path(), Some(PathBuf::from("BENCH_demo.json")));
    }

    #[test]
    fn the_report_renders_the_shared_schema() {
        let bench = Bench::new("demo", true, 5_000);
        assert_eq!(bench.points().len(), 5_000, "smoke overrides per_cluster");
        let mut report = bench.report("claim", "parity", Row::new().int("repeats", 2));
        report.row(Row::new().text("kernel", "a").num("seconds", 0.000123456));
        let doc = Json::parse(&report.to_json()).expect("valid JSON");
        let keys: Vec<&str> = match &doc {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            ["bench", "host", "workload", "claim", "parity", "rows"]
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        let workload = doc.get("workload").expect("workload");
        assert_eq!(workload.get("points").and_then(Json::as_f64), Some(5_000.0));
        assert_eq!(workload.get("repeats").and_then(Json::as_f64), Some(2.0));
        let row = &doc.get("rows").and_then(Json::as_array).expect("rows")[0];
        assert_eq!(row.get("seconds").and_then(Json::as_f64), Some(0.0001235));
    }
}
