//! Serving-daemon load benchmark: what `adawave serve` adds on top of the
//! in-process predict kernel.
//!
//! Trains the adawave and kmeans models on the synthetic workload, saves
//! them, serves them from a real `adawave-serve` daemon on a loopback
//! port, and hammers it with concurrent keep-alive HTTP clients:
//!
//! * **single-point requests** — end-to-end request latency (p50/p99)
//!   and requests/second, per client count, and
//! * **batch requests** — CSV rows in, labels out; points/second through
//!   the full HTTP + parse + predict + render path.
//!
//! Label parity against the in-process model is asserted before timing.
//! Clients and server workers share the host's cores, so on a host with
//! fewer cores than clients plus workers, concurrency measures protocol
//! overhead and scheduling, not parallel speedup.
//!
//! Run with `cargo run --release -p adawave-bench --bin serve_bench`
//! (writes `BENCH_serve.json` into the current directory); pass `--smoke`
//! for a seconds-long variant driving the same code paths.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adawave::serve::json::Json;
use adawave::serve::Client;
use adawave::{
    model_loader, save_model, standard_registry, AlgorithmSpec, ModelStore, ServeConfig, Server,
};
use adawave_bench::harness::{percentile, Bench, Row};

fn main() {
    let bench = Bench::from_args("serve", 2_000);
    let singles_per_client = bench.pick(1_500, 100);
    let batch_requests = bench.pick(12, 2);
    let points = bench.points();
    let n = points.len();
    let mut report = bench.report(
        "the serve daemon turns the in-process predict kernel into a measurable network service: keep-alive HTTP/1.1, worker pool, per-request latency percentiles, and batch label parity with the offline CLI",
        "asserted in-process before timing: each model's served batch labels equal its in-process predict",
        Row::new()
            .int("singles_per_client", singles_per_client)
            .int("batch_requests", batch_requests),
    );

    // Train, persist, and keep the in-process models for the parity gate.
    let registry = standard_registry();
    let dir = std::env::temp_dir();
    let mut served: Vec<(&'static str, std::path::PathBuf, Box<dyn adawave::Model>)> = Vec::new();
    for (algorithm, spec) in [
        ("adawave", AlgorithmSpec::new("adawave")),
        (
            "kmeans",
            AlgorithmSpec::new("kmeans").with("k", 5).with("seed", 7),
        ),
    ] {
        let outcome = registry.fit_model(&spec, points).expect(algorithm);
        let path = dir.join(format!(
            "adawave_serve_bench_{algorithm}_{}.awm",
            std::process::id()
        ));
        save_model(&path, outcome.model.as_ref()).expect(algorithm);
        served.push((algorithm, path, outcome.model));
    }

    let store = Arc::new(ModelStore::new(model_loader()));
    for (algorithm, path, _) in &served {
        store.load(algorithm, path).expect(algorithm);
    }
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8, // enough for every client below to hold a worker
            ..ServeConfig::default()
        },
        Arc::clone(&store),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // The batch body: the full workload as CSV rows (built once).
    let batch_body: String = (0..n)
        .map(|i| {
            let row = points.row(i);
            let mut line = String::new();
            for (d, v) in row.iter().enumerate() {
                if d > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{v:?}"));
            }
            line.push('\n');
            line
        })
        .collect();

    for (algorithm, _, model) in &served {
        // Parity gate: the served answer must be byte-equivalent to the
        // in-process labels before any number counts.
        let expected = model.predict(points).expect(algorithm);
        let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
        let response = client
            .post(
                &format!("/models/{algorithm}/predict-batch"),
                "text/csv",
                &batch_body,
            )
            .expect("batch request");
        assert_eq!(response.status, 200, "{}", response.body);
        let served_labels: Vec<Option<usize>> = response
            .body
            .lines()
            .skip(1)
            .map(|l| l.parse::<usize>().ok())
            .collect();
        assert_eq!(
            served_labels,
            expected.labels().collect::<Vec<_>>(),
            "{algorithm}: served labels diverged from in-process predict"
        );

        for clients in [1usize, 4] {
            // Single-point latency under `clients` concurrent connections.
            let wall = Instant::now();
            // audit:allow(raw-thread) load-generator clients for the benchmark; no clustering result depends on them
            let mut latencies: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut client =
                                Client::connect(addr, Duration::from_secs(30)).expect("connect");
                            let mut latencies = Vec::with_capacity(singles_per_client);
                            for i in 0..singles_per_client {
                                let row = points.row((c * singles_per_client + i) % n);
                                let body = Json::Object(vec![(
                                    "point".to_string(),
                                    Json::Array(row.iter().map(|&v| Json::Number(v)).collect()),
                                )])
                                .render();
                                let start = Instant::now();
                                let response = client
                                    .post(
                                        &format!("/models/{algorithm}/predict"),
                                        "application/json",
                                        &body,
                                    )
                                    .expect("single request");
                                latencies.push(start.elapsed().as_secs_f64());
                                assert_eq!(response.status, 200, "{}", response.body);
                            }
                            latencies
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall_seconds = wall.elapsed().as_secs_f64();
            latencies.sort_by(f64::total_cmp);
            let total_requests = clients * singles_per_client;

            // Batch throughput on one connection (per client count the
            // batch numbers barely move — it is one big request — so
            // measure it under the same concurrency for completeness).
            let batch_wall = Instant::now();
            let mut batch_client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
            for _ in 0..batch_requests {
                let response = batch_client
                    .post(
                        &format!("/models/{algorithm}/predict-batch"),
                        "text/csv",
                        &batch_body,
                    )
                    .expect("batch request");
                assert_eq!(response.status, 200);
            }
            let batch_seconds = batch_wall.elapsed().as_secs_f64();

            report.row(
                Row::new()
                    .text("algorithm", algorithm)
                    .int("clients", clients)
                    .int("single_requests", total_requests)
                    .num(
                        "single_requests_per_second",
                        total_requests as f64 / wall_seconds,
                    )
                    .num("single_p50_micros", percentile(&latencies, 0.50) * 1e6)
                    .num("single_p99_micros", percentile(&latencies, 0.99) * 1e6)
                    .int("batch_rows_per_request", n)
                    .num(
                        "batch_points_per_second",
                        (n * batch_requests) as f64 / batch_seconds,
                    ),
            );
        }
    }

    server.shutdown();
    server.join();
    for (_, path, _) in &served {
        std::fs::remove_file(path).ok();
    }

    report.finish();
}
