//! End-to-end serving over real trained models: save → serve → HTTP
//! requests answer exactly what the in-process model answers, under
//! concurrency, across a hot reload, and in the face of malformed input.
//!
//! (The serve crate's own integration suite drives the protocol with a
//! toy model; this one closes the loop through `standard_registry`,
//! `save_model` and `model_loader` — the full production path.)

use std::sync::Arc;
use std::time::Duration;

use adawave::serve::Client;
use adawave::{
    model_loader, save_model, standard_registry, AlgorithmSpec, ModelStore, PointMatrix,
    ServeConfig, Server,
};
use adawave_data::{shapes, Rng};

/// Two blobs plus uniform background noise (the registry-parity regime).
fn toy_points() -> PointMatrix {
    let mut rng = Rng::new(9);
    let mut points = PointMatrix::new(2);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.25, 0.25], &[0.02, 0.02], 150);
    shapes::gaussian_blob(&mut points, &mut rng, &[0.75, 0.75], &[0.02, 0.02], 150);
    shapes::uniform_box(&mut points, &mut rng, &[0.0, 0.0], &[1.0, 1.0], 60);
    points
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("adawave_e2e_{name}_{}.awm", std::process::id()))
}

fn points_as_csv(points: &PointMatrix) -> String {
    points
        .rows()
        .map(|row| format!("{:?},{:?}\n", row[0], row[1]))
        .collect()
}

/// The exact bytes `adawave predict --output csv` renders for a model on
/// these points (the same writer the daemon mirrors).
fn offline_csv(model: &dyn adawave::Model, points: &PointMatrix) -> String {
    let clustering = model.predict(points.view()).unwrap();
    let mut out = String::from("label\n");
    for label in clustering.labels() {
        if let Some(l) = label {
            out.push_str(&l.to_string());
        }
        out.push('\n');
    }
    out
}

#[test]
fn served_predictions_match_in_process_models_under_concurrency() {
    let points = toy_points();
    let registry = standard_registry();
    let store = Arc::new(ModelStore::new(model_loader()));

    let mut paths = Vec::new();
    let mut offline = Vec::new();
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
        store.load(name, &path).unwrap();
        offline.push((name, offline_csv(outcome.model.as_ref(), &points)));
        paths.push(path);
    }

    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&store),
    )
    .unwrap();
    let addr = server.local_addr();
    let body = points_as_csv(&points);

    // Sequential ground truth: the served CSV equals the offline render
    // byte for byte, for both models.
    let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
    for (name, expected) in &offline {
        let response = client
            .post(&format!("/models/{name}/predict-batch"), "text/csv", &body)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(&response.body, expected, "{name}: served != offline");
    }

    // Concurrent clients see the same bytes as the sequential baseline.
    std::thread::scope(|scope| {
        for _ in 0..5 {
            scope.spawn(|| {
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                for _ in 0..2 {
                    for (name, expected) in &offline {
                        let response = client
                            .post(&format!("/models/{name}/predict-batch"), "text/csv", &body)
                            .unwrap();
                        assert_eq!(&response.body, expected, "{name} diverged under load");
                    }
                }
            });
        }
    });

    // Single-point answers agree with predict_one on the same model.
    let model = store.get("kmeans").unwrap();
    for i in [0usize, 151, 299] {
        let row = points.row(i);
        let response = client
            .post(
                "/models/kmeans/predict",
                "application/json",
                &format!("{{\"point\": [{}, {}]}}", row[0], row[1]),
            )
            .unwrap();
        let expected = match model.model.predict_one(row) {
            Some(l) => format!("\"label\":{l}"),
            None => "\"label\":null".to_string(),
        };
        assert!(response.body.contains(&expected), "{}", response.body);
    }

    server.shutdown();
    server.join();
    for path in paths {
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hot_reload_swaps_a_retrained_model_atomically_under_load() {
    let points = toy_points();
    let registry = standard_registry();
    let store = Arc::new(ModelStore::new(model_loader()));
    let path = temp_path("reload");

    // v1: k=2. The retrained v2 (k=3, different seed) must label some
    // probe point differently, or the test cannot tell the versions
    // apart on the wire.
    let v1 = registry
        .fit_model(
            &AlgorithmSpec::new("kmeans").with("k", 2).with("seed", 7),
            points.view(),
        )
        .unwrap()
        .model;
    let v2 = registry
        .fit_model(
            &AlgorithmSpec::new("kmeans").with("k", 3).with("seed", 11),
            points.view(),
        )
        .unwrap()
        .model;
    let probe = (0..points.len())
        .find(|&i| v1.predict_one(points.row(i)) != v2.predict_one(points.row(i)))
        .expect("some point distinguishes k=2 from k=3");
    let row = points.row(probe);
    let request = format!("{{\"point\": [{}, {}]}}", row[0], row[1]);
    let label1 = v1.predict_one(row);
    let label2 = v2.predict_one(row);

    save_model(&path, v1.as_ref()).unwrap();
    store.load("blobs", &path).unwrap();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 6,
            ..ServeConfig::default()
        },
        Arc::clone(&store),
    )
    .unwrap();
    let addr = server.local_addr();

    let render = |label: Option<usize>| match label {
        Some(l) => format!("\"label\":{l}"),
        None => "\"label\":null".to_string(),
    };
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut hammers = Vec::new();
        for _ in 0..4 {
            let stop = Arc::clone(&stop);
            let request = request.clone();
            let (render1, render2) = (render(label1), render(label2));
            hammers.push(scope.spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
                let mut count = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = client
                        .post("/models/blobs/predict", "application/json", &request)
                        .unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    // Every response is one model version, never a blend:
                    // v1's label with v1's version, or v2's with v2.
                    let v1_response = r.body.contains("\"version\":1") && r.body.contains(&render1);
                    let v2_response =
                        !r.body.contains("\"version\":1") && r.body.contains(&render2);
                    assert!(v1_response || v2_response, "mixed response: {}", r.body);
                    count += 1;
                }
                count
            }));
        }

        // Retrain on disk and hot-swap while the hammers run.
        std::thread::sleep(Duration::from_millis(30));
        save_model(&path, v2.as_ref()).unwrap();
        let mut admin = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let reload = admin
            .post("/admin/reload/blobs", "application/json", "")
            .unwrap();
        assert_eq!(reload.status, 200, "{}", reload.body);
        assert!(reload.body.contains("\"version\":2"), "{}", reload.body);
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u32 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);

        // Settled state: everyone sees the retrained model.
        let r = admin
            .post("/models/blobs/predict", "application/json", &request)
            .unwrap();
        assert!(r.body.contains("\"version\":2"), "{}", r.body);
        assert!(r.body.contains(&render(label2)), "{}", r.body);
    });

    server.shutdown();
    server.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_requests_get_typed_errors_and_noise_stays_noise() {
    let points = toy_points();
    let registry = standard_registry();
    let outcome = registry
        .fit_model(
            &AlgorithmSpec::new("adawave").with("scale", 32),
            points.view(),
        )
        .unwrap();
    let path = temp_path("malformed");
    save_model(&path, outcome.model.as_ref()).unwrap();
    let store = Arc::new(ModelStore::new(model_loader()));
    store.load("blobs", &path).unwrap();
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        },
        store,
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), Duration::from_secs(10)).unwrap();

    // Typed 4xx for requests the client got wrong.
    for (path, content_type, body) in [
        ("/models/blobs/predict", "application/json", "{broken"),
        (
            "/models/blobs/predict",
            "application/json",
            "{\"point\": [1.0]}",
        ),
        // JSON cannot spell NaN — a non-finite single point is a parse
        // error, not a prediction.
        (
            "/models/blobs/predict",
            "application/json",
            "{\"point\": [NaN, 0.2]}",
        ),
        (
            "/models/blobs/predict-batch",
            "application/json",
            "{\"rows\": [[0.1, 0.2], [0.3]]}",
        ),
        ("/models/blobs/predict-batch", "text/csv", "0.1,0.2,0.3\n"),
    ] {
        let response = client.post(path, content_type, body).unwrap();
        assert_eq!(response.status, 400, "{body:?} -> {}", response.body);
        assert!(response.body.contains("error"), "{}", response.body);
    }

    // CSV *can* spell nan, and the outlier contract routes it to noise:
    // the response is a well-formed answer with an empty label field.
    let response = client
        .post("/models/blobs/predict-batch", "text/csv", "nan,0.2\n")
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.body, "label\n\n");

    // An in-domain-shaped but out-of-domain single point answers null.
    let response = client
        .post(
            "/models/blobs/predict",
            "application/json",
            "{\"point\": [1e9, 1e9]}",
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response.body.contains("\"label\":null"),
        "{}",
        response.body
    );

    // Unknown model: 404 with a suggestion. Unknown endpoint: 404 map.
    let response = client.get("/models/blob").unwrap();
    assert_eq!(response.status, 404);
    assert!(
        response.body.contains("did you mean blobs?"),
        "{}",
        response.body
    );
    let response = client.get("/modelz").unwrap();
    assert_eq!(response.status, 404);
    assert!(response.body.contains("GET /models"), "{}", response.body);

    // And after all that abuse the daemon still serves.
    assert_eq!(client.get("/health").unwrap().status, 200);

    server.shutdown();
    server.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn reloading_a_corrupt_adawave_model_keeps_version_1_serving() {
    let points = toy_points();
    let v1 = standard_registry()
        .fit_model(
            &AlgorithmSpec::new("adawave").with("scale", 32),
            points.view(),
        )
        .unwrap()
        .model;
    let path = temp_path("corrupt_cells");
    save_model(&path, v1.as_ref()).unwrap();
    let store = ModelStore::new(model_loader());
    store.load("wave", &path).unwrap();

    // A cell count the file cannot back (one used to overflow the map's
    // capacity, one to abort on a multi-terabyte allocation) and a cell
    // key no transformed grid under 128 bits holds.
    let good = std::fs::read_to_string(&path).unwrap();
    let count_at = good.find("\ncells ").unwrap() + 1;
    let (head, tail) = good.split_at(count_at);
    let (count_line, cells) = tail.split_once('\n').unwrap();
    let forgeries = [
        format!("{head}cells 4611686018427387904\n{cells}"),
        format!("{head}cells 100000000000\n{cells}"),
        format!("{head}{count_line}\n{}{}", "f".repeat(32), &cells[32..]),
    ];
    for forged in forgeries {
        std::fs::write(&path, &forged).unwrap();
        let err = store.reload("wave").unwrap_err();
        assert!(
            err.contains("truncated payload") || err.contains("outside the transformed"),
            "{err}"
        );
        let entry = store.get("wave").unwrap();
        assert_eq!(entry.version, 1);
        for p in points.rows() {
            assert_eq!(entry.model.predict_one(p), v1.predict_one(p));
        }
    }
    std::fs::remove_file(&path).ok();
}
