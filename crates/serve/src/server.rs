//! The serving front end: a `TcpListener` acceptor feeding a fixed worker
//! pool over an mpsc channel, each worker speaking the minimal HTTP/1.1
//! of [`crate::http`] with keep-alive.
//!
//! Endpoints (all bodies JSON unless noted):
//!
//! | method & path                        | does                                         |
//! |--------------------------------------|----------------------------------------------|
//! | `GET /health`                        | readiness + model count                      |
//! | `GET /models`                        | list served models (name/algorithm/dims/version) |
//! | `GET /models/<name>`                 | one model's metadata + `summary()`           |
//! | `POST /models/<name>/predict`        | single point `{"point": [..]}` → `{"label": N\|null}` |
//! | `POST /models/<name>/predict-batch`  | CSV or JSON rows → labels (noise = empty/`null`) |
//! | `POST /admin/reload/<name>`          | atomic hot reload from the model's file      |
//!
//! Batch responses are **byte-identical** to `adawave predict --output
//! csv|json` on the same model and rows — the CI smoke diffs the two.
//! Malformed input is a typed 4xx, a handler panic is a 500 (the worker
//! survives via `catch_unwind`), and socket reads sit under a timeout so
//! a stalled client cannot hang a worker forever.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use adawave_api::{closest_matches, render_labels, LabelFormat, PointMatrix};
use adawave_runtime::Runtime;

use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::json::Json;
use crate::store::ModelStore;

/// How the daemon listens and how workers are sized.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks a free port — tests use
    /// this).
    pub addr: String,
    /// Worker threads; `0` = auto via the `adawave-runtime` precedence
    /// (explicit value, else `ADAWAVE_THREADS`, else available cores).
    pub workers: usize,
    /// Socket read timeout — a stalled or silent client is dropped after
    /// this long instead of pinning a worker.
    pub read_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8355".to_string(),
            workers: 0,
            read_timeout: Duration::from_secs(10),
            max_body_bytes: 16 << 20,
        }
    }
}

/// A running serve daemon; dropping it shuts the listener and workers
/// down (in-flight requests finish first).
pub struct Server {
    addr: SocketAddr,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pool: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `store` on the configured address.
    pub fn start(config: ServeConfig, store: Arc<ModelStore>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = Runtime::with_threads(config.workers).threads();
        let shutdown = Arc::new(AtomicBool::new(false));

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let config = config.clone();
            pool.push(
                // audit:allow(raw-thread) connection worker pool: serves I/O, produces no clustering results; thread count never affects labels
                std::thread::Builder::new()
                    .name(format!("adawave-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the handoff —
                        // and recover a poisoned lock (the handoff cannot
                        // leave the queue inconsistent) so one crashed
                        // worker never wedges the pool.
                        let stream = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        match stream {
                            Ok(stream) => handle_connection(stream, &store, &config),
                            Err(_) => break, // acceptor gone: drain done
                        }
                    })?,
            );
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            // audit:allow(raw-thread) accept-loop thread: plumbing only, no result-producing work
            std::thread::Builder::new()
                .name("adawave-serve-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                    }
                    // tx drops here; workers exit after draining the queue.
                })?
        };

        Ok(Server {
            addr,
            workers,
            shutdown,
            acceptor: Some(acceptor),
            pool,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many worker threads are serving.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Ask the daemon to stop: the listener closes, queued connections
    /// are still answered, and workers exit. Safe to call twice.
    pub fn shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so the acceptor sees the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Block until the daemon stops (the CLI parks here; tests call
    /// [`Server::shutdown`] first).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.pool.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join_threads();
    }
}

/// Serve one client connection: keep-alive request loop, typed errors,
/// panic isolation.
fn handle_connection(stream: TcpStream, store: &ModelStore, config: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    // Small request/response exchanges stall ~40-200ms per round trip
    // under Nagle + delayed ACK; a model server wants the latency.
    let _ = stream.set_nodelay(true);
    let Ok(cloned) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(cloned);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, config.max_body_bytes) {
            Ok(None) => break,
            Err(HttpError::Io(_)) => break, // peer vanished or timed out
            Err(HttpError::Malformed(context)) => {
                let mut response = Response::error(400, &format!("malformed request: {context}"));
                response.keep_alive = false;
                let _ = write_response(&mut writer, &response);
                break;
            }
            Err(HttpError::BodyTooLarge(limit)) => {
                let mut response =
                    Response::error(413, &format!("request body exceeds the {limit}-byte limit"));
                response.keep_alive = false;
                let _ = write_response(&mut writer, &response);
                break;
            }
            Ok(Some(request)) => {
                // A panicking handler answers 500 and the worker lives on.
                let mut response = catch_unwind(AssertUnwindSafe(|| route(store, &request)))
                    .unwrap_or_else(|_| {
                        Response::error(500, "internal error: request handler panicked")
                    });
                if request.wants_close() {
                    response.keep_alive = false;
                }
                if write_response(&mut writer, &response).is_err() || !response.keep_alive {
                    break;
                }
            }
        }
    }
}

/// Every route, for the unknown-endpoint message.
const ENDPOINTS: &str = "GET /health, GET /models, GET /models/<name>, \
                         POST /models/<name>/predict, POST /models/<name>/predict-batch, \
                         POST /admin/reload/<name>";

/// Dispatch one request to its endpoint.
fn route(store: &ModelStore, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => Response::json(
            Json::Object(vec![
                ("status".to_string(), Json::String("ok".to_string())),
                ("models".to_string(), Json::Number(store.len() as f64)),
            ])
            .render(),
        ),
        ("GET", ["models"]) => list_models(store),
        ("GET", ["models", name]) => with_model(store, name, model_summary),
        ("POST", ["models", name, "predict"]) => {
            with_model(store, name, |entry| predict_single(entry, request))
        }
        ("POST", ["models", name, "predict-batch"]) => {
            with_model(store, name, |entry| predict_batch(entry, request))
        }
        ("POST", ["admin", "reload", name]) => reload_model(store, name),
        (method, _) if !matches!(method, "GET" | "POST") => Response::error(
            405,
            &format!("method {method} is not supported (use GET or POST)"),
        ),
        _ => Response::error(
            404,
            &format!(
                "unknown endpoint '{} {}' — endpoints: {ENDPOINTS}",
                request.method, request.path
            ),
        ),
    }
}

/// Snapshot `name`'s entry and run `f` on it, or answer 404 with a
/// "did you mean ...?" built from the serving names.
fn with_model(
    store: &ModelStore,
    name: &str,
    f: impl FnOnce(&crate::store::ModelEntry) -> Response,
) -> Response {
    match store.get(name) {
        Some(entry) => f(&entry),
        None => Response::error(404, &unknown_model(name, &store.names())),
    }
}

/// The 404 body for an unknown model name, with suggestions.
fn unknown_model(name: &str, known: &[String]) -> String {
    let close = closest_matches(name, known.iter().map(String::as_str));
    let suggestion = if close.is_empty() {
        String::new()
    } else {
        format!(" — did you mean {}?", close.join(" or "))
    };
    format!(
        "unknown model '{name}'{suggestion} (serving: {})",
        if known.is_empty() {
            "nothing".to_string()
        } else {
            known.join(", ")
        }
    )
}

fn model_fields(entry: &crate::store::ModelEntry) -> Vec<(String, Json)> {
    vec![
        ("name".to_string(), Json::String(entry.name.clone())),
        (
            "algorithm".to_string(),
            Json::String(entry.model.algorithm().to_string()),
        ),
        ("dims".to_string(), Json::Number(entry.model.dims() as f64)),
        ("version".to_string(), Json::Number(entry.version as f64)),
    ]
}

fn list_models(store: &ModelStore) -> Response {
    let models = store
        .entries()
        .iter()
        .map(|entry| Json::Object(model_fields(entry)))
        .collect();
    Response::json(Json::Object(vec![("models".to_string(), Json::Array(models))]).render())
}

fn model_summary(entry: &crate::store::ModelEntry) -> Response {
    let mut fields = model_fields(entry);
    fields.push((
        "path".to_string(),
        Json::String(entry.path.display().to_string()),
    ));
    fields.push(("summary".to_string(), Json::String(entry.model.summary())));
    Response::json(Json::Object(fields).render())
}

fn reload_model(store: &ModelStore, name: &str) -> Response {
    if store.get(name).is_none() {
        return Response::error(404, &unknown_model(name, &store.names()));
    }
    match store.reload(name) {
        Ok(version) => Response::json(
            Json::Object(vec![
                ("name".to_string(), Json::String(name.to_string())),
                ("version".to_string(), Json::Number(version as f64)),
            ])
            .render(),
        ),
        Err(context) => Response::error(500, &format!("reload failed: {context}")),
    }
}

/// `POST /models/<name>/predict` — body `{"point": [x, y, ...]}`.
///
/// Answers the model's stable internal id (`null` = noise, per the
/// outlier contract: an in-domain point the model cannot place is an
/// answer, not an error). Wrong arity is a 400 — the request itself is
/// broken, not the point.
fn predict_single(entry: &crate::store::ModelEntry, request: &Request) -> Response {
    let body = match request.body_text() {
        Ok(text) => text,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(context) => return Response::error(400, &format!("bad JSON body: {context}")),
    };
    let Some(point) = doc.get("point").and_then(Json::as_array) else {
        return Response::error(400, "body must be {\"point\": [<numbers>]}");
    };
    let Some(values) = point.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>() else {
        return Response::error(400, "\"point\" must hold only numbers");
    };
    if values.len() != entry.model.dims() {
        return Response::error(
            400,
            &format!(
                "point has {} coordinates, model '{}' expects {}",
                values.len(),
                entry.name,
                entry.model.dims()
            ),
        );
    }
    let label = match entry.model.predict_one(&values) {
        Some(label) => Json::Number(label as f64),
        None => Json::Null,
    };
    Response::json(
        Json::Object(vec![
            ("model".to_string(), Json::String(entry.name.clone())),
            ("version".to_string(), Json::Number(entry.version as f64)),
            ("label".to_string(), label),
        ])
        .render(),
    )
}

/// `POST /models/<name>/predict-batch` — rows in, labels out, in the
/// body's own format: `Content-Type: text/csv` takes CSV rows and
/// answers CSV labels; anything else takes `{"rows": [[..], ..]}` and
/// answers the JSON labels document. Both responses are byte-identical
/// to `adawave predict --output csv|json` on the same rows.
fn predict_batch(entry: &crate::store::ModelEntry, request: &Request) -> Response {
    let body = match request.body_text() {
        Ok(text) => text,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let csv = request
        .header("content-type")
        .is_some_and(|t| t.to_ascii_lowercase().contains("csv"));
    let points = if csv {
        parse_csv_rows(body)
    } else {
        parse_json_rows(body)
    };
    let mut points = match points {
        Ok(points) => points,
        Err(context) => return Response::error(400, &context),
    };
    if points.is_empty() {
        points = PointMatrix::new(entry.model.dims());
    }
    // The InvalidInput contract covers empty / zero-dim / wrong-dims
    // batches — all requests the client got wrong, hence 400.
    let clustering = match entry.model.predict(points.view()) {
        Ok(clustering) => clustering,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let labels = clustering.assignment().iter().copied();
    if csv {
        Response::csv(render_labels(labels, LabelFormat::Csv))
    } else {
        Response::json(render_labels(labels, LabelFormat::Json))
    }
}

/// Parse a JSON batch body `{"rows": [[numbers], ...]}` of equal-arity
/// rows.
fn parse_json_rows(body: &str) -> Result<PointMatrix, String> {
    let doc = Json::parse(body).map_err(|context| format!("bad JSON body: {context}"))?;
    let raw = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("body must be {\"rows\": [[<numbers>], ...]}")?;
    let mut rows = Vec::with_capacity(raw.len());
    for (i, row) in raw.iter().enumerate() {
        let values: Option<Vec<f64>> = row
            .as_array()
            .map(|vals| vals.iter().map(Json::as_f64).collect())
            .unwrap_or(None);
        let values = values.ok_or_else(|| format!("row {i} must be an array of numbers"))?;
        if let Some(first) = rows.first() {
            let arity = Vec::len(first);
            if values.len() != arity {
                return Err(format!(
                    "row {i} holds {} values but row 0 holds {arity}",
                    values.len()
                ));
            }
        }
        rows.push(values);
    }
    PointMatrix::from_rows(rows).map_err(|e| e.to_string())
}

/// Parse a CSV batch body straight into a point matrix: one
/// comma-separated row of coordinates per line. Blank lines and `#`
/// comments are skipped, non-numeric lines before the first numeric one
/// are taken for a header, and non-finite spellings (`nan`, `inf`) are
/// *accepted* — CSV can express them, and non-finite coordinates take the
/// documented noise path instead of erroring.
fn parse_csv_rows(body: &str) -> Result<PointMatrix, String> {
    let mut points = PointMatrix::new(0);
    for (line_no, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match points.push_csv_row(line) {
            Ok(found) if found != points.dims() => {
                return Err(format!(
                    "csv line {}: {found} fields, expected {}",
                    line_no + 1,
                    points.dims()
                ))
            }
            Ok(_) => {}
            // Lines before the first numeric one are a header.
            Err(_) if points.is_empty() => {}
            Err(_) => return Err(format!("csv line {}: '{line}' is not numeric", line_no + 1)),
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ModelLoader;
    use adawave_api::Model;
    use std::path::Path;

    /// A 2-d quadrant model: label = 0..3 by sign pattern, noise for
    /// non-finite coordinates. Deterministic and trivially predictable.
    struct Quadrant;

    impl Model for Quadrant {
        fn algorithm(&self) -> &str {
            "quadrant"
        }
        fn dims(&self) -> usize {
            2
        }
        fn predict_one(&self, point: &[f64]) -> Option<usize> {
            if point.len() != 2 || point.iter().any(|v| !v.is_finite()) {
                return None;
            }
            Some(usize::from(point[0] >= 0.0) + 2 * usize::from(point[1] >= 0.0))
        }
        fn summary(&self) -> String {
            "quadrant model".to_string()
        }
    }

    fn quadrant_loader() -> ModelLoader {
        Arc::new(|_: &Path| Ok(Box::new(Quadrant) as Box<dyn Model>))
    }

    fn test_store() -> ModelStore {
        let store = ModelStore::new(quadrant_loader());
        store.load("quads", Path::new("/dev/null")).unwrap();
        store
    }

    fn get(store: &ModelStore, path: &str) -> Response {
        route(
            store,
            &Request {
                method: "GET".to_string(),
                path: path.to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        )
    }

    fn post(store: &ModelStore, path: &str, content_type: &str, body: &str) -> Response {
        route(
            store,
            &Request {
                method: "POST".to_string(),
                path: path.to_string(),
                headers: vec![("content-type".to_string(), content_type.to_string())],
                body: body.as_bytes().to_vec(),
            },
        )
    }

    #[test]
    fn health_models_and_summary_answer() {
        let store = test_store();
        let health = get(&store, "/health");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"models\":1"), "{}", health.body);

        let list = get(&store, "/models");
        assert!(list.body.contains("\"name\":\"quads\""), "{}", list.body);
        assert!(list.body.contains("\"algorithm\":\"quadrant\""));

        let summary = get(&store, "/models/quads");
        assert!(summary.body.contains("\"summary\":\"quadrant model\""));
        assert!(summary.body.contains("\"version\":1"));
    }

    #[test]
    fn single_predict_labels_and_noise() {
        let store = test_store();
        let ok = post(
            &store,
            "/models/quads/predict",
            "application/json",
            r#"{"point": [1.0, -1.0]}"#,
        );
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(ok.body.contains("\"label\":1"), "{}", ok.body);
        assert!(ok.body.contains("\"version\":1"), "{}", ok.body);

        // JSON cannot spell NaN, but CSV batch can — the single-point
        // noise path is exercised through an in-domain unanswerable
        // point in the e2e suite; here wrong arity must 400.
        let wrong = post(
            &store,
            "/models/quads/predict",
            "application/json",
            r#"{"point": [1.0]}"#,
        );
        assert_eq!(wrong.status, 400);
        assert!(wrong.body.contains("expects 2"), "{}", wrong.body);
    }

    #[test]
    fn batch_predict_matches_the_cli_writers_in_both_formats() {
        let store = test_store();
        let csv = post(
            &store,
            "/models/quads/predict-batch",
            "text/csv",
            "x,y\n1.0,1.0\n-1.0,-1.0\nnan,0.0\n",
        );
        assert_eq!(csv.status, 200, "{}", csv.body);
        // Quadrant labels 3, 0 compact to 0, 1; nan row is noise (empty).
        assert_eq!(csv.body, "label\n0\n1\n\n");

        let json = post(
            &store,
            "/models/quads/predict-batch",
            "application/json",
            r#"{"rows": [[1.0, 1.0], [-1.0, -1.0]]}"#,
        );
        assert_eq!(json.status, 200, "{}", json.body);
        assert_eq!(
            json.body,
            "{\n  \"points\": 2,\n  \"clusters\": 2,\n  \"noise_points\": 0,\n  \"labels\": [0, 1]\n}\n"
        );
    }

    #[test]
    fn malformed_bodies_are_typed_400s() {
        let store = test_store();
        for (content_type, body, needle) in [
            ("application/json", "{not json", "bad JSON"),
            ("application/json", r#"{"rows": [[1.0, NaN]]}"#, "bad JSON"),
            ("application/json", r#"{"points": []}"#, "rows"),
            (
                "application/json",
                r#"{"rows": [[1.0, 2.0], [3.0]]}"#,
                "row 1",
            ),
            ("application/json", r#"{"rows": []}"#, "invalid input"),
            ("text/csv", "x,y\n1.0,2.0\n3.0\n", "csv line 3"),
            ("text/csv", "1.0,2.0\nbanana,2.0\n", "csv line 2"),
            ("text/csv", "1.0,2.0,3.0\n", "invalid input"),
            ("text/csv", "x,y\n", "invalid input"),
        ] {
            let response = post(&store, "/models/quads/predict-batch", content_type, body);
            assert_eq!(response.status, 400, "{body:?} -> {}", response.body);
            assert!(
                response.body.contains(needle),
                "{body:?} -> {}",
                response.body
            );
        }
    }

    #[test]
    fn malformed_csv_batches_keep_their_exact_400_texts() {
        let store = test_store();
        for (body, error) in [
            // Non-numeric lines before the first numeric one are a header.
            (
                "x,y\n# units\n\nlat,lon\n1.0,2.0\n  a, 2\r\n",
                "csv line 6: 'a, 2' is not numeric",
            ),
            (
                "1.0,2.0\n\n3.0, 4.0, 5.0\n",
                "csv line 3: 3 fields, expected 2",
            ),
            ("1.0,2.0\n3.0\n", "csv line 2: 1 fields, expected 2"),
            // A bad value is reported before a wrong arity.
            ("1.0,2.0\n3.0,x,y\n", "csv line 2: '3.0,x,y' is not numeric"),
            (
                "h\n1\n3\n",
                "invalid input: predict input has 1 dimensions but the model was trained on 2",
            ),
        ] {
            let response = post(&store, "/models/quads/predict-batch", "text/csv", body);
            assert_eq!(response.status, 400, "{body:?}");
            assert_eq!(
                response.body,
                Json::Object(vec![("error".to_string(), Json::String(error.to_string()))]).render(),
                "{body:?}"
            );
        }
    }

    #[test]
    fn unknown_models_get_suggestions_and_unknown_paths_list_endpoints() {
        let store = test_store();
        let typo = get(&store, "/models/quadz");
        assert_eq!(typo.status, 404);
        assert!(typo.body.contains("did you mean quads?"), "{}", typo.body);

        let missing = get(&store, "/nope");
        assert_eq!(missing.status, 404);
        assert!(missing.body.contains("GET /health"), "{}", missing.body);

        let bad_method = route(
            &store,
            &Request {
                method: "DELETE".to_string(),
                path: "/models/quads".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(bad_method.status, 405);
    }

    #[test]
    fn reload_bumps_the_version_and_missing_models_404() {
        let store = test_store();
        let reload = post(&store, "/admin/reload/quads", "application/json", "");
        assert_eq!(reload.status, 200, "{}", reload.body);
        assert!(reload.body.contains("\"version\":2"), "{}", reload.body);
        assert!(get(&store, "/models/quads").body.contains("\"version\":2"));

        let missing = post(&store, "/admin/reload/ghost", "application/json", "");
        assert_eq!(missing.status, 404);
    }
}
