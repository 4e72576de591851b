//! Every committed `BENCH_*.json` file shares the harness schema.

use std::path::Path;

use adawave::serve::json::Json;

/// The seven bench binaries and the file each writes.
const BENCHES: [&str; 7] = [
    "kernels", "layout", "parallel", "predict", "serve", "shard", "stream",
];

#[test]
fn every_committed_bench_file_shares_the_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut stems: Vec<String> = std::fs::read_dir(&root)
        .expect("workspace root")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter_map(|name| {
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")
                .map(str::to_string)
        })
        .collect();
    stems.sort();
    assert_eq!(stems, BENCHES, "one BENCH file per bench binary");

    for stem in stems {
        let file = format!("BENCH_{stem}.json");
        let text = std::fs::read_to_string(root.join(&file)).expect("readable");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let Json::Object(fields) = &doc else {
            panic!("{file}: not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "host", "workload", "claim", "parity", "rows"],
            "{file}"
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(&*stem));
        let cores = doc
            .get("host")
            .and_then(|h| h.get("available_parallelism"))
            .and_then(Json::as_f64);
        assert!(cores.is_some_and(|c| c >= 1.0), "{file}: host cores");
        let rows = doc.get("rows").and_then(Json::as_array).unwrap_or_default();
        assert!(!rows.is_empty(), "{file}: no rows");
        for row in rows {
            let Json::Object(cells) = row else {
                panic!("{file}: row {row:?} is not an object")
            };
            for (key, value) in cells {
                assert!(
                    matches!(value, Json::Number(_) | Json::String(_)),
                    "{file}: {key} = {value:?} is not a number or string"
                );
            }
        }
    }
}
