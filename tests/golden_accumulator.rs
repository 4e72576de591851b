//! The accumulator artifact format is frozen: a session built the same
//! way must save to the checked-in golden file byte for byte, whatever
//! the writer's internals.

use std::path::Path;

use adawave_api::PointMatrix;
use adawave_core::AdaWaveConfig;
use adawave_stream::{load_accumulator, save_accumulator, StreamingAdaWave};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/accumulator_v1.awa"
);

/// The session behind the golden file: three blobs plus uniform noise in
/// one batch (which freezes the domain), then a batch holding a
/// non-finite row and an out-of-domain row, both recorded as outliers.
fn golden_session() -> StreamingAdaWave {
    let mut stream = StreamingAdaWave::new(AdaWaveConfig::builder().scale(32).build());
    let mut first = PointMatrix::new(2);
    for i in 0..240 {
        let t = i as f64 / 240.0;
        let (cx, cy) = [(0.25, 0.3), (0.7, 0.75), (0.6, 0.2)][i % 3];
        first.push_row(&[
            cx + 0.08 * (t * 17.0).fract() - 0.04,
            cy + 0.08 * (t * 29.0).fract() - 0.04,
        ]);
    }
    for i in 0..60 {
        let t = i as f64;
        first.push_row(&[(t * 0.618034).fract(), (t * 0.414214).fract()]);
    }
    stream.ingest(first.view()).unwrap();
    let second =
        PointMatrix::from_rows(vec![vec![f64::NAN, 0.5], vec![2.0, 2.0], vec![0.5, 0.5]]).unwrap();
    stream.ingest(second.view()).unwrap();
    stream
}

#[test]
fn save_accumulator_writes_the_golden_bytes() {
    let session = golden_session();
    assert_eq!(session.outlier_count(), 2);
    let path = std::env::temp_dir().join(format!(
        "adawave_golden_accumulator_{}.awa",
        std::process::id()
    ));
    save_accumulator(&path, &session).unwrap();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let golden = std::fs::read(GOLDEN).unwrap();
    assert!(
        written == golden,
        "save_accumulator output differs from {GOLDEN}"
    );

    let loaded = load_accumulator(Path::new(GOLDEN)).unwrap();
    assert_eq!(loaded.snapshot(), session.snapshot());
    assert_eq!(loaded.refit().unwrap(), session.refit().unwrap());
}
