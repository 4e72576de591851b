//! The host-speed probe: a fixed piece of work shaped like one CLI run.
//!
//! On a shared host the speed of the cores drifts by a third and more
//! within a minute, and whole runs land in a fast or a slow stretch. The
//! driver times this probe next to every timed sample and rescales the
//! sample to the reference speed (see `run.py`). The work is the
//! benchmark's own — it uses none of the crates under test, so no change
//! to the program can move it — and it does what the CLI does: format
//! points as CSV text, parse them back, count them into a hashed grid,
//! label every point by lookup and render the labels.

use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::gen::Rng;
use crate::Opts;

/// Run one pass of the probe over `--points` points and print its seconds.
pub fn run(opts: &Opts) -> Result<(), String> {
    let points: usize = opts.num("points")?;
    let start = Instant::now();
    let check = probe(points);
    let seconds = start.elapsed().as_secs_f64();
    if check == 0 {
        return Err("the probe did no work".into());
    }
    println!("{seconds}");
    Ok(())
}

/// One pass of the fixed work; returns a checksum so none of it is
/// optimised away.
fn probe(points: usize) -> usize {
    let mut rng = Rng::new(1);
    let mut text = String::with_capacity(points * 40);
    for _ in 0..points {
        let (x, y) = (rng.uniform() * 100.0, rng.normal() * 10.0);
        writeln!(text, "{x},{y}").expect("writing to a String cannot fail");
    }
    let mut coords = Vec::with_capacity(points * 2);
    for line in text.lines() {
        let (x, y) = line.split_once(',').expect("the probe wrote two fields");
        coords.push(x.parse::<f64>().expect("the probe wrote a float"));
        coords.push(y.parse::<f64>().expect("the probe wrote a float"));
    }
    let key = |p: &[f64]| ((p[0] as i64 as u64) << 32) ^ ((p[1] * 8.0) as i64 as u64);
    // A fixed hasher, so every pass does the same work.
    let mut grid: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for p in coords.chunks_exact(2) {
        *grid.entry(key(p)).or_insert(0) += 1;
    }
    let mut labels = String::with_capacity(points * 4);
    for p in coords.chunks_exact(2) {
        let count = grid[&key(p)];
        writeln!(labels, "{}", count % 7).expect("writing to a String cannot fail");
    }
    grid.len() + labels.len()
}
