//! Seeded workload inputs and label scoring.
//!
//! The generator is the benchmark's own (not `adawave generate`), so a
//! change to the program under test can never change the benchmark's
//! inputs: the same `--seed` always writes the same bytes.

use std::io::{BufWriter, Write};

use crate::Opts;

/// Ground-truth label of the uniform background noise in every scene.
pub const NOISE_TRUTH: usize = 5;

/// splitmix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xA5A5_5A5A_0F0F_F0F0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform index in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `k` distinct indices of `0..n` in random order (partial
    /// Fisher-Yates).
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// Rows of one scene: flat coordinates plus one truth label per row.
struct Scene {
    dims: usize,
    coords: Vec<f64>,
    labels: Vec<usize>,
}

impl Scene {
    fn new(dims: usize, per_cluster: usize) -> Scene {
        // Five clusters plus three noise points per cluster point.
        let rows = per_cluster * 20;
        Scene {
            dims,
            coords: Vec::with_capacity(rows * dims),
            labels: Vec::with_capacity(rows),
        }
    }

    fn push(&mut self, row: &[f64], label: usize) {
        self.coords.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Uniform noise over the unit cube: three noise points per cluster
    /// point, i.e. 75% of the scene.
    fn add_noise(&mut self, rng: &mut Rng) {
        let count = self.labels.len() * 3;
        let mut row = vec![0.0; self.dims];
        for _ in 0..count {
            row.iter_mut().for_each(|v| *v = rng.uniform());
            self.push(&row, NOISE_TRUTH);
        }
    }
}

/// The paper's Fig. 7 scene: a Gaussian ellipse, two overlapping rings
/// and two parallel sloping lines, `per_cluster` points each.
fn noisy2d(rng: &mut Rng, per_cluster: usize) -> Scene {
    let mut s = Scene::new(2, per_cluster);
    let (sin, cos) = 0.55f64.sin_cos();
    for _ in 0..per_cluster {
        let (u, v) = (rng.normal() * 0.060, rng.normal() * 0.022);
        s.push(&[0.20 + u * cos - v * sin, 0.80 + u * sin + v * cos], 0);
    }
    for (label, (cx, cy)) in [(1, (0.64, 0.68)), (2, (0.78, 0.58))] {
        for _ in 0..per_cluster {
            let theta = rng.uniform() * std::f64::consts::TAU;
            let r = 0.11 + 0.008 * rng.normal();
            s.push(&[cx + r * theta.cos(), cy + r * theta.sin()], label);
        }
    }
    for (label, (x0, y0), (x1, y1)) in [
        (3, (0.08, 0.16), (0.44, 0.42)),
        (4, (0.12, 0.05), (0.48, 0.31)),
    ] {
        let (dx, dy) = (x1 - x0, y1 - y0);
        let len = f64::hypot(dx, dy);
        let (nx, ny) = (-dy / len, dx / len);
        for _ in 0..per_cluster {
            let t = rng.uniform();
            let jitter = 0.004 * rng.normal();
            s.push(
                &[x0 + t * dx + jitter * nx, y0 + t * dy + jitter * ny],
                label,
            );
        }
    }
    s.add_noise(rng);
    s
}

/// Five well-separated 4-d Gaussian blobs at fixed centres; with 75%
/// uniform noise nearly every noise point occupies its own cell, so the
/// occupied cell count is close to the point count.
fn sparse4d(rng: &mut Rng, per_cluster: usize) -> Scene {
    const CENTRES: [[f64; 4]; 5] = [
        [0.25, 0.25, 0.25, 0.25],
        [0.75, 0.25, 0.75, 0.25],
        [0.25, 0.75, 0.75, 0.75],
        [0.75, 0.75, 0.25, 0.50],
        [0.50, 0.50, 0.50, 0.80],
    ];
    let mut s = Scene::new(4, per_cluster);
    let mut row = [0.0; 4];
    for (label, centre) in CENTRES.iter().enumerate() {
        for _ in 0..per_cluster {
            for (v, c) in row.iter_mut().zip(centre) {
                *v = c + 0.03 * rng.normal();
            }
            s.push(&row, label);
        }
    }
    s.add_noise(rng);
    s
}

/// `gen --scene noisy2d|sparse4d --seed N --per-cluster N --out F`: the
/// scene in a seeded random row order, one `features...,label` line per
/// point.
pub fn write_scene(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.num("seed")?;
    let per_cluster: usize = opts.num("per-cluster")?;
    let mut rng = Rng::new(seed);
    let scene = match opts.get("scene")? {
        "noisy2d" => noisy2d(&mut rng, per_cluster),
        "sparse4d" => sparse4d(&mut rng, per_cluster),
        other => return Err(format!("unknown scene '{other}'")),
    };
    let n = scene.labels.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let out = opts.get("out")?;
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        for &i in &order {
            for v in &scene.coords[i * scene.dims..(i + 1) * scene.dims] {
                write!(w, "{v},")?;
            }
            writeln!(w, "{}", scene.labels[i])?;
        }
        w.flush()
    };
    write().map_err(|e| format!("{out}: {e}"))
}

/// The data lines of an input CSV (comments and blank lines dropped).
pub fn data_lines(text: &str) -> Vec<&str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// A data line without its trailing label column.
pub fn features(line: &str) -> &str {
    line.rsplit_once(',').map_or(line, |(f, _)| f)
}

/// Read a whole text file, naming it in the error.
pub fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `batch --data F --rows R --seed N --body F --csv F`: `R` seeded rows
/// of the input, once as the `predict-batch` request body (features only)
/// and once as a CSV the `adawave predict` command reads (with labels) —
/// the two halves of the batch parity gate.
pub fn write_batch(opts: &Opts) -> Result<(), String> {
    let text = read_text(opts.get("data")?)?;
    let lines = data_lines(&text);
    let mut rng = Rng::new(opts.num::<u64>("seed")? ^ 0xBA7C);
    let rows = rng.sample(lines.len(), opts.num("rows")?);
    let mut body = String::new();
    let mut csv = String::new();
    for &i in &rows {
        body.push_str(features(lines[i]));
        body.push('\n');
        csv.push_str(lines[i]);
        csv.push('\n');
    }
    for (key, content) in [("body", body), ("csv", csv)] {
        let path = opts.get(key)?;
        std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Parse the `--output csv` label format: a `label` header, one label per
/// line, noise as an empty line.
pub fn parse_labels(text: &str) -> Result<Vec<Option<usize>>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("label") {
        return Err("label file does not start with the 'label' header".to_string());
    }
    lines
        .map(|l| match l {
            "" => Ok(None),
            id => id
                .parse()
                .map(Some)
                .map_err(|_| format!("bad label '{id}'")),
        })
        .collect()
}

/// `ami --data F --labels F`: AMI of the labels against the ground truth
/// over the points that truly belong to a cluster (the paper's protocol).
pub fn score(opts: &Opts) -> Result<(), String> {
    let data = read_text(opts.get("data")?)?;
    let truth: Vec<usize> = data_lines(&data)
        .iter()
        .map(|l| l.rsplit(',').next().and_then(|v| v.parse().ok()))
        .collect::<Option<_>>()
        .ok_or("bad truth label in the data file")?;
    let predicted: Vec<usize> = parse_labels(&read_text(opts.get("labels")?)?)?
        .into_iter()
        .map(|l| l.unwrap_or(adawave_metrics::NOISE_LABEL))
        .collect();
    if truth.len() != predicted.len() {
        return Err(format!(
            "{} truth labels but {} predicted",
            truth.len(),
            predicted.len()
        ));
    }
    let ami = adawave_metrics::ami_ignoring_noise(&truth, &predicted, NOISE_TRUTH);
    println!("{ami}");
    Ok(())
}
