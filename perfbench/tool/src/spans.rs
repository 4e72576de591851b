//! In-memory span recording for the traced replay.
//!
//! A span is one call into a layer: name, start, end, the span that was
//! open when it started (its parent) and the id of the command or request
//! it belongs to. Spans stay in memory while the replay runs and are
//! written out once at the end. A layer's self time is its span's
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Records spans when `on`; when off, [`span`](Tracer::span) only runs its
/// closure — the untraced baseline the overhead is measured against.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        let (spans, open) = (Vec::new(), Vec::new());
        Tracer {
            on,
            origin,
            spans,
            open,
        }
    }

    /// Run `f` inside a span named `name` for command/request `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Self time of every span (duration minus its children's).
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.end - span.start;
            }
        }
        own
    }

    /// Per root span name (`cmd.*`, `serve.*`): for each layer, the median
    /// over the root's instances of the layer's summed self time inside
    /// that instance. The root's own self time is listed under its name.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, BTreeMap<&'static str, f64>> {
        let own = self.self_times();
        let mut root = vec![0usize; self.spans.len()];
        let mut instances: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        // root name -> layer -> root instance -> summed self time
        let mut sums: BTreeMap<&'static str, BTreeMap<&'static str, BTreeMap<usize, f64>>> =
            BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            root[i] = span.parent.map_or(i, |p| root[p]);
            if root[i] == i {
                instances.entry(span.name).or_default().push(i);
            }
            let layers = sums.entry(self.spans[root[i]].name).or_default();
            *layers
                .entry(span.name)
                .or_default()
                .entry(root[i])
                .or_default() += own[i];
        }
        let mut out = BTreeMap::new();
        for (root_name, layers) in sums {
            let roots = &instances[root_name];
            let medians = layers
                .into_iter()
                .map(|(layer, per_root)| {
                    let values = roots
                        .iter()
                        .map(|r| per_root.get(r).copied().unwrap_or(0.0));
                    (layer, median(values.collect()))
                })
                .collect();
            out.insert(root_name, medians);
        }
        out
    }

    /// Median duration of the root spans named `name`.
    pub fn root_duration(&self, name: &str) -> f64 {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name);
        median(roots.map(|s| s.end - s.start).collect())
    }

    /// Write every span as a tab-separated line: index, name, id, parent
    /// index (`-` for a root), start and end in seconds since the origin,
    /// and self time.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_s\tend_s\tself_s")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let (name, id, start, end) = (s.name, s.id, s.start, s.end);
            writeln!(
                out,
                "{i}\t{name}\t{id}\t{parent}\t{start:.9}\t{end:.9}\t{:.9}",
                own[i]
            )?;
        }
        out.flush()
    }
}

/// Median of a sample (0 when empty).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
