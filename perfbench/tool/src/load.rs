//! The open-loop load generator of the serve phase.
//!
//! One process, two keep-alive connections. Each step sends single-point
//! `predict` requests at a fixed rate and `predict-batch` requests at a
//! fixed low rate, on a fixed schedule merged by due time and dealt to the
//! two connections in turn. A request that comes due while its connection
//! is still busy waits for it — a batch ahead of single-point requests on
//! the same connection shows up as head-of-line blocking — and every
//! request is timed from when it was due, not from when it was sent, so a
//! stall is charged to every request queued behind it.
//!
//! Per step the generator reports single-point p50/p99, batch p50, its own
//! lateness (how far past the due time it woke up when it had been
//! idle), and the backlog (how late the last quarter of the step went
//! out), which grows without bound once the rate exceeds what the server
//! sustains.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::gen::{data_lines, features, parse_labels, read_text, Rng};
use crate::Opts;

/// One request the generator can send, with what a correct answer is.
pub struct Target {
    pub request: Vec<u8>,
    pub expect: Expect,
}

/// The correct answer to a request.
pub enum Expect {
    /// A single-point answer: this label (`None` = noise).
    Label(Option<usize>),
    /// A batch answer: exactly this body.
    Body(Vec<u8>),
}

fn http_post(path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// The label in a single-point answer body (`{"...","label":N|null}`).
fn answer_label(body: &[u8]) -> Option<Option<usize>> {
    let text = std::str::from_utf8(body).ok()?;
    let (_, rest) = text.split_once("\"label\":")?;
    match rest.trim_end().strip_suffix('}')? {
        "null" => Some(None),
        id => id.parse().ok().map(Some),
    }
}

impl Target {
    /// Whether a response answers this request correctly.
    pub fn accepts(&self, status: u16, body: &[u8]) -> bool {
        status == 200
            && match &self.expect {
                Expect::Label(label) => answer_label(body) == Some(*label),
                Expect::Body(expected) => body == expected.as_slice(),
            }
    }
}

/// Single-point targets: `count` seeded rows of the input, each expecting
/// the label `adawave predict` gave that row.
fn single_targets(opts: &Opts, model: &str) -> Result<Vec<Target>, String> {
    let text = read_text(opts.get("data")?)?;
    let lines = data_lines(&text);
    let labels = parse_labels(&read_text(opts.get("labels")?)?)?;
    if labels.len() != lines.len() {
        return Err(format!(
            "{} data rows but {} predicted labels",
            lines.len(),
            labels.len()
        ));
    }
    let mut rng = Rng::new(opts.num::<u64>("seed")? ^ 0x51_0E);
    let path = format!("/models/{model}/predict");
    Ok(rng
        .sample(lines.len(), opts.num("sample")?)
        .into_iter()
        .map(|i| {
            let point = features(lines[i]).replace(',', ", ");
            let body = format!("{{\"point\": [{point}]}}");
            Target {
                request: http_post(&path, "application/json", body.as_bytes()),
                expect: Expect::Label(labels[i]),
            }
        })
        .collect())
}

/// A keep-alive connection to the daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and read its response: `(status, body)`.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request of a step: due time after the step start, and which
/// target it sends (`None` = the batch).
type Slot = (Duration, Option<usize>);

/// What happened to one request, in microseconds after the step start.
struct Sample {
    batch: bool,
    due: f64,
    sent: f64,
    done: f64,
    /// The connection was idle before the due time, so `sent - due` is the
    /// generator's own lateness rather than queueing.
    waited: bool,
    ok: bool,
}

/// Drive one connection through its share of a step.
fn drive(
    conn: &mut Option<Conn>,
    addr: &str,
    start: Instant,
    slots: &[Slot],
    singles: &[Target],
    batch: &Target,
) -> Vec<Sample> {
    let micros = |t: Instant| t.duration_since(start).as_secs_f64() * 1e6;
    let mut samples = Vec::with_capacity(slots.len());
    for &(due, target) in slots {
        // Plain sleep, never a spin: the daemon under test shares the
        // cores. The sleep's overshoot is charged to the request (it is
        // timed from its due time) and reported as generator lateness.
        let due_at = start + due;
        let now = Instant::now();
        let waited = now < due_at;
        if waited {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        let target = target.map_or(batch, |i| &singles[i]);
        if conn.is_none() {
            *conn = Conn::open(addr).ok();
        }
        let ok = match conn.as_mut().map(|c| c.exchange(&target.request)) {
            Some(Ok((status, body))) => target.accepts(status, &body),
            Some(Err(_)) => {
                *conn = None; // reconnect for the next request
                false
            }
            None => false,
        };
        samples.push(Sample {
            batch: std::ptr::eq(target, batch),
            due: due.as_secs_f64() * 1e6,
            sent: micros(sent),
            done: micros(Instant::now()),
            waited,
            ok,
        });
    }
    samples
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One step of the plan: single-point rate, duration and batch rate.
struct Step {
    name: String,
    rate: f64,
    seconds: f64,
    batch_rate: f64,
}

/// Run one step over both connections and print its summary line.
/// Returns whether the step met the latency limit without a growing
/// backlog.
fn run_step(
    step: &Step,
    conns: &mut [Option<Conn>],
    addr: &str,
    singles: &[Target],
    batch: &Target,
    limit_us: f64,
) -> bool {
    let mut slots: Vec<Slot> = (0..(step.rate * step.seconds) as usize)
        .map(|k| {
            (
                Duration::from_secs_f64(k as f64 / step.rate),
                Some(k % singles.len()),
            )
        })
        .collect();
    let batches = (step.batch_rate * step.seconds) as usize;
    slots.extend((0..batches).map(|j| {
        (
            Duration::from_secs_f64((j as f64 + 0.5) / step.batch_rate),
            None,
        )
    }));
    slots.sort_by_key(|&(due, _)| due);
    let mut lanes: Vec<Vec<Slot>> = vec![Vec::new(); conns.len()];
    for (i, slot) in slots.into_iter().enumerate() {
        lanes[i % conns.len()].push(slot);
    }

    let start = Instant::now() + Duration::from_millis(20);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&lanes)
            .map(|(conn, lane)| scope.spawn(move || drive(conn, addr, start, lane, singles, batch)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });

    let (batch_samples, mut single_samples): (Vec<&Sample>, Vec<&Sample>) =
        samples.iter().partition(|s| s.batch);
    single_samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    let failed = samples.iter().filter(|s| !s.ok).count();
    let latency = sorted(single_samples.iter().map(|s| s.done - s.due).collect());
    let late = sorted(
        samples
            .iter()
            .filter(|s| s.waited)
            .map(|s| s.sent - s.due)
            .collect(),
    );
    let tail = &single_samples[single_samples.len() * 3 / 4..];
    let backlog = percentile(&sorted(tail.iter().map(|s| s.sent - s.due).collect()), 0.5);
    let batch_ms = sorted(
        batch_samples
            .iter()
            .map(|s| (s.done - s.due) / 1e3)
            .collect(),
    );
    // Completions per second of each request kind, over the time to the
    // last completion of that kind.
    let rate = |kind: &[&Sample]| {
        let span_s = kind.iter().map(|s| s.done).fold(0.0, f64::max) / 1e6;
        kind.len() as f64 / span_s.max(1e-9)
    };
    let achieved = rate(&single_samples);
    let (p50, p99) = (percentile(&latency, 0.5), percentile(&latency, 0.99));
    let pass = failed == 0 && p99 < limit_us && backlog < limit_us;
    println!(
        "step name={} rate={} singles={} batches={} failed={failed} p50_us={p50} p99_us={p99} \
         late_p99_us={} backlog_us={backlog} batch_p50_ms={} achieved_rps={achieved} \
         batch_rps={} pass={}",
        step.name,
        step.rate,
        single_samples.len(),
        batch_samples.len(),
        percentile(&late, 0.99),
        percentile(&batch_ms, 0.5),
        rate(&batch_samples),
        u8::from(pass),
    );
    pass
}

/// Write the exact request bytes the generator sends, for later steps and
/// the traced replay: per request a `single <len> <label|->` or
/// `batch <len> -` line, then the bytes and a newline.
fn write_record(path: &str, singles: &[Target], batch: &Target) -> Result<(), String> {
    let mut out = Vec::new();
    for target in singles.iter().chain(std::iter::once(batch)) {
        let (kind, label) = match &target.expect {
            Expect::Label(Some(l)) => ("single", l.to_string()),
            Expect::Label(None) => ("single", "-".to_string()),
            Expect::Body(_) => ("batch", "-".to_string()),
        };
        out.extend_from_slice(format!("{kind} {} {label}\n", target.request.len()).as_bytes());
        out.extend_from_slice(&target.request);
        out.push(b'\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Read a record written by [`write_record`]: the single-point targets
/// and the batch target. The batch's expected body is not recorded, so it
/// is given here.
pub fn read_record(path: &str, batch_expect: Vec<u8>) -> Result<(Vec<Target>, Target), String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut singles, mut batch) = (Vec::new(), None);
    let mut at = 0;
    while at < raw.len() {
        let end = at
            + raw[at..]
                .iter()
                .position(|&b| b == b'\n')
                .ok_or("bad record")?;
        let head = std::str::from_utf8(&raw[at..end]).map_err(|_| "bad record header")?;
        let fields: Vec<&str> = head.split(' ').collect();
        let [kind, len, label] = fields[..] else {
            return Err(format!("bad record header '{head}'"));
        };
        let len: usize = len
            .parse()
            .map_err(|_| format!("bad record length '{len}'"))?;
        let request = raw
            .get(end + 1..end + 1 + len)
            .ok_or("truncated record")?
            .to_vec();
        at = end + 2 + len;
        match (kind, label) {
            ("batch", _) => {
                let expect = Expect::Body(batch_expect.clone());
                batch = Some(Target { request, expect });
            }
            (_, "-") => singles.push(Target {
                request,
                expect: Expect::Label(None),
            }),
            (_, l) => {
                let label = l.parse().map_err(|_| format!("bad record label '{l}'"))?;
                singles.push(Target {
                    request,
                    expect: Expect::Label(Some(label)),
                });
            }
        }
    }
    Ok((singles, batch.ok_or("the record holds no batch request")?))
}

/// `load --addr A --model M --connections 1|2 --batch-expect F --batch-rate R --limit-us L
///  (--data F --labels F --sample K --seed N --batch-body F --record F
///   | --targets F) --steps name:rate:seconds,...
///  [--ladder rate,rate,... --ladder-seconds S]`
///
/// Builds the targets from the input and the `predict` labels and records
/// them (`--record`), or reads a record (`--targets`). Runs the named
/// steps in order, then climbs the ladder until the first rung that
/// misses the latency limit or builds a backlog.
pub fn run(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr")?;
    let batch_expect = std::fs::read(opts.get("batch-expect")?).map_err(|e| e.to_string())?;
    let (singles, batch) = match opts.get("targets") {
        Ok(record) => read_record(record, batch_expect)?,
        Err(_) => {
            let model = opts.get("model")?;
            let singles = single_targets(opts, model)?;
            let body = std::fs::read(opts.get("batch-body")?).map_err(|e| e.to_string())?;
            let batch = Target {
                request: http_post(&format!("/models/{model}/predict-batch"), "text/csv", &body),
                expect: Expect::Body(batch_expect),
            };
            write_record(opts.get("record")?, &singles, &batch)?;
            (singles, batch)
        }
    };
    if singles.is_empty() {
        return Err("no single-point targets".to_string());
    }
    let batch_rate: f64 = opts.num("batch-rate")?;
    let limit_us: f64 = opts.num("limit-us")?;

    let mut steps = Vec::new();
    for spec in opts.get("steps")?.split(',').filter(|s| !s.is_empty()) {
        let parts: Vec<&str> = spec.split(':').collect();
        let (name, rate, seconds, batches) = match parts[..] {
            [name, rate, seconds] => (name, rate, seconds, None),
            [name, rate, seconds, batches] => (name, rate, seconds, Some(batches)),
            _ => {
                return Err(format!(
                    "bad step '{spec}' (want name:rate:seconds[:batch_rate])"
                ))
            }
        };
        let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad step '{spec}'"));
        steps.push(Step {
            name: name.to_string(),
            rate: num(rate)?,
            seconds: num(seconds)?,
            batch_rate: batches.map_or(Ok(batch_rate), num)?,
        });
    }
    let connections: usize = opts.num("connections")?;
    if !(1..=2).contains(&connections) {
        return Err("--connections must be 1 or 2".to_string());
    }
    let mut conns: Vec<Option<Conn>> = (0..connections).map(|_| Conn::open(addr).ok()).collect();
    for step in &steps {
        run_step(step, &mut conns, addr, &singles, &batch, limit_us);
    }
    if let Ok(ladder) = opts.get("ladder") {
        let seconds: f64 = opts.num("ladder-seconds")?;
        for rate in ladder.split(',') {
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("bad ladder rate '{rate}'"))?;
            let step = Step {
                name: "ladder".to_string(),
                rate,
                seconds,
                batch_rate,
            };
            if !run_step(&step, &mut conns, addr, &singles, &batch, limit_us) {
                break;
            }
        }
    }
    Ok(())
}
