//! `perfbench`: the compiled half of the adawave end-to-end benchmark.
//!
//! `perfbench/run.py` drives the real `adawave` binary and the `adawave
//! serve` daemon; this tool does the parts that must not cost the driver
//! its own noise:
//!
//! * `gen`    — write a workload's input CSV from a seed;
//! * `batch`  — cut the fixed predict-batch request body from an input;
//! * `ami`    — score a label file against the input's ground truth;
//! * `host`   — print `std::thread::available_parallelism`;
//! * `calib`  — time the fixed host-speed probe;
//! * `load`   — the open-loop HTTP load generator for the serve phase;
//! * `trace`  — replay every CLI and serve path through the crates'
//!   public functions with spans around each layer call.
//!
//! Every subcommand reads and writes only the paths it is given.

mod calib;
mod gen;
mod load;
mod spans;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` options after the subcommand name.
pub struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, found '{key}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    /// A required option.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A required option parsed into `T`.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("usage: perfbench <command> ...")?;
    let opts = Opts::parse(rest)?;
    match command.as_str() {
        "gen" => gen::write_scene(&opts),
        "batch" => gen::write_batch(&opts),
        "ami" => gen::score(&opts),
        "host" => {
            let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
            println!("{cores}");
            Ok(())
        }
        "calib" => calib::run(&opts),
        "load" => load::run(&opts),
        "trace" => trace::run(&opts),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
