//! # adawave-bench
//!
//! Experiment harness for the AdaWave reproduction: a uniform way to run
//! every algorithm on every dataset of the paper, plus one experiment
//! function per table and figure of the evaluation section. The
//! `experiments` binary prints the same rows/series the paper reports,
//! runtime figures (`experiments fig10`) included.
//!
//! The seven `*_bench` binaries (`kernel`, `layout`, `parallel`,
//! `predict`, `serve`, `shard`, `stream`) measure the hot kernels and
//! serving paths behind in-process parity assertions. They share the
//! [`harness`]: one `--smoke` switch, one workload, one best-of timer,
//! and one report that prints a table and writes `BENCH_<name>.json`
//! in a single schema.
//!
//! ```
//! use adawave_bench::report::format_table;
//!
//! let table = format_table(
//!     &["algorithm", "AMI"],
//!     &[vec!["adawave".to_string(), "0.76".to_string()]],
//! );
//! assert!(table.contains("adawave"));
//! ```
//!
//! ```no_run
//! use adawave_bench::experiments;
//!
//! // Regenerate Fig. 8 (AMI vs noise percentage) at a reduced scale.
//! let rows = experiments::fig8_noise_sweep(600, &[20.0, 50.0, 80.0], 42);
//! experiments::print_fig8(&rows);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithms;
pub mod experiments;
pub mod harness;
pub mod report;

pub use algorithms::{run_algorithm, AlgoOutcome, Algorithm};
