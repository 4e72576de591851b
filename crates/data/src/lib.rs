//! # adawave-data
//!
//! Dataset substrate for the AdaWave reproduction.
//!
//! The paper evaluates on (a) a synthetic running example with five
//! irregular clusters buried in heavy uniform noise (Fig. 1/2), (b) a
//! parameterized synthetic benchmark whose noise percentage is swept from
//! 20% to 90% (Fig. 7/8), (c) a runtime-scaling family (Fig. 10), and (d)
//! nine UCI datasets (Table I) plus the Roadmap case study (Fig. 9). The
//! UCI repository is not reachable in this offline environment, so this
//! crate generates seeded *surrogates* with the same size, dimensionality
//! and class structure, the properties a grid method's cost and cluster
//! recovery depend on (see [`uci`]).
//!
//! Everything is deterministic given a `u64` seed: the random number
//! generator is an in-crate xoshiro256++ with a splitmix64 seeder, and
//! normal deviates come from the Box–Muller transform, so no external
//! numeric crate is required.
//!
//! ```
//! use adawave_data::synthetic::running_example;
//!
//! let ds = running_example(42);
//! assert_eq!(ds.dims(), 2);
//! assert!(ds.noise_fraction() > 0.4);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod dataset;
pub mod normalize;
pub mod rng;
pub mod scenes;
pub mod shapes;
pub mod synthetic;
pub mod uci;

pub use dataset::Dataset;
pub use normalize::{min_max_normalize, z_score_normalize};
pub use rng::Rng;
