//! # sharp-lll
//!
//! A complete Rust reproduction of **"A Sharp Threshold Phenomenon for the
//! Distributed Complexity of the Lovász Local Lemma"** (Brandt, Maus,
//! Uitto — PODC 2019).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`numeric`] — exact big-integer / rational arithmetic and the
//!   [`numeric::Num`] backend abstraction.
//! * [`graphs`] — graphs, rank-≤3 hypergraphs and workload generators.
//! * [`local`] — a synchronous LOCAL-model message-passing simulator.
//! * [`coloring`] — distributed symmetry breaking (Linial, block color
//!   reduction, distance-2 and edge coloring).
//! * [`core`] — the paper's contribution: LLL instances, the exact
//!   probability engine, representable triples (`S_rep`), and the
//!   deterministic sequential + distributed fixers for `r = 2` and `r = 3`
//!   under the sharp criterion `p < 2^-d`.
//! * [`mt`] — Moser–Tardos resampling baselines.
//! * [`obs`] — the deterministic flight recorder: typed events, the
//!   zero-overhead [`obs::Recorder`] abstraction, JSONL streams with run
//!   provenance, and schema validation.
//! * [`apps`] — applications: sinkless orientation, rank-3 hypergraph
//!   orientation, weak splitting, bounded-intersection SAT.
//!
//! The README follows below as a guided tour (its Rust blocks compile
//! as doctests); `EXPERIMENTS.md` is the experiment-by-experiment
//! reproduction record.
//!
//! # Quickstart
//!
//! Three bad events on a triangle of 4-valued variables; an event occurs
//! iff both of its variables take a specific joint value, so
//! `p = 1/16 < 2^-d = 1/4` — strictly below the sharp threshold, and the
//! deterministic fixer is guaranteed to find an assignment avoiding all
//! bad events (Theorem 1.3):
//!
//! ```
//! use sharp_lll::core::{Fixer3, InstanceBuilder};
//!
//! let mut b = InstanceBuilder::<f64>::new(3);
//! b.add_uniform_variable(&[0, 1], 4); // variable 0: 4-valued, affects events 0 and 1
//! let y = b.add_uniform_variable(&[1, 2], 4);
//! let z = b.add_uniform_variable(&[0, 2], 4);
//! // Bad tuples in support order: event 0's support is variables 0 and 2.
//! b.set_event_bad_tuples(0, [[0, 0]]);
//! b.set_event_bad_tuples(1, [[1, 1]]);
//! b.set_event_predicate(2, move |vals| vals[y] == 2 && vals[z] == 2); // or a predicate
//! let instance = b.build()?;
//!
//! let report = Fixer3::new(&instance)?.run_default()?;
//! assert!(report.is_success());
//! assert!(instance.no_event_occurs(report.assignment())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]

pub use lll_apps as apps;
pub use lll_coloring as coloring;
pub use lll_core as core;
pub use lll_graphs as graphs;
pub use lll_local as local;
pub use lll_mt as mt;
pub use lll_numeric as numeric;
pub use lll_obs as obs;
