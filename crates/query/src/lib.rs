//! # kalstream-query
//!
//! Continuous queries over precision-bounded streams.
//!
//! The suppression protocol guarantees each stream's served value is within
//! its bound `δ` of the observation. This crate turns that per-stream
//! contract into *query-level* guarantees:
//!
//! * [`PointQuery`] — "the current value of stream S" → `value ± δ`.
//! * [`AggregateQuery`] — AVG / SUM / MIN / MAX over a set of streams with a
//!   user-specified answer bound; interval arithmetic derives the answer's
//!   guarantee from the member bounds, and [`split_budget`] decides how the
//!   aggregate's error budget is divided across member streams (uniformly,
//!   or optimally against measured message-rate curves — experiment F9's
//!   comparison).
//! * [`window`] — sliding-window aggregates over served values, with the
//!   bound propagated through the window (monotonic-deque MIN/MAX, running
//!   AVG, COUNT-above as a guaranteed interval).
//! * [`parse_query`] — the textual form applications register queries in
//!   (`"AVG(s1, s2) WITHIN 0.25"`).
//! * [`QueryGraph`] — the standing-query engine, and the only one: raw
//!   aliases, aggregates whose outputs are first-class derived streams,
//!   and alert / tumbling-pane / sliding-window sinks in one DAG
//!   (cycles rejected at registration with [`QueryError::Cycle`]). Each
//!   tick it evaluates topologically, verifies every answer against ground
//!   truth, and propagates every contract *down* to per-stream deltas —
//!   statically, or with punctuation feedback from downstream operators
//!   relaxing upstream suppression — and every value node serves a
//!   calibrated [`DistributionalAnswer`] next to its worst-case δ bound.
//! * [`QueryRegistry`] — the flat reference: point and aggregate queries
//!   answered from the latest [`StreamView`] snapshots, and each stream's
//!   *effective* required bound (the tightest implied by any query on it,
//!   split uniformly or against measured demand curves). The graph's
//!   static propagation is property-tested against it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
mod eval;
mod graph;
mod parse;
mod registry;
mod spec;
pub mod window;

pub use budget::{split_budget, split_budget_uniform, split_budget_weighted};
pub use eval::{answer_aggregate, answer_point, evaluate_threshold, AlertState, Answer};
pub use graph::{z_quantile, DistributionalAnswer, QueryGraph};
pub use parse::{parse_query, ParsedQuery};
pub use registry::{QueryRegistry, StreamView};
pub use spec::{AggKind, AggregateQuery, PointQuery, QueryError, StreamId};
pub use window::{WindowAnswer, WindowSpec};
